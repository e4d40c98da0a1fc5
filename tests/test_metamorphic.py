"""Metamorphic relations: the code's symmetries act on the list exactly.

The list of a word y is {f : deg f <= k, agreement(encode(f), y) >= t}, with
t fixed by the parameters, so
* linearity: list(y + encode(c)) = list(y) + c, as encode is F_q-linear;
* scaling: list(a y) = a list(y) for a in F_q*;
* the one-symbol cyclic shift: when n = q - 1, encode(f(gamma^m X)) is
  encode(f) shifted left by one symbol, so the shifted word's list is
  {f(gamma^m X) : f in list(y)};
and the same holds for list recovery, with each relation applied to every
tuple of every set, where list recovery with l = 1 is list decoding.  Each
transformed word gives a different Q, R and lift, so a decoder that drops or
adds a candidate on one of them breaks a relation, also where oracle_decode's
q^(k+1) <= 2^20 cap leaves no brute-force list to compare with.
"""

import functools
import random

import pytest

from foldedrs import FRSParams, RecoverySets, UniPoly, encode, list_decode, list_recover
from foldedrs.decoder import _threshold_plan
from foldedrs.harness import pipeline_threshold

# decode-interp's code, past the brute-force cap, and recover-l2's, whose
# t = 2 of N = 6 lets three codewords share one word
CODES = [FRSParams(q=101, m=5, k=8, s=1, r=3), FRSParams(q=31, m=5, k=2, s=2, r=3)]
RELATIONS = ["linearity", "scaling", "shift"]


def _message(p: FRSParams, rng: random.Random) -> UniPoly:
    return UniPoly.from_ints(p.field, [rng.randrange(p.q) for _ in range(p.k + 1)])


def _key(p: FRSParams, f: UniPoly) -> tuple[int, ...]:
    return f.int_coeffs(pad_to=p.k + 1)


def _add(p: FRSParams, u, v) -> tuple[int, ...]:
    return tuple((a + b) % p.q for a, b in zip(u, v))


def _relation(p: FRSParams, name: str, rng: random.Random):
    """(map of the sets at every position, map of a listed message's coefficients)
    for a random codeword c = encode(g), a random a in F_q*, or the shift."""
    g = _message(p, rng)
    c = encode(p, g)
    a = rng.randrange(1, p.q)
    gm = pow(p.gamma.value, p.m, p.q)  # f(X) -> f(gamma^m X) scales f_i by gm^i
    return {
        "linearity": (
            lambda sets: [{_add(p, sym, c[j]) for sym in S} for j, S in enumerate(sets)],
            lambda f: _add(p, f, _key(p, g)),
        ),
        "scaling": (
            lambda sets: [{tuple(a * v % p.q for v in sym) for sym in S} for S in sets],
            lambda f: tuple(a * v % p.q for v in f),
        ),
        "shift": (
            lambda sets: list(sets[1:]) + [sets[0]],
            lambda f: tuple(v * pow(gm, i, p.q) % p.q for i, v in enumerate(f)),
        ),
    }[name]


@functools.lru_cache(maxsize=None)
def _words(p: FRSParams) -> tuple:
    """(word, planted messages), three words each for one planted message up to
    N // t of them: each agrees with the word on t symbols of its own, the
    other symbols are random."""
    rng = random.Random(p.q)
    t = pipeline_threshold(p)
    out = []
    for count in list(range(1, p.N // t + 1)) * 3:
        msgs = [_message(p, rng) for _ in range(count)]
        word = [tuple(rng.randrange(p.q) for _ in range(p.m)) for _ in range(p.N)]
        positions = rng.sample(range(p.N), count * t)
        for i, f in enumerate(msgs):
            cw = encode(p, f)
            for j in positions[i * t : (i + 1) * t]:
                word[j] = cw[j]
        out.append((tuple(word), msgs))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _decoded(p: FRSParams, word) -> frozenset:
    return frozenset(_key(p, f) for f in list_decode(p, word).messages)


def _recovered(p: FRSParams, sets, l: int) -> frozenset:
    return frozenset(_key(p, f) for f in list_recover(p, RecoverySets.from_iterables(sets, l)).messages)


@pytest.mark.parametrize("relation", RELATIONS)
@pytest.mark.parametrize("p", CODES, ids=["decode-interp", "recover-l2"])
def test_list_decode_follows_the_codes_symmetries(p, relation):
    assert p.n == p.q - 1  # the shift maps the code to itself
    rng = random.Random(relation)
    for word, planted in _words(p):
        base = _decoded(p, word)
        assert {_key(p, f) for f in planted} <= base
        move, image = _relation(p, relation, rng)
        moved = tuple(sym for (sym,) in move([{sym} for sym in word]))
        assert _decoded(p, moved) == {image(f) for f in base}


@pytest.mark.parametrize("relation", RELATIONS)
def test_list_recover_follows_the_codes_symmetries(relation):
    # recover-l2's instance: two planted codewords share every set, and N - t
    # sets hold two junk tuples instead
    p, l = CODES[1], 2
    t = _threshold_plan(p, l)[2]
    rng = random.Random(relation)
    for _ in range(3):
        msgs = [_message(p, rng) for _ in range(l)]
        sets = [set(syms) for syms in zip(*(encode(p, f) for f in msgs))]
        for j in rng.sample(range(p.N), p.N - t):
            sets[j] = {tuple(rng.randrange(p.q) for _ in range(p.m)) for _ in range(l)}
        base = _recovered(p, sets, l)
        assert {_key(p, f) for f in msgs} <= base
        move, image = _relation(p, relation, rng)
        assert _recovered(p, move(sets), l) == {image(f) for f in base}


@pytest.mark.parametrize("p", CODES, ids=["decode-interp", "recover-l2"])
def test_list_recover_with_l_1_is_list_decode(p):
    for word, _ in _words(p):
        assert list_recover(p, RecoverySets.from_iterables([{sym} for sym in word], 1)) == list_decode(p, word)

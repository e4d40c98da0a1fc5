import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs.frs import FRSParams
from foldedrs.galois import ExtField, PrimeField, standard_extension
from foldedrs.poly import (
    FrobeniusReducer,
    MultiPoly,
    UniPoly,
    _ctx_for,
    _edf_roots,
    _yp_gcd,
    _yp_monomial,
    _yp_mul,
    compose_message,
)
from foldedrs.rootfind import (
    CandidateOverflowError,
    candidates_from_Q,
    exhaustive_candidates,
    low_degree_vanishing_coeffs,
    strip_E_power,
)

P5 = FRSParams(q=5, m=2, k=1, s=2, r=1)
EXT5 = standard_extension(5)
E5 = EXT5.modulus  # X^4 - 2 over F_5


def _E_times_y1():
    # E(X) * Y1 as a MultiPoly over F_5
    terms = {}
    for i, c in enumerate(E5.int_coeffs()):
        if c:
            terms[(i, 1, 0)] = c
    return MultiPoly(P5.field, s=2, k=1, terms=terms)


def test_strip_examples():
    Q = _E_times_y1()
    Q0, b = strip_E_power(Q, E5)
    assert b == 1
    assert Q0.terms == {(0, 1, 0): 1}

    Q2 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1, (0, 0, 1): -1})
    Q0, b = strip_E_power(Q2, E5)
    assert (Q0, b) == (Q2, 0)

    # E(X)^2 as a pure X polynomial
    esq = (E5 * E5).int_coeffs()
    Q3 = MultiPoly(P5.field, s=2, k=1, terms={(i, 0, 0): c for i, c in enumerate(esq) if c})
    Q0, b = strip_E_power(Q3, E5)
    assert b == 2
    assert Q0.terms == {(0, 0, 0): 1}


def test_strip_rejects_zero():
    with pytest.raises(ValueError):
        strip_E_power(MultiPoly(P5.field, s=2, k=1, terms={}), E5)


def test_candidates_examples():
    # Q0 = Y2 - 2 Y1: R(Y) = Y^5 - 2Y splits into Y and the scaled monomials
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    cands = candidates_from_Q(Q0, P5, EXT5, seed=0)
    assert {f.int_coeffs(pad_to=2) for f in cands} == {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4)
    }

    Q1 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1})
    assert [f.int_coeffs(pad_to=2) for f in candidates_from_Q(Q1, P5, EXT5)] == [(0, 0)]

    Q2 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1, (1, 0, 0): -1})
    assert [f.int_coeffs(pad_to=2) for f in candidates_from_Q(Q2, P5, EXT5)] == [(0, 1)]


def test_candidates_completeness_planted_factor():
    # Q0 = (Y1 - f(X)) * (Y1 - g(X)) expanded; both planted messages are found
    q = 7
    params = FRSParams(q=q, m=2, k=1, s=1, r=1)
    ext = standard_extension(q)
    f_coeffs, g_coeffs = [3, 2], [5, 6]
    # (Y - f)(Y - g) = Y^2 - (f+g) Y + f g
    fg = [
        (f_coeffs[0] * g_coeffs[0]) % q,
        (f_coeffs[0] * g_coeffs[1] + f_coeffs[1] * g_coeffs[0]) % q,
        (f_coeffs[1] * g_coeffs[1]) % q,
    ]
    terms = {(0, 2): 1}
    for i, c in enumerate([(f_coeffs[0] + g_coeffs[0]) % q, (f_coeffs[1] + g_coeffs[1]) % q]):
        terms[(i, 1)] = -c % q
    for i, c in enumerate(fg):
        terms[(i, 0)] = c
    Q0 = MultiPoly(params.field, s=1, k=1, terms=terms)
    cands = candidates_from_Q(Q0, params, ext, seed=4)
    got = {f.int_coeffs(pad_to=2) for f in cands}
    assert (3, 2) in got and (5, 6) in got


def test_candidates_soundness_and_oracle_equality():
    rng = random.Random(11)
    for q in [5, 7, 13]:
        params = FRSParams(q=q, m=2, k=1, s=2, r=1)
        ext = standard_extension(q)
        trials = 0
        while trials < 15:
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = (rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 2))
                terms[exps] = rng.randint(0, q - 1)
            Q = MultiPoly(params.field, s=2, k=1, terms=terms)
            if Q.is_zero:
                continue
            Q0, _ = strip_E_power(Q, ext.modulus)
            if Q0.y_total_degree() < 0:
                continue  # pure X polynomial: no candidates by definition
            cands = candidates_from_Q(Q0, params, ext, seed=trials)
            for f in cands:
                msg = list(f.int_coeffs(pad_to=2))
                assert len(compose_message(Q0, msg, ext.gamma.value)) == 0
            oracle = exhaustive_candidates(Q0, params)
            assert set(cands) == set(oracle)
            trials += 1


def test_candidates_reject_foreign_extension():
    # Q0 = Y2 - 3 Y1 over F_7 (gamma = 3) is solved by every message (0, c);
    # another gamma or q would silently answer a different problem
    params = FRSParams(q=7, m=2, k=1, s=2, r=1)
    Q0 = MultiPoly(params.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -3})
    cands = candidates_from_Q(Q0, params, standard_extension(7))
    assert {f.int_coeffs(pad_to=2) for f in cands} == {(0, c) for c in range(7)}
    F7 = PrimeField(7)
    for ext in (ExtField(F7, F7.element(5)), standard_extension(11)):
        with pytest.raises(ValueError):
            candidates_from_Q(Q0, params, ext)


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([5, 7, 13]),
    k=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_low_degree_gcd_is_split_and_squarefree(q, k, seed):
    # g = gcd(R, L mod R) for the low-degree vanishing polynomial L divides
    # the field equation (so it splits) and is squarefree: equal-degree
    # splitting returns deg g distinct roots, all of representative degree <= k
    rng = random.Random(seed)
    ctx = _ctx_for(standard_extension(q))
    planted = set()
    R = _yp_monomial(ctx, 0)
    for _ in range(rng.randint(0, 3)):
        root = [rng.randrange(q) for _ in range(k + 1)] + [0] * (ctx.dim - k - 1)
        planted.add(tuple(root))
        linear = np.array([[(-c) % q for c in root], [1] + [0] * (ctx.dim - 1)])
        R = _yp_mul(ctx, R, linear)
    noise = np.array([[rng.randrange(q) for _ in range(ctx.dim)] for _ in range(rng.randint(1, 4))])
    noise[-1, 0] = rng.randrange(1, q)
    R = _yp_mul(ctx, R, noise)
    if R.shape[0] < 2:
        return
    reducer = FrobeniusReducer(ctx, R)
    L = low_degree_vanishing_coeffs(q, ctx.gamma, k)
    g = _yp_gcd(ctx, reducer.R, reducer.linearized_residue(L))
    if g.shape[0] >= 2:
        field_equation = [q - 1] + [0] * (ctx.dim - 1) + [1]
        residue = FrobeniusReducer(ctx, g).linearized_residue(field_equation)
        assert np.array_equal(_yp_gcd(ctx, g, residue), g)
    roots = {tuple(r.tolist()) for r in _edf_roots(ctx, g, random.Random(seed))}
    assert len(roots) == g.shape[0] - 1
    assert planted <= roots
    assert all(not any(r[k + 1 :]) for r in roots)


def test_candidates_output_cap():
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    with pytest.raises(CandidateOverflowError):
        candidates_from_Q(Q0, P5, EXT5, cap=2)


def test_candidates_size_bounded_by_substituted_degree():
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    cands = candidates_from_Q(Q0, P5, EXT5)
    # deg R <= q^(s-1) * (weighted degree / k)
    assert len(cands) <= 5 ** (2 - 1) * max(Q0.weighted_degree(), 1)


def test_low_degree_vanishing_poly_kills_exactly_low_degrees():
    q = 7
    ext = standard_extension(q)
    gamma = ext.gamma.value
    for k in [1, 2]:
        a = low_degree_vanishing_coeffs(q, gamma, k)
        # evaluate sum a_i Gamma^(q^i) via repeated frobenius
        def L(elem):
            acc = ext.zero()
            cur = elem
            for ai in a:
                acc = acc + cur * ext.element([ai])
                cur = cur.frobenius()
            return acc

        rng = random.Random(k)
        for _ in range(30):
            deg = rng.randint(0, ext.dim - 1)
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            elem = ext.element(coeffs)
            if elem.rep_degree <= k:
                assert not L(elem)
            else:
                assert L(elem)


def test_exhaustive_candidates_budget():
    big = FRSParams(q=31, m=2, k=4, s=1, r=1)
    Q0 = MultiPoly(big.field, s=1, k=4, terms={(0, 1): 1})
    with pytest.raises(ValueError):
        exhaustive_candidates(Q0, big)

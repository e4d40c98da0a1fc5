import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs import poly
from foldedrs.galois import (
    ParameterError,
    PrimeField,
    _ExtCtx,
    _sc_inv,
    _sc_matrix,
    find_primitive_element,
    standard_extension,
)
from foldedrs.poly import (
    FrobeniusReducer,
    Monomial,
    MultiPoly,
    UniPoly,
    _compositions,
    _fft_round,
    _fmod,
    _roots_arr,
    _uni_array,
    _yp_add,
    _yp_divide,
    _yp_divmod,
    _yp_gcd,
    _yp_mod,
    _yp_monic,
    _yp_monomial,
    _yp_mul,
    _yp_trim,
    compose_message,
    count_weighted_monomials,
    enumerate_weighted_monomials,
    evaluate,
    frobenius_pow_mod,
    hasse_coefficient,
    roots_in_field,
    scale_compose,
    trivariate_monomial_count,
)
from foldedrs.rootfind import low_degree_vanishing_coeffs
from test_galois import _pext_euclid_inverse, _ppow_mod, _ptrim, _reference_zeros

F5 = PrimeField(5)
F7 = PrimeField(7)


# ---------------------------------------------------------------------------
# evaluation / substitution
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    f = UniPoly.from_ints(F5, [1, 1])  # X + 1
    assert evaluate(f, F5.element(2)) == F5.element(3)
    assert evaluate(UniPoly.zero(F5), F5.element(4)) == F5.zero()
    g = UniPoly.from_ints(F7, [0, 0, 0, 1])  # X^3
    assert evaluate(g, F7.element(3)) == F7.element(6)


def test_scale_compose_examples():
    f = UniPoly.from_ints(F5, [1, 0, 1])  # X^2 + 1
    assert scale_compose(f, F5.element(2)) == UniPoly.from_ints(F5, [1, 0, 4])
    c = UniPoly.from_ints(F5, [3])
    assert scale_compose(c, F5.element(2)) == c
    g = UniPoly.from_ints(F7, [0, 1, 1])  # X + X^2
    assert scale_compose(g, F7.element(3)) == UniPoly.from_ints(F7, [0, 3, 2])


def test_frobenius_pow_mod_examples():
    E = standard_extension(5).modulus  # X^4 - 2
    x = UniPoly.x(F5)
    assert frobenius_pow_mod(x, 1, E) == UniPoly.from_ints(F5, [0, 2])
    one = UniPoly.one(F5)
    assert frobenius_pow_mod(one, 3, E) == one
    x2 = UniPoly.from_ints(F5, [0, 0, 1])
    assert frobenius_pow_mod(x2, 1, E) == UniPoly.from_ints(F5, [0, 0, 4])


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([5, 7, 13]), data=st.data())
def test_frobenius_identity_random(q, data):
    ext = standard_extension(q)
    E = ext.modulus
    field = ext.base
    coeffs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=1, max_size=q - 1)
    )
    f = UniPoly.from_ints(field, coeffs)
    assert frobenius_pow_mod(f, 1, E) == scale_compose(f, ext.gamma)


def test_frobenius_pow_mod_rejects_constant_modulus():
    with pytest.raises(ValueError):
        frobenius_pow_mod(UniPoly.x(F5), 1, UniPoly.from_ints(F5, [1]))


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([5, 7, 13, 31]), data=st.data())
def test_frobenius_pow_mod_matches_list_reference(q, data):
    # any modulus, not only X^(q-1) - gamma: the power is computed, not read
    # off the gamma-scaling identity
    field = PrimeField(q)
    deg = data.draw(st.integers(min_value=1, max_value=q))
    E = data.draw(st.lists(st.integers(0, q - 1), min_size=deg, max_size=deg))
    E.append(data.draw(st.integers(1, q - 1)))
    f = data.draw(st.lists(st.integers(0, q - 1), max_size=2 * q))
    j = data.draw(st.integers(min_value=0, max_value=2))
    got = frobenius_pow_mod(UniPoly.from_ints(field, f), j, UniPoly.from_ints(field, E))
    assert got == UniPoly.from_ints(field, _ppow_mod(f, q**j, E, q))


def test_frobenius_pow_mod_refuses_inexact_products():
    field = PrimeField(65537)
    E = UniPoly.from_ints(field, [3] + [0] * 3099 + [1])
    with pytest.raises(ParameterError):
        frobenius_pow_mod(UniPoly.x(field), 1, E)


# ---------------------------------------------------------------------------
# monomial enumeration and counting
# ---------------------------------------------------------------------------


def test_enumerate_examples():
    mons = enumerate_weighted_monomials(1, 1, 1)
    assert [m.exponents for m in mons] == [(0, 0), (0, 1), (1, 0)]
    assert len(enumerate_weighted_monomials(2, 3, 2)) == 8
    assert len(enumerate_weighted_monomials(2, 17, 2)) == 330
    assert trivariate_monomial_count(2, 17) == 330


def test_enumerate_is_sorted_and_deterministic():
    a = enumerate_weighted_monomials(3, 11, 2)
    b = enumerate_weighted_monomials(3, 11, 2)
    assert a == b
    keys = [(m.weighted_degree(3), m.exponents) for m in a]
    assert keys == sorted(keys)


def _ref_enumerate_weighted_monomials(k: int, D: int, s: int) -> list[Monomial]:
    """Every monomial as an object, then a Python-keyed sort into graded lex order."""
    out = []
    for jsum in range(D // k + 1):
        for jvec in _compositions(jsum, s):
            for i in range(D - k * jsum + 1):
                out.append(Monomial((i,) + jvec))
    out.sort(key=lambda mon: (mon.weighted_degree(k), mon.exponents))
    return out


def test_enumerate_matches_sorted_reference():
    for k in range(1, 5):
        for D in range(26):
            for s in (1, 2, 3):
                mons = enumerate_weighted_monomials(k, D, s)
                assert mons == _ref_enumerate_weighted_monomials(k, D, s)
                assert all(type(e) is int for e in mons[-1].exponents)


def test_enumerate_is_a_read_only_sequence():
    mons = enumerate_weighted_monomials(2, 7, 2)
    listed = list(mons)
    assert [mons[i] for i in range(-len(mons), len(mons))] == listed + listed
    assert mons[2:5] == listed[2:5] and mons[::-1] == listed[::-1]
    assert mons != listed[:-1] and mons != listed[::-1] and mons != tuple(listed)
    assert mons != enumerate_weighted_monomials(2, 7, 3)
    with pytest.raises(TypeError):
        mons[0] = listed[1]
    with pytest.raises(IndexError):
        mons[len(mons)]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=1, max_value=10), D=st.integers(min_value=0, max_value=60))
def test_count_matches_closed_form_s2(k, D):
    assert count_weighted_monomials(k, D, 2) == trivariate_monomial_count(k, D)
    assert len(enumerate_weighted_monomials(k, D, 2)) == count_weighted_monomials(k, D, 2)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    D=st.integers(min_value=1, max_value=40),
    s=st.integers(min_value=1, max_value=3),
)
def test_count_volume_lower_bound(k, D, s):
    count = count_weighted_monomials(k, D, s)
    assert count >= D ** (s + 1) / (math.factorial(s + 1) * k**s)


# ---------------------------------------------------------------------------
# Hasse shift coefficients
# ---------------------------------------------------------------------------


def test_hasse_examples():
    # Q = X^2 shifted by 1: (X+1)^2 = X^2 + 2X + 1, coefficient of X is 2
    Q = MultiPoly(F5, s=1, k=1, terms={(2, 0): 1})
    assert hasse_coefficient(Q, (1, 0), Monomial((1, 0))) == F5.element(2)
    # Q = Y1 Y2 at (., 1, 1): coefficient of Y1 in (Y1+1)(Y2+1) is 1
    Q2 = MultiPoly(F5, s=2, k=1, terms={(0, 1, 1): 1})
    assert hasse_coefficient(Q2, (3, 1, 1), Monomial((0, 1, 0))) == F5.one()
    # constant target = evaluation at the point
    Q3 = MultiPoly(F7, s=1, k=2, terms={(1, 1): 3, (0, 2): 2, (2, 0): 5})
    pt = (4, 6)
    shifted_const = hasse_coefficient(Q3, pt, Monomial((0, 0)))
    assert shifted_const == Q3.evaluate(pt)


def test_hasse_dimension_mismatch():
    Q = MultiPoly(F5, s=2, k=1, terms={(0, 1, 1): 1})
    with pytest.raises(ValueError):
        hasse_coefficient(Q, (1, 1), Monomial((0, 1, 0)))
    with pytest.raises(ValueError):
        hasse_coefficient(Q, (1, 1, 1), Monomial((0, 1)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_hasse_linearity(data):
    q = 7
    field = PrimeField(q)
    exps = st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    terms = st.dictionaries(exps, st.integers(min_value=0, max_value=q - 1), max_size=6)
    Q1 = MultiPoly(field, s=2, k=2, terms=data.draw(terms))
    Q2 = MultiPoly(field, s=2, k=2, terms=data.draw(terms))
    pt = tuple(data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(3))
    target = Monomial(data.draw(exps))
    lhs = hasse_coefficient(Q1 + Q2, pt, target)
    rhs = hasse_coefficient(Q1, pt, target) + hasse_coefficient(Q2, pt, target)
    assert lhs == rhs


def test_multipoly_validation():
    with pytest.raises(ValueError):
        MultiPoly(F5, s=2, k=1, terms={(0, 1): 1})  # wrong arity
    with pytest.raises(ValueError):
        MultiPoly(F5, s=0, k=1, terms={})
    Q = MultiPoly(F5, s=1, k=2, terms={(1, 2): 7})
    assert Q.terms == {(1, 2): 2}
    assert Q.weighted_degree() == 5


def test_multipoly_sum_needs_equal_k():
    # the weight k is part of the polynomial (__eq__ compares it), so a sum of
    # two weights has no k to take: a + b and b + a are refused alike
    a = MultiPoly(F5, s=2, k=1, terms={(0, 1, 0): 1})
    b = MultiPoly(F5, s=2, k=2, terms={(0, 0, 1): 1})
    for x, y in [(a, b), (b, a)]:
        with pytest.raises(ValueError, match="incompatible"):
            x + y
    assert (a + a).k == 1 and (b + b).k == 2

def _ref_terms(pairs, q):
    """The dict semantics of a terms argument: the last pair per exponent vector
    wins, coefficients are reduced mod q, and zeros are dropped."""
    return {e: c % q for e, c in dict(pairs).items() if c % q}


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from([3, 5, 13]),
    s=st.integers(1, 3),
    k=st.integers(1, 4),
    data=st.data(),
)
def test_multipoly_arrays_match_terms(q, s, k, data):
    # duplicates, zeros and negative coefficients: the arrays and the terms view
    # must hold the same polynomial as the dict semantics, in Python ints
    field = PrimeField(q)
    exps = st.tuples(*[st.integers(0, 5)] * (s + 1))
    pairs = data.draw(st.lists(st.tuples(exps, st.integers(-3 * q, 3 * q)), max_size=12))
    pairs += pairs[: data.draw(st.integers(0, len(pairs)))]  # repeated exponent vectors
    Q = MultiPoly(field, s, k, pairs)
    ref = _ref_terms(pairs, q)
    assert Q.terms == ref and Q.is_zero == (not ref)
    assert all(type(e) is int for key in Q.terms for e in key)
    assert all(type(c) is int for c in Q.terms.values())
    assert Q.M.dtype == Q.jvecs.dtype == np.int64 and Q.jvecs.shape == (Q.M.shape[1], s)
    assert [tuple(j) for j in Q.jvecs.tolist()] == sorted({e[1:] for e in ref})
    assert Q.M.any(axis=0).all() and (len(Q.M) == 0 or Q.M[-1].any())
    for (i, *j), c in ref.items():
        assert Q.M[i, Q.jvecs.tolist().index(j)] == c
    assert np.count_nonzero(Q.M) == len(ref)
    assert Q.weighted_degree() == max((e[0] + k * sum(e[1:]) for e in ref), default=-1)
    assert Q.y_total_degree() == max((sum(e[1:]) for e in ref), default=-1)
    same = MultiPoly(field, s, k, list(ref.items())[::-1])
    assert Q == same and not Q != same
    if ref:
        e, c = next(iter(ref.items()))
        other = MultiPoly(field, s, k, {**ref, e: c + 1})
        assert Q != other and not Q == other
        assert Q != MultiPoly(field, s, k + 1, ref)
    with pytest.raises(TypeError):
        Q.terms[(0,) * (s + 1)] = 1


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_roots_examples_prime():
    R = UniPoly.from_ints(F5, [-1, 0, 1])
    assert {e.value for e in roots_in_field(R)} == {1, 4}
    R2 = UniPoly.from_ints(F7, [1, 0, 1])
    assert roots_in_field(R2) == set()


def test_roots_repeated_root_over_extension():
    ext = standard_extension(5)
    G = ext.element([0, 1])
    Y = UniPoly(ext, [ext.zero(), ext.one()])
    R = (Y - UniPoly(ext, [G])) * (Y - UniPoly(ext, [G]))
    assert roots_in_field(R) == {G}


def test_roots_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots_in_field(UniPoly.zero(F5))


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([5, 7, 13, 101]), data=st.data())
def test_roots_reevaluate_and_match_exhaustive(q, data):
    field = PrimeField(q)
    coeffs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=2, max_size=8)
    )
    f = UniPoly.from_ints(field, coeffs)
    if f.is_zero:
        return
    roots = roots_in_field(f)
    for a in roots:
        assert f(a) == field.zero()
    brute = {field.element(x) for x in range(q) if f(field.element(x)) == field.zero()}
    assert roots == brute


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generic_gcd_path_matches_exhaustive_on_prime(data):
    # drive the gcd + extraction machinery directly on a small prime field,
    # where exhaustive evaluation provides an independent answer
    q = 13
    field = PrimeField(q)
    coeffs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=2, max_size=10)
    )
    f = UniPoly.from_ints(field, coeffs)
    if f.is_zero:
        return
    ctx = field.ctx
    arr = np.array([[c.value] for c in f.coeffs], dtype=np.int64)
    got = {int(r[0]) for r in _roots_arr(ctx, arr)}
    brute = {x for x in range(q) if f(field.element(x)) == field.zero()}
    assert got == brute


def test_roots_large_prime_field_uses_gcd_path():
    # a large prime field: drives the frobenius-powering route and the pass
    # over all q elements end to end
    field = PrimeField(65537)
    a, b = field.element(12345), field.element(54321)
    x = UniPoly.x(field)
    R = (x - UniPoly(field, [a])) * (x - UniPoly(field, [b])) * x
    assert roots_in_field(R) == {a, b, field.zero()}
    # -3 is a non-residue mod 65537 (3 is a non-residue, -1 is a residue)
    assert pow(-3 % 65537, (65537 - 1) // 2, 65537) == 65536
    no_roots = UniPoly.from_ints(field, [3, 0, 1])
    assert roots_in_field(no_roots) == set()


def test_roots_of_many_planted_roots_over_a_large_prime_field():
    # 200 planted roots times the root-free Y^2 + 3 (-3 is a non-residue mod
    # 65537): the roots are exactly the planted ones
    field = PrimeField(65537)
    rng = random.Random(65537)
    planted = {field.element(v) for v in rng.sample(range(65537), 200)}
    x = UniPoly.x(field)
    R = UniPoly.from_ints(field, [3, 0, 1])
    for a in planted:
        R = R * (x - UniPoly(field, [a]))
    assert roots_in_field(R) == planted


def test_prime_field_roots_in_bounded_memory():
    # the pass over q = 4194319 elements evaluates them in slices, each made
    # when it is evaluated; all of them at once take over 100 MB
    field = PrimeField(4194319)
    x = UniPoly.x(field)
    planted = {field.element(v) for v in (0, 12345, 4194318)}
    R = UniPoly.one(field)
    for a in planted:
        R = R * (x - UniPoly(field, [a]))
    tracemalloc.start()
    try:
        roots = roots_in_field(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert roots == planted
    assert peak < 64 * 2**20


def test_roots_over_extension_reevaluate():
    ext = standard_extension(7)
    # (Y - a)(Y - b) Y for distinct elements a, b
    a = ext.element([1, 2, 0, 3, 0, 0])
    b = ext.element([5, 0, 0, 0, 1, 6])
    Y = UniPoly(ext, [ext.zero(), ext.one()])
    R = (Y - UniPoly(ext, [a])) * (Y - UniPoly(ext, [b])) * Y
    roots = roots_in_field(R)
    assert roots == {a, b, ext.zero()}


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("trial", range(2))
def test_roots_over_extension_match_exhaustive(q, trial):
    # R = Y (Y - a)^2 prod (Y - b) times two root-free quadratics (their
    # discriminants are non-squares), against evaluation at every element of
    # the field (625 at q = 5, 117 649 at q = 7)
    ext = standard_extension(q)
    ctx = ext.ctx
    rng = random.Random(10 * q + trial)
    Y = UniPoly.x(ext)

    def draw():
        return ext.element([rng.randrange(q) for _ in range(ctx.dim)])

    planted = {draw() for _ in range(5)}
    R = Y * (Y - UniPoly(ext, [rng.choice(sorted(planted, key=repr))]))
    for a in planted:
        R = R * (Y - UniPoly(ext, [a]))
    noise_factors = 0
    while noise_factors < 2:
        b, c = draw(), draw()
        if (b * b - c * 4) ** ((ext.size - 1) // 2) != ext.one():
            R = R * UniPoly(ext, [c, b, ext.one()])
            noise_factors += 1
    field_elements = np.indices((q,) * ctx.dim).reshape(ctx.dim, -1).T
    expect = {ext.element(list(a)) for a in _reference_zeros(ctx, _uni_array(R), field_elements)}
    assert expect == planted | {ext.zero()}
    assert roots_in_field(R) == expect


def test_roots_over_extension_sharing_all_middle_coordinates():
    # the worst case of coordinate-by-coordinate extraction at q = 101 (dim 100):
    # 20 roots that share every coordinate but the first and the last, 4 values
    # of the first times 5 of the last, so coordinate 0 splits by quadratic
    # characters, coordinates 1..98 take one value on each class, and the last
    # separates each class's 5 roots in the pass over its q candidates
    ext = standard_extension(101)
    rng = random.Random(101)
    middle = [rng.randrange(101) for _ in range(ext.dim - 2)]
    planted = {
        ext.element([a] + middle + [b])
        for a in rng.sample(range(101), 4)
        for b in rng.sample(range(101), 5)
    }
    Y = UniPoly.x(ext)
    R = UniPoly.one(ext)
    for a in planted:
        R = R * (Y - UniPoly(ext, [a]))
    assert len(planted) == 20 and roots_in_field(R) == planted


# ---------------------------------------------------------------------------
# extension-field array machinery, cross-checked against generic powering
# ---------------------------------------------------------------------------


def _ctx_q(q):
    # F_2 is not a supported base field; its extension of degree q - 1 = 1 is
    # F_2 itself, which the array code still handles
    return _ExtCtx(2, 1, 1) if q == 2 else standard_extension(q).ctx


@pytest.mark.parametrize("q", [2, 3, 5, 13, 31, 101])
def test_sc_inv_matches_euclid(q):
    # the norm-based inverse must equal the extended Euclid kept as a
    # reference in test_galois, on random elements, scalars and X^(dim-1)
    rng = random.Random(q)
    ctx = _ctx_q(q)
    modulus = [(-ctx.gamma) % q] + [0] * (ctx.dim - 1) + [1]
    cases = [np.eye(1, ctx.dim, ctx.dim - 1, dtype=np.int64)[0]]
    cases.append(np.eye(1, ctx.dim, dtype=np.int64)[0] * rng.randrange(1, q))
    cases += [np.array([rng.randrange(q) for _ in range(ctx.dim)]) for _ in range(12)]
    for c in cases:
        if not c.any():
            continue
        expect = _pext_euclid_inverse(_ptrim(c.tolist()), modulus, q)
        assert _sc_inv(ctx, c).tolist() == expect + [0] * (ctx.dim - len(expect))
    with pytest.raises(ZeroDivisionError):
        _sc_inv(ctx, np.zeros(ctx.dim, dtype=np.int64))


def _ref_mul(ctx, a, b):
    """The schoolbook product: one matmul by a multiplication matrix per row of b."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, ctx.dim), dtype=np.int64)
    if b.shape[0] > a.shape[0]:
        a, b = b, a
    af = a.astype(np.float64)
    out = np.zeros((a.shape[0] + b.shape[0] - 1, ctx.dim), dtype=np.int64)
    for j in range(b.shape[0]):
        c = b[j]
        if c.any():
            out[j : j + a.shape[0]] += (af @ _sc_matrix(ctx, c).astype(np.float64)).astype(
                np.int64
            )
            out[j : j + a.shape[0]] %= ctx.q
    return _yp_trim(out)


def _ref_gcd(ctx, a, b):
    """The long-division Euclid: it inverts each non-monic divisor's lead."""
    a = _yp_trim(a % ctx.q)
    b = _yp_trim(b % ctx.q)
    while b.shape[0] > 0:
        a, b = b, _yp_mod(ctx, a, b)
    return _yp_monic(ctx, a)


def _ref_pow_mod(ctx, base, exp, mod):
    """base^exp mod `mod` by right-to-left square-and-multiply over the references."""
    result = _yp_monomial(ctx, 0)
    base = _yp_mod(ctx, base, mod)
    while exp:
        if exp & 1:
            result = _yp_mod(ctx, _ref_mul(ctx, result, base), mod)
        base = _yp_mod(ctx, _ref_mul(ctx, base, base), mod)
        exp >>= 1
    return result


def _ref_residue(ctx, R, a):
    """sum_i a_i Y^(q^i) mod R by reference q-th powers."""
    u = _yp_mod(ctx, _yp_monomial(ctx, 1), R)
    w = np.zeros((R.shape[0] - 1, ctx.dim), dtype=np.int64)
    for ai in a:
        w[: u.shape[0]] += ai * u
        u = _ref_pow_mod(ctx, u, ctx.q, R)
    return _yp_trim(w % ctx.q)


# prime fields: a small q, and a large one
_PRIME_CTXS = [_ExtCtx(13, 1, 0), _ExtCtx(65537, 1, 0)]
# the extensions the property tests cover: q - 1 = 46 = 2 * 23 and 82 = 2 * 41
# put a large prime factor into the length of the weighted transforms along X
_PROPERTY_CTXS = [standard_extension(q).ctx for q in (5, 7, 13, 31, 47, 83)] + _PRIME_CTXS
_KINDS = ["random", "monomial", "single-row", "top-row"]


def _shaped_yp(rng, ctx, rows, kind):
    """A polynomial of `rows` rows (one for "single-row") of one of the _KINDS."""
    arr = np.zeros((1 if kind == "single-row" else rows, ctx.dim), dtype=np.int64)
    if kind == "random":
        arr[:] = [[rng.randrange(ctx.q) for _ in range(ctx.dim)] for _ in range(rows)]
    elif kind == "monomial":
        arr[-1, rng.randrange(ctx.dim)] = rng.randrange(1, ctx.q)
    else:  # the top row only
        arr[-1] = [rng.randrange(ctx.q) for _ in range(ctx.dim)]
    arr[-1, 0] = arr[-1, 0] or 1
    return arr


@settings(max_examples=40, deadline=None)
@given(
    ctx=st.sampled_from(_PROPERTY_CTXS),
    kinds=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    rows=st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(2, 30)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fft_product_and_mulmod_match_schoolbook(ctx, kinds, rows, seed):
    rng = random.Random(seed)
    a = _shaped_yp(rng, ctx, rows[0], kinds[0])
    b = _shaped_yp(rng, ctx, rows[1], kinds[1])
    assert np.array_equal(_yp_mul(ctx, a, b), _ref_mul(ctx, a, b))
    assert np.array_equal(_yp_mul(ctx, a, a), _ref_mul(ctx, a, a))
    # R is not monic; the reducer works mod its monic normalization
    R = _shaped_yp(rng, ctx, rows[2], "random")
    R[-1, rng.randrange(ctx.dim)] = rng.randrange(1, ctx.q)
    reducer = FrobeniusReducer(ctx, R)
    ar, br = _yp_mod(ctx, a, reducer.R), _yp_mod(ctx, b, reducer.R)
    expect = _yp_mod(ctx, _ref_mul(ctx, ar, br), reducer.R)
    assert np.array_equal(reducer.mulmod(ar, br), expect)
    assert np.array_equal(reducer.pow_mod(a, 5), _ref_pow_mod(ctx, a, 5, R))


@settings(max_examples=40, deadline=None)
@given(
    ctx=st.sampled_from(_PROPERTY_CTXS),
    rows=st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(0, 6)),
    common=st.sampled_from(_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_gcd_matches_long_division_euclid(ctx, rows, common, seed):
    # inputs with a common factor h of each kind, and unrelated ones (rows[2] = 0)
    rng = random.Random(seed)
    a = _shaped_yp(rng, ctx, rows[0], "random")
    b = _shaped_yp(rng, ctx, rows[1], "random")
    if rows[2]:
        h = _shaped_yp(rng, ctx, rows[2], common)
        a, b = _ref_mul(ctx, a, h), _ref_mul(ctx, b, h)
    assert np.array_equal(_yp_gcd(ctx, a, b), _ref_gcd(ctx, a, b))
    assert np.array_equal(_yp_gcd(ctx, b, a), _ref_gcd(ctx, b, a))


# dim 1, 12, 30, 82 and 100
_DIVIDE_CTXS = [_PRIME_CTXS[0]] + [standard_extension(q).ctx for q in (13, 31, 83, 101)]


@settings(max_examples=40, deadline=None)
@given(
    ctx=st.sampled_from(_DIVIDE_CTXS),
    rows=st.tuples(st.integers(1, 30), st.integers(1, 12)),
    monic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_long_division_by_monic_and_non_monic_divisors(ctx, rows, monic, seed):
    # _yp_divmod is exact for every divisor; the gcd's mode of _yp_divide (a
    # non-monic b, no inverse) gives a unit multiple of the same remainder
    rng = random.Random(seed)
    a = _shaped_yp(rng, ctx, rows[0], "random")
    b = _shaped_yp(rng, ctx, rows[1], "random")
    if monic:
        b = _yp_monic(ctx, b)
    elif b[-1, 0] == 1 and not b[-1, 1:].any():
        b[-1, 0] = 2
    quo, rem = _yp_divmod(ctx, a, b)
    assert rem.shape[0] < b.shape[0]
    assert np.array_equal(_yp_add(ctx, _ref_mul(ctx, quo, b), rem), _yp_trim(a))
    unit = _yp_divide(ctx, a.astype(np.float64), b.astype(np.float64)).astype(np.int64)
    assert np.array_equal(_yp_monic(ctx, unit), _yp_monic(ctx, _yp_mod(ctx, a, b)))


# the largest prime q whose context is exact, (q-1)^2 + q <= 2^53, while
# 2 (q-1)^2 + q > 2^53 puts it past the fused Euclid step's bound
_PAST_FUSED_CTX = _ExtCtx(94906249, 1, 0)


def _euclid_pair(rng, ctx, g, quotient_degrees):
    """(a, b) whose Euclidean remainder sequence ends in g, with quotients of the
    given degrees (>= 1, the last quotient first): one quotient gives b = g."""
    a, b = g, np.zeros((0, ctx.dim), dtype=np.int64)
    for d in quotient_degrees:
        a, b = _yp_add(ctx, _ref_mul(ctx, _shaped_yp(rng, ctx, d + 1, "random"), a), b), a
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    ctx=st.sampled_from(_PROPERTY_CTXS),
    g_degree=st.sampled_from([0, 1, 2, 5]),
    quotient_degrees=st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_gcd_of_a_built_remainder_sequence(ctx, g_degree, quotient_degrees, seed):
    # degree-1 quotients are the fused normal steps; a quotient of degree >= 2
    # in the middle, gcd 1 (g_degree 0), deg g > 1 and g = b (one quotient)
    # take the row-by-row path between them
    rng = random.Random(seed)
    g = _shaped_yp(rng, ctx, g_degree + 1, "random")
    a, b = _euclid_pair(rng, ctx, g, quotient_degrees)
    expect = _yp_monic(ctx, g)
    assert np.array_equal(_ref_gcd(ctx, a, b), expect)
    assert np.array_equal(_yp_gcd(ctx, a, b), expect)
    assert np.array_equal(_yp_gcd(ctx, b, a), expect)


def test_gcd_past_the_fused_bound_reduces_every_quotient_row():
    # a fused step could reach 2 (q-1)^2 > 2^53 here and round; every step
    # takes the row-by-row path, whose rows stay within (q-1)^2
    ctx = _PAST_FUSED_CTX
    assert 2 * (ctx.q - 1) ** 2 + ctx.q > 2**53
    for seed in range(20):
        rng = random.Random(seed)
        g = _shaped_yp(rng, ctx, 3, "random")
        a, b = _euclid_pair(rng, ctx, g, [1, 1, 1, 2, 1, 1, 1, 1])
        assert np.array_equal(_yp_gcd(ctx, a, b), _yp_monic(ctx, g))
        assert np.array_equal(_ref_gcd(ctx, a, b), _yp_monic(ctx, g))


# F_q[X]/(X^2 + 1) at q = 30000023 = 3 mod 4: gamma = -1 is a non-square, and
# the gamma-scaling of _sc_frobenius is then the q-th power (X^q = -X), which
# _sc_inv needs; gamma^2 (q-1)^2 > 2^53, while 2 dim (q-1)^2 + q <= 2^53
_DIM2_CTX = _ExtCtx(30000023, 2, 30000022)


def test_gcd_fuses_normal_steps_whatever_gamma(monkeypatch):
    # every head is a sum of dim products of residues, so the fused bound has
    # no gamma in it: a remainder sequence of degree-1 quotients ending in a
    # g of degree 2 takes no row-by-row step
    ctx = _DIM2_CTX
    q = ctx.q
    assert 2 * ctx.dim * (q - 1) ** 2 + q <= 2**53 < ctx.gamma**2 * (q - 1) ** 2
    divide = poly._yp_divide
    for seed in range(10):
        rng = random.Random(seed)
        g = _shaped_yp(rng, ctx, 3, "random")
        a, b = _euclid_pair(rng, ctx, g, [1] * 12)
        expect = _ref_gcd(ctx, a, b)
        assert np.array_equal(expect, _yp_monic(ctx, g))
        calls = []
        monkeypatch.setattr(poly, "_yp_divide", lambda *args: calls.append(1) or divide(*args))
        got = _yp_gcd(ctx, a, b)
        monkeypatch.undo()
        assert not calls
        assert np.array_equal(got, expect)


# the float32 bound of _yp_gcd, 2 dim (q-1)^2 + q <= 2^24: over F_q the largest
# prime inside it and the next prime, and the extensions (dim = q - 1) of the
# largest prime inside it and of the next prime
_WIDTH_CASES = [
    (_ExtCtx(2897, 1, 0), np.float32),
    (_ExtCtx(2903, 1, 0), np.float64),
    (standard_extension(199).ctx, np.float32),
    (standard_extension(211).ctx, np.float64),
]


@pytest.mark.parametrize("ctx, width", _WIDTH_CASES)
def test_gcd_width_follows_the_float32_bound(monkeypatch, ctx, width):
    # normal steps run at the width the bound picks, non-normal ones by float64
    # long division; either way g is the long-division Euclid's.  Remainder
    # sequences with quotients of degree 1 to 3 and g of degree 0 and 2, and
    # all-(q-1) inputs, whose first products reach dim (q-1)^2
    q = ctx.q
    assert (2 * ctx.dim * (q - 1) ** 2 + q <= 2**24) == (width is np.float32)
    widths = set()
    fmod = poly._fmod
    monkeypatch.setattr(poly, "_fmod", lambda x, q: widths.add(x.dtype.type) or fmod(x, q))
    rng = random.Random(q)
    cases = []
    for g_rows in (1, 3):
        g = _shaped_yp(rng, ctx, g_rows, "random")
        cases.append(_euclid_pair(rng, ctx, g, [1, 1, 2, 1, 3, 1, 1]))
    full = np.full((7, ctx.dim), q - 1, dtype=np.int64)
    cases += [(full, full[:6]), (full, _shaped_yp(rng, ctx, 6, "random"))]
    for a, b in cases:
        widths.clear()
        got = _yp_gcd(ctx, a, b)
        assert (np.float32 in widths) == (width is np.float32)
        assert np.array_equal(got, _ref_gcd(ctx, a, b))


def test_fmod_is_exact_in_float32_within_its_bound():
    # |x| <= 2^24 - q in float32, the range the float32 Euclid leaves for it
    q = 2897
    edge = 2**24 - q
    x = np.array([-edge, -edge + 1, edge, edge - 1, -1, -q, q, 0], dtype=np.float32)
    x = np.concatenate((x, np.random.default_rng(q).integers(-edge, edge + 1, 10**5)))
    x = x.astype(np.float32)
    got = _fmod(x.copy(), q)
    assert got.dtype == np.float32
    assert got.astype(np.int64).tolist() == [int(v) % q for v in x.astype(np.int64)]


def _reference_table(reducer):
    """The schoolbook chain: row j is Y^q * (row j-1) reduced mod R by a full _yp_mod."""
    ctx = reducer.ctx
    lr = reducer.R.shape[0] - 1
    table = np.zeros((lr, lr, ctx.dim))
    cur = _yp_monomial(ctx, 0)
    table[0, :1] = cur
    for j in range(1, lr):
        shifted = np.zeros((cur.shape[0] + ctx.q, ctx.dim), dtype=np.int64)
        shifted[ctx.q :] = cur
        cur = _yp_mod(ctx, shifted, reducer.R)
        table[j, : cur.shape[0]] = cur
    return table


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 31, 101])
def test_frobenius_table_matches_schoolbook_chain(q):
    # the table of the Frobenius map mod R, row j = Y^(q j) mod R for j < deg R,
    # is the step of Y^j.  deg R on both sides of q: no row stays low when
    # q >= deg R, deg R = 1 is a one-row table and q = 2 has dim = 1; R is not
    # monic.  At q = 101, deg R 9 and 10 (decode-interp's shape); every step's
    # squarings reduce by Barrett once deg R - 1 quotient rows reach _BARRETT_ROWS
    rng = random.Random(41 + q)
    ctx = _ctx_q(q)
    degs = {9, 10} if q == 101 else {1, 2, q - 2, q - 1, q, q + 1, 3 * q} - {0}
    for deg in sorted(degs):
        R = np.array([[rng.randrange(q) for _ in range(ctx.dim)] for _ in range(deg + 1)])
        R[deg, rng.randrange(ctx.dim)] = rng.randrange(1, q)
        reducer = FrobeniusReducer(ctx, R)
        table = np.zeros((deg, deg, ctx.dim))
        for j in range(deg):
            row = reducer.step(_yp_monomial(ctx, j))
            table[j, : row.shape[0]] = row
        assert np.array_equal(table, _reference_table(reducer))
        assert (reducer._inv_hat is not None) == (deg - 1 >= poly._BARRETT_ROWS)


# the X-transform helpers at small dims, ladder dims, and on both sides of the
# crossover from the matrix product to pocketfft
_X_DIMS = sorted({1, 2, 6, 12, 30, 64, 100, poly._X_MATMUL_DIM - 1, poly._X_MATMUL_DIM + 1})


@pytest.mark.parametrize("dim", _X_DIMS)
def test_x_transform_matches_pocketfft_within_the_stated_bound(dim):
    # each frequency of the matrix path is within sqrt(2) (dim + 10) 2^-53 ||a w||_1
    # of the exact transform (``_check_fft_exact``) and pocketfft's within
    # kappa(dim) / 3 2^-53 sqrt(dim) ||a w||_2; above the crossover the helpers
    # are pocketfft's rfft and irfft, bit for bit
    ctx = _ExtCtx(65537, dim, 3)
    w = poly._weights(dim, 3)
    rng = np.random.default_rng(dim)
    a = np.vstack([rng.integers(0, ctx.q, (6, dim)), np.full((1, dim), ctx.q - 1)])
    got, ref = poly._x_forward(ctx, a), np.fft.rfft(a * w, axis=1)
    assert got.shape == ref.shape == (7, dim // 2 + 1)
    if dim > poly._X_MATMUL_DIM:
        assert np.array_equal(got, ref)
        assert np.array_equal(poly._x_inverse(ctx, ref), np.fft.irfft(ref, dim, axis=1) / w)
        assert poly._x_transform_error(dim) == poly._transform_error(dim)
        return
    x = a * w
    bound = math.sqrt(2) * (dim + 10) * np.abs(x).sum(axis=1)
    bound += poly._transform_error(dim) / 3 * math.sqrt(dim) * np.linalg.norm(x, axis=1)
    assert (np.abs(got - ref) <= bound[:, None] * 2.0**-53).all()
    assert poly._x_transform_error(dim) == (0 if dim == 1 else 3 * math.sqrt(2 * dim) * (dim + 10))
    if dim == 1:  # [1, 0] and its transpose: exact
        assert np.array_equal(got, a.astype(np.complex128))
    forward, inverse = poly._x_dft(dim, 3)
    for m in (forward, inverse):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 0


@pytest.mark.parametrize("dim", _X_DIMS)
def test_x_transform_round_trip_is_exact(dim):
    # integer residues through the forward and the inverse helper come back
    # within 1/4 of themselves, so rounding returns them exactly
    ctx = _ExtCtx(65537, dim, 3)
    rng = np.random.default_rng(100 + dim)
    a = np.vstack([rng.integers(0, ctx.q, (9, dim)), np.full((1, dim), ctx.q - 1)])
    a = np.vstack([a, np.eye(1, dim, dim - 1, dtype=np.int64)])
    back = poly._x_inverse(ctx, poly._x_forward(ctx, a))
    assert np.abs(back - a).max() <= 0.25
    assert np.array_equal(np.rint(back).astype(np.int64), a)


def _nudged_dft(which):
    """A stand-in for ``poly._x_dft`` whose forward (0) or inverse (1) matrix has its
    frequency-2 real entry at j = 3 (forward) or k = 3 (inverse) moved by 0.01."""
    clean = poly._x_dft

    def nudged(dim, gamma):
        mats = [m.copy() for m in clean(dim, gamma)]
        mats[which][(3, 4) if which == 0 else (4, 3)] += 0.01
        return tuple(mats)

    return nudged


@pytest.mark.parametrize("which", [0, 1])
def test_x_transform_fault_is_caught(monkeypatch, which):
    # a wrong entry in a cached matrix moves the product off the integers, and
    # the product refuses to round it
    ctx = standard_extension(13).ctx
    a = np.full((9, ctx.dim), ctx.q - 1, dtype=np.int64)
    n = poly._fft_len(17)
    square = _fft_round(ctx, poly._fft(ctx, a, n) ** 2, n, 17)
    assert np.array_equal(square, _ref_mul(ctx, a, a))
    monkeypatch.setattr(poly, "_x_dft", _nudged_dft(which))
    with pytest.raises(FloatingPointError):
        _fft_round(ctx, poly._fft(ctx, a, n) ** 2, n, 17)


def test_frobenius_reducer_step_matches_generic_power():
    # u -> u^q mod R by square-and-multiply over mulmod must agree with
    # reference powering for monomial, single-row, top-row-only and general
    # residues, general rows of one row up to deg R rows, all-(q-1) rows, whose
    # products are largest, Y and Y^q mod R; and so must the chained residue
    # sum a_i Y^(q^i) mod R
    for ctx in _PROPERTY_CTXS:
        q = ctx.q
        for deg in (1, 2, 5, 9):
            rng = random.Random(17 + q + 1000 * deg)
            reducer = FrobeniusReducer(ctx, _shaped_yp(rng, ctx, deg + 1, "random"))
            inputs = [_yp_mod(ctx, _shaped_yp(rng, ctx, rng.randint(1, deg), kind), reducer.R) for kind in _KINDS]
            inputs += [_shaped_yp(rng, ctx, rows, "random") for rows in sorted({1, max(deg // 2, 1), deg})]
            inputs += [np.full((rows, ctx.dim), q - 1, dtype=np.int64) for rows in (1, deg)]
            inputs += [_yp_monomial(ctx, 1), _ref_pow_mod(ctx, _yp_monomial(ctx, 1), q, reducer.R)]
            for u in inputs:
                assert np.array_equal(reducer.step(u), _ref_pow_mod(ctx, u, q, reducer.R))
            a = [rng.randrange(q) for _ in range(4)]
            assert np.array_equal(reducer.linearized_residue(a), _ref_residue(ctx, reducer.R, a))


@pytest.mark.parametrize("q, deg", [(101, 9), (101, 10), (13, 39), (31, 2)])
def test_fourier_domain_step_matches_reference_power(q, deg):
    # the step's products are taken on weighted X-transforms (the Fourier
    # domain): decode-interp's deg R 9 and 10 at dim 100, deg R 39 > q = 13,
    # and a deg-2 split at q = 31; u of one row up to deg R rows, and
    # all-(q-1) rows, whose products are largest
    rng = random.Random(1000 * q + deg)
    ctx = standard_extension(q).ctx
    reducer = FrobeniusReducer(ctx, _shaped_yp(rng, ctx, deg + 1, "random"))
    inputs = [_shaped_yp(rng, ctx, rows, "random") for rows in sorted({1, max(deg // 2, 1), deg})]
    inputs += [np.full((rows, ctx.dim), q - 1, dtype=np.int64) for rows in (1, deg)]
    for u in inputs:
        assert np.array_equal(reducer.step(u), _ref_pow_mod(ctx, u, q, reducer.R))
    # where the squarings reduce by Barrett, a fault in either stored transform
    # (the inverse's or R's) moves the products off the integers
    assert (reducer._inv_hat is not None) == (deg - 1 >= poly._BARRETT_ROWS)
    if reducer._inv_hat is not None:
        for name in ("_inv_hat", "_r_hat"):
            faulty = FrobeniusReducer(ctx, reducer.R)
            faulty.step(inputs[-1])
            getattr(faulty, name)[1, 0] += 0.4
            with pytest.raises(FloatingPointError):
                faulty.step(inputs[-1])


def test_frobenius_reducer_untabled_path_matches():
    # the reducer keeps no table of the Frobenius map: each step is
    # square-and-multiply, which must equal reference powering also on
    # single-row inputs: Y, Y^q mod R (one row when deg R > q) and a
    # top-row-only u, at deg R on both sides of q = 5 and 7
    rng = random.Random(23)
    for q, deg in [(5, 3), (5, 7), (5, 12), (7, 9)]:
        ctx = standard_extension(q).ctx
        reducer = FrobeniusReducer(ctx, _shaped_yp(rng, ctx, deg + 1, "random"))
        y_q = _yp_mod(ctx, _yp_monomial(ctx, q), reducer.R)
        assert (np.count_nonzero(y_q.any(axis=1)) == 1) == (deg > q)
        inputs = [
            _yp_mod(ctx, _shaped_yp(rng, ctx, rng.randint(1, 2 * deg), "random"), reducer.R),
            _yp_monomial(ctx, 1),
            y_q,
            _shaped_yp(rng, ctx, deg, "top-row"),
        ]
        for u in inputs:
            assert np.array_equal(reducer.step(u), _ref_pow_mod(ctx, u, q, reducer.R))
        assert not hasattr(reducer, "_table")


@pytest.mark.parametrize("ctx", [standard_extension(q).ctx for q in (5, 7, 13, 31)] + _PRIME_CTXS[1:])
@pytest.mark.parametrize("deg", [2, 3, 9, 10, 40])
def test_power_of_y_matches_generic_power(ctx, deg):
    # squaring up from Y^e0, e0 the longest binary prefix of e with
    # e0 <= 2 deg R - 2: e = q^i, and exponents whose prefix falls at
    # deg R - 1, deg R, 2 deg R - 2 and 2 deg R - 1 (followed by 0-3 bits);
    # R = Y^deg makes Y^e mod R vanish from e = deg R on
    rng = random.Random(ctx.q * 100 + deg)
    exps = [0, 1] + [ctx.q**i for i in range(1, 4)]
    for e0 in (deg - 1, deg, 2 * deg - 2, 2 * deg - 1):
        exps += [(e0 << b) + rng.randrange(1 << b) for b in range(4)]
    for R in (_shaped_yp(rng, ctx, deg + 1, "random"), _yp_monomial(ctx, deg)):
        reducer = FrobeniusReducer(ctx, R)
        y = _yp_monomial(ctx, 1)
        for e in exps:
            assert np.array_equal(reducer._power_of_y(e), _ref_pow_mod(ctx, y, e, reducer.R)), e


@settings(max_examples=30, deadline=None)
@given(ctx=st.sampled_from(_PROPERTY_CTXS), deg=st.integers(2, 130), seed=st.integers(0, 2**32 - 1))
def test_newton_inverse_of_reversed_modulus(ctx, deg, seed):
    # the half-length Newton iteration: rev(R) * inv = 1 mod Y^(deg R - 1)
    rng = random.Random(seed)
    R = _shaped_yp(rng, ctx, deg + 1, "random")
    R[-1] = np.eye(1, ctx.dim, dtype=np.int64)[0]
    reducer = FrobeniusReducer(ctx, R)
    reducer._setup_barrett()
    n = deg - 1
    inv = _fft_round(ctx, reducer._inv_hat, reducer._inv_len, n)
    prod = _ref_mul(ctx, R[::-1], inv)
    assert np.array_equal(_yp_trim(prod[:n]), _yp_monomial(ctx, 0))


@pytest.mark.parametrize(
    "deg, digest", [(125, "0a3c146847aa9bfb"), (189, "efdeaa2c7da79fe2"), (1922, "4dcdf838157304b3")]
)
def test_newton_inverse_matches_recorded_digests(deg, digest):
    # each Newton round's correction runs at the length of its e product, on the
    # same transform of inv; the inverse is bit for bit the one recorded when the
    # correction was a product of its own, at 2^ceil(log2(prec - 1)) rows
    ctx = standard_extension(31).ctx
    rng = random.Random(deg)
    R = np.array([[rng.randrange(31) for _ in range(ctx.dim)] for _ in range(deg + 1)], dtype=np.int64)
    R[-1] = np.eye(1, ctx.dim, dtype=np.int64)[0]
    reducer = FrobeniusReducer(ctx, R)
    reducer._setup_barrett()
    inv = _fft_round(ctx, reducer._inv_hat, reducer._inv_len, deg - 1)
    assert hashlib.sha256(inv.tobytes()).hexdigest()[:16] == digest


def test_linearized_residue_squares_up_from_y():
    # deg R 125 over F_31^30 with the k = 2 vanishing polynomial: Y^(q^i) for
    # i = 1, 2, 3 take 0, 2 and 7 squarings from Y, where q-th power steps
    # would take 24 mulmods and 3 steps
    ctx = standard_extension(31).ctx
    rng = random.Random(125)
    R = _shaped_yp(rng, ctx, 126, "random")
    L = low_degree_vanishing_coeffs(31, ctx.gamma, 2)
    reducer = FrobeniusReducer(ctx, R)
    calls = {"mulmod": 0, "step": 0}

    def counted(name):
        method = getattr(reducer, name)

        def wrapper(*args):
            calls[name] += 1
            return method(*args)

        return wrapper

    reducer.mulmod, reducer.step = counted("mulmod"), counted("step")
    got = reducer.linearized_residue(L)
    assert calls["mulmod"] <= 9 and calls["step"] == 0
    assert np.array_equal(got, _ref_residue(ctx, reducer.R, L))


# Barrett reduction's edges: deg R 8, the smallest with a quotient of
# _BARRETT_ROWS rows; 9, 65 and 129, where the quotient's product length is
# 2d - 2 and a d-row quotient wraps into row 0; and the deg R on both sides of
# 64 and 128, where the transform lengths double
_BARRETT_DEGS = [8, 9, 10, 63, 64, 65, 128, 129]


@settings(max_examples=40, deadline=None)
@given(
    ctx=st.sampled_from(_PROPERTY_CTXS),
    deg=st.sampled_from(_BARRETT_DEGS),
    kind=st.sampled_from(_KINDS + ["all q-1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduce_takes_a_square_times_y(ctx, deg, kind, seed):
    # a squaring shifted one row has up to 2d rows, a d-row quotient, and one
    # Barrett reduction takes it
    rng = random.Random(seed)
    reducer = FrobeniusReducer(ctx, _shaped_yp(rng, ctx, deg + 1, "random"))
    if kind == "all q-1":
        w = np.full((deg, ctx.dim), ctx.q - 1, dtype=np.int64)
    else:
        w = _shaped_yp(rng, ctx, deg, kind)
    a = np.concatenate((np.zeros((1, ctx.dim), dtype=np.int64), _yp_mul(ctx, w, w)))
    y = _yp_monomial(ctx, 1)
    expect = _yp_mod(ctx, _ref_mul(ctx, y, _ref_pow_mod(ctx, w, 2, reducer.R)), reducer.R)
    assert np.array_equal(reducer._reduce(a), expect)
    assert (reducer._inv_hat is not None) == (a.shape[0] == 2 * deg)


def _counted(calls, name, func):
    def wrapper(*args):
        calls[name] += 1
        return func(*args)

    return wrapper


@pytest.mark.parametrize("deg", _BARRETT_DEGS)
def test_start_powers_read_the_stored_inverse(monkeypatch, deg):
    # Y^e for d <= e < 2d, where ``_power_of_y`` starts: from _BARRETT_ROWS
    # quotient rows on, one Barrett reduction takes it, whose two products
    # (the quotient's with the stored inverse's transform, then the
    # remainder's) are its only ones, and no long division runs; the references
    # below call their own _yp_mod, not the counted one
    calls = {"_fft_round": 0, "_yp_mod": 0}
    for name in calls:
        monkeypatch.setattr(poly, name, _counted(calls, name, getattr(poly, name)))
    for ctx in _PROPERTY_CTXS:
        rng = random.Random(deg * ctx.q)
        reducer = FrobeniusReducer(ctx, _shaped_yp(rng, ctx, deg + 1, "random"))
        reducer._setup_barrett()
        expect = _ref_pow_mod(ctx, _yp_monomial(ctx, 1), deg, reducer.R)
        zero_row = np.zeros((1, ctx.dim), dtype=np.int64)
        for e in range(deg, 2 * deg):
            calls.update({"_fft_round": 0, "_yp_mod": 0})
            assert np.array_equal(reducer._reduce(_yp_monomial(ctx, e)), expect), e
            if e - deg + 1 >= poly._BARRETT_ROWS:
                assert calls == {"_fft_round": 2, "_yp_mod": 0}
            expect = _yp_mod(ctx, np.concatenate((zero_row, expect)), reducer.R)


def test_power_of_y_reduces_each_square_once(monkeypatch):
    # the deg R 125 chain of test_linearized_residue_squares_up_from_y: once
    # Barrett is set up, a squaring times Y (a 1-bit) is reduced once with the
    # squaring, by Barrett, so no long division runs (a shift reduced on its own
    # took one each, 7 in this chain)
    ctx = standard_extension(31).ctx
    rng = random.Random(125)
    R = _shaped_yp(rng, ctx, 126, "random")
    L = low_degree_vanishing_coeffs(31, ctx.gamma, 2)
    reducer = FrobeniusReducer(ctx, R)
    set_up = []  # whether Barrett was set up, at each long division
    mod = poly._yp_mod
    monkeypatch.setattr(
        poly, "_yp_mod", lambda *args: set_up.append(reducer._inv_hat is not None) or mod(*args)
    )
    got = reducer.linearized_residue(L)
    assert reducer._inv_hat is not None and set_up.count(True) == 0
    assert np.array_equal(got, _ref_residue(ctx, reducer.R, L))


def test_barrett_setup_refuses_before_newton(monkeypatch):
    # over F_65537 the inverse of a degree-3100 modulus has products that
    # would not be exact: the set-up refuses before any Newton product
    ctx = _PRIME_CTXS[1]
    R = _yp_monomial(ctx, 3100)
    R[0, 0] = 1
    reducer = FrobeniusReducer(ctx, R)
    products = []
    mul = poly._yp_mul
    monkeypatch.setattr(poly, "_yp_mul", lambda *args: products.append(1) or mul(*args))
    with pytest.raises(ParameterError):
        reducer._setup_barrett()
    assert products == []


def test_float64_paths_refuse_inexact_sizes():
    # with q - 1 = 2^20, a sum of 2^13 products of residues reaches 2^53
    q = 2**20 + 1
    _ExtCtx(q, 2**13 - 1, 3)
    with pytest.raises(ParameterError):
        _ExtCtx(q, 2**13, 3)
    # at dim 2^6 and gamma = 3 the FFT bound (``_check_fft_exact``) refuses even
    # a product of one-row residues, so a q-th power step of Y mod R is refused
    # at its first squaring, not when the reducer is built
    ctx = _ExtCtx(q, 2**6, 3)
    for deg in (2**7 - 1, 2**7):
        reducer = FrobeniusReducer(ctx, _yp_monomial(ctx, deg))
        with pytest.raises(ParameterError):
            reducer.step(_yp_monomial(ctx, 1))
    # long division leaves window values down to -dim (q-1)^2 for _fmod, which
    # is exact while |x| <= 2^53 - q: with dim = 3, q = 54794159 has
    # 3 (q-1)^2 < 2^53 < 3 (q-1)^2 + q, and q - 1 is the largest q that builds
    with pytest.raises(ParameterError):
        _ExtCtx(54794159, 3, 1)
    ctx = _ExtCtx(54794158, 3, 1)
    q = ctx.q
    x = np.array([-(2**53 - q), -(2**53 - q) + 1, 2**53 - q, -1, -q, 0], dtype=np.float64)
    assert _fmod(x.copy(), q).tolist() == [int(v) % q for v in x]
    # all-(q-1) rows under a monic divisor: the first quotient row's products
    # sum to 3 (q-1)^2; check a = quo * b + rem with Python integers
    a = np.full((9, 3), q - 1, dtype=np.int64)
    b = np.full((4, 3), q - 1, dtype=np.int64)
    b[-1] = [1, 0, 0]
    quo, rem = _yp_divmod(ctx, a, b)
    assert rem.shape[0] < b.shape[0]
    expect = _ring_poly_mul(ctx, quo, b)
    for j, row in enumerate(rem):
        expect[j] = [(x + int(y)) % q for x, y in zip(expect[j], row)]
    assert expect == a.tolist()


def test_fft_product_refuses_inexact_sizes():
    # with q - 1 = 2^20 and dim = 1 (weights exactly 1), two n-row products
    # reach the bound of _check_fft_exact, n * (q-1)^2 * (kappa(N) + 3) >= 2^51
    # with kappa(N) = 13 log2 N, first at n = 26 (N = 64); the largest accepted
    # product is exact
    ctx = _ExtCtx(2**20 + 1, 1, 3)
    a = np.full((25, 1), ctx.q - 1, dtype=np.int64)
    got = _yp_mul(ctx, a, a)
    assert got[:, 0].tolist() == [min(j + 1, 49 - j) % ctx.q for j in range(49)]
    b = np.full((26, 1), ctx.q - 1, dtype=np.int64)
    with pytest.raises(ParameterError):
        _yp_mul(ctx, b, b)
    # weighted, with q - 1 = 2^16, dim = 6 = 2 * 3 and gamma = 5:
    # 5^(2 * 5/6) n dim (q-1)^2 (kappa(N) + kappa_X(6) + 3) + (3 ln 5 + 9) top
    # reaches 2^51 first at n = 24 (N = 64), with the matrix path's
    # kappa_X(6) = 3 sqrt(12) (6 + 10); top = n (q-1)^2 (1 + 5 * 5)
    ctx = _ExtCtx(2**16 + 1, 6, 5)
    a = np.full((23, 6), ctx.q - 1, dtype=np.int64)
    assert _yp_mul(ctx, a, a).tolist() == _ring_poly_mul(ctx, a, a)
    b = np.full((24, 6), ctx.q - 1, dtype=np.int64)
    with pytest.raises(ParameterError):
        _yp_mul(ctx, b, b)


def test_prime_contexts_keep_their_refusals():
    # prime fields carry gamma = 0; their weights are exactly 1, and their
    # bounds are those of any other gamma at dim = 1: the FFT boundary above
    assert poly._weights(1, 0).tolist() == [1.0]
    for gamma in (0, 3):
        ctx = _ExtCtx(2**20 + 1, 1, gamma)
        _yp_mul(ctx, np.ones((25, 1), dtype=np.int64), np.ones((25, 1), dtype=np.int64))
        b = np.ones((26, 1), dtype=np.int64)
        with pytest.raises(ParameterError):
            _yp_mul(ctx, b, b)


def _ring_poly_mul(ctx, f, g):
    """f * g with Python integers, for rows over Z_q[X]/(X^dim - gamma)."""
    out = [[0] * ctx.dim for _ in range(len(f) + len(g) - 1)]
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            for u, x in enumerate(fi):
                for t, y in enumerate(gj):
                    scale = ctx.gamma if u + t >= ctx.dim else 1
                    out[i + j][(u + t) % ctx.dim] += scale * int(x) * int(y)
    return [[v % ctx.q for v in row] for row in out]


def test_frobenius_power_residue_fixes_field_elements():
    # Y^(q^dim) = Y on every field element, so the residue of the field power
    # minus Y must vanish at each root of R
    ext = standard_extension(5)
    ctx = ext.ctx
    a = ext.element([1, 2, 3, 4])
    b = ext.element([0, 2, 0, 1])
    Y = UniPoly(ext, [ext.zero(), ext.one()])
    R = (Y - UniPoly(ext, [a])) * (Y - UniPoly(ext, [b]))
    arr = np.array([list(c.coeffs) for c in R.coeffs], dtype=np.int64)
    reducer = FrobeniusReducer(ctx, arr)
    w = reducer.linearized_residue([0] * ctx.dim + [1])
    wp = UniPoly(ext, [ext.element(row.tolist()) for row in w])
    for elem in (a, b):
        assert wp(elem) == elem
    # the residue of the low-degree vanishing polynomial L vanishes exactly at
    # the roots of R whose representative has degree <= k
    k = 1
    low = [ext.element([3, 1]), ext.element([2])]
    for c in low:
        R = R * (Y - UniPoly(ext, [c]))
    arr = np.array([list(c.coeffs) for c in R.coeffs], dtype=np.int64)
    reducer = FrobeniusReducer(ctx, arr)
    w = reducer.linearized_residue(low_degree_vanishing_coeffs(5, ctx.gamma, k))
    wp = UniPoly(ext, [ext.element(row.tolist()) for row in w])
    for elem in low:
        assert wp(elem) == ext.zero()
    for elem in (a, b):
        assert wp(elem) != ext.zero()


# ---------------------------------------------------------------------------
# UniPoly arithmetic and compose_message
# ---------------------------------------------------------------------------


def test_unipoly_divmod_roundtrip():
    a = UniPoly.from_ints(F7, [1, 4, 0, 2, 6])
    b = UniPoly.from_ints(F7, [3, 0, 1])
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree


def _ref_compose_message(Q, msg_coeffs, gamma):
    """Q(X, f(X), f(gamma X), ...) term by term: one product of powers per term."""
    q = Q.field.q
    s = Q.s
    f = _yp_trim(np.asarray([int(c) % q for c in msg_coeffs], dtype=np.int64))
    shifted = []
    g = 1
    for _ in range(s):
        scale = np.array([pow(g, i, q) for i in range(len(f))], dtype=np.int64)
        shifted.append((f * scale) % q if len(f) else f)
        g = g * gamma % q
    max_j = [0] * s
    max_i = 0
    for exps in Q.terms:
        max_i = max(max_i, exps[0])
        for t in range(s):
            max_j[t] = max(max_j[t], exps[1 + t])

    def mul(a, b):
        if len(a) == 0 or len(b) == 0:
            return np.zeros(0, dtype=np.int64)
        return np.convolve(a, b) % q

    pows = []
    for t in range(s):
        pt = [np.ones(1, dtype=np.int64)]
        for _ in range(max_j[t]):
            pt.append(mul(pt[-1], shifted[t]))
        pows.append(pt)
    deg_f = len(f) - 1
    out_len = max_i + sum(mj * max(deg_f, 0) for mj in max_j) + 1
    acc = np.zeros(out_len, dtype=np.int64)
    for exps, c in Q.terms.items():
        term = np.array([c], dtype=np.int64)
        for t in range(s):
            if exps[1 + t]:
                term = mul(term, pows[t][exps[1 + t]])
        if len(term):
            acc[exps[0] : exps[0] + len(term)] += term
    return _yp_trim(acc % q)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([5, 13, 31, 101]),
    s=st.integers(1, 3),
    terms=st.integers(0, 40),
    zero_f=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compose_message_matches_term_by_term(q, s, terms, zero_f, seed):
    # grouping Q's terms by Y-exponent vector must not change the composition;
    # f = 0 leaves the terms free of Y
    rng = random.Random(seed)
    field = PrimeField(q)
    gamma = find_primitive_element(field).value
    k = rng.randint(1, 4)
    Q = MultiPoly(
        field,
        s,
        k,
        {
            (rng.randrange(12), *(rng.randrange(4) for _ in range(s))): rng.randrange(1, q)
            for _ in range(terms)
        },
    )
    msg = [0] * (k + 1) if zero_f else [rng.randrange(q) for _ in range(k + 1)]
    assert np.array_equal(compose_message(Q, msg, gamma), _ref_compose_message(Q, msg, gamma))


def test_compose_message_matches_pointwise():
    q = 13
    field = PrimeField(q)
    gamma = find_primitive_element(field).value
    Q = MultiPoly(field, s=2, k=2, terms={(1, 1, 0): 3, (0, 0, 2): 5, (2, 1, 1): 1})
    msg = [4, 9, 2]
    res = compose_message(Q, msg, gamma)
    # evaluate both sides at every field point
    f = UniPoly.from_ints(field, msg)
    for xv in range(q):
        x = field.element(xv)
        lhs = sum(
            (res[i] * pow(xv, i, q)) % q for i in range(len(res))
        ) % q if len(res) else 0
        y1 = f(x)
        y2 = f(field.element(xv * gamma % q))
        rhs = Q.evaluate((x, y1, y2))
        assert lhs == rhs.value


def test_hasse_coefficient_refuses_negative_target_exponents():
    # a negative b_t read the Pascal table from its end: F7(1) for (-1, 0)
    F = PrimeField(7)
    Q = MultiPoly(F, 1, 1, {(2, 1): 1, (0, 0): 3})
    for target in [(-1, 0), (0, -1)]:
        with pytest.raises(ValueError, match="negative target exponent"):
            hasse_coefficient(Q, (1, 1), target)


def test_count_weighted_monomials_refuses_k_or_s_below_1():
    # k = -1 counted 0 monomials, k = 0 raised ZeroDivisionError and s = 0
    # math.comb's error
    for k, s in [(-1, 2), (0, 2), (2, 0)]:
        with pytest.raises(ValueError, match="need k >= 1, s >= 1"):
            count_weighted_monomials(k, 5, s)


def test_trivariate_monomial_count_refuses_k_below_1_and_counts_0_below_degree_0():
    # k = 0 raised ZeroDivisionError and D = -5 math.comb's error
    with pytest.raises(ValueError, match="need k >= 1"):
        trivariate_monomial_count(0, 5)
    assert trivariate_monomial_count(2, -5) == 0 == count_weighted_monomials(2, -5, 2)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: frobenius_pow_mod(UniPoly.x(standard_extension(5)), 1, UniPoly.x(standard_extension(5))),
         TypeError, "frobenius powering is defined over prime fields"),
        (lambda: frobenius_pow_mod(UniPoly.x(PrimeField(5)), -1, UniPoly.x(PrimeField(5))),
         ValueError, "power index must be nonnegative"),
        (lambda: enumerate_weighted_monomials(0, 5, 2), ValueError, "need k >= 1, D >= 0, s >= 1"),
        (lambda: MultiPoly(PrimeField(5), 1, 1, {(0, -1): 1}), ValueError, "negative exponent"),
        (lambda: MultiPoly(PrimeField(5), 1, 1, {(0, 1): 1}).evaluate((1, 2, 3)), ValueError,
         "point has wrong dimension"),
    ],
)
def test_poly_refusals(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()

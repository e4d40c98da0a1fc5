import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs.galois import (
    PrimeField,
    _pext_euclid_inverse,
    _ptrim,
    find_primitive_element,
    standard_extension,
)
from foldedrs.poly import (
    FrobeniusReducer,
    Monomial,
    MultiPoly,
    ParameterError,
    UniPoly,
    _ctx_for,
    _ExtCtx,
    _half_field_power,
    _roots_arr,
    _sc_inv,
    _yp_mod,
    _yp_monic,
    _yp_monomial,
    _yp_pow_mod,
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
    assert roots_in_field(R, seed=2) == {G}


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
    # drive the gcd + splitting machinery directly on a small prime field,
    # where exhaustive evaluation provides an independent answer
    q = 13
    field = PrimeField(q)
    coeffs = data.draw(
        st.lists(st.integers(min_value=0, max_value=q - 1), min_size=2, max_size=10)
    )
    f = UniPoly.from_ints(field, coeffs)
    if f.is_zero:
        return
    ctx = _ctx_for(field)
    arr = np.array([[c.value] for c in f.coeffs], dtype=np.int64)
    got = {int(r[0]) for r in _roots_arr(ctx, arr, seed=5)}
    brute = {x for x in range(q) if f(field.element(x)) == field.zero()}
    assert got == brute


def test_roots_large_prime_field_uses_gcd_path():
    # a prime field too large for a Frobenius table sized by q: drives the
    # frobenius-powering + splitting route end to end on a prime field
    field = PrimeField(65537)
    a, b = field.element(12345), field.element(54321)
    x = UniPoly.x(field)
    R = (x - UniPoly(field, [a])) * (x - UniPoly(field, [b])) * x
    assert roots_in_field(R, seed=3) == {a, b, field.zero()}
    # -3 is a non-residue mod 65537 (3 is a non-residue, -1 is a residue)
    assert pow(-3 % 65537, (65537 - 1) // 2, 65537) == 65536
    no_roots = UniPoly.from_ints(field, [3, 0, 1])
    assert roots_in_field(no_roots, seed=3) == set()


def test_roots_over_extension_reevaluate():
    ext = standard_extension(7)
    # (Y - a)(Y - b) Y for distinct elements a, b
    a = ext.element([1, 2, 0, 3, 0, 0])
    b = ext.element([5, 0, 0, 0, 1, 6])
    Y = UniPoly(ext, [ext.zero(), ext.one()])
    R = (Y - UniPoly(ext, [a])) * (Y - UniPoly(ext, [b])) * Y
    roots = roots_in_field(R, seed=9)
    assert roots == {a, b, ext.zero()}


# ---------------------------------------------------------------------------
# extension-field array machinery, cross-checked against generic powering
# ---------------------------------------------------------------------------


def _random_yp(rng, ctx, max_deg):
    deg = rng.randint(1, max_deg)
    arr = np.zeros((deg + 1, ctx.dim), dtype=np.int64)
    for j in range(deg + 1):
        for t in range(ctx.dim):
            arr[j, t] = rng.randrange(ctx.q)
    arr[deg, rng.randrange(ctx.dim)] = rng.randrange(1, ctx.q)
    return _yp_trim(arr)


def _ctx_q(q):
    # F_2 is not a supported base field; its extension of degree q - 1 = 1 is
    # F_2 itself, which the array code still handles
    return _ExtCtx(2, 1, 1) if q == 2 else _ctx_for(standard_extension(q))


@pytest.mark.parametrize("q", [2, 3, 5, 13, 31, 101])
def test_sc_inv_matches_euclid(q):
    # the norm-based inverse must equal the extended Euclid of
    # ExtFieldElem.inverse, on random elements, scalars and X^(dim-1)
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


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 31])
def test_frobenius_table_matches_schoolbook_chain(q):
    # deg R on both sides of q: no row stays low when q >= deg R, deg R = 1 is
    # a one-row table and q = 2 has dim = 1; R is not monic
    rng = random.Random(41 + q)
    ctx = _ctx_q(q)
    for deg in sorted({1, 2, q - 2, q - 1, q, q + 1, 3 * q} - {0}):
        R = np.array([[rng.randrange(q) for _ in range(ctx.dim)] for _ in range(deg + 1)])
        R[deg, rng.randrange(ctx.dim)] = rng.randrange(1, q)
        reducer = FrobeniusReducer(ctx, R)
        reducer._build_table()
        assert reducer._table.dtype == np.float64
        assert reducer._table.shape == (deg, deg, ctx.dim)
        assert np.array_equal(reducer._table, _reference_table(reducer))


# prime fields (dim = 1): a small q, and one too large for a table sized by q
_PRIME_CTXS = [_ExtCtx(13, 1, 0), _ExtCtx(65537, 1, 0)]


def test_frobenius_reducer_step_matches_generic_power():
    # u -> u^q mod R via the reducer must agree with square-and-multiply,
    # for monomial and general inputs
    rng = random.Random(17)
    for ctx in [_ctx_for(standard_extension(q)) for q in [5, 7]] + _PRIME_CTXS:
        q = ctx.q
        for trial in range(8):
            R = _random_yp(rng, ctx, 9)
            if R.shape[0] < 3:
                continue
            reducer = FrobeniusReducer(ctx, R)
            for case in range(3):
                if case == 0:  # monomial input
                    u = np.zeros((R.shape[0] - 1, ctx.dim), dtype=np.int64)
                    u[-1, rng.randrange(ctx.dim)] = rng.randrange(1, q)
                else:
                    u = _yp_mod(ctx, _random_yp(rng, ctx, R.shape[0] + 2), reducer.R)
                    if u.shape[0] == 0:
                        continue
                expect = _yp_pow_mod(ctx, u, q, reducer.R)
                got = reducer.step(u)
                assert np.array_equal(got, expect)


def test_frobenius_reducer_untabled_path_matches():
    # the direct path (substitute Y -> Y^q, reduce once) runs above
    # _TABLE_LIMIT; both paths must equal generic powering, also on single-row
    # inputs: Y, Y^q mod R (one row when deg R > q) and a top-row-only u
    rng = random.Random(23)
    for q, deg in [(5, 3), (5, 7), (5, 12), (7, 9)]:
        ctx = _ctx_for(standard_extension(q))
        R = np.array([[rng.randrange(q) for _ in range(ctx.dim)] for _ in range(deg + 1)])
        R[deg, 0] = rng.randrange(1, q)
        tabled = FrobeniusReducer(ctx, R)
        untabled = FrobeniusReducer(ctx, R)
        untabled._TABLE_LIMIT = 0
        y_q = _yp_mod(ctx, _yp_monomial(ctx, q), tabled.R)
        assert (np.count_nonzero(y_q.any(axis=1)) == 1) == (deg > q)
        top = np.zeros((deg, ctx.dim), dtype=np.int64)
        top[-1] = [rng.randrange(q) for _ in range(ctx.dim)]
        top[-1, 0] = rng.randrange(1, q)
        inputs = [
            _yp_mod(ctx, _random_yp(rng, ctx, 2 * deg), tabled.R),
            _yp_monomial(ctx, 1),
            y_q,
            top,
        ]
        for u in inputs:
            expect = _yp_pow_mod(ctx, u, q, tabled.R)
            assert np.array_equal(tabled.step(u), expect)
            assert np.array_equal(untabled.step(u), expect)


def test_float64_paths_refuse_inexact_sizes():
    # with q - 1 = 2^20, a sum of 2^13 products of residues reaches 2^53
    q = 2**20 + 1
    _ExtCtx(q, 2**13 - 1, 3)
    with pytest.raises(ParameterError):
        _ExtCtx(q, 2**13, 3)
    # a Frobenius step sums deg R * dim products: 2^7 * 2^6 reaches the bound
    ctx = _ExtCtx(q, 2**6, 3)
    FrobeniusReducer(ctx, _yp_monomial(ctx, 2**7 - 1))
    with pytest.raises(ParameterError):
        FrobeniusReducer(ctx, _yp_monomial(ctx, 2**7))
    # building the table sums q * dim products per coefficient in the Fourier
    # domain: B * (13 log2 F + 2q + 3) must stay below 2^51 with
    # B = q * dim * (q-1)^2, and with dim = 2^6 (F = 2^7) q = 2037 reaches it
    ctx = _ExtCtx(2036, 2**6, 3)
    FrobeniusReducer(ctx, _yp_monomial(ctx, 1)).step(_yp_monomial(ctx, 0))
    ctx = _ExtCtx(2037, 2**6, 3)
    with pytest.raises(ParameterError):
        FrobeniusReducer(ctx, _yp_monomial(ctx, 1)).step(_yp_monomial(ctx, 0))


def test_half_field_power_matches_generic_power():
    # the norm-chain factorization of x^((|K|-1)/2) must equal plain
    # square-and-multiply with the full exponent
    rng = random.Random(31)
    for ctx in [_ctx_for(standard_extension(q)) for q in [5, 7]] + _PRIME_CTXS:
        half = (ctx.size - 1) // 2
        for trial in range(5):
            mod = _random_yp(rng, ctx, 6)
            if mod.shape[0] < 3:
                continue
            base = _random_yp(rng, ctx, mod.shape[0] - 2)
            expect = _yp_pow_mod(ctx, base, half, mod)
            got = _half_field_power(ctx, base, FrobeniusReducer(ctx, _yp_trim(mod)))
            # both are residues mod the monic normalization of mod
            m = _yp_monic(ctx, mod)
            assert np.array_equal(_yp_mod(ctx, got, m), _yp_mod(ctx, expect, m))


def test_frobenius_power_residue_fixes_field_elements():
    # Y^(q^dim) = Y on every field element, so the residue of the field power
    # minus Y must vanish at each root of R
    ext = standard_extension(5)
    ctx = _ctx_for(ext)
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

import functools
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs import decoder, poly, rootfind
from foldedrs.decoder import _threshold_plan, list_decode, list_recover
from foldedrs.frs import SHIFTED, STANDARD, FRSParams, RecoverySets, encode, interpolation_points
from foldedrs.galois import ParameterError, PrimeField, standard_extension
from foldedrs.harness import ChannelSpec, apply_channel, pipeline_threshold
from foldedrs.interp import InterpolationProblem, interpolate
from foldedrs.poly import (
    FrobeniusReducer,
    MultiPoly,
    UniPoly,
    _subspace_roots,
    _yp_gcd,
    _yp_monomial,
    _yp_mul,
    compose_message,
)
from foldedrs.rootfind import (
    CandidateOverflowError,
    LiftReport,
    candidates_from_Q,
    exhaustive_candidates,
    lifted_candidates,
    lifted_candidates_with_report,
    low_degree_vanishing_coeffs,
    strip_E_power,
)
from test_galois import _pdivmod, _pmul, _reference_zeros

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


@pytest.mark.parametrize(
    "coeffs", [[1], [0, 1], [0, 0, 3], [1, 1, 1], [2, 0, 1, 1], [0, 1, 0, 1]]
)
def test_strip_rejects_non_binomial(coeffs):
    Q = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1})
    with pytest.raises(ValueError):
        strip_E_power(Q, UniPoly.from_ints(P5.field, coeffs))


def _columns(Q: MultiPoly) -> dict:
    """Q as {Y-exponent vector: list of X-coefficients}."""
    cols = {}
    for (i, *j), c in Q.terms.items():
        col = cols.setdefault(tuple(j), [])
        col.extend([0] * (i + 1 - len(col)))
        col[i] = c
    return cols


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([5, 7, 13]), data=st.data())
def test_strip_divides_out_exactly_the_E_power(q, data):
    # E = a X^n + c with a != 1 too; Q = E^b * (random Q'), column by column
    field = PrimeField(q)
    n = data.draw(st.integers(1, q))
    ec = [data.draw(st.integers(1, q - 1))] + [0] * (n - 1) + [data.draw(st.integers(1, q - 1))]
    cols = data.draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.lists(st.integers(0, q - 1), min_size=1, max_size=2 * n + 2),
            min_size=1,
            max_size=4,
        )
    )
    b = data.draw(st.integers(0, 2))
    for _ in range(b):
        cols = {j: _pmul(col, ec, q) for j, col in cols.items()}
    Q = MultiPoly(field, 2, 1, {(i, *j): c for j, col in cols.items() for i, c in enumerate(col)})
    if Q.is_zero:
        return
    Q0, b0 = strip_E_power(Q, UniPoly.from_ints(field, ec))
    got = _columns(Q0)
    assert b0 >= b and any(_pdivmod(col, ec, q)[1] for col in got.values())
    for _ in range(b0):
        got = {j: _pmul(col, ec, q) for j, col in got.items()}
    assert _columns(Q) == got


def test_interpolated_Q_is_never_divisible_by_E():
    # the argument in strip_E_power's docstring: for Q from interpolate, E(X)
    # never divides Q, so the decoder always strips b = 0
    rng = random.Random(909)
    done = {STANDARD: 0, SHIFTED: 0}
    while min(done.values()) < 50:
        q = rng.choice([5, 7, 13, 31, 101])
        variant = rng.choice([STANDARD, SHIFTED])
        s = 2 if variant == SHIFTED else rng.randint(1, 3)
        m = rng.randint(s, min(q - 1, 6))
        k, r = rng.randint(1, 4), rng.randint(1, 3)
        try:
            params = FRSParams(q=q, m=m, k=k, s=s, r=r, variant=variant)
            _, D, _ = _threshold_plan(params)
        except (ValueError, ParameterError):
            continue
        y = [rng.randrange(q) for _ in range(params.n)]
        points = tuple(interpolation_points(params, y))
        if D // k >= q or len(points) * r**3 > 1500:  # keep the systems small
            continue
        problem = InterpolationProblem(params.field, points, r, k, s, D)
        Q = interpolate(problem)
        assert strip_E_power(Q, standard_extension(q).modulus) == (Q, 0)
        done[variant] += 1


def test_candidates_examples():
    # Q0 = Y2 - 2 Y1: R(Y) = Y^5 - 2Y splits into Y and the scaled monomials
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    cands = candidates_from_Q(Q0, P5)
    assert {f.int_coeffs(pad_to=2) for f in cands} == {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4)
    }

    Q1 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1})
    assert [f.int_coeffs(pad_to=2) for f in candidates_from_Q(Q1, P5)] == [(0, 0)]

    Q2 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1, (1, 0, 0): -1})
    assert [f.int_coeffs(pad_to=2) for f in candidates_from_Q(Q2, P5)] == [(0, 1)]


@pytest.mark.parametrize("b", [1, 2])
def test_candidates_refuse_a_Q_that_E_divides(b):
    # E never divides an interpolated Q; Q mod E = 0 is the check that says so
    Eb = E5 * E5 if b == 2 else E5
    Q = MultiPoly(P5.field, s=2, k=1, terms={(i, 1, 0): c for i, c in enumerate(Eb.int_coeffs())})
    with pytest.raises(ValueError, match="divides Q0"):
        candidates_from_Q(Q, P5)


def test_candidates_completeness_planted_factor():
    # Q0 = (Y1 - f(X)) * (Y1 - g(X)) expanded; both planted messages are found
    q = 7
    params = FRSParams(q=q, m=2, k=1, s=1, r=1)
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
    cands = candidates_from_Q(Q0, params)
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
            cands = candidates_from_Q(Q0, params)
            for f in cands:
                msg = list(f.int_coeffs(pad_to=2))
                assert len(compose_message(Q0, msg, ext.gamma.value)) == 0
            oracle = exhaustive_candidates(Q0, params)
            assert set(cands) == set(oracle)
            trials += 1


def test_candidates_work_over_the_params_extension():
    # Q0 = Y2 - 3 Y1 over F_7 (gamma = 3) is solved by every message (0, c);
    # another gamma or q would silently answer a different problem
    params = FRSParams(q=7, m=2, k=1, s=2, r=1)
    assert params.gamma.value == standard_extension(7).gamma.value == 3
    Q0 = MultiPoly(params.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -3})
    cands = candidates_from_Q(Q0, params)
    assert {f.int_coeffs(pad_to=2) for f in cands} == {(0, c) for c in range(7)}


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([5, 7, 13]),
    k=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_low_degree_gcd_is_split_and_squarefree(q, k, seed):
    # g = gcd(R, L mod R) for the low-degree vanishing polynomial L divides
    # the field equation (so it splits) and is squarefree: root extraction
    # returns deg g distinct roots, all of representative degree <= k, and
    # they are the zeros of g among all q^(k+1) elements of that subspace
    rng = random.Random(seed)
    ctx = standard_extension(q).ctx
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
    roots = {tuple(r.tolist()) for r in _subspace_roots(ctx, g, k)}
    assert len(roots) == g.shape[0] - 1
    assert planted <= roots
    assert all(not any(r[k + 1 :]) for r in roots)
    subspace = np.zeros((q ** (k + 1), ctx.dim), dtype=np.int64)
    subspace[:, : k + 1] = np.indices((q,) * (k + 1)).reshape(k + 1, -1).T
    assert _reference_zeros(ctx, g, subspace) == roots


def _product_of_linears(ctx, roots):
    g = _yp_monomial(ctx, 0)
    for root in roots:
        g = _yp_mul(ctx, g, np.array([[(-c) % ctx.q for c in root], [1] + [0] * (ctx.dim - 1)]))
    return g


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subspace_roots_of_planted_products(data):
    # g = prod (Y - alpha) over distinct alpha in the degree <= k subspace.  Some
    # roots share every coordinate but coordinate j and run through up to all q
    # values of it; with j = k they differ only in the last coordinate, so the
    # extraction passes every coordinate before it separates them
    q = data.draw(st.sampled_from([5, 7, 13, 31]), label="q")
    k = data.draw(st.integers(min_value=1, max_value=min(3, q - 2)), label="k")
    n = data.draw(st.integers(min_value=1, max_value=q + 2), label="deg g")
    ctx = standard_extension(q).ctx
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed"))
    j = data.draw(st.sampled_from([k, rng.randrange(k + 1)]), label="coordinate")
    base = [rng.randrange(q) for _ in range(k + 1)]
    values = rng.sample(range(q), data.draw(st.integers(min_value=1, max_value=min(n, q))))
    planted = {tuple(base[:j] + [c] + base[j + 1 :]) for c in values}
    while len(planted) < n:
        planted.add(tuple(rng.randrange(q) for _ in range(k + 1)))
    planted = {root + (0,) * (ctx.dim - k - 1) for root in planted}
    g = _product_of_linears(ctx, sorted(planted))
    assert g.shape[0] - 1 == n
    roots = _subspace_roots(ctx, g, k)
    assert len(roots) == n
    assert {tuple(r.tolist()) for r in roots} == planted


@pytest.mark.parametrize("case", ["root outside the subspace", "repeated root"])
def test_subspace_roots_fail_loudly(case):
    # a g whose roots are not deg g distinct elements of the degree <= k
    # subspace is refused, never answered with fewer or foreign roots
    q, k = 13, 2
    ctx = standard_extension(q).ctx
    inside = [3, 1, 4] + [0] * (ctx.dim - k - 1)
    other = [5, 9, 2] + [0] * (ctx.dim - k - 1)
    outside = [2, 7, 1, 8] + [0] * (ctx.dim - k - 2)
    roots = [inside, outside] if case == "root outside the subspace" else [inside, inside]
    for extra in ([], [other]):
        g = _product_of_linears(ctx, roots + extra)
        with pytest.raises(AssertionError):
            _subspace_roots(ctx, g, k)
    if case == "root outside the subspace":
        with pytest.raises(AssertionError):
            _subspace_roots(ctx, _product_of_linears(ctx, [outside]), k)


# (field, k, planted roots as coordinates 0..k, the coordinate of each pass over
# q candidates, whether the quadratic character splits a factor)
_RULE_CASES = {
    # the roots share coordinate 0, so g moves on to coordinate 1 and its pass
    "one value moves on": (13, 2, [(3, 1, 4), (3, 5, 9)], [1], False),
    # three roots on the line c (1, 2, 3) + (0, 7, 11): u_0 mod g is linear
    "linear pass at j = 0": (31, 2, [(2, 11, 17), (5, 17, 26), (30, 5, 8)], [0], False),
    # the roots differ only in the last coordinate: u_k mod g is linear
    "linear pass at j = k": (31, 2, [(4, 9, c) for c in (0, 1, 17, 30)], [2], False),
    # five distinct coordinate-0 values, not on a line: u_0 mod g has degree >= 2
    "quadratic-character split": (13, 1, [(0, 1), (1, 5), (2, 3), (7, 7), (11, 2)], None, True),
    "k = 0 over a prime field": ("F_31", 0, [(3,), (7,), (11,), (30,)], [0], False),
}


@pytest.mark.parametrize("case", list(_RULE_CASES))
def test_subspace_roots_reach_each_rule(case):
    # counters on _roots_among and on the (q-1)/2-th powers of pow_mod show which
    # rule ran.  A pass at coordinate j walks a line whose step has coordinates
    # below j equal to 0 and coordinate j equal to 1, as the roots of a factor
    # at coordinate j share the coordinates below it
    q, k, planted, pass_coordinates, splits = _RULE_CASES[case]
    ctx = PrimeField(31).ctx if q == "F_31" else standard_extension(q).ctx
    planted = {root + (0,) * (ctx.dim - k - 1) for root in planted}
    g = _product_of_linears(ctx, sorted(planted))
    passes, powers = [], []
    roots_among, pow_mod = poly._roots_among, FrobeniusReducer.pow_mod

    def counted_roots_among(ctx, h, base, step):
        j = int(np.flatnonzero(step)[0])
        assert step[j] == 1
        passes.append(j)
        return roots_among(ctx, h, base, step)

    def counted_pow_mod(self, u, e):
        powers.append(e)
        return pow_mod(self, u, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_roots_among", counted_roots_among)
        mp.setattr(FrobeniusReducer, "pow_mod", counted_pow_mod)
        roots = {tuple(r.tolist()) for r in _subspace_roots(ctx, g, k)}
    assert roots == planted
    subspace = np.zeros((ctx.q ** (k + 1), ctx.dim), dtype=np.int64)
    subspace[:, : k + 1] = np.indices((ctx.q,) * (k + 1)).reshape(k + 1, -1).T
    assert _reference_zeros(ctx, g, subspace) == roots
    assert (powers.count((ctx.q - 1) // 2) > 0) == splits
    if pass_coordinates is None:
        assert set(passes) <= {0}
    else:
        assert passes == pass_coordinates

@pytest.mark.parametrize("coordinate", [0, 2])
def test_quadratic_extraction_at_q_257_in_bounded_memory(coordinate):
    # a deg-2 g takes one pass over q candidates, by the linear rule at its first
    # coordinate, or at its last once it has moved past the shared coordinates
    # 0 and 1; their dim x dim matrices take 257 * 256^2 * 16 bytes, ~270 MB, at
    # once, and well under 64 MB in slices.  In the pass at the last coordinate
    # the roots are candidates 4 and 256, in the first and the last slice
    q, k = 257, 2
    ctx = standard_extension(q).ctx
    planted = [[3, 1, 4] + [0] * (ctx.dim - 3) for _ in range(2)]
    planted[1][coordinate] = q - 1
    g = _product_of_linears(ctx, planted)
    tracemalloc.start()
    try:
        roots = _subspace_roots(ctx, g, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(r.tolist() for r in roots) == sorted(planted)
    assert peak < 64 * 2**20


def test_candidates_of_a_degree_61_g():
    # Q0 = (Y2 - Y1)(Y2 - gamma Y1) over F_31 with k = 2: R = (Y^31 - Y)(Y^31 - gamma Y),
    # and g has degree 61, the constants and the multiples of X
    q = 31
    params = FRSParams(q=q, m=2, k=2, s=2, r=1)
    ext = standard_extension(q)
    gamma = ext.gamma.value
    Q0 = MultiPoly(params.field, s=2, k=2, terms={
        (0, 0, 2): 1, (0, 1, 1): -(1 + gamma), (0, 2, 0): gamma,
    })
    degrees = []

    def recording_roots(ctx, g, k):
        degrees.append(g.shape[0] - 1)
        return _subspace_roots(ctx, g, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rootfind, "_subspace_roots", recording_roots)
        cands = candidates_from_Q(Q0, params)
    assert degrees == [61]
    expected = {(c, 0, 0) for c in range(q)} | {(0, c, 0) for c in range(q)}
    assert {f.int_coeffs(pad_to=3) for f in cands} == expected


def test_candidates_output_cap(monkeypatch):
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    monkeypatch.setattr(rootfind, "CANDIDATE_CAP", 2)
    with pytest.raises(CandidateOverflowError):
        candidates_from_Q(Q0, P5)


def test_candidates_reject_total_y_degree_of_q():
    # Y1^3 Y2^2 over F_5: total Y-degree 5 = q, which the substitution cannot take
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 3, 2): 1})
    with pytest.raises(ValueError, match="total Y-degree"):
        candidates_from_Q(Q0, P5)


def test_candidates_size_bounded_by_substituted_degree():
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -2})
    cands = candidates_from_Q(Q0, P5)
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


@pytest.mark.parametrize("q", [5, 7, 13, 31, 101])
def test_low_degree_vanishing_poly_of_the_whole_field_is_the_field_equation(q):
    # gamma has order dim = q - 1, so the node product at k = dim - 1 is
    # z^dim - 1; over F_q (gamma = 0 in its context) k = 0 gives Y^q - Y
    gamma = standard_extension(q).gamma.value
    assert low_degree_vanishing_coeffs(q, gamma, q - 2) == [q - 1] + [0] * (q - 2) + [1]
    ctx = PrimeField(q).ctx
    assert low_degree_vanishing_coeffs(q, ctx.gamma, 0) == [q - 1, 1]


@pytest.mark.parametrize("q", [5, 13, 31, 101])
def test_coordinate_functionals_match_lagrange_products(q):
    # row j holds prod_(t != j) (z - gamma^t) / (gamma^j - gamma^t), built
    # here pair by pair
    gamma = standard_extension(q).gamma.value
    for k in sorted({0, 1, 2, q - 2}):
        nodes = [pow(gamma, t, q) for t in range(k + 1)]
        expected = []
        for j, x in enumerate(nodes):
            P, scale = np.ones(1, dtype=np.int64), 1
            for t, y in enumerate(nodes):
                if t != j:
                    P = np.convolve(P, [-y, 1]) % q
                    scale = scale * (x - y) % q
            expected.append(P * pow(scale, -1, q) % q)
        assert np.array_equal(poly._coordinate_functionals(q, gamma, k), np.array(expected))


def test_exhaustive_candidates_budget():
    big = FRSParams(q=31, m=2, k=4, s=1, r=1)
    Q0 = MultiPoly(big.field, s=1, k=4, terms={(0, 1): 1})
    with pytest.raises(ValueError):
        exhaustive_candidates(Q0, big)


class _GcdReached(Exception):
    pass


def _digest(arr):
    arr = np.ascontiguousarray(arr, dtype="<i8")
    return hashlib.sha256(repr(arr.shape).encode() + arr.tobytes()).hexdigest()[:16]


def _planted_word(params, rng):
    msg = UniPoly.from_ints(params.field, [rng.randrange(params.q) for _ in range(params.k + 1)])
    spec = ChannelSpec(kind="uniform", e=params.N - pipeline_threshold(params))
    return apply_channel(encode(params, msg), spec, rng, q=params.q)


def _planted_sets(params, rng, l=2):
    """Recovery sets as the recover-l2 benchmark workload builds them: the symbols
    of two planted codewords, and N - t sets of l junk tuples."""
    def message():
        return UniPoly.from_ints(params.field, [rng.randrange(params.q) for _ in range(params.k + 1)])

    msgs = (message(), message())
    while msgs[1] == msgs[0]:
        msgs = (msgs[0], message())
    cws = [encode(params, f) for f in msgs]
    bad = set(rng.sample(range(params.N), params.N - _threshold_plan(params, l)[2]))
    sets = []
    for j in range(params.N):
        planted = S = {cw[j] for cw in cws}
        if j in bad:
            S = set()
            while len(S) < l:
                tup = tuple(rng.randrange(params.q) for _ in range(params.m))
                if tup not in planted:
                    S.add(tup)
        sets.append(S)
    return RecoverySets.from_iterables(sets, l)


def _benchmark_call(params, seed):
    """The decode of the first word of a benchmark workload ("<name>/<seed>", each
    word uniform) or of the CI large-modulus step (an int seed)."""
    rng = random.Random(seed)
    if str(seed).startswith("recover-l2/"):
        return lambda: list_recover(params, _planted_sets(params, rng))
    return lambda: list_decode(params, _planted_word(params, rng))


# (params, seed of the word, deg R, digest of L mod R, digest of g): the first
# words of the benchmark at seed 1, the large-modulus decodes of CI, and
# dim 82 = 2 * 41.  Recorded with the products padded to
# 2^ceil(log2(2 dim - 1)) along X and folded with X^dim = gamma after rounding
# (deg 125, 404, 1023, 250), and with the Euclid taking two quotient rows a
# step (every g)
_CHAIN_DIGESTS = [
    pytest.param(FRSParams(q=13, m=3, k=2, s=2, r=3), "decode-small/1", 39,
                 "d8c9ff228d6cbaa5", "ed72912481ff7600", id="deg-39"),
    pytest.param(FRSParams(q=31, m=4, k=2, s=2, r=3), "decode-rootfind/1", 125,
                 "9d6fffba4c6dba0c", "73096da0703e8f34", id="deg-125"),
    pytest.param(FRSParams(q=31, m=5, k=2, s=2, r=3), "recover-l2/1", 189,
                 "b27d373103e122a2", "40bf6e8fdf21c8d7", id="deg-189"),
    pytest.param(FRSParams(q=101, m=5, k=8, s=1, r=3), "decode-interp/1", 10,
                 "6f9622fde5a5d632", "a59034c3ae08007e", id="deg-10-dim-100"),
    pytest.param(FRSParams(q=101, m=5, k=8, s=2, r=2), 1, 404,
                 "1a1d890bb7ec0267", "1c37cf60365d2448", id="deg-404"),
    pytest.param(FRSParams(q=31, m=5, k=4, s=3, r=2), 1, 1023,
                 "37a95730ae5d5ee2", "c1c876c0a0c62f5e", id="deg-1023"),
    pytest.param(FRSParams(q=31, m=5, k=3, s=4, r=2), 1, 1922,
                 "28de68a5e4f512d5", "18c2129710f3e959", id="deg-1922"),
    pytest.param(FRSParams(q=83, m=2, k=4, s=2, r=2), 1, 250,
                 "d65ac37efa13e99f", "84ebdd774e78174f", id="deg-250-dim-82"),
]


class _Captured(Exception):
    pass


def _captured_Q(monkeypatch, call) -> MultiPoly:
    """The Q the decoder hands to its root step inside call()."""
    seen = []

    def grab(Q, params):
        seen.append(Q)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(decoder, "lifted_candidates_with_report", grab)
        with pytest.raises(_Captured):
            call()
    return seen[0]


@pytest.mark.parametrize("params, seed, deg, l_digest, g_digest", _CHAIN_DIGESTS)
def test_chain_answers_match_recorded_digests(monkeypatch, params, seed, deg, l_digest, g_digest):
    # L mod R and g = gcd(R, L mod R) inside candidates_from_Q, bit for bit, on
    # the Q of the decode
    seen = {}

    def recording_gcd(ctx, R, l_mod_r):
        seen.update(deg=R.shape[0] - 1, L=_digest(l_mod_r), g=_digest(_yp_gcd(ctx, R, l_mod_r)))
        raise _GcdReached

    Q = _captured_Q(monkeypatch, _benchmark_call(params, seed))
    monkeypatch.setattr(rootfind, "_yp_gcd", recording_gcd)
    with pytest.raises(_GcdReached):
        candidates_from_Q(Q, params)
    assert seen == {"deg": deg, "L": l_digest, "g": g_digest}


def test_vanished_substitution_raises_the_named_invariant(monkeypatch):
    # distinct Y-exponents below q substitute to distinct powers of Y, so R is
    # nonzero; the check is a raise, so it holds under python -O as well
    Q0 = MultiPoly(P5.field, s=2, k=1, terms={(0, 1, 0): 1})
    monkeypatch.setattr(rootfind, "_substituted_poly", lambda T, jvecs, q: np.zeros((0, EXT5.dim), np.int64))
    with pytest.raises(AssertionError, match="R vanished"):
        candidates_from_Q(Q0, P5)


# ---------------------------------------------------------------------------
# The lift (the decode's root step) against candidates_from_Q (its reference)
# and exhaustive_candidates
# ---------------------------------------------------------------------------

def _message(params, rng):
    return UniPoly.from_ints(params.field, [rng.randrange(params.q) for _ in range(params.k + 1)])


def _words(params, t, rng):
    """A planted uniform and a planted burst word at e = N - t, a mixture of two
    and one of three codewords, position by position, and a random word."""
    words = [
        apply_channel(encode(params, _message(params, rng)), ChannelSpec(kind=kind, e=params.N - t), rng,
                      q=params.q)
        for kind in ("uniform", "burst")
    ]
    for count in (2, 3):
        cws = [encode(params, _message(params, rng)) for _ in range(count)]
        words.append(tuple(cws[rng.randrange(count)][j] for j in range(params.N)))
    words.append(tuple(tuple(rng.randrange(params.q) for _ in range(params.m)) for _ in range(params.N)))
    return words


def _recovery_sets(params, rng, l):
    """Sets holding the symbols of l codewords, with junk in place of one of them
    at a random half of the positions."""
    cws = [encode(params, _message(params, rng)) for _ in range(l)]
    sets = [{cw[j] for cw in cws} for j in range(params.N)]
    for j in rng.sample(range(params.N), params.N // 2):
        sets[j] = set(list(sets[j])[1:]) | {tuple(rng.randrange(params.q) for _ in range(params.m))}
    return RecoverySets.from_iterables(sets, l)


def _assert_lift_matches_reference(monkeypatch, params, call) -> LiftReport:
    Q = _captured_Q(monkeypatch, call)
    got, report = lifted_candidates_with_report(Q, params)
    assert got == candidates_from_Q(Q, params) and report.root_step == "lift"
    return report


def test_lift_equals_the_reference_on_grid_and_benchmark_codes(monkeypatch):
    # criterion 5's 48 grid codes and the four benchmark codes: planted, burst,
    # mixed and random words, and list recovery with two and three codewords
    from test_acceptance import _pick_k

    codes = []
    for q in [13, 31]:
        for m in [2, 3, 4]:
            for s in range(1, min(m, 3) + 1):
                for r in [1, 2, 3]:
                    codes.append(_pick_k(q, m, s, r))
    codes += [(p.values[0], pipeline_threshold(p.values[0])) for p in _CHAIN_DIGESTS[:4]]  # the benchmark's
    rng = random.Random(31)
    reports = []
    for params, t in codes:
        for word in _words(params, t, rng):
            call = functools.partial(list_decode, params, word)
            reports.append(_assert_lift_matches_reference(monkeypatch, params, call))
    for params, l in [(FRSParams(q=31, m=5, k=2, s=2, r=3), 2), (FRSParams(q=31, m=5, k=2, s=2, r=3), 3),
                      (FRSParams(q=13, m=3, k=1, s=2, r=2), 2)]:
        for _ in range(3):
            call = functools.partial(list_recover, params, _recovery_sets(params, rng, l))
            reports.append(_assert_lift_matches_reference(monkeypatch, params, call))
    assert sum(r.full_branches > 0 for r in reports) > 0
    assert max(r.entries for r in reports) <= rootfind.LIFT_LEVEL_ENTRIES


def test_lift_equals_exhaustive_candidates_on_decoded_words(monkeypatch):
    rng = random.Random(32)
    for params in [FRSParams(q=13, m=3, k=2, s=2, r=3), FRSParams(q=13, m=4, k=2, s=3, r=2)]:
        for word in _words(params, pipeline_threshold(params), rng)[1:4]:
            Q = _captured_Q(monkeypatch, lambda: list_decode(params, word))
            assert lifted_candidates(Q, params) == exhaustive_candidates(Q, params)


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([7, 11]),
    s=st.integers(1, 3),
    k=st.integers(1, 2),
    terms=st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 4), st.integers(1, 6), min_size=1, max_size=6
    ),
)
def test_lift_equals_exhaustive_candidates_on_any_Q(q, s, k, terms):
    # no bound on the Y-degrees here, so P_n may vanish on F_q without being 0
    params = FRSParams(q=q, m=s, k=k, s=s, r=1)
    Q0 = MultiPoly(params.field, s, k, {e[: s + 1]: c % q for e, c in terms.items()})
    if Q0.is_zero:
        return
    assert lifted_candidates(Q0, params) == exhaustive_candidates(Q0, params)


def _constants_and_multiples_of_X():
    """(Y2 - Y1)(Y2 - gamma Y1) over F_31 with k = 2, solved by the constants and
    the multiples of X (as in ``test_candidates_of_a_degree_61_g``)."""
    params = FRSParams(q=31, m=2, k=2, s=2, r=1)
    gamma = params.gamma.value
    terms = {(0, 0, 2): 1, (0, 1, 1): -(1 + gamma), (0, 2, 0): gamma}
    return params, MultiPoly(params.field, s=2, k=2, terms=terms)


def test_lift_takes_full_branches():
    # Q0 = Y2 - 3 Y1 over F_7 (gamma = 3): P_0(y) = -2y has the one zero 0, and
    # Y_t <- 3^(t-1) X Z_t gives 3 X (Z2 - Z1), so Q^(1) = 3 (Z2 - Z1), whose P_1
    # vanishes: every y in F_7 branches
    params = FRSParams(q=7, m=2, k=1, s=2, r=1)
    Q0 = MultiPoly(params.field, s=2, k=1, terms={(0, 0, 1): 1, (0, 1, 0): -3})
    cands, report = lifted_candidates_with_report(Q0, params)
    assert [f.int_coeffs(pad_to=2) for f in cands] == [(0, c) for c in range(7)]
    assert report == LiftReport(nodes=2, full_branches=1, entries=3, root_step="lift")
    # (Y2 - Y1)(Y2 - gamma Y1): P_0 = 0 at once
    params, Q0 = _constants_and_multiples_of_X()
    cands, report = lifted_candidates_with_report(Q0, params)
    assert cands == candidates_from_Q(Q0, params)
    assert {f.int_coeffs(pad_to=3) for f in cands} == {(c, 0, 0) for c in range(31)} | {(0, c, 0) for c in range(31)}
    assert report.full_branches >= 2


def test_lift_falls_back_to_the_reference_past_its_entry_budget(monkeypatch):
    # P_0 = 0 stacks 31 kids of one row and |J| = 6 columns
    params, Q0 = _constants_and_multiples_of_X()
    expected = lifted_candidates(Q0, params)
    monkeypatch.setattr(rootfind, "LIFT_LEVEL_ENTRIES", 31 * 6 - 1)
    cands, report = lifted_candidates_with_report(Q0, params)
    assert cands == expected and report == LiftReport(nodes=1, full_branches=1, entries=31 * 6, root_step="reference")
    # the reference's refusals stand
    monkeypatch.setattr(rootfind, "CANDIDATE_CAP", 60)
    with pytest.raises(CandidateOverflowError):
        lifted_candidates(Q0, params)
    # and a decode past the budget reports it, with the same list
    monkeypatch.undo()
    params = FRSParams(q=13, m=3, k=2, s=2, r=3)
    word = _planted_word(params, random.Random(4))
    lifted = list_decode(params, word)
    monkeypatch.setattr(rootfind, "LIFT_LEVEL_ENTRIES", 0)
    fallback = list_decode(params, word)
    assert fallback.messages == lifted.messages and fallback.stats.root_step == "reference"


def _mixture(params, seed):
    """Three messages and a word taking each position from one of their codewords."""
    rng = random.Random(seed)
    msgs = [_message(params, rng) for _ in range(3)]
    cws = [encode(params, f) for f in msgs]
    return msgs, tuple(cws[rng.randrange(3)][j] for j in range(params.N))


def test_lift_memory_stays_under_64_bytes_an_entry_of_its_budget(monkeypatch):
    # the ladder's widest stacks (deg R 6727 code, |J| = 220 columns): a mixture
    # whose level 1 stacks 263 340 entries lifts at that budget under 64 bytes
    # an entry, so LIFT_LEVEL_ENTRIES bounds a lift's memory; and a mixture
    # with two full levels, 961 kids of 2 748 460 entries (the lift alone took
    # 103 MB there), falls back to the reference, which keeps all three
    params = FRSParams(q=31, m=6, k=2, s=3, r=5)
    Q = _captured_Q(monkeypatch, lambda: list_decode(params, _mixture(params, 5)[1]))
    found, report = lifted_candidates_with_report(Q, params)  # the tables are cached now
    assert report.entries == 263340 and report.full_branches > 0
    monkeypatch.setattr(rootfind, "LIFT_LEVEL_ENTRIES", report.entries)
    tracemalloc.start()
    try:
        assert lifted_candidates_with_report(Q, params) == (found, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * report.entries
    monkeypatch.undo()
    msgs, word = _mixture(params, 9)
    res = list_decode(params, word)
    assert res.stats.root_step == "reference" and res.stats.full_branches == 32
    assert all(f in res.messages for f in msgs)


def test_lift_refuses_the_zero_polynomial():
    with pytest.raises(ValueError, match="every message"):
        lifted_candidates(MultiPoly(P5.field, s=2, k=1, terms={}), P5)


# candidates found and kept on the first words of the benchmark at seed 1 and
# the large-modulus decodes of CI, as the reference root step gives them
_FOUND_KEPT = {"deg-39": (1, 1), "deg-125": (1, 1), "deg-189": (2, 2), "deg-10-dim-100": (1, 1),
               "deg-404": (1, 1), "deg-1023": (1, 1), "deg-1922": (1, 1), "deg-250-dim-82": (1, 1)}


@pytest.mark.parametrize("params, seed, deg, l_digest, g_digest", _CHAIN_DIGESTS)
def test_decode_stats_report_the_lift(request, params, seed, deg, l_digest, g_digest):
    st = _benchmark_call(params, seed)().stats
    assert (st.candidates_found, st.candidates_kept) == _FOUND_KEPT[request.node.callspec.id]
    # a found message has one searched polynomial at each of the k + 1 levels
    assert st.root_step == "lift" and st.lift_nodes >= params.k + 1 and st.full_branches >= 0

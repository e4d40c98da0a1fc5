import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs import decoder, galois, interp, poly
from foldedrs.frs import FRSParams, RecoverySets, encode, interpolation_points
from foldedrs.galois import PrimeField
from foldedrs.harness import ChannelSpec, apply_channel
from foldedrs.interp import (
    _PANEL,
    InterpolationProblem,
    ParameterError,
    _column_exponents,
    _derivative_monomials,
    _kernel_vector,
    _residue_kernel_vector,
    choose_D,
    constraints_per_point,
    degree_bound_formula,
    interpolate,
    interpolate_with_report,
)
from foldedrs.poly import (
    MultiPoly,
    UniPoly,
    count_weighted_monomials,
    enumerate_weighted_monomials,
    hasse_coefficient,
)
from test_rootfind import _benchmark_call, _digest


def test_degree_bound_formula_examples():
    assert degree_bound_formula(2, 20, 3, 2) == 17
    assert degree_bound_formula(2, 8, 3, 2) == 13
    assert degree_bound_formula(1, 1, 1, 1) == 2


def test_choose_D_refines_to_smallest_feasible():
    # frozen values, cross-checked against the exact count oracle below
    assert choose_D(2, 20, 3, 2) == 14
    assert choose_D(2, 8, 3, 2) == 10
    assert choose_D(1, 1, 1, 1) == 1
    for k, n0, r, s in [(2, 20, 3, 2), (2, 8, 3, 2), (1, 1, 1, 1), (3, 14, 2, 3)]:
        D = choose_D(k, n0, r, s)
        need = n0 * constraints_per_point(r, s)
        assert count_weighted_monomials(k, D, s) > need
        assert D == 1 or count_weighted_monomials(k, D - 1, s) <= need
        assert D <= degree_bound_formula(k, n0, r, s)


def test_choose_D_random_feasibility():
    rng = random.Random(0)
    for _ in range(50):
        k = rng.randint(1, 8)
        n0 = rng.randint(1, 40)
        r = rng.randint(1, 4)
        s = rng.randint(1, 3)
        D = choose_D(k, n0, r, s)
        assert count_weighted_monomials(k, D, s) > n0 * constraints_per_point(r, s)


def test_example_instance_dimensions():
    # q=13, m=3, s=2, r=3, k=2: 8 points -> 8 * C(5,3) = 80 equations, and at
    # the closed-form D = 13 there are 168 > 80 unknowns
    assert 8 * constraints_per_point(3, 2) == 80
    assert count_weighted_monomials(2, 13, 2) == 168
    assert count_weighted_monomials(2, 13, 2) > 80

    from foldedrs.frs import FRSParams, encode, interpolation_points, unfold
    from foldedrs.poly import UniPoly

    p = FRSParams(q=13, m=3, k=2, s=2, r=3)
    y = unfold(p, encode(p, UniPoly.from_ints(p.field, [1, 2, 3])))
    problem = InterpolationProblem(
        field=p.field, points=tuple(interpolation_points(p, y)), r=3, k=2, s=2, D=13
    )
    _, report = interpolate_with_report(problem)
    assert (report.rows, report.cols) == (80, 168)


def _random_problem(rng, q):
    field = PrimeField(q)
    s = rng.choice([1, 2, 3])
    r = rng.randint(1, 3)
    k = rng.randint(1, 3)
    n0 = rng.randint(2, 7)
    pts = set()
    while len(pts) < n0:
        pts.add(tuple(rng.randrange(q) for _ in range(s + 1)))
    D = choose_D(k, n0, r, s)
    if D // k >= q:
        return None
    return InterpolationProblem(field=field, points=tuple(sorted(pts)), r=r, k=k, s=s, D=D)


def _ref_column_order(k: int, D: int, s: int, q: int) -> list[tuple[int, ...]]:
    """Exponent vectors sorted by (substituted degree, weighted degree, vector) as Python ints."""

    def key(mon):
        e = mon.exponents
        return (sum(j * q**t for t, j in enumerate(e[1:])), mon.weighted_degree(k), e)

    return [m.exponents for m in sorted(enumerate_weighted_monomials(k, D, s), key=key)]


def test_column_order_matches_substituted_degree_sort():
    # (7, 1, 6, 2) puts a Y exponent at q - 1; at q = 16777213, s = 4 the
    # substituted degrees pass 2^63
    cases = [(5, 1, 4, 1), (7, 2, 13, 2), (7, 1, 6, 2), (13, 3, 20, 3), (101, 8, 94, 1)]
    for q, k, D, s in cases + [(16777213, 1, 12, 4)]:
        exps = _column_exponents(k, D, s)
        assert list(map(tuple, exps.tolist())) == _ref_column_order(k, D, s, q)


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_derivative_monomials_are_the_exponents_below_r(r, s):
    brute = {v for v in itertools.product(range(r), repeat=s + 1) if sum(v) < r}
    dmons = _derivative_monomials(r, s)
    assert len(dmons) == len(brute) == constraints_per_point(r, s)
    assert set(dmons) == brute


def test_interpolate_postconditions_random():
    rng = random.Random(7)
    done = 0
    while done < 20:
        problem = _random_problem(rng, rng.choice([7, 13]))
        if problem is None:
            continue
        Q, report = interpolate_with_report(problem)
        assert not Q.is_zero
        assert Q.weighted_degree() <= problem.D
        dmons = _derivative_monomials(problem.r, problem.s)
        for pt in problem.points:
            for b in dmons:
                assert hasse_coefficient(Q, pt, b) == problem.field.zero()
        assert report.rank == report.pivot_cols < report.cols
        done += 1


def test_interpolate_deterministic():
    field = PrimeField(13)
    pts = ((1, 5, 7), (2, 0, 3), (4, 4, 4), (8, 1, 0))
    problem = InterpolationProblem(field=field, points=pts, r=2, k=2, s=2, D=choose_D(2, 4, 2, 2))
    Q1 = interpolate(problem)
    Q2 = interpolate(problem)
    assert Q1.terms == Q2.terms


def test_interpolate_single_point_example():
    field = PrimeField(5)
    problem = InterpolationProblem(field=field, points=((1, 1, 1),), r=1, k=1, s=2, D=2)
    Q = interpolate(problem)
    assert not Q.is_zero
    assert Q.weighted_degree() <= 2
    assert Q.evaluate((1, 1, 1)) == field.zero()


def test_interpolate_rejects_y_degree_overflow():
    field = PrimeField(5)
    pts = tuple((x, x, x) for x in range(5))
    problem = InterpolationProblem(field=field, points=pts, r=3, k=1, s=2, D=9)
    with pytest.raises(ParameterError):
        interpolate(problem)


@pytest.mark.parametrize("field_name, value", [("k", 0), ("r", 0), ("s", 0), ("D", -1)])
def test_problem_names_the_bad_parameter(field_name, value):
    args = dict(field=PrimeField(13), points=(), r=1, k=1, s=1, D=1)
    args[field_name] = value
    with pytest.raises(ValueError, match=f"need {field_name} >= "):
        InterpolationProblem(**args)


def test_interpolate_rejects_infeasible_system():
    field = PrimeField(13)
    pts = tuple((x, x) for x in range(1, 10))
    # D = 1, k = 1, s = 1: 3 monomials vs 9 conditions
    problem = InterpolationProblem(field=field, points=pts, r=1, k=1, s=1, D=1)
    with pytest.raises(ParameterError):
        interpolate(problem)


def test_vanishing_on_uncorrupted_curve():
    # points from an uncorrupted encoding, r=1: Q(X, f(X), f(gX)) = 0
    from foldedrs.frs import FRSParams, encode, interpolation_points, unfold
    from foldedrs.poly import UniPoly, compose_message

    p = FRSParams(q=13, m=3, k=2, s=2, r=1)
    f = UniPoly.from_ints(p.field, [2, 5, 1])
    y = unfold(p, encode(p, f))
    pts = interpolation_points(p, y)
    D = choose_D(p.k, len(pts), p.r, p.s)
    problem = InterpolationProblem(
        field=p.field, points=tuple(pts), r=1, k=p.k, s=2, D=D
    )
    Q = interpolate(problem)
    assert len(compose_message(Q, [2, 5, 1], p.gamma.value)) == 0


# ---------------------------------------------------------------------------
# the elimination kernel against plain Gauss-Jordan
# ---------------------------------------------------------------------------


def _reference_kernel_vector(matrix: np.ndarray, q: int) -> tuple[np.ndarray, int, int]:
    """Unblocked Gauss-Jordan: every pivot is normalized and cleared from all rows."""
    M = matrix % q
    nrows, ncols = M.shape
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    used = np.zeros(nrows, dtype=bool)
    for col in range(ncols):
        candidates = np.flatnonzero((M[:, col] != 0) & ~used)
        if len(candidates) == 0:
            x = np.zeros(ncols, dtype=np.int64)
            x[col] = 1
            for pr, pc in zip(pivot_rows, pivot_cols):
                x[pc] = (-M[pr, col]) % q
            return x, len(pivot_cols), col
        prow = int(candidates[0])
        used[prow] = True
        inv = pow(int(M[prow, col]), q - 2, q)
        M[prow] = M[prow] * inv % q
        others = np.flatnonzero(M[:, col] != 0)
        others = others[others != prow]
        if len(others):
            M[others] = (M[others] - np.outer(M[others, col], M[prow])) % q
        pivot_rows.append(prow)
        pivot_cols.append(col)
    raise AssertionError("no free column")


KERNEL_QS = [2, 3, 13, 31, 101, 65521, 16777213]


def _assert_kernel_matches_reference(M: np.ndarray, q: int):
    try:
        expect = _reference_kernel_vector(M, q)
    except AssertionError:
        with pytest.raises(AssertionError):
            _kernel_vector(M, q)
        return None
    x, rank, c0 = _kernel_vector(M, q)
    assert (rank, c0) == expect[1:]
    assert np.array_equal(x, expect[0])
    assert not (M @ x % q).any()
    return c0


def _matrix_with_free_col(rng, q: int, nrows: int, ncols: int, c0: int, duplicate: bool):
    """Random matrix whose first c0 columns are independent and whose column c0
    lies in their span (a copy of one of them when duplicate is set)."""
    U = np.triu(rng.integers(0, q, size=(nrows, c0)))
    U[np.arange(c0), np.arange(c0)] = rng.integers(1, q, size=c0)
    L = np.tril(rng.integers(0, q, size=(nrows, nrows)), -1) + np.eye(nrows, dtype=np.int64)
    C = (L @ U % q)[rng.permutation(nrows)]  # invertible row operations keep the column span
    if duplicate and c0:
        dep = C[:, rng.integers(c0)]
    else:
        dep = C @ rng.integers(0, q, size=c0) % q
    rest = rng.integers(0, q, size=(nrows, ncols - c0 - 1))
    return np.column_stack([C, dep, rest]).astype(np.int64)


@pytest.mark.parametrize("q", KERNEL_QS)
# at q = 16777213 the product budget narrows panels to _PANEL // 2 columns
@pytest.mark.parametrize(
    "c0",
    [0, _PANEL // 2 - 1, _PANEL // 2, _PANEL // 2 + 1, _PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL],
)
def test_kernel_vector_free_column_at_panel_edges(q, c0):
    rng = np.random.default_rng([q, c0])
    for nrows, ncols in [(c0 + 3, c0 + 9), (c0 + 12, c0 + 4), (c0, c0 + 1)]:
        for duplicate in (False, True):
            for zero_rows in (0, 2):
                M = _matrix_with_free_col(rng, q, nrows, ncols, c0, duplicate)
                M = np.insert(M, rng.integers(0, nrows + 1, size=zero_rows), 0, axis=0)
                assert _assert_kernel_matches_reference(M, q) == c0


@settings(max_examples=80, deadline=None)
@given(
    q=st.sampled_from(KERNEL_QS),
    nrows=st.integers(min_value=1, max_value=80),
    ncols=st.integers(min_value=1, max_value=80),
    zero_rows=st.integers(min_value=0, max_value=3),
    duplicate=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_vector_matches_reference_random(q, nrows, ncols, zero_rows, duplicate, seed):
    # tall and wide shapes; tall full-rank ones have no free column at all
    rng = np.random.default_rng(seed)
    M = rng.integers(0, q, size=(nrows, ncols))
    M[rng.integers(0, nrows, size=zero_rows)] = 0
    if duplicate and ncols > 1:
        src, dst = sorted(rng.choice(ncols, size=2, replace=False))
        M[:, dst] = M[:, src]
    _assert_kernel_matches_reference(M, q)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(KERNEL_QS),
    nrows=st.integers(min_value=1, max_value=80),
    extra=st.integers(min_value=-10, max_value=20),
    c0=st.integers(min_value=0, max_value=79),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_vector_ignores_row_order(q, nrows, extra, c0, seed):
    # x, the rank and c0 depend on the columns only: a row permutation gives
    # the same result, also on matrices with half their entries zeroed (zero
    # diagonal entries, pivot searches) and on those with no free column
    rng = np.random.default_rng(seed)
    c0 = min(c0, nrows)
    ncols = max(nrows + extra, c0 + 1)
    M = _matrix_with_free_col(rng, q, nrows, ncols, c0, duplicate=bool(seed % 2))
    if seed % 3 == 0:
        M[rng.random(M.shape) < 0.5] = 0
    perm = rng.permutation(nrows)
    try:
        expect = _kernel_vector(M, q)
    except AssertionError:
        with pytest.raises(AssertionError):
            _kernel_vector(M[perm], q)
        return
    x, rank, free = _kernel_vector(M[perm], q)
    assert (rank, free) == expect[1:]
    assert np.array_equal(x, expect[0])


def test_kernel_vector_rejects_inexact_field_size():
    # 16777259 is the least prime above 2^24, where _PANEL // 2 * (q-1)^2 reaches 2^53
    with pytest.raises(ParameterError):
        _kernel_vector(np.zeros((1, 2), dtype=np.int64), 16777259)
    x, rank, c0 = _kernel_vector(np.array([[1, 1]]), 16777213)  # largest prime below 2^24
    assert (x.tolist(), rank, c0) == ([16777212, 1], 1, 1)


def _largest_products_matrix(
    q: int, nrows: int, ncols: int, c0: int, pivot: int = 1, entry: int | None = None,
    upper: int | None = None,
) -> np.ndarray:
    """L U mod q where L is unit lower triangular with entry / pivot below its
    diagonal and U has `pivot` on its diagonal and `upper` above it (entry * pivot
    by default; `entry` is q - 1 by default); column c0 of U stops at row c0 - 1,
    which makes c0 the first free column.  An elimination without row swaps meets
    L's entries as its multipliers scaled by their pivot's inverse and U's as its
    pivot rows, so each update subtracts (entry / pivot) * upper, entry^2 by default."""
    entry = q - 1 if entry is None else entry
    upper = entry * pivot if upper is None else upper
    L = np.tril(np.full((nrows, nrows), entry * pow(pivot, q - 2, q) % q), -1)
    U = np.triu(np.full((nrows, ncols), upper % q), 1)
    L += np.eye(nrows, dtype=np.int64)
    U += pivot * np.eye(nrows, ncols, dtype=np.int64)
    U[c0:, c0] = 0
    return L @ U % q


def test_kernel_vector_reduces_the_trailing_block_at_the_product_budget():
    # q = 16777213 allows T = floor((2^53 - q) / (q-1)^2) = 32 products per
    # entry, so panels are 32 wide and the trailing block must be reduced
    # before every panel after the first: on the largest-products matrices,
    # two panels' updates without it reach 64 (q-1)^2 > 2^53 and round
    q = 16777213
    assert (2**53 - q) // (q - 1) ** 2 == 32
    rng = np.random.default_rng(q)
    assert _assert_kernel_matches_reference(rng.integers(0, q, size=(110, 130)), q) == 110
    assert _assert_kernel_matches_reference(_largest_products_matrix(q, 110, 130, 110), q) == 110
    assert _assert_kernel_matches_reference(_largest_products_matrix(q, 120, 130, 100), q) == 100
    deficient = _matrix_with_free_col(rng, q, 120, 130, 100, duplicate=False)
    assert _assert_kernel_matches_reference(deficient, q) == 100


def test_kernel_vector_reduces_the_trailing_block_at_the_scaled_row_budget():
    # q = 32749 scales each pivot row by its inverse before the row's one
    # reduction, which allows T1 = floor(((2^53 - q) / (q-1) - (q-1)) / (q-1)^2)
    # = 256 products: four 64-wide panels, then the trailing block must be
    # reduced.  Every pivot (q-1)/2 has the inverse q - 2 and every update
    # subtracts (q-2)^2, all odd, so a fifth panel without the reduction would
    # scale 320 (q-2)^2 by q - 2, past 2^53, and round
    q = 32749
    assert ((2**53 - q) // (q - 1) - (q - 1)) // (q - 1) ** 2 == 4 * _PANEL == 256
    for nrows, ncols, c0 in [(330, 340, 330), (340, 345, 321)]:
        M = _largest_products_matrix(q, nrows, ncols, c0, pivot=(q - 1) // 2, entry=q - 2)
        assert _assert_kernel_matches_reference(M, q) == c0


def _balanced_worst_case(q: int, nrows: int, ncols: int, c0: int) -> np.ndarray:
    """Every multiplier and every entry of U above the diagonal is h = q // 2, every
    pivot is 2, whose balanced inverse is -h, and column c0 of U makes the kernel
    vector h on every column before c0: each update of the elimination and of
    the back-substitution subtracts h^2, all of one sign, and each scaled
    column is -h times its updates, at the bounds of _residue_kernel_vector."""
    h = q // 2
    M = _largest_products_matrix(q, nrows, ncols, c0, pivot=2, upper=h)
    u = np.zeros(nrows, dtype=np.int64)  # U[:c0, c0] = -(U[:c0, :c0] @ (h, ..., h))
    u[:c0] = -(2 * h + (c0 - 1 - np.arange(c0)) * h * h) % q
    M[:, c0] = (u + h * (np.cumsum(u) - u)) % q  # L u, L unit lower with h below
    return M


@pytest.mark.parametrize("q", [103, 107, 83003, 83009])
def test_kernel_vector_at_the_column_bound(q):
    # a full-panel multiplier column scaled by its pivot's inverse is at most
    # h (h + 63 h^2): below 2^23 up to q = 103, which runs in float32, and
    # q = 107 is the first in float64; below 2^52 up to q = 83003, and from
    # q = 83009 on the column is reduced before it is scaled.  On the worst
    # case every panel's last column takes 63 updates of h^2 and is scaled by
    # -h, and four panels show that each panel's columns are reduced at its
    # start
    h = q // 2
    column = h * (h + (_PANEL - 1) * h * h)
    assert (column < 2**23) == (q == 103) and (column < 2**52) == (q < 83009)
    assert interp._kernel_dtype(q) == (np.float32 if q == 103 else np.float64)
    for nrows, ncols, c0 in [(4 * _PANEL + 9, 4 * _PANEL + 20, 4 * _PANEL + 9),
                             (4 * _PANEL + 9, 4 * _PANEL + 20, 3 * _PANEL),
                             (_PANEL, _PANEL + 1, _PANEL)]:
        M = _balanced_worst_case(q, nrows, ncols, c0)
        assert _assert_kernel_matches_reference(M, q) == c0
        assert (_kernel_vector(M, q)[0][:c0] == h).all()


def test_kernel_vector_reduces_the_trailing_block_at_the_float32_budget():
    # at q = 103 (float32) an entry may take T = floor((2^23 - q) / h^2) = 3225
    # products of balanced residues, fifty 64-wide panels: the system has
    # 3331 pivots, one free column c0 = 3331 in their span and one after it;
    # the last row's multipliers are all h and the pivot rows hold h in
    # columns c0 and c0 + 1, so those two entries of the last row take
    # 64 h^2 a panel, all of one sign, and would pass T with the fifty-first
    # panel: the trailing block is reduced before it; the other rows keep the
    # reference elimination cheap
    q, h = 103, 51
    assert (2**23 - q) // h**2 == 3225 < 51 * _PANEL
    c0 = 52 * _PANEL + 3
    M = np.zeros((c0 + 2, c0 + 2), dtype=np.int32)
    M[np.arange(c0), np.arange(c0)] = 2
    M[:c0, c0:] = h
    M[-1, :c0] = 2 * h  # L's last row is h: h times the pivot 2
    M[-1, c0:] = c0 * h * h % q
    x_ref, rank, c0_ref = _reference_kernel_vector(M, q)
    assert rank == c0_ref == c0
    x, rank, free = _residue_kernel_vector(M.astype(np.float32), q)
    assert (rank, free) == (c0, c0)
    assert np.array_equal(x, x_ref)


def test_kernel_vector_reduces_balanced_products_at_the_float64_budget():
    # q = 16777213 allows T = floor((2^52 - q) / h^2) = 64 products of balanced
    # residues, one 64-wide panel, so the trailing block is reduced before
    # every panel after the first, and its columns are reduced before they are
    # scaled, as h (h + 63 h^2) passes 2^52; on the worst case two panels'
    # updates without the reduction reach 128 h^2 > 2^53, in the elimination
    # and in the back-substitution alike
    q = 16777213
    h = q // 2
    assert (2**52 - q) // h**2 == _PANEL and h * (h + (_PANEL - 1) * h * h) > 2**52
    for nrows, ncols, c0 in [(3 * _PANEL + 5, 3 * _PANEL + 9, 3 * _PANEL + 5),
                             (3 * _PANEL + 5, 3 * _PANEL + 9, 2 * _PANEL + 1)]:
        M = _balanced_worst_case(q, nrows, ncols, c0)
        assert _assert_kernel_matches_reference(M, q) == c0


def test_kernel_takes_float32_up_to_q_103(monkeypatch):
    # the plan emits its system in the dtype the elimination runs in: float32
    # where the column bound allows (q <= 103), float64 from q = 107 on
    seen = []
    eliminate = interp._forward_eliminate
    monkeypatch.setattr(interp, "_forward_eliminate", lambda A, *args: seen.append(A.dtype) or eliminate(A, *args))
    rng = random.Random(30)
    for q, dtype in [(13, np.float32), (31, np.float32), (101, np.float32), (103, np.float32),
                     (107, np.float64), (65521, np.float64)]:
        problem = None
        while problem is None:
            problem = _random_problem(rng, q)
        assert interp._plan(problem).matrix(problem.points).dtype == dtype
        seen.clear()
        Q, report = interpolate_with_report(problem)
        assert seen == [dtype]
        matrix = interp._plan(problem).matrix(problem.points).astype(np.int64)
        assert report.pivot_cols == _reference_kernel_vector(matrix, q)[2]


def test_flipped_kernel_entry_fails_the_certificate(monkeypatch):
    # one entry of x moved by one breaks A x = 0 (mod q), and list_decode raises
    # the named invariant instead of decoding from a wrong Q
    p = FRSParams(q=13, m=3, k=2, s=2, r=3)
    call = _benchmark_call(p, "decode-small/1")
    solve = interp._residue_kernel_vector

    def flipped(A, q, *args):
        x, rank, c0 = solve(A, q, *args)
        x[c0 // 2] = (x[c0 // 2] + 1) % q
        return x, rank, c0

    call()
    monkeypatch.setattr(interp, "_residue_kernel_vector", flipped)
    with pytest.raises(AssertionError, match="kernel certificate failed"):
        call()


# ---------------------------------------------------------------------------
# frozen Q for benchmark-shaped problems
# ---------------------------------------------------------------------------


class _Captured(Exception):
    pass


def _captured_problem(monkeypatch, call) -> InterpolationProblem:
    """The InterpolationProblem the decoder builds inside call()."""
    seen = []

    def grab(problem):
        seen.append(problem)
        raise _Captured

    with monkeypatch.context() as patch:
        patch.setattr(decoder, "interpolate_with_report", grab)
        with pytest.raises(_Captured):
            call()
    return seen[0]


def _random_message(params: FRSParams, rng: random.Random) -> UniPoly:
    return UniPoly.from_ints(params.field, [rng.randrange(params.q) for _ in range(params.k + 1)])


def _q_digest(Q) -> str:
    return hashlib.sha256(repr(sorted(Q.terms.items())).encode()).hexdigest()


def test_frozen_Q_unfolded_decode_shape(monkeypatch):
    # list_decode at q=101 m=5 k=8 s=1 r=3 with e = 13 of 20: a 600 x 612 system
    p = FRSParams(q=101, m=5, k=8, s=1, r=3)
    rng = random.Random(2)
    word = apply_channel(
        encode(p, _random_message(p, rng)), ChannelSpec(kind="uniform", e=13), rng, q=p.q
    )
    problem = _captured_problem(monkeypatch, lambda: decoder.list_decode(p, word))
    Q, report = interpolate_with_report(problem)
    assert (report.rows, report.cols, report.rank, report.substituted_degree) == (600, 612, 587, 9)
    assert _q_digest(Q) == "581ba19426ff7f1ee14594533c65fb9ca316fd856c37838d0c172082eaaa250c"


def test_frozen_Q_list_recovery_shape(monkeypatch):
    # list_recover at q=31 m=5 k=2 s=2 r=3 l=2, two planted codewords and 4 of
    # 6 sets replaced by junk: a 480 x 506 system
    p = FRSParams(q=31, m=5, k=2, s=2, r=3)
    rng = random.Random(3)
    cws = [encode(p, _random_message(p, rng)) for _ in range(2)]
    sets = [{cws[0][j], cws[1][j]} for j in range(p.N)]
    for j in rng.sample(range(p.N), 4):
        sets[j] = {tuple(rng.randrange(p.q) for _ in range(p.m)) for _ in range(2)}
    recovery = RecoverySets.from_iterables(sets, 2)
    problem = _captured_problem(monkeypatch, lambda: decoder.list_recover(p, recovery))
    Q, report = interpolate_with_report(problem)
    assert (report.rows, report.cols, report.rank, report.substituted_degree) == (480, 506, 473, 189)
    assert _q_digest(Q) == "fa971095682eacaaf0eaf36569965461ab9717256af2ebd013b64838b004077e"


# (params, seed of the word, system shape, first free column, digest of x): the
# first words of the benchmark workloads at seed 1, recorded with the
# multipliers scaled by their pivot's inverse and U not monic
_KERNEL_DIGESTS = [
    pytest.param(FRSParams(q=13, m=3, k=2, s=2, r=3), "decode-small/1", (80, 91), 78,
                 "24105264b30a0c42", id="decode-small"),
    pytest.param(FRSParams(q=101, m=5, k=8, s=1, r=3), "decode-interp/1", (600, 612), 590,
                 "bf7937a74ce12a75", id="decode-interp"),
    pytest.param(FRSParams(q=31, m=5, k=2, s=2, r=3), "recover-l2/1", (480, 506), 474,
                 "7eba38848e4c3386", id="recover-l2"),
]


@pytest.mark.parametrize("params, seed, shape, c0, x_digest", _KERNEL_DIGESTS)
def test_kernel_vector_matches_recorded_digests(monkeypatch, params, seed, shape, c0, x_digest):
    problem = _captured_problem(monkeypatch, _benchmark_call(params, seed))
    matrix = interp._plan(problem).matrix(problem.points)
    assert matrix.shape == shape
    x, rank, free = _residue_kernel_vector(matrix, params.q)
    assert (rank, free) == (c0, c0)
    assert _digest(x) == x_digest


# ---------------------------------------------------------------------------
# the per-code plan
# ---------------------------------------------------------------------------


def _plan_problem(rng, q, s, r, kind, npts=5):
    """A problem at q, s, r whose points come from a standard or shifted point set
    (kind "standard", "shifted") or repeat their X-coordinates ("repeated")."""
    variant = "shifted" if kind == "shifted" else "standard"
    m = max(s, 2 if q == 5 else 3)
    params = FRSParams(q=q, m=m, k=1, s=s, r=r, variant=variant)
    pts = interpolation_points(params, [rng.randrange(q) for _ in range(params.n)])[:npts]
    if kind == "repeated":
        pts = pts[: (npts + 1) // 2]
        pts += [(x,) + tuple((y + 1) % q for y in ys) for x, *ys in reversed(pts)]
    k = rng.randint(1, 2)
    D = choose_D(k, len(pts), r, s)
    return InterpolationProblem(field=params.field, points=tuple(pts), r=r, k=k, s=s, D=D)


def _shift_order(r, s):
    return sorted(_derivative_monomials(r, s), key=lambda b: (b[:0:-1], b[0]))


@pytest.mark.parametrize("q", [5, 7, 13])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_plan_matrix_matches_hasse_coefficients(q, s, r):
    rng = random.Random(q * 100 + s * 10 + r)
    kinds = ["standard", "repeated"] + (["shifted"] if s == 2 else [])
    for kind in kinds:
        problem = _plan_problem(rng, q, s, r, kind)
        exps = _column_exponents(problem.k, problem.D, problem.s)
        matrix = interp._plan(problem).matrix(problem.points)
        assert matrix.shape == (len(problem.points) * constraints_per_point(r, s), len(exps))
        rows = [(b, pt) for b in _shift_order(r, s) for pt in problem.points]
        for c, e in enumerate(exps.tolist()):
            monomial = MultiPoly(problem.field, s, problem.k, {tuple(e): 1})
            column = [hasse_coefficient(monomial, pt, b).value for b, pt in rows]
            assert matrix[:, c].tolist() == column, (kind, c)


@pytest.mark.parametrize("params, seed, shape, c0, x_digest", _KERNEL_DIGESTS)
def test_plan_kernel_vector_matches_recorded_digests(monkeypatch, params, seed, shape, c0, x_digest):
    # the path decoding takes: the plan's system, eliminated along its staircase
    problem = _captured_problem(monkeypatch, _benchmark_call(params, seed))
    x, free = interp._plan(problem).kernel_vector(problem.points)
    assert free == c0
    assert _digest(x) == x_digest


def test_plan_cache_is_keyed_by_the_x_coordinates():
    # two codes with the same q, k, r, s and D whose points differ only in
    # their X-coordinates, interleaved with a repeated word: every Q equals
    # the one a cold cache gives
    rng = random.Random(19)
    field = PrimeField(13)
    xs_a, xs_b = [1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]

    def problem(xs):
        pts = tuple((x, rng.randrange(13), rng.randrange(13)) for x in xs)
        return InterpolationProblem(field=field, points=pts, r=2, k=2, s=2, D=choose_D(2, 6, 2, 2))

    problems = [problem(xs_a), problem(xs_b), problem(xs_a), problem(xs_b)]
    problems.append(problems[0])
    cold = []
    for p in problems:
        interp._code_plan.cache_clear()
        cold.append(interp.interpolate_with_report(p))
    interp._code_plan.cache_clear()
    warm = [interp.interpolate_with_report(p) for p in problems]
    assert interp._code_plan.cache_info().currsize == 2
    for (Qc, rc), (Qw, rw) in zip(cold, warm):
        assert Qc == Qw and rc == rw


def test_list_recovery_words_of_one_code_share_a_plan(monkeypatch):
    # sets of different sizes, and tuples that share windows, so merged
    # points: the words' point tuples differ, yet their distinct
    # X-coordinates, and so their plan, are those of the code
    p = FRSParams(q=31, m=5, k=2, s=2, r=3)
    rng = random.Random(8)
    cw = encode(p, _random_message(p, rng))
    problems = []
    for extra in [0, 1, 2]:
        sets = [{cw[j]} for j in range(p.N)]
        where = rng.sample(range(p.N), 2 * extra + 1)
        for j in where[: extra + 1]:  # the symbol with its last entry changed
            sets[j].add(cw[j][:-1] + ((cw[j][-1] + 1) % p.q,))
        for j in where[extra + 1 :]:
            sets[j].add(tuple(rng.randrange(p.q) for _ in range(p.m)))
        recovery = RecoverySets.from_iterables(sets, 2)
        problems.append(_captured_problem(monkeypatch, lambda: decoder.list_recover(p, recovery)))
    assert len({len(pb.points) for pb in problems}) == 3
    interp._code_plan.cache_clear()
    warm = [interpolate_with_report(pb) for pb in problems]
    info = interp._code_plan.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for pb, (Q, _) in zip(problems, warm):  # each point's rows come from its own X-coordinate
        for pt in pb.points:
            for b in _derivative_monomials(pb.r, pb.s):
                assert hasse_coefficient(Q, pt, b) == p.field.zero()


@pytest.mark.parametrize("q", [13, 31, 101])
def test_rank_deficient_leading_block_matches_reference(q):
    # few distinct X-coordinates with many points each: more Y-part-0 columns
    # (D + 1) than distinct X times r, so the leading block has a free column,
    # and the first free column c0 of the whole system lies inside it
    rng = random.Random(q)
    field = PrimeField(q)
    for s, r, nx in [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 3, 2), (3, 1, 2)]:
        xs = rng.sample(range(q), nx)
        pts = set()
        while len(pts) < 3 * nx + 2:
            pts.add((rng.choice(xs),) + tuple(rng.randrange(q) for _ in range(s)))
        k = 1
        D = choose_D(k, len(pts), r, s)
        problem = InterpolationProblem(field=field, points=tuple(sorted(pts)), r=r, k=k, s=s, D=D)
        assert D + 1 > nx * r
        exps = _column_exponents(k, D, s)
        matrix = interp._plan(problem).matrix(problem.points).astype(np.int64)
        x_ref, _, c0_ref = _reference_kernel_vector(matrix, q)
        Q, report = interpolate_with_report(problem)
        assert report.pivot_cols == c0_ref <= D
        assert Q == MultiPoly(field, s, k, {tuple(e): v for e, v in zip(exps.tolist(), x_ref.tolist())})


def test_repeated_x_matches_reference():
    # list-recovery-shaped problems: every X-coordinate twice, so the plan
    # holds one row per distinct X and each word picks its rows; c0 lies past
    # the leading block
    rng = random.Random(5)
    for q, s, r in [(13, 1, 2), (13, 2, 2), (31, 2, 3), (31, 1, 3)]:
        problem = _plan_problem(rng, q, s, r, "repeated", npts=12)
        plan = interp._plan(problem)
        assert 2 * len(plan.row) == len(problem.points)
        exps = _column_exponents(problem.k, problem.D, s)
        matrix = interp._plan(problem).matrix(problem.points).astype(np.int64)
        x_ref, _, c0_ref = _reference_kernel_vector(matrix, q)
        Q, report = interpolate_with_report(problem)
        assert report.pivot_cols == c0_ref > problem.D
        x = {tuple(e): v for e, v in zip(exps.tolist(), x_ref.tolist())}
        assert Q == MultiPoly(problem.field, s, problem.k, x)


def test_plan_cache_stays_within_its_bound():
    field = PrimeField(13)
    interp._code_plan.cache_clear()
    for shift in range(interp._PLANS + 3):
        pts = tuple((x + shift, x) for x in range(1, 5))
        problem = InterpolationProblem(field=field, points=pts, r=1, k=1, s=1, D=choose_D(1, 4, 1, 1))
        plan = interp._plan(problem)
        interpolate(problem)
        assert interp._code_plan.cache_info().currsize == min(shift + 1, interp._PLANS)
    assert interp._plan(problem) is plan


def test_cached_arrays_refuse_writes():
    # a caller that writes into a cached array would corrupt every later decode
    p = FRSParams(q=13, m=3, k=2, s=2, r=3)
    problem = InterpolationProblem(
        field=p.field, points=tuple(interpolation_points(p, list(range(p.n)))), r=3, k=2, s=2, D=10
    )
    plan = interp._plan(problem)
    arrays = [
        poly._pascal_mod(13, 6),
        galois._gamma_pows(13, 12, 2),
        poly._weights(12, 2),
        poly._coordinate_functionals(13, 2, 2),
    ]
    for name in interp._Plan.__slots__:
        value = getattr(plan, name)
        arrays += [a for a in (value if isinstance(value, tuple) else (value,)) if isinstance(a, np.ndarray)]
    assert len(arrays) == 4 + 5 + 2 * constraints_per_point(3, 2)  # w and gidx per shift
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def test_vanished_Q_raises_the_named_invariant(monkeypatch):
    # a kernel vector without x[c0] = 1 would give Q = 0; the check is a raise,
    # so it holds under python -O as well
    problem = InterpolationProblem(field=PrimeField(5), points=((1, 1, 1),), r=1, k=1, s=2, D=2)
    monkeypatch.setattr(
        interp, "_residue_kernel_vector", lambda A, q, *args: (np.zeros(A.shape[1], dtype=np.int64), 0, 0)
    )
    with pytest.raises(AssertionError, match="Q vanished"):
        interpolate(problem)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: degree_bound_formula(0, 8, 3, 2), "all parameters must be at least 1"),
        (lambda: degree_bound_formula(2, 8, 3, 0), "all parameters must be at least 1"),
        (lambda: InterpolationProblem(PrimeField(13), ((1, 2),), r=1, k=2, s=2, D=5),
         "(1, 2) does not have s + 1 = 3 coordinates"),
        (lambda: InterpolationProblem(PrimeField(13), ((1, 2, 13),), r=1, k=2, s=2, D=5),
         "(1, 2, 13) has entries outside [0, 13)"),
    ],
)
def test_interp_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)

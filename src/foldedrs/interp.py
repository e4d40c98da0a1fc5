"""Weighted-degree selection and multivariate interpolation over F_q.

The interpolation step finds a nonzero Q(X, Y_1, ..., Y_s) of
(1,k,...,k)-weighted degree at most D vanishing to order r at every given
point.  Each point contributes C(r+s, s+1) homogeneous linear conditions
(one per shift monomial of total degree < r); a feasible D makes the
monomial count exceed the condition count, so the system has a nonzero
kernel vector.

The kernel vector is fixed by the matrix alone: c0 is the first column in
the span of the columns before it, x[c0] = 1, every later column gets 0,
and since the columns before c0 are independent the remaining entries are
unique.  Columns are ordered by the degree the monomial acquires after the
root-finding substitution Y_t -> Y^(q^(t-1)), so the chosen Q keeps that
substituted degree as small as the system allows; this both fixes
reproducibility and keeps the root-finding step cheap.

Because x does not depend on the pivot rows, it is found by blocked,
left-looking elimination and back-substitution in place on the system, with
the delayed modular reduction of Dumas, Giorgi and Pernet (FFLAS-FFPACK,
2008) on balanced residues, |r| <= h = q // 2.  Each pivot's multipliers are
scaled by its inverse and its row is left unscaled, so an entry is reduced
only before it could hold more than T = floor((L - q) / h^2) products of two
balanced residues, and a multiplier column holds at most one panel's
products when it is scaled: h (h + 63 h^2) at the 64-column panel.  With
L = 2^23 in float32 and 2^52 in float64 every sum is then an exact integer
and the reduction x - q rint(x / q) is exact.  The column bound picks the
dtype: float32 for q <= 103, float64 above, where past q ~ 83000 the column
is also reduced before it is scaled (``_residue_kernel_vector``).  The
decoder checks the result: the elimination runs on a copy of the system, and
A x = 0 (mod q) is checked on the system itself (``_Plan.kernel_vector``).

Half of the system belongs to the code, not to the word.  An entry is a
binomial-and-X-power factor, fixed by q, k, r, s, D and the points' distinct
X-coordinates, times a Y-power factor of the received values.  So a plan
(``_Plan``), built on first use and kept for the last _PLANS codes, holds per
code the column and shift orders, the staircase of zero entries and the
first factor of every entry, one row per distinct X-coordinate.  Per word
there remain the Y-powers, one product and one reduction per entry, the
elimination and Q.  Every product of residues is reduced whenever its next
factor could take it past 2^53 - q, so each is exact; the plan stores
residues below q <= 2^24 (checked) in float32, which holds them exactly, and
emits the system's residues in [0, q) in the elimination's dtype.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .galois import ParameterError, PrimeField, _check_float_exact
from .poly import MultiPoly, _fmod, _pascal_mod, _weighted_exponents, count_weighted_monomials

_PANEL = 64  # widest elimination panel; see _residue_kernel_vector
_PLANS = 4  # codes whose interpolation plans stay cached; see _plan


def _integer_root(value: int, degree: int) -> int:
    """floor(value ** (1/degree)) by integer binary search, no floating point."""
    lo, hi = 0, 1
    while hi**degree <= value:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**degree <= value:
            lo = mid
        else:
            hi = mid
    return lo


def constraints_per_point(r: int, s: int) -> int:
    """Number of vanishing conditions per point: C(r+s, s+1)."""
    return math.comb(r + s, s + 1)


def degree_bound_formula(k: int, n0: int, r: int, s: int) -> int:
    """The closed-form degree bound floor((k^s n0 r(r+1)...(r+s))^(1/(s+1))) + 1."""
    if min(k, n0, r, s) < 1:
        raise ValueError("all parameters must be at least 1")
    radicand = k**s * n0
    for j in range(s + 1):
        radicand *= r + j
    return _integer_root(radicand, s + 1) + 1


def choose_D(k: int, n0: int, r: int, s: int) -> int:
    """Smallest feasible weighted-degree bound.

    Starts from the closed-form value and decrements while the exact monomial
    count still exceeds n0 * C(r+s, s+1), the count of vanishing conditions;
    the result is the least D (at least 1) for which the homogeneous system
    is guaranteed a nonzero solution.  The closed-form start is available
    separately as degree_bound_formula for logs and comparisons.
    """
    D = degree_bound_formula(k, n0, r, s)
    need = n0 * constraints_per_point(r, s)
    if count_weighted_monomials(k, D, s) <= need:
        raise ParameterError(f"closed-form degree bound D = {D} is not feasible")
    while D > 1 and count_weighted_monomials(k, D - 1, s) > need:
        D -= 1
    return D


@dataclass(frozen=True)
class InterpolationProblem:
    """A multiplicity-r vanishing problem at a set of (s+1)-tuples over F_q."""

    field: PrimeField
    points: tuple[tuple[int, ...], ...]
    r: int
    k: int
    s: int
    D: int

    def __post_init__(self):
        for name, least in (("r", 1), ("k", 1), ("s", 1), ("D", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"need {name} >= {least}, got {getattr(self, name)}")
        q = self.field.q
        for pt in self.points:
            if len(pt) != self.s + 1:
                raise ValueError(f"point {pt} does not have s + 1 = {self.s + 1} coordinates")
            if any(not 0 <= int(v) < q for v in pt):
                raise ValueError(f"point {pt} has entries outside [0, {q})")


@dataclass(frozen=True)
class InterpReport:
    """Dimensions and diagnostics of the solved linear system.

    ``pivot_cols`` is the index c0 of the first free column, the one given
    coefficient 1 in Q.  ``rank`` counts the pivots before it; every column
    before c0 is a pivot, so the two are always equal.
    """

    rows: int
    cols: int
    rank: int
    pivot_cols: int
    substituted_degree: int


def _derivative_monomials(r: int, s: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree < r in s+1 variables, the shift targets.

    These are the monomials of (1,1,...,1)-weighted degree <= r - 1.
    """
    return list(map(tuple, _weighted_exponents(1, r - 1, s).tolist()))


def _column_exponents(k: int, D: int, s: int) -> np.ndarray:
    """Exponent vectors of the unknowns in column order, one int64 row each.

    Columns go by substituted degree sum_t j_t q^(t-1), which orders like its
    digits (j_s, ..., j_1) as every j_t <= D // k < q, then weighted degree,
    then exponent vector."""
    exps = _weighted_exponents(k, D, s)
    wdeg = exps[:, 0] + k * exps[:, 1:].sum(axis=1)
    return exps[np.lexsort((*exps.T[::-1], wdeg, *exps[:, 1:].T))]


def _powers(base: np.ndarray, top: int, q: int) -> np.ndarray:
    """pows[..., e] = base^e mod q for e <= top, from float64 residues base."""
    pows = np.empty(base.shape + (top + 1,))
    pows[..., 0] = 1
    for e in range(1, top + 1):
        pows[..., e] = _fmod(pows[..., e - 1] * base, q)
    return pows


class _Plan:
    """What the Hasse system takes from its code: q, k, r, s, D and the distinct
    X-coordinates xs of its points (see the module docstring), in read-only arrays.

    The system (``matrix``) has one row per (point, shift monomial) pair, and
    its entries are Hasse shift coefficients: that of the shift monomial b in
    the translate of X^e0 Y^e is prod_t C(e_t, b_t) * a_t^(e_t - b_t).  Rows are
    shift-major: row i * len(points) + p belongs to shift i and point p, and
    column c to exps[c] = ``_column_exponents(k, D, s)``[c].  The shifts b go by
    their Y-part (b_1, ..., b_s) in the order of the columns' Y-parts
    (substituted degree), then by b0.  The rows of b vanish on every column e
    without e >= b, so on every column whose Y-part comes before b's; in this
    order the rows form a staircase along the columns, and the elimination
    meets fewer zero diagonal entries and stops each column at the staircase.
    Row order does not change the kernel vector (see _residue_kernel_vector).
    Entries are residues in [0, q), in the kernel's dtype (``_kernel_dtype``):
    the plan's factor times the word's Y-power factor, reduced once (see the
    module docstring).

    Shift i has its rows zero left of column ``starts[i]``; from there ``w[i]``
    holds the binomials and X-powers of its entries, one row per X-coordinate
    in xs, and ``gidx[i]`` each column's entry of the word's Y-power factors.
    In a system of npts points, rows from npts * stair[c] on vanish on columns
    0..c.
    """

    __slots__ = ("q", "top", "row", "exps", "jlex", "vlex", "ydeg", "w", "starts", "gidx", "stair")

    def __init__(self, q: int, k: int, r: int, s: int, D: int, xs: tuple[int, ...]):
        _check_float_exact(_PANEL // 2, q, "interpolation kernel")  # so float32 holds residues
        exps = _column_exponents(k, D, s)
        shifts = sorted(_derivative_monomials(r, s), key=lambda b: (b[:0:-1], b[0]))
        self.q, self.top, self.exps = q, D // k, exps
        self.row = {x: i for i, x in enumerate(xs)}
        self.jlex, vlex = np.unique(exps[:, 1:], axis=0, return_inverse=True)
        self.vlex = vlex = vlex.reshape(-1)
        # a shift's rows vanish left of the first column whose Y-part is not before its own
        firsts = np.flatnonzero(np.r_[True, (exps[1:, 1:] != exps[:-1, 1:]).any(axis=1), True])
        keys = [tuple(exps[c, :0:-1].tolist()) for c in firsts[:-1]]
        parts = {b: g for g, b in enumerate(dict.fromkeys(b[1:] for b in shifts))}
        bys = np.array(list(parts), dtype=np.int64).reshape(-1, s)
        # binomials prod_t C(j_t, b_t) and exponents j - b, per (shift Y-part, column Y-part)
        pascal = _pascal_mod(q, max(D, r)).astype(np.float64)
        yb = np.ones((len(bys), len(self.jlex)))
        for t in range(s):
            yb = _fmod(yb * pascal[self.jlex[:, t], bys[:, t, None]], q)
        self.ydeg = np.maximum(self.jlex - bys[:, None], 0).reshape(-1, s).T.copy()
        xpow = _powers(np.array(xs, dtype=np.float64), D, q)
        w, starts, gidx = [], [], []
        for b in shifts:
            g, start = parts[b[1:]], int(firsts[sum(key < b[:0:-1] for key in keys)])
            e0 = exps[start:, 0]
            coef = _fmod(pascal[e0, b[0]] * yb[g, vlex[start:]], q)
            w.append(_fmod(coef * xpow[:, np.maximum(e0 - b[0], 0)], q).astype(np.float32))
            starts.append(start)
            gidx.append(g * len(self.jlex) + vlex[start:])
        self.w, self.starts, self.gidx = tuple(w), tuple(starts), tuple(gidx)
        self.stair = np.searchsorted(starts, np.arange(len(exps)), side="right")
        for a in (exps, self.jlex, vlex, self.ydeg, self.stair, *w, *gidx):
            a.flags.writeable = False

    def matrix(self, points) -> np.ndarray:
        """The system at points whose distinct X-coordinates, in order of first
        appearance, are the plan's xs."""
        A = np.zeros((len(self.w) * len(points), len(self.exps)), dtype=_kernel_dtype(self.q))
        return self._fill(A, points)

    def _fill(self, A: np.ndarray, points) -> np.ndarray:
        """A, contiguous zeros of the system's shape and dtype, with the system at
        points written in."""
        q = self.q
        ys = np.array(points, dtype=np.float64).reshape(-1, len(self.ydeg) + 1)[:, 1:]
        ypow = _powers(ys, self.top, q)
        G, bound = ypow[:, 0].take(self.ydeg[0], axis=1), q - 1
        for t in range(1, len(self.ydeg)):  # G[p, (shift Y-part, column Y-part)]
            if bound * (q - 1) > 2**53 - q:
                G, bound = _fmod(G, q), q - 1
            G *= ypow[:, t].take(self.ydeg[t], axis=1)
            bound *= q - 1
        G = _fmod(G, q).astype(A.dtype, copy=False)
        # where no X-coordinate repeats, the points' X-coordinates are xs in order
        rows = np.array([self.row[int(pt[0])] for pt in points]) if len(ys) > len(self.row) else None
        shifts = A.reshape(len(self.w), len(ys), len(self.exps))  # a view, as A is contiguous
        for i, (w, start, gidx) in enumerate(zip(self.w, self.starts, self.gidx)):
            np.multiply(w if rows is None else w.take(rows, axis=0), G.take(gidx, axis=1),
                        out=shifts[i, :, start:])
            _fmod(shifts[i, :, start:], q)  # shift by shift, while its rows are in cache
        return A

    def kernel_vector(self, points) -> tuple[np.ndarray, int]:
        """(x, c0) of the system A at points (see ``matrix``), certified: the
        elimination runs on a copy, and A x = 0 (mod q) is checked on A itself.

        A and the copy are the halves of one allocation, and A is written in
        place: at 600 x 612, two separate arrays made the allocator return its
        heap after every word and fault it back in (~850 minor faults, ~1 ms a
        word), and stacking a built A with its copy raised peak RSS.  The check
        is one product A[:, :c0+1] x[:c0+1] of residues below q, taken in column
        chunks of at most floor((L - q) / (q-1)^2) products per sum, with
        L = 2^24 in float32 and 2^53 in float64, so each chunk's sum is exact
        and ``_fmod`` reduces it exactly; the reduced chunks add up in int64.
        Raises AssertionError, naming the invariant, when the check fails.
        """
        q = self.q
        A, work = np.zeros((2, len(self.w) * len(points), len(self.exps)), dtype=_kernel_dtype(q))
        work[:] = self._fill(A, points)
        x, c0 = _residue_kernel_vector(work, q, len(points) * self.stair)[:2]
        step = ((2**24 if A.dtype == np.float32 else 2**53) - q) // (q - 1) ** 2
        A, xs = A[:, : c0 + 1], x[: c0 + 1].astype(A.dtype)
        residue = sum(_fmod(A[:, c : c + step] @ xs[c : c + step], q).astype(np.int64)
                      for c in range(0, c0 + 1, step))
        if (residue % q).any():
            raise AssertionError("kernel certificate failed: A x != 0 (mod q) for the interpolation system")
        return x, c0

    def poly(self, field: PrimeField, s: int, k: int, x: np.ndarray) -> MultiPoly:
        """Q with coefficient x[c] on column c, from one scatter."""
        nz = np.flatnonzero(x)
        xdeg = self.exps[nz, 0]
        M = np.zeros((int(xdeg.max(initial=-1)) + 1, len(self.jlex)), dtype=np.int64)
        M[xdeg, self.vlex[nz]] = x[nz]
        live = M.any(axis=0)
        return MultiPoly._from_arrays(field, s, k, M[:, live], self.jlex[live])


_code_plan = functools.lru_cache(maxsize=_PLANS)(_Plan)


def _plan(problem: InterpolationProblem) -> _Plan:
    """The plan of the problem's code, built on first use; the _PLANS most
    recently used stay cached.  It is keyed by the points' distinct
    X-coordinates, so list-recovery words of one code share it however their
    sets merge points."""
    xs = tuple(dict.fromkeys(int(pt[0]) for pt in problem.points))
    return _code_plan(problem.field.q, problem.k, problem.r, problem.s, problem.D, xs)


def _kernel_dtype(q: int) -> type:
    """float32 where a full panel's scaled multiplier column, h (h + (_PANEL - 1) h^2)
    with h = q // 2, stays below 2^23 (q <= 103), float64 otherwise; see
    ``_residue_kernel_vector``."""
    h = q // 2
    return np.float32 if h * (h + (_PANEL - 1) * h * h) < 2**23 else np.float64


def _balance(x: np.ndarray, q: int) -> np.ndarray:
    """x reduced in place to the balanced residue |x| <= q // 2, exact for integer-valued
    float32 x with |x| < 2^23 and float64 x with |x| < 2^52.

    With x = n q + r, |r| <= (q-1)/2 for odd q: fl(x / q) is within
    2^-24 |x / q| < 1/(2q) of x / q in float32 (2^-53 |x / q| in float64),
    and the nearest half-integer is at least 1/(2q) away, so rint gives n;
    |q n| <= |x| + q/2 stays exact.  For q = 2, x / q is exact.
    """
    x -= q * np.rint(x / q)
    return x


def _forward_eliminate(
    A: np.ndarray, q: int, width: int, budget: int, scale_first: bool, row_end: np.ndarray
) -> list[int]:
    """Blocked forward elimination of residues A in place, up to the first free column.

    Returns the inverses of the pivots mod q, one per column before the first
    free column c0, so c0 is their count.  Rows from row_end[j] on must vanish
    on columns 0..j, row_end nondecreasing (a staircase).  Afterwards rows
    0..c0-1 of A hold the pivot rows, unscaled: their entries in columns
    i+1..c0 (row i) form the strictly upper part of the upper-triangular block
    U, whose diagonal holds the pivots, and the column of c0, as balanced
    residues; A's diagonal holds 1, each pivot times its inverse.

    Panels of ``width`` columns are left-looking: column j takes the updates
    of the panel's earlier pivots as one gemv, and its first entry that is
    nonzero mod q is the pivot.  The multipliers below it are scaled by the
    pivot's inverse and reduced once; where ``scale_first`` is off they are
    also reduced before the scaling.  The pivot row takes the same updates
    over the rest of its row as one gemv and is reduced.  The rows below the
    panel then take its updates on the trailing columns as one gemm: a scaled
    multiplier times an unscaled row.  The panel's columns are reduced at its
    start, the trailing block only when the panel would take its count of
    subtracted products past ``budget``.  Column updates, pivot searches and
    gemms stop at the staircase: rows from row_end[j] on take no update of
    column j, and no row swap.
    """
    nrows, ncols = A.shape
    h = q // 2
    inverses = []
    pending = 0  # products subtracted from the trailing block since it was last reduced
    for j0 in range(0, ncols, width):
        pe = min(j0 + width, ncols)
        if pending + width > budget:
            _balance(A[j0 : row_end[j0 - 1], pe:], q)
            pending = 0
        _balance(A[j0 : row_end[pe - 1], j0:pe], q)
        for j in range(j0, pe):
            col = A[j : row_end[j], j]
            col -= A[j : row_end[j], j0:j] @ A[j0:j, j]
            if not scale_first:
                _balance(col, q)
            pivot = int(col[0]) % q if len(col) else 0
            if not pivot:  # no pivot in place: search below (fmod of floats is exact)
                nz = np.flatnonzero(np.fmod(col, q))
                if len(nz) == 0:
                    return inverses
                A[[j, j + nz[0]]] = A[[j + nz[0], j]]
                pivot = int(col[0])
            inverse = pow(pivot, -1, q)
            inverses.append(inverse)
            col *= inverse - q if inverse > h else inverse
            _balance(col, q)
            row = A[j, j + 1 :]
            row -= A[j, j0:j] @ A[j0:j, j + 1 :]
            _balance(row, q)
        if pe < min(nrows, ncols):
            A[pe : row_end[pe - 1], pe:] -= A[pe : row_end[pe - 1], j0:pe] @ A[j0:pe, pe:]
            pending += width
    raise AssertionError("no free column: the system was not underdetermined")


def _kernel_vector(matrix: np.ndarray, q: int) -> tuple[np.ndarray, int, int]:
    """First-free-column kernel vector of an integer matrix (|v| <= 2^53 - q) over F_q:
    ``_residue_kernel_vector`` of a copy reduced mod q."""
    return _residue_kernel_vector(_fmod(np.array(matrix, dtype=np.float64), q), q)


def _residue_kernel_vector(
    A: np.ndarray, q: int, row_end: np.ndarray | None = None
) -> tuple[np.ndarray, int, int]:
    """First-free-column kernel vector of a float matrix A of residues mod q,
    eliminated in place when its dtype is ``_kernel_dtype(q)`` (``_Plan.matrix``
    emits such a matrix) and in a copy otherwise.

    Let c0 be the first column that lies in the span of the columns before
    it.  Columns 0..c0-1 are then linearly independent, so there is exactly
    one kernel vector x with x[c0] = 1 and x[c] = 0 for c > c0.  Both c0 and
    x depend on the matrix only, not on which rows serve as pivots, so
    forward elimination over the unused rows (_forward_eliminate, which
    takes the staircase ``row_end``, all rows by default) finds c0, and
    back-substitution through the c0 x c0 upper-triangular pivot
    block U solves U x[:c0] = -(column c0 of the pivot rows), by blocks of
    columns.  Returns (x, c0, c0): the rank of the columns before c0, which is
    c0, and c0 itself.

    Exactness, with h = q // 2 and the delayed reduction of Dumas, Giorgi and
    Pernet (FFLAS-FFPACK, ACM TOMS 35, 2008).  Every reduction is ``_balance``,
    so every multiplier and every entry of U is a balanced residue, |r| <= h,
    and every product of two is at most h^2.  An entry starts below q and takes
    at most T = floor((L - q) / h^2) products before each reduction, so it
    stays below L, with L = 2^23 in float32 and 2^52 in float64, where
    ``_balance`` is exact: the trailing budget T is 3355 products at q = 101,
    64 at q = 16777213.  A multiplier column is reduced at its panel's start
    and takes at most width - 1 products, so scaled by its pivot's balanced
    inverse it is at most h (h + (width - 1) h^2) before its one reduction.
    That column bound picks the dtype (``_kernel_dtype``): at the full width
    _PANEL = 64 it stays below 2^23 for q <= 103, which run in float32, and
    below 2^52 up to q ~ 83000 in float64.  Above that the column is reduced
    before it is scaled as well (``scale_first`` off), which keeps it below h^2.
    Panels are min(_PANEL, T) wide; q above 2^24, where float32 would not hold
    the plan's residues and _PANEL // 2 (q-1)^2 + q passes 2^53, raises
    ParameterError.  Sums of integers below L are exact in any order, so BLAS
    may split them as it likes.  The back-substitution sums the same products,
    reduces after each block, and multiplies by each pivot's inverse as one
    Python int.  Raises AssertionError when every column is a pivot.
    """
    _check_float_exact(_PANEL // 2, q, "interpolation kernel")
    dtype, h = _kernel_dtype(q), q // 2
    limit = 2**23 if dtype is np.float32 else 2**52
    budget = (limit - q) // h**2
    width = min(_PANEL, budget)
    scale_first = h * (h + (width - 1) * h * h) < limit
    A = A.astype(dtype, copy=False)
    if row_end is None:
        row_end = np.full(A.shape[1], A.shape[0])
    inverses = _forward_eliminate(A, q, width, budget, scale_first, row_end)
    c0 = len(inverses)
    y = np.zeros(A.shape[1], dtype=dtype)  # y = -x, so each sum below is a residue minus products
    rhs = A[:c0, c0].copy()
    for b0 in range(c0 - 1 - (c0 - 1) % width, -1, -width):
        b1 = min(b0 + width, c0)
        for i in range(b1 - 1, b0 - 1, -1):
            y[i] = (int(rhs[i] - A[i, i + 1 : b1] @ y[i + 1 : b1]) * inverses[i] + h) % q - h
        rhs[:b0] -= A[:b0, b0:b1] @ y[b0:b1]
        _balance(rhs[:b0], q)
    y[c0] = -1
    return (-y % q).astype(np.int64), c0, c0


def interpolate_with_report(problem: InterpolationProblem) -> tuple[MultiPoly, InterpReport]:
    """Nonzero Q with weighted degree <= D vanishing to order r at every point.

    Raises ParameterError when the monomial count does not exceed the number
    of conditions, or when floor(D/k) >= q (the root-finding step needs the
    substituted polynomial to have Y_1-degree below q).
    """
    k, D, s, r = problem.k, problem.D, problem.s, problem.r
    q = problem.field.q
    if D // k >= q:
        raise ParameterError(
            f"floor(D/k) = {D // k} >= q = {q}: Y-degrees too large for root finding"
        )
    n_conditions = len(problem.points) * constraints_per_point(r, s)
    ncols = count_weighted_monomials(k, D, s)
    if ncols <= n_conditions:
        raise ParameterError(
            f"{ncols} monomials vs {n_conditions} conditions: system not underdetermined"
        )
    plan = _plan(problem)
    x, free_col = plan.kernel_vector(problem.points)
    Q = plan.poly(problem.field, s, k, x)
    if Q.is_zero:
        raise AssertionError("kernel vector without its entry x[c0] = 1: Q vanished")
    # columns go by substituted degree, and free_col is the last one in Q
    sub_deg = sum(j * q**t for t, j in enumerate(plan.exps[free_col, 1:].tolist()))
    report = InterpReport(
        rows=n_conditions,
        cols=ncols,
        rank=free_col,
        pivot_cols=free_col,
        substituted_degree=sub_deg,
    )
    return Q, report


def interpolate(problem: InterpolationProblem) -> MultiPoly:
    """See interpolate_with_report; identical problems yield identical Q."""
    return interpolate_with_report(problem)[0]

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
left-looking elimination and back-substitution on a float64 copy of the
matrix, with the delayed modular reduction of Dumas, Giorgi and Pernet
(FFLAS-FFPACK, 2008): an entry is reduced by ``poly._fmod`` only before it
could hold more than T = floor((2^53 - q) / (q-1)^2) products of residues,
so |x| <= T (q-1)^2 <= 2^53 - q and every float64 sum is exact.

Half of the system belongs to the code, not to the word.  An entry is a
binomial-and-X-power factor, fixed by q, k, r, s, D and the points' distinct
X-coordinates, times a Y-power factor of the received values.  So a plan
(``_Plan``), built on first use and kept for the last _PLANS codes, holds per
code the column and shift orders, the staircase of zero entries and the
first factor of every entry, one row per distinct X-coordinate.  Per word
there remain the Y-powers, one product and one reduction per entry, the
elimination and Q.  Every product of residues is reduced whenever its next
factor could take it past 2^53 - q, so each is exact; the plan stores
residues below q <= 2^24 (checked) in float32, which holds them exactly.
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
    if value < 0:
        raise ValueError("negative radicand")
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
    Entries are float64 residues: the plan's factor times the word's Y-power
    factor, reduced once (see the module docstring).

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
        q = self.q
        ys = np.array(points, dtype=np.float64).reshape(-1, len(self.ydeg) + 1)[:, 1:]
        ypow = _powers(ys, self.top, q)
        G, bound = ypow[:, 0].take(self.ydeg[0], axis=1), q - 1
        for t in range(1, len(self.ydeg)):  # G[p, (shift Y-part, column Y-part)]
            if bound * (q - 1) > 2**53 - q:
                G, bound = _fmod(G, q), q - 1
            G *= ypow[:, t].take(self.ydeg[t], axis=1)
            bound *= q - 1
        _fmod(G, q)
        # where no X-coordinate repeats, the points' X-coordinates are xs in order
        rows = np.array([self.row[int(pt[0])] for pt in points]) if len(ys) > len(self.row) else None
        A = np.zeros((len(self.w), len(ys), len(self.exps)))
        for i, (w, start, gidx) in enumerate(zip(self.w, self.starts, self.gidx)):
            np.multiply(w if rows is None else w.take(rows, axis=0), G.take(gidx, axis=1),
                        out=A[i, :, start:])
            _fmod(A[i, :, start:], q)  # shift by shift, while its rows are in cache
        return A.reshape(-1, len(self.exps))

    def kernel_vector(self, points) -> tuple[np.ndarray, int]:
        """(x, c0) of the system at points (see ``matrix``)."""
        return _residue_kernel_vector(self.matrix(points), self.q, len(points) * self.stair)[:2]

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


def _forward_eliminate(
    A: np.ndarray, q: int, width: int, budget: int, scale_first: bool, row_end: np.ndarray
) -> int:
    """Blocked forward elimination of float64 residues A in place, up to the first free column.

    Returns the first free column c0.  Rows from row_end[j] on must vanish on
    columns 0..j, row_end nondecreasing (a staircase).  Afterwards rows
    0..c0-1 of A hold the pivot rows, each scaled by its pivot's inverse:
    their entries in columns i+1..c0 (row i) form the strictly upper part of
    the unit upper-triangular block U and the column of c0, as residues.

    Panels of ``width`` columns are left-looking: column j takes the updates
    of the panel's earlier pivots as one gemv and is reduced, and its first
    nonzero entry is the pivot; the multipliers below it stay unscaled.  The
    pivot row takes the same updates over the rest of its row as one gemv, is
    scaled by the pivot's inverse and is reduced once; where ``scale_first`` is
    off it is also reduced before the scaling.  The rows below the panel then
    take its updates on the trailing columns as one gemm: a multiplier times a
    scaled row is the scaled multiplier times the row.  The panel's columns are
    reduced at its start, the trailing block only when the panel would take its
    count of subtracted products past ``budget``.  Column updates, pivot
    searches and gemms stop at the staircase: rows from row_end[j] on take no
    update of column j, and no row swap.
    """
    nrows, ncols = A.shape
    pending = 0  # products subtracted from the trailing block since it was last reduced
    for j0 in range(0, ncols, width):
        pe = min(j0 + width, ncols)
        if pending + width > budget:
            _fmod(A[j0 : row_end[j0 - 1], pe:], q)
            pending = 0
        _fmod(A[j0 : row_end[pe - 1], j0:pe], q)
        for j in range(j0, pe):
            col = A[j : row_end[j], j]
            col -= A[j : row_end[j], j0:j] @ A[j0:j, j]
            if not len(col) or not _fmod(col, q)[0]:  # no pivot in place: search below
                nz = np.flatnonzero(col)
                if len(nz) == 0:
                    return j
                A[[j, j + nz[0]]] = A[[j + nz[0], j]]
            row = A[j, j + 1 :]
            row -= A[j, j0:j] @ A[j0:j, j + 1 :]
            if not scale_first:
                _fmod(row, q)
            row *= pow(int(col[0]), q - 2, q)
            _fmod(row, q)
        if pe < min(nrows, ncols):
            A[pe : row_end[pe - 1], pe:] -= A[pe : row_end[pe - 1], j0:pe] @ A[j0:pe, pe:]
            pending += width
    raise AssertionError("no free column: the system was not underdetermined")


def _kernel_vector(matrix: np.ndarray, q: int) -> tuple[np.ndarray, int, int]:
    """First-free-column kernel vector of an integer matrix (|v| <= 2^53 - q) over F_q:
    ``_residue_kernel_vector`` of a float64 copy reduced mod q."""
    return _residue_kernel_vector(_fmod(np.array(matrix, dtype=np.float64), q), q)


def _residue_kernel_vector(
    A: np.ndarray, q: int, row_end: np.ndarray | None = None
) -> tuple[np.ndarray, int, int]:
    """First-free-column kernel vector of a float64 matrix A of residues mod q,
    eliminated in place (``_Plan.matrix`` emits such a matrix).

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

    Every entry starts as a residue, and is a residue minus at most a budget
    of products of residues before each _fmod.  A pivot row is scaled by its
    pivot's inverse (at most q - 1) before its one _fmod, so its products are
    bounded by T1 = floor(((2^53 - q) / (q-1) - (q-1)) / (q-1)^2), which keeps
    (q-1) (T1 (q-1)^2 + q - 1) <= 2^53 - q: T1 is 9.0e9 at q = 101 and 256 at
    q = 32749.  Where T1 leaves no room for a full panel (T1 < _PANEL, q above
    about 52000; T1 = 32 at q = 65521), the row is reduced before it is
    scaled and the budget is T = floor((2^53 - q) / (q-1)^2), so
    -T (q-1)^2 <= x <= q - 1.  Either way every sum is exact.  Panels are
    min(_PANEL, budget) wide; q above 2^24 (T < _PANEL // 2) raises
    ParameterError.  U has a unit diagonal, so back-substitution takes no
    inverse.  Raises AssertionError when every column is a pivot.
    """
    _check_float_exact(_PANEL // 2, q, "interpolation kernel")
    budget = ((2**53 - q) // (q - 1) - (q - 1)) // (q - 1) ** 2
    scale_first = budget >= _PANEL
    if not scale_first:
        budget = (2**53 - q) // (q - 1) ** 2
    width = min(_PANEL, budget)
    if row_end is None:
        row_end = np.full(A.shape[1], A.shape[0])
    c0 = _forward_eliminate(A, q, width, budget, scale_first, row_end)
    y = np.zeros(A.shape[1])  # y = -x, so each sum below is a residue minus products
    rhs = A[:c0, c0].copy()
    for b0 in range(c0 - 1 - (c0 - 1) % width, -1, -width):
        b1 = min(b0 + width, c0)
        for i in range(b1 - 1, b0 - 1, -1):
            y[i] = int(rhs[i] - A[i, i + 1 : b1] @ y[i + 1 : b1]) % q
        rhs[:b0] -= A[:b0, b0:b1] @ y[b0:b1]
        _fmod(rhs[:b0], q)
    y[c0] = q - 1
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

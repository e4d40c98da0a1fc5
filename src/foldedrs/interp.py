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

Because x does not depend on the pivot rows, it is found by blocked forward
elimination (panels of _PANEL columns, lazy int64 reduction inside a panel,
one float64 matmul per panel for the trailing rows) and back-substitution,
the scheme of Dumas, Giorgi and Pernet (FFLAS-FFPACK, 2008) for word-size
prime fields.  The float64 products are exact while _PANEL * (q-1)^2 < 2^53,
which _kernel_vector checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galois import ParameterError, PrimeField, _check_float_exact
from .poly import (
    Monomial,
    MultiPoly,
    _pascal_mod,
    count_weighted_monomials,
    enumerate_weighted_monomials,
)

_PANEL = 32  # columns per elimination panel; see _kernel_vector


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
    """Exponent vectors of total degree < r in s+1 variables, the shift targets."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], r - 1, s + 1)
    return [v for v in out if sum(v) < r]


def _column_order_key(q: int, k: int):
    def key(mon: Monomial):
        e = mon.exponents
        substituted = sum(j * q**t for t, j in enumerate(e[1:]))
        return (substituted, mon.weighted_degree(k), e)

    return key


def _assemble_matrix(problem: InterpolationProblem, cols: list[Monomial]) -> np.ndarray:
    """One row per (point, shift monomial) pair; entries are Hasse shift coefficients.

    The coefficient of the shift monomial b in the translate of X^e0 Y^e is
    prod_t C(e_t, b_t) * a_t^(e_t - b_t).  The binomial part depends on the
    column only and the power part is a lookup in per-point power tables, so
    each shift monomial fills its rows for all points at once.  Rows are
    point-major: row p * len(shifts) + i belongs to point p and shift i.
    """
    q = problem.field.q
    s = problem.s
    exps = np.array([c.exponents for c in cols], dtype=np.int64)  # (ncols, s+1)
    max_e = int(exps.max())
    pascal = _pascal_mod(q, max_e)
    # pows[p, t, e] = a_t^e for coordinate t of point p
    coords = np.array(problem.points, dtype=np.int64).reshape(-1, s + 1) % q
    pows = np.ones((len(coords), s + 1, max_e + 1), dtype=np.int64)
    for e in range(1, max_e + 1):
        pows[:, :, e] = pows[:, :, e - 1] * coords % q
    dmons = _derivative_monomials(problem.r, s)
    rows = np.empty((len(coords), len(dmons), len(cols)), dtype=np.int64)
    for i, b in enumerate(dmons):
        entry = (exps >= np.array(b)).all(axis=1).astype(np.int64)
        for t in range(s + 1):  # the power factors broadcast entry over the points
            et, bt = exps[:, t], b[t]
            binom = pascal[et, np.minimum(bt, et)]
            power = pows[:, t, np.maximum(et - bt, 0)]
            entry = entry * binom % q * power % q
        rows[:, i] = entry
    return rows.reshape(-1, len(cols))


def _forward_eliminate(A: np.ndarray, q: int) -> list[int]:
    """Blocked forward elimination of A (reduced mod q) in place, up to the first free column.

    Returns the inverses of the pivots, one per column before the first free
    column c0, so c0 is the length of the list.  Afterwards rows 0..c0-1 of
    A hold the pivot rows: their entries in columns i..c0 (row i) form the
    upper-triangular block U and the column of c0, reduced mod q.

    Columns go in panels of _PANEL.  Inside a panel the pivot (the first
    unused row with a nonzero entry) is swapped into place, the rows below
    are updated on the panel's columns only, and entries are reduced mod q
    lazily in int64: a column when it is searched, a row when it becomes a
    pivot.  A new pivot row takes the updates of the panel's earlier pivots
    on the trailing columns at once; the rows below the panel receive them
    as one float64 matmul of the panel's multipliers by its pivot rows, a
    sum of _PANEL products of residues below q per entry.
    """
    nrows, ncols = A.shape
    inverses = []
    for j0 in range(0, ncols, _PANEL):
        pe = min(j0 + _PANEL, ncols)
        for j in range(j0, pe):
            col = A[j:, j] % q
            A[j:, j] = col
            nz = np.flatnonzero(col)
            if len(nz) == 0:
                return inverses
            p = j + int(nz[0])
            if p != j:
                A[[j, p]] = A[[p, j]]
                col[[0, nz[0]]] = col[[nz[0], 0]]
            A[j, j + 1 : pe] %= q
            A[j, pe:] = (A[j, pe:] - A[j, j0:j] @ A[j0:j, pe:]) % q
            inverses.append(pow(int(col[0]), q - 2, q))
            mult = col[1:] * inverses[-1] % q
            A[j + 1 :, j] = mult
            A[j + 1 :, j + 1 : pe] -= np.outer(mult, A[j, j + 1 : pe])
        if pe < ncols and pe < nrows:
            prod = A[pe:, j0:pe].astype(np.float64) @ A[j0:pe, pe:].astype(np.float64)
            trailing = A[pe:, pe:]
            np.subtract(trailing, prod, out=trailing, casting="unsafe")
            np.remainder(trailing, q, out=trailing)
    raise AssertionError("no free column: the system was not underdetermined")


def _kernel_vector(matrix: np.ndarray, q: int) -> tuple[np.ndarray, int, int]:
    """First-free-column kernel vector of a matrix over F_q.

    Let c0 be the first column that lies in the span of the columns before
    it.  Columns 0..c0-1 are then linearly independent, so there is exactly
    one kernel vector x with x[c0] = 1 and x[c] = 0 for c > c0.  Both c0 and
    x depend on the matrix only, not on which rows serve as pivots, so
    forward elimination over the unused rows (_forward_eliminate) finds c0,
    and back-substitution through the c0 x c0 upper-triangular pivot block U
    solves U x[:c0] = -(column c0 of the pivot rows).  Returns (x, c0, c0):
    the rank of the columns before c0, which is c0, and c0 itself.

    The elimination multiplies residues in float64 sums of _PANEL products,
    exact while _PANEL * (q-1)^2 < 2^53; a larger q raises ParameterError.
    Raises AssertionError when every column is a pivot.
    """
    _check_float_exact(_PANEL, q, "interpolation kernel")
    A = matrix % q
    inverses = _forward_eliminate(A, q)
    c0 = len(inverses)
    x = np.zeros(A.shape[1], dtype=np.int64)
    x[c0] = 1
    rhs = A[:c0, c0].copy()
    for i in range(c0 - 1, -1, -1):
        x[i] = -int(rhs[i]) * inverses[i] % q
        rhs[:i] = (rhs[:i] + A[:i, i] * x[i]) % q
    return x, c0, c0


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
    cols = enumerate_weighted_monomials(k, D, s)
    if len(cols) <= n_conditions:
        raise ParameterError(
            f"{len(cols)} monomials vs {n_conditions} conditions: system not underdetermined"
        )
    cols.sort(key=_column_order_key(q, k))
    matrix = _assemble_matrix(problem, cols)
    x, rank, free_col = _kernel_vector(matrix, q)
    terms = {
        cols[i].exponents: int(x[i]) for i in np.flatnonzero(x)
    }
    Q = MultiPoly(problem.field, s, k, terms)
    assert not Q.is_zero
    sub_deg = max(
        sum(j * q**t for t, j in enumerate(e[1:])) for e in Q.terms
    )
    report = InterpReport(
        rows=matrix.shape[0],
        cols=matrix.shape[1],
        rank=rank,
        pivot_cols=free_col,
        substituted_degree=sub_deg,
    )
    return Q, report


def interpolate(problem: InterpolationProblem) -> MultiPoly:
    """See interpolate_with_report; identical problems yield identical Q."""
    return interpolate_with_report(problem)[0]

"""Candidate message recovery from an interpolated polynomial.

Given Q(X, Y_1, ..., Y_s) vanishing on the interpolation data, every message
f of degree at most k whose encoding agrees often enough satisfies
Q(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) = 0.  The candidates are all
such f, found two ways that give the same list.

The decode lifts (``lifted_candidates``): it reads f coefficient by
coefficient over F_q, as Roth and Ruckenstein read the roots of a bivariate
polynomial, with one substitution and division by a power of X per
coefficient.  Its cost does not grow with the degree of R below.

The reference (``candidates_from_Q``) is the paper's: working modulo
E(X) = X^(q-1) - gamma turns the shifts into Frobenius powers, reducing Q's
coefficients mod E gives T(Y_1, ..., Y_s) over the extension field, and the
messages appear among the roots of R(Y) = T(Y, Y^q, ..., Y^(q^(s-1))).  It
reduces Q mod E (E does not divide Q: proved, and checked by Q mod E != 0),
substitutes, intersects the root set with the subspace of elements whose
representative has degree at most k (the kernel of an explicit q-linearized
polynomial, so the intersection is a gcd g), reads the roots of g coordinate
by coordinate with no randomness (``poly._subspace_roots``), and keeps the
ones that satisfy the original identity exactly.  Tests and CI check the
lift against it; the decode falls back to it past the lift's memory budget.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .galois import _check_float_exact, _sc_fold, standard_extension
from .interp import _powers
from .poly import (
    MultiPoly,
    UniPoly,
    _compositions,
    _fmod,
    _pascal_mod,
    _subspace_residue,
    _subspace_roots,
    _yp_divmod,
    _yp_gcd,
    _yp_pad,
    _yp_trim,
    compose_message,
)
# re-exported; perfbench's traced run wraps roots_in_field under this name
from .poly import low_degree_vanishing_coeffs, roots_in_field  # noqa: F401

CANDIDATE_CAP = 2**16
LIFT_LEVEL_ENTRIES = 2**20  # float64 entries one level of a lift may stack; see lifted_candidates


class CandidateOverflowError(RuntimeError):
    """The candidate list would exceed the hard output cap."""


def strip_E_power(Q: MultiPoly, E: UniPoly) -> tuple[MultiPoly, int]:
    """Write Q = E(X)^b * Q0 with E(X) not dividing Q0; returns (Q0, b), and Q itself when b = 0.

    E must be a binomial a X^n + c (a, c nonzero, n >= 1), as the defining
    polynomial X^(q-1) - gamma is.  Divisibility is tested coefficient-wise,
    viewing Q as a polynomial in the Y variables with coefficients in F_q[X]:
    each column of Q's matrix of X-coefficients is divided by E with
    ``_yp_divmod``.  Raises ValueError on Q = 0 and on an E that is not such a
    binomial.  The decoder does not call it: E never divides an interpolated Q
    (see ``candidates_from_Q``).
    """
    if Q.is_zero:
        raise ValueError("cannot strip factors from the zero polynomial")
    ec = E.int_coeffs()
    n = len(ec) - 1
    if n < 1 or not ec[0] or any(ec[1:n]):
        raise ValueError(f"E = {E!r} is not a binomial a X^n + c with a, c nonzero and n >= 1")
    ctx = Q.field.ctx
    e = np.array(ec, dtype=np.int64)[:, None]
    cols = [Q.M[:, [c]] for c in range(Q.M.shape[1])]
    b = 0
    while True:
        quos = []
        for col in cols:  # the first remainder decides: b ends here
            quo, rem = _yp_divmod(ctx, col, e)
            if rem.shape[0]:
                break
            quos.append(quo)
        if len(quos) < len(cols):
            break
        cols, b = quos, b + 1
    if b == 0:
        return Q, 0
    rows = max(col.shape[0] for col in cols)
    M = np.hstack([_yp_pad(col, rows) for col in cols])
    return MultiPoly._from_arrays(Q.field, Q.s, Q.k, M, Q.jvecs), b


def _substituted_poly(T: np.ndarray, jvecs: np.ndarray, q: int) -> np.ndarray:
    """R(Y) = T(Y, Y^q, ..., Y^(q^(s-1))) as a coefficient array over the extension,
    for T whose column c is the coefficient of Y^jvecs[c], reduced mod E.

    Safe as long as every Y_t-degree is below q (then exponent vectors map to
    distinct substituted exponents); the caller checks the degree bound.
    """
    degs = jvecs @ q ** np.arange(jvecs.shape[1], dtype=np.int64)
    R = np.zeros((degs.max() + 1, T.shape[0]), dtype=np.int64)
    R[degs] = T.T
    return _yp_trim(R)


def candidates_from_Q(Q0: MultiPoly, params) -> tuple[UniPoly, ...]:
    """All f of degree <= k with Q0(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) = 0.

    Works over ``standard_extension(params.q)``, whose gamma is params.gamma
    (both take the smallest primitive element).  Requires E not dividing Q0
    and Y-degrees below q (guaranteed by the interpolation step).  Every
    returned message is re-verified against Q0 by direct polynomial
    composition over F_q[X], an independent check path from the
    extension-field arithmetic.  Raises CandidateOverflowError when the root
    count would exceed CANDIDATE_CAP, and ValueError when Q0 vanishes mod E
    and when the total Y-degree of Q0 mod E reaches q.

    E = X^(q-1) - gamma never divides a Q from ``interp.interpolate``, so the
    refusal of a Q0 that vanishes mod E is a check, not a case.  Every
    interpolation point has X-coordinate x = gamma^i != 0, where
    E(x) = x^(q-1) - gamma = 1 - gamma != 0.  If Q were E * Q', then Q' would
    vanish to the same orders at the same points (E is a unit near each of
    them), and its weighted degree would be that of Q minus q - 1, so Q' is a
    kernel vector of the same system.  Multiplying by X^(q-1) keeps the
    substituted degree and adds q - 1 to the weighted degree and to the
    X-exponent, so it preserves the column order and moves every column later;
    Q's last column, c0, is X^(q-1) times the last column of Q'.  That column
    of Q' comes before c0 and lies in the span of the columns before it, which
    contradicts c0 being the first such column.
    """
    ext = standard_extension(params.q)
    q = params.q
    k = params.k
    gamma = ext.gamma.value
    ctx = ext.ctx
    M = Q0.M if Q0.M.shape[0] >= ext.dim else _yp_pad(Q0.M, ext.dim)
    T = _sc_fold(ctx, M)  # the X-coefficients mod E, one column per Y-monomial
    live = T.any(axis=0)
    if not live.any():
        raise ValueError(f"E = X^{q - 1} - {gamma} divides Q0, which no interpolated Q allows")
    if Q0.jvecs[live].sum(axis=1).max() >= q:
        raise ValueError(f"total Y-degree of Q0 mod E must be below q = {q}")
    R = _substituted_poly(T[:, live], Q0.jvecs[live], q)
    if R.shape[0] == 0:  # distinct Y-exponents below q substitute to distinct powers of Y
        raise AssertionError("R vanished although Q0 mod E is nonzero with Y-degree below q")
    if R.shape[0] == 1:
        return ()
    # restrict to roots whose representative has degree <= k: g has them as its
    # distinct roots (``_subspace_residue``), and the other roots are pruned anyway
    g = _yp_gcd(ctx, *_subspace_residue(ctx, R, k))
    if g.shape[0] - 1 > CANDIDATE_CAP:  # g has deg g distinct roots, so this caps the output
        raise CandidateOverflowError(
            f"{g.shape[0] - 1} candidate roots exceed the cap of {CANDIDATE_CAP}"
        )
    out = []
    for row in _subspace_roots(ctx, g, k):
        msg_coeffs = row[: k + 1].tolist()
        residual = compose_message(Q0, msg_coeffs, gamma)
        if len(residual) == 0:
            out.append(UniPoly.from_ints(params.field, msg_coeffs))
    out.sort(key=lambda f: f.int_coeffs(pad_to=k + 1))
    return tuple(out)


@dataclass(frozen=True)
class LiftReport:
    """What a root step did: ``nodes`` polynomials Q^(n) whose P_n was searched,
    ``full_branches`` among them with P_n = 0, ``entries``, the float64 entries
    of the largest stack of kids a level built (or would have built), and
    ``root_step``, "lift", or "reference" when that stack passed
    LIFT_LEVEL_ENTRIES and ``candidates_from_Q`` answered instead."""

    nodes: int
    full_branches: int
    entries: int
    root_step: str


class _LiftTables:
    """What the lift takes from its code: the field, gamma, s and the top total
    Y-degree, as read-only arrays.

    Columns are J = {j : |j| <= top} in lexicographic order (the order of
    ``MultiPoly.jvecs``), found by ``keys``.  ``K[j, b]`` is
    prod_t C(j_t, b_t) gamma^(t b_t) (t < s indexing the Y's from 0), zero
    unless b <= j, so substituting Y_t <- y + gamma^t X Z_t in sum_j M_j Y^j
    gives Z^b the coefficient X^|b| sum_j M_j K[j, b] y^(|j| - |b|).  For
    y != 0 that is y^-top X^|b| y^(top - |b|) sum_j (M_j y^|j|) K[j, b], and for
    y = 0 only j = b is left: X^|b| M_b gamma^(sum_t t b_t), with the gamma
    power in ``diag``.  ``ypow[y, e]`` is y^e and ``bydeg`` sums the columns of
    one total degree, so (M bydeg) ypow^T evaluates sum_j M_j y^|j| at every y
    in F_q.  Every product sums at most len(J) products of residues, which
    ``_check_float_exact`` admits.
    """

    __slots__ = ("top", "keys", "radix", "deg", "K", "diag", "ypow", "bydeg")

    def __init__(self, q: int, s: int, top: int, gamma: int):
        J = np.array([j for d in range(top + 1) for j in _compositions(d, s)], dtype=np.int64)
        J = J[np.lexsort(J.T[::-1])]
        _check_float_exact(len(J), q, "lifted candidates")
        self.top = top
        self.radix = (top + 1) ** np.arange(s - 1, -1, -1, dtype=np.int64)
        self.keys = J @ self.radix
        self.deg = J.sum(axis=1)
        pascal = _pascal_mod(q, top)
        K = np.ones((len(J), len(J)), dtype=np.int64)
        for t in range(s):
            K = K * pascal[J[:, t, None], J[None, :, t]] % q
        gpow = np.array([pow(gamma, int(e), q) for e in J @ np.arange(s)], dtype=np.int64)
        self.K = (K * gpow % q).astype(np.float64)
        self.diag = gpow.astype(np.float64)
        self.ypow = _powers(np.arange(q, dtype=np.float64), top, q)
        self.bydeg = (self.deg[:, None] == np.arange(top + 1)).astype(np.float64)
        for a in (self.radix, self.keys, self.deg, self.K, self.diag, self.ypow, self.bydeg):
            a.flags.writeable = False


_lift_tables = functools.lru_cache(maxsize=8)(_LiftTables)  # Qs of one code differ in top


def _shift_and_strip(kids: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Column b of each kid times X^|b|, divided by the kid's largest power of X.

    An entry (i, b) moves to row i + |b| - mu, where mu is the kid's least
    i + |b| over its nonzero entries.  Zero entries with i + |b| < mu wrap to
    rows past every nonzero one, which stay zero, and trailing zero rows are
    cut.
    """
    n, rows, cols = kids.shape
    nonzero = kids != 0
    first = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), rows)
    mu = (first + deg).min(axis=1)
    out = np.zeros((n, rows + int(deg.max()), cols))
    target = np.arange(rows)[:, None] + deg - mu[:, None, None]
    out[np.arange(n)[:, None, None], target, np.arange(cols)] = kids
    return out[:, : np.flatnonzero(out.any(axis=(0, 2)))[-1] + 1]


def lifted_candidates_with_report(Q0: MultiPoly, params) -> tuple[tuple[UniPoly, ...], LiftReport]:
    """``lifted_candidates`` and a LiftReport of its search."""
    if Q0.is_zero:
        raise ValueError("Q0 = 0 holds for every message")
    q, k, gamma = params.q, params.k, params.gamma.value
    tab = _lift_tables(q, Q0.s, Q0.y_total_degree(), gamma)
    M = np.zeros((Q0.M.shape[0], len(tab.keys)))
    M[:, np.searchsorted(tab.keys, Q0.jvecs @ tab.radix)] = Q0.M
    Ms = M[None, np.flatnonzero(M.any(axis=1))[0] :]
    prefix = np.zeros((1, 0), dtype=np.int64)
    nodes, full, entries = 1, 0, 0
    for level in range(k + 1):
        # P_n(y) = Q^(n)(0, y, ..., y) at every y in F_q
        vals = _fmod(_fmod(Ms[:, 0] @ tab.bydeg, q) @ tab.ypow.T, q)
        full += int((~vals.any(axis=1)).sum())
        parent, ys = np.nonzero(vals == 0)
        if level == k:  # keep f_k where the Y-free column of Q^(k+1) vanishes; its row 0 is P_k
            free = np.einsum("prd,pd->pr", _fmod(Ms @ tab.bydeg, q)[parent], tab.ypow[ys])
            keep = ~_fmod(free, q).any(axis=1)
            parent, ys = parent[keep], ys[keep]
        prefix = np.column_stack([prefix[parent], ys])
        if level == k or not len(parent):
            break
        entries = max(entries, len(parent) * Ms.shape[1] * len(tab.keys))
        if entries > LIFT_LEVEL_ENTRIES:
            return candidates_from_Q(Q0, params), LiftReport(nodes, full, entries, "reference")
        nodes += len(parent)
        kids = Ms[parent]
        live = ys != 0
        up = tab.ypow[ys[live]]  # y^|j| in, y^(top - |b|) out: the kid times y^top
        prod = _fmod(_fmod(kids[live] * up[:, None, tab.deg], q) @ tab.K, q)
        kids[live] = prod * up[:, None, tab.top - tab.deg]
        kids[~live] *= tab.diag
        Ms = _shift_and_strip(_fmod(kids, q), tab.deg)
    out = []
    for coeffs in prefix.tolist():  # lexicographic: nodes go by prefix, and each node's y ascend
        if len(compose_message(Q0, coeffs, gamma)):
            raise AssertionError("a lifted candidate fails Q0(X, f(X), ..., f(gamma^(s-1) X)) = 0")
        out.append(UniPoly.from_ints(params.field, coeffs))
    return tuple(out), LiftReport(nodes, full, entries, "lift")


def lifted_candidates(Q0: MultiPoly, params) -> tuple[UniPoly, ...]:
    """The messages of ``candidates_from_Q``, by X-adic lifting over F_q.

    Roth and Ruckenstein's root step ("Efficient decoding of Reed-Solomon codes
    beyond half the minimum distance", IEEE Trans. IT 46(1), 2000), carried
    over to the folded identity.  Write f = f_0 + X f', so that
    f(gamma^t X) = f_0 + gamma^t X f'(gamma^t X).  Substituting
    Y_(t+1) <- f_0 + gamma^t X Z_(t+1) (t < s) in Q^(n) and dividing by the
    largest power of X gives Q^(n+1), of the same shape, for f', with
    Q^(0) = Q0 over its power of X.  At X = 0 the identity leaves P_n(f_n) = 0
    with P_n(y) = Q^(n)(0, y, ..., y), so f_n ranges over the zeros of P_n,
    found by evaluation at all of F_q; when P_n = 0 every y is one (a full
    branch).  Q0(X, f(X), ..., f(gamma^(s-1) X)) is X^e Q^(k+1)(X, 0, ..., 0),
    so after k + 1 levels f satisfies the identity exactly when the Y-free
    column of Q^(k+1) is zero: the search is complete and sound with no
    extension field, no bound on deg R and no FFT.  Each kept f is re-verified
    by ``compose_message``, and a failure raises AssertionError.

    A kid is scaled by y^top (each Q^(n) matters only up to a unit), so its
    product needs no inverse.  The levels go one at a time, each as one stack
    of polynomials with |J| = C(top + s, s) columns, for the total Y-degree top
    of Q0, and at most D + 1 rows, for its (1, k)-weighted degree D: the
    substitution and the division keep the weighted degree of Q^(n) in the
    weights (1, k - n) at most D.  The tree has no bound from the paper, and a
    level's arrays take up to about 64 bytes an entry of its stack: past
    LIFT_LEVEL_ENTRIES entries in one stack (64 MB), ``candidates_from_Q``
    answers, with the same list and its own refusals.  Messages come in the
    order of ``candidates_from_Q``.
    """
    return lifted_candidates_with_report(Q0, params)[0]


def exhaustive_candidates(Q0: MultiPoly, params) -> tuple[UniPoly, ...]:
    """Brute-force scan of all q^(k+1) messages testing the identity directly.

    Only valid for q^(k+1) <= 2^20; used as an independent oracle for the
    algebraic path.
    """
    import itertools

    q, k = params.q, params.k
    if q ** (k + 1) > 2**20:
        raise ValueError("instance too large for exhaustive candidate search")
    gamma = params.gamma.value
    out = []
    for coeffs in itertools.product(range(q), repeat=k + 1):
        if len(compose_message(Q0, list(coeffs), gamma)) == 0:
            out.append(UniPoly.from_ints(params.field, list(coeffs)))
    out.sort(key=lambda f: f.int_coeffs(pad_to=k + 1))
    return tuple(out)

"""Candidate message recovery from an interpolated polynomial.

Given Q(X, Y_1, ..., Y_s) vanishing on the interpolation data, every message
f of degree at most k whose encoding agrees often enough satisfies
Q(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) = 0.  Working modulo
E(X) = X^(q-1) - gamma turns the shifts into Frobenius powers: reducing Q's
coefficients mod E gives T(Y_1, ..., Y_s) over the extension field, and the
messages appear among the roots of R(Y) = T(Y, Y^q, ..., Y^(q^(s-1))).

Recovery therefore runs: reduce Q mod E (E does not divide Q: proved, and
checked by Q mod E != 0), substitute, intersect the root set with the
subspace of elements whose representative has degree at most k (the kernel of
an explicit q-linearized polynomial, so the intersection is a gcd g), read the
roots of g coordinate by coordinate with no randomness
(``poly._subspace_roots``), and keep the ones that satisfy the original
identity exactly.
"""

from __future__ import annotations

import numpy as np

from .galois import ExtField, _sc_fold, standard_extension
from .poly import (
    MultiPoly,
    UniPoly,
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

DEFAULT_CANDIDATE_CAP = 2**16


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


def candidates_from_Q(
    Q0: MultiPoly,
    params,
    ext: ExtField | None = None,
    seed: int = 0,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> tuple[UniPoly, ...]:
    """All f of degree <= k with Q0(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) = 0.

    Requires E not dividing Q0 and Y-degrees below q (guaranteed by the
    interpolation step).  Every returned message is re-verified against Q0 by
    direct polynomial composition over F_q[X], an independent check path from
    the extension-field arithmetic.  Raises CandidateOverflowError when the
    root count would exceed ``cap``, and ValueError when ``ext`` is not the
    extension of ``params`` (another q or gamma), when Q0 vanishes mod E, and
    when the total Y-degree of Q0 mod E reaches q.

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
    if ext is None:
        ext = standard_extension(params.q)
    if ext.base.q != params.q or ext.gamma.value != params.gamma.value:
        raise ValueError(
            f"{ext!r} is not F_{params.q}[X]/(X^{params.q - 1} - {params.gamma.value})"
        )
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
    if g.shape[0] - 1 > cap:  # g has deg g distinct roots, so this caps the output
        raise CandidateOverflowError(
            f"{g.shape[0] - 1} candidate roots exceed the cap of {cap}"
        )
    out = []
    for row in _subspace_roots(ctx, g, k):
        msg_coeffs = row[: k + 1].tolist()
        residual = compose_message(Q0, msg_coeffs, gamma)
        if len(residual) == 0:
            out.append(UniPoly.from_ints(params.field, msg_coeffs))
    out.sort(key=lambda f: f.int_coeffs(pad_to=k + 1))
    return tuple(out)


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

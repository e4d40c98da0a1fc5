"""Candidate message recovery from an interpolated polynomial.

Given Q(X, Y_1, ..., Y_s) vanishing on the interpolation data, every message
f of degree at most k whose encoding agrees often enough satisfies
Q(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) = 0.  Working modulo
E(X) = X^(q-1) - gamma turns the shifts into Frobenius powers: reducing Q's
coefficients mod E gives T(Y_1, ..., Y_s) over the extension field, and the
messages appear among the roots of R(Y) = T(Y, Y^q, ..., Y^(q^(s-1))).

Recovery therefore runs: strip the largest E-power dividing Q, reduce mod E,
substitute, intersect the root set with the subspace of elements whose
representative has degree at most k (the kernel of an explicit q-linearized
polynomial, so the intersection is a gcd), extract the roots, and keep the
ones that satisfy the original identity exactly.
"""

from __future__ import annotations

import random

import numpy as np

from .galois import ExtField, _pdivmod, standard_extension
from .poly import (
    FrobeniusReducer,
    MultiPoly,
    UniPoly,
    _edf_roots,
    _yp_gcd,
    _yp_trim,
    compose_message,
)
from .poly import roots_in_field  # noqa: F401  (perfbench's traced run wraps this name)

DEFAULT_CANDIDATE_CAP = 2**16


class CandidateOverflowError(RuntimeError):
    """The candidate list would exceed the hard output cap."""


def strip_E_power(Q: MultiPoly, E: UniPoly) -> tuple[MultiPoly, int]:
    """Write Q = E(X)^b * Q0 with E(X) not dividing Q0; returns (Q0, b).

    Divisibility is tested coefficient-wise, viewing Q as a polynomial in the
    Y variables with coefficients in F_q[X].  Raises ValueError on Q = 0.
    """
    if Q.is_zero:
        raise ValueError("cannot strip factors from the zero polynomial")
    q = Q.field.q
    ec = list(E.int_coeffs())
    if len(ec) < 2:
        raise ValueError("E must have degree at least 1")
    groups: dict[tuple[int, ...], list[int]] = {}
    for exps, c in Q.terms.items():
        jvec = exps[1:]
        arr = groups.setdefault(jvec, [])
        if len(arr) <= exps[0]:
            arr.extend([0] * (exps[0] + 1 - len(arr)))
        arr[exps[0]] = c
    b = 0
    while True:
        division = {j: _pdivmod(arr, ec, q) for j, arr in groups.items()}
        if any(rem for _, rem in division.values()):
            break
        groups = {j: quo for j, (quo, _) in division.items()}
        b += 1
    terms = {}
    for jvec, arr in groups.items():
        for i, c in enumerate(arr):
            if c:
                terms[(i,) + jvec] = c
    return MultiPoly(Q.field, Q.s, Q.k, terms), b


def _reduce_coeffs_mod_E(Q0: MultiPoly, ext: ExtField) -> dict[tuple[int, ...], np.ndarray]:
    """T = Q0 with X-coefficients reduced mod E, as a map jvec -> scalar vector.

    X^i mod (X^(q-1) - gamma) is gamma^(i // (q-1)) X^(i mod (q-1)), so each
    term folds into one coordinate.
    """
    q = ext.base.q
    dim = ext.dim
    gamma = ext.gamma.value
    T: dict[tuple[int, ...], np.ndarray] = {}
    for exps, c in Q0.terms.items():
        i, jvec = exps[0], exps[1:]
        vec = T.setdefault(jvec, np.zeros(dim, dtype=np.int64))
        vec[i % dim] = (vec[i % dim] + c * pow(gamma, i // dim, q)) % q
    return {j: v for j, v in T.items() if v.any()}


def _substituted_poly(T: dict[tuple[int, ...], np.ndarray], q: int, dim: int) -> np.ndarray:
    """R(Y) = T(Y, Y^q, ..., Y^(q^(s-1))) as a coefficient array over the extension.

    Safe as long as every Y_t-degree is below q (then exponent vectors map to
    distinct substituted exponents); the caller checks the degree bound.
    """
    degs = [sum(j * q**t for t, j in enumerate(jvec)) for jvec in T]
    R = np.zeros((max(degs) + 1, dim), dtype=np.int64)
    for jvec, vec in T.items():
        e = sum(j * q**t for t, j in enumerate(jvec))
        R[e] = (R[e] + vec) % q
    return _yp_trim(R)


def low_degree_vanishing_coeffs(q: int, gamma: int, k: int) -> list[int]:
    """Coefficients a_0..a_(k+1) of the q-linearized polynomial sum a_i Y^(q^i)
    whose roots are exactly the extension elements represented by polynomials
    of degree at most k.

    X^j is an eigenvector of the q-power map with eigenvalue gamma^j, so the
    degree <= k subspace is the kernel of the product of (Frobenius - gamma^j)
    over j = 0..k; composing the factors gives the recurrence below.
    """
    a = [(-1) % q, 1]
    for j in range(1, k + 1):
        gj = pow(gamma, j, q)
        nxt = [0] * (len(a) + 1)
        for i, ai in enumerate(a):
            nxt[i + 1] = (nxt[i + 1] + ai) % q
            nxt[i] = (nxt[i] - gj * ai) % q
        a = nxt
    return a


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
    extension of ``params`` (another q or gamma).
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
    T = _reduce_coeffs_mod_E(Q0, ext)
    if not T:
        raise ValueError("Q0 reduced to zero mod E; strip_E_power must run first")
    if max(sum(j) for j in T) >= q:
        raise AssertionError("total Y-degree of T must be below q")
    R = _substituted_poly(T, q, ext.dim)
    assert R.shape[0] > 0, "substituted polynomial vanished despite small Y-degree"
    if R.shape[0] == 1:
        return ()
    ctx = ext.ctx
    # restrict to roots whose representative has degree <= k: gcd with the
    # q-linearized vanishing polynomial L of that subspace (the other roots
    # are pruned anyway).  L' = a_0 != 0 and L has its q^(k+1) roots in the
    # field, so g divides a separable split polynomial: it is squarefree and
    # splits, and equal-degree splitting takes it as it is
    reducer = FrobeniusReducer(ctx, R)
    L = low_degree_vanishing_coeffs(q, gamma, k)
    g = _yp_gcd(ctx, reducer.R, reducer.linearized_residue(L))
    if g.shape[0] - 1 > cap:  # g has deg g distinct roots, so this caps the output
        raise CandidateOverflowError(
            f"{g.shape[0] - 1} candidate roots exceed the cap of {cap}"
        )
    out = []
    for row in _edf_roots(ctx, g, random.Random(seed)):
        if row[k + 1 :].any():
            continue
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

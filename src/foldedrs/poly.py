"""Polynomials over the base and extension fields.

Three layers live here:

* ``UniPoly``: a dense univariate polynomial whose coefficients are field
  elements (``FieldElem`` or ``ExtFieldElem``), used at API boundaries.
* ``MultiPoly``: a sparse multivariate polynomial over F_q in the variables
  X, Y_1, ..., Y_s, keyed by exponent vectors, together with the
  (1,k,...,k)-weighted degree bookkeeping and Hasse shift coefficients.
* a numpy toolkit for heavy univariate arithmetic over the extension field
  F_q[X]/(X^(q-1) - gamma), where a polynomial of degree d is stored as an
  int64 array of shape (d+1, q-1).  Root finding is one pipeline on these
  arrays: g = gcd(R, L mod R) for a q-linearized L (the field equation, or
  in ``rootfind`` the vanishing polynomial of the low-degree subspace), with
  L mod R from a chain of Frobenius steps, then seeded randomized
  equal-degree splitting of g.

All operations are pure; randomized splitting takes an explicit seed so
concurrent calls never share state.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from .galois import (
    ExtField,
    ExtFieldElem,
    FieldElem,
    PrimeField,
    _ppow_mod,
)


class ParameterError(ValueError):
    """Decoding parameters were rejected (infeasible or outside supported range)."""


def _check_float_exact(terms: int, q: int, what: str) -> None:
    """Refuse q when a sum of ``terms`` products of residues mod q can reach 2^53.

    The numpy paths multiply residues in float64 (BLAS matmul) and reduce the
    result mod q afterwards; that is exact only while every such sum, at most
    terms * (q-1)^2, stays below 2^53.
    """
    if terms * (q - 1) ** 2 >= 2**53:
        raise ParameterError(
            f"{what}: {terms} * (q-1)^2 >= 2^53 with q = {q}, float64 products would not be exact"
        )


# ---------------------------------------------------------------------------
# UniPoly
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over a declared field, low degree first.

    Canonical form: no trailing zero coefficient; the zero polynomial has an
    empty coefficient tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def from_ints(cls, field, ints) -> "UniPoly":
        if isinstance(field, PrimeField):
            return cls(field, [field.element(v) for v in ints])
        return cls(field, [field.element([v]) for v in ints])

    @classmethod
    def zero(cls, field) -> "UniPoly":
        return cls(field, [])

    @classmethod
    def one(cls, field) -> "UniPoly":
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field) -> "UniPoly":
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def int_coeffs(self, pad_to: int = 0) -> tuple[int, ...]:
        """Coefficients as plain ints (prime-field polynomials only)."""
        vals = [c.value for c in self.coeffs]
        return tuple(vals + [0] * (pad_to - len(vals)))

    def __call__(self, x):
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly(self.field, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return UniPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (FieldElem, ExtFieldElem, int)):
            return UniPoly(self.field, [c * other for c in self.coeffs])
        self._check(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.field)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return UniPoly(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(self.field), self
        quo = [self.field.zero()] * (dq + 1)
        inv_lead = other.coeffs[-1].inverse()
        for top in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = rem[top] * inv_lead
            if c:
                shift = top - len(other.coeffs) + 1
                quo[shift] = c
                for j, b in enumerate(other.coeffs):
                    rem[shift + j] = rem[shift + j] - c * b
        return UniPoly(self.field, quo), UniPoly(self.field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        inv = self.coeffs[-1].inverse()
        return UniPoly(self.field, [c * inv for c in self.coeffs])

    def _check(self, other):
        if not isinstance(other, UniPoly) or other.field != self.field:
            raise ValueError("polynomials live over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c!r}*X^{i}" if i else f"{c!r}")
        return "UniPoly(" + " + ".join(parts) + ")"


def evaluate(f: UniPoly, x):
    """Horner evaluation of f at a point of its field."""
    return f(x)


def scale_compose(f: UniPoly, gamma: FieldElem) -> UniPoly:
    """The substitution f(X) -> f(gamma X): coefficient c_i becomes c_i gamma^i."""
    out = []
    g = gamma.field.one()
    for c in f.coeffs:
        out.append(c * g)
        g = g * gamma
    return UniPoly(f.field, out)


def frobenius_pow_mod(f: UniPoly, j: int, E: UniPoly) -> UniPoly:
    """f^(q^j) mod E over the prime field, by square-and-multiply.

    With E = X^(q-1) - gamma and deg f < q-1 this computes f(gamma^j X): the
    q-th power map modulo E acts on representatives as the gamma-scaling
    substitution.
    """
    if E.degree < 1:
        raise ValueError("modulus must have degree at least 1")
    field = f.field
    if not isinstance(field, PrimeField):
        raise TypeError("frobenius powering is defined over prime fields")
    if j < 0:
        raise ValueError("power index must be nonnegative")
    q = field.q
    fc = list(f.int_coeffs())
    ec = list(E.int_coeffs())
    out = _ppow_mod(fc, q**j, ec, q)
    return UniPoly.from_ints(field, out)


# ---------------------------------------------------------------------------
# Weighted-degree monomial combinatorics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Exponent vector (i, j_1, ..., j_s) of the monomial X^i Y_1^j1 ... Y_s^js."""

    exponents: tuple[int, ...]

    def weighted_degree(self, k: int) -> int:
        return self.exponents[0] + k * sum(self.exponents[1:])

    def total_degree(self) -> int:
        return sum(self.exponents)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to exactly `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_weighted_monomials(k: int, D: int, s: int) -> list[Monomial]:
    """All monomials X^i Y_1^j1 ... Y_s^js with i + k*(j_1+...+j_s) <= D.

    Returned in graded lexicographic order: ascending weighted degree, ties
    broken by the exponent vector (i, j_1, ..., j_s).
    """
    if k < 1 or D < 0 or s < 1:
        raise ValueError("need k >= 1, D >= 0, s >= 1")
    out = []
    for jsum in range(D // k + 1):
        for jvec in _compositions(jsum, s):
            for i in range(D - k * jsum + 1):
                out.append(Monomial((i,) + jvec))
    out.sort(key=lambda mon: (mon.weighted_degree(k), mon.exponents))
    return out


def count_weighted_monomials(k: int, D: int, s: int) -> int:
    """Number of monomials with (1,k,...,k)-weighted degree at most D."""
    if D < 0:
        return 0
    total = 0
    for jsum in range(D // k + 1):
        total += math.comb(jsum + s - 1, s - 1) * (D - k * jsum + 1)
    return total


def trivariate_monomial_count(k: int, D: int) -> int:
    """Closed form for s=2: k*C(a+2,3) + (D - a*k + 1)*C(a+2,2) with a = floor(D/k)."""
    a = D // k
    return k * math.comb(a + 2, 3) + (D - a * k + 1) * math.comb(a + 2, 2)


# ---------------------------------------------------------------------------
# MultiPoly and Hasse shift coefficients
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _pascal_mod(q: int, n: int) -> np.ndarray:
    """Pascal's triangle mod q as an (n+1) x (n+1) table; respects the characteristic."""
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[:, 0] = 1
    for row in range(1, n + 1):
        table[row, 1 : row + 1] = (table[row - 1, 1 : row + 1] + table[row - 1, 0:row]) % q
    return table


class MultiPoly:
    """Sparse multivariate polynomial over F_q in X, Y_1, ..., Y_s.

    ``terms`` maps exponent vectors (i, j_1, ..., j_s) to nonzero coefficients
    in [1, q).  ``k`` is the weight of each Y variable in the weighted degree.
    """

    __slots__ = ("field", "s", "k", "terms")

    def __init__(self, field: PrimeField, s: int, k: int, terms):
        if s < 1:
            raise ValueError("need at least one Y variable")
        q = field.q
        clean = {}
        for exps, coef in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != s + 1:
                raise ValueError(f"exponent vector {exps} does not have {s + 1} entries")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = int(coef) % q
            if c:
                clean[exps] = c
        self.field = field
        self.s = s
        self.k = k
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def weighted_degree(self) -> int:
        """Max of i + k*(j_1+...+j_s) over the support (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(e[0] + self.k * sum(e[1:]) for e in self.terms)

    def y_total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e[1:]) for e in self.terms)

    def y_degree(self, t: int) -> int:
        """Degree in Y_t (1-based), -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[t] for e in self.terms)

    def __add__(self, other):
        if other.field != self.field or other.s != self.s:
            raise ValueError("incompatible polynomials")
        q = self.field.q
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = (merged.get(exps, 0) + c) % q
        return MultiPoly(self.field, self.s, self.k, merged)

    def scale(self, c: int) -> "MultiPoly":
        return MultiPoly(
            self.field, self.s, self.k, {e: v * c for e, v in self.terms.items()}
        )

    def evaluate(self, point) -> FieldElem:
        """Full evaluation at a point of F_q^(s+1)."""
        vals = [getattr(p, "value", p) % self.field.q for p in point]
        if len(vals) != self.s + 1:
            raise ValueError("point has wrong dimension")
        q = self.field.q
        acc = 0
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                term = term * pow(v, e, q) % q
            acc = (acc + term) % q
        return self.field.element(acc)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.s == self.s
            and other.k == self.k
            and other.terms == self.terms
        )

    def __repr__(self):
        return f"MultiPoly(q={self.field.q}, s={self.s}, k={self.k}, {len(self.terms)} terms)"


def hasse_coefficient(Q: MultiPoly, point, target) -> FieldElem:
    """Coefficient of the target monomial in Q shifted to the given point.

    That is, the coefficient of X^b0 Y_1^b1 ... Y_s^bs in
    Q(X + a0, Y_1 + a1, ..., Y_s + as), computed term by term as
    sum over Q's terms of prod_t C(e_t, b_t) * a_t^(e_t - b_t).
    Linear in Q's coefficients and well-defined in positive characteristic.
    """
    q = Q.field.q
    vals = [getattr(p, "value", p) % q for p in point]
    if len(vals) != Q.s + 1:
        raise ValueError(f"point has {len(vals)} coordinates, expected {Q.s + 1}")
    b = target.exponents if isinstance(target, Monomial) else tuple(target)
    if len(b) != Q.s + 1:
        raise ValueError(f"target monomial has {len(b)} exponents, expected {Q.s + 1}")
    max_e = 0
    for exps in Q.terms:
        max_e = max(max_e, max(exps))
    table = _pascal_mod(q, max(max_e, max(b)))
    acc = 0
    for exps, c in Q.terms.items():
        term = c
        for e_t, b_t, a_t in zip(exps, b, vals):
            if e_t < b_t:
                term = 0
                break
            term = term * table[e_t, b_t] % q
            if e_t > b_t:
                term = term * pow(a_t, e_t - b_t, q) % q
        acc = (acc + term) % q
    return Q.field.element(acc)


def compose_message(Q: MultiPoly, msg_coeffs, gamma: int) -> np.ndarray:
    """The univariate polynomial Q(X, f(X), f(gamma X), ..., f(gamma^(s-1) X)) over F_q.

    ``msg_coeffs`` are the coefficients of f, low degree first.  Returns the
    trimmed coefficient array; an empty array means the identity holds.
    """
    q = Q.field.q
    s = Q.s
    f = np.asarray([int(c) % q for c in msg_coeffs], dtype=np.int64)
    f = _np_trim(f)
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
    pows = []
    for t in range(s):
        pt = [np.ones(1, dtype=np.int64)]
        for _ in range(max_j[t]):
            pt.append(_np_mul(pt[-1], shifted[t], q))
        pows.append(pt)
    deg_f = len(f) - 1
    out_len = max_i + sum(mj * max(deg_f, 0) for mj in max_j) + 1
    acc = np.zeros(out_len, dtype=np.int64)
    for exps, c in Q.terms.items():
        term = np.array([c], dtype=np.int64)
        for t in range(s):
            if exps[1 + t]:
                term = _np_mul(term, pows[t][exps[1 + t]], q)
        if len(term):
            acc[exps[0] : exps[0] + len(term)] += term
    return _np_trim(acc % q)


def _np_trim(a: np.ndarray) -> np.ndarray:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _np_mul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    if len(a) == 0 or len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.convolve(a, b) % q


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over the extension field (numpy arrays)
#
# A polynomial of degree d over F_q[X]/(X^dim - gamma) is an int64 array of
# shape (d+1, dim); row j holds the representative of the Y^j coefficient.
# The zero polynomial has zero rows.  For prime fields dim == 1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExtCtx:
    q: int
    dim: int
    gamma: int  # X^dim = gamma; irrelevant when dim == 1

    def __post_init__(self):
        # _yp_mul, _yp_scalar_mul and _yp_divmod sum dim products per entry
        _check_float_exact(self.dim, self.q, "extension-field arithmetic")

    @property
    def size(self) -> int:
        return self.q**self.dim

    @property
    def gamma_pows(self) -> np.ndarray:
        return _gamma_pows(self.q, self.dim, self.gamma)


@functools.lru_cache(maxsize=None)
def _gamma_pows(q: int, dim: int, gamma: int) -> np.ndarray:
    out = np.ones(dim, dtype=np.int64)
    for i in range(1, dim):
        out[i] = out[i - 1] * gamma % q
    return out


def _ctx_for(field) -> _ExtCtx:
    if isinstance(field, PrimeField):
        return _ExtCtx(field.q, 1, 0)
    if isinstance(field, ExtField):
        return _ExtCtx(field.base.q, field.dim, field.gamma.value)
    raise TypeError(f"unsupported field {field!r}")


@functools.lru_cache(maxsize=None)
def _window_index(dim: int) -> np.ndarray:
    # row u, column t of the multiplication matrix reads entry dim - u + t of
    # the doubled vector (gamma * c, c): the wrapped part lands in the low
    # columns already scaled by gamma
    u = np.arange(dim)[:, None]
    t = np.arange(dim)[None, :]
    return dim - u + t


def _sc_matrix(ctx: _ExtCtx, c: np.ndarray) -> np.ndarray:
    """Multiplication-by-c matrix M: (a @ M) is the coefficient vector of a*c.

    Scalars of shape (..., dim) give stacked matrices of shape (..., dim, dim).
    """
    v = np.concatenate(((ctx.gamma * c) % ctx.q, c % ctx.q), axis=-1)
    # take() is markedly faster than fancy indexing v[..., idx] here, and the
    # method skips the dispatch cost of np.take (this runs per quotient row)
    return v.take(_window_index(ctx.dim), axis=-1)


def _sc_frobenius(ctx: _ExtCtx, c: np.ndarray, i: int) -> np.ndarray:
    """c^(q^i): X^q = gamma X when dim = q-1, so coefficient j scales by gamma^(i j)."""
    return c * _gamma_pows(ctx.q, ctx.dim, pow(ctx.gamma, i, ctx.q)) % ctx.q


def _sc_inv(ctx: _ExtCtx, c: np.ndarray) -> np.ndarray:
    """c^-1 through the norm (Itoh-Tsujii).

    With beta_m = c^(1 + q + ... + q^(m-1)), r = beta_(dim-1)^q is
    c^(q + ... + q^(dim-1)), so c * r = c^((|field|-1)/(q-1)) is the norm of
    c, an element of F_q, and c^-1 = r / norm.  beta_(dim-1) comes from the binary expansion of
    dim - 1 by beta_2m = beta_m * beta_m^(q^m) and beta_(m+1) = c * beta_m^q,
    i.e. O(log dim) exact products; the q^m-th powers are coefficient scalings.
    """
    q = ctx.q
    c = c % q
    if not c.any():
        raise ZeroDivisionError("inverse of zero")
    if ctx.dim == 1:
        return np.array([pow(int(c[0]), q - 2, q)], dtype=np.int64)

    def mul(a, b):
        return a @ _sc_matrix(ctx, b) % q

    beta, m = c, 1
    for bit in bin(ctx.dim - 1)[3:]:
        beta, m = mul(beta, _sc_frobenius(ctx, beta, m)), 2 * m
        if bit == "1":
            beta, m = mul(c, _sc_frobenius(ctx, beta, 1)), m + 1
    r = _sc_frobenius(ctx, beta, 1)
    norm = mul(c, r)
    if norm[1:].any() or norm[0] == 0:
        raise ZeroDivisionError("element is not invertible (norm not a nonzero scalar)")
    return r * pow(int(norm[0]), q - 2, q) % q


def _yp_trim(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    while n > 0 and not arr[n - 1].any():
        n -= 1
    return arr[:n]


def _yp_zero(ctx: _ExtCtx) -> np.ndarray:
    return np.zeros((0, ctx.dim), dtype=np.int64)


def _yp_const(ctx: _ExtCtx, c: np.ndarray) -> np.ndarray:
    return (c % ctx.q).reshape(1, ctx.dim)


def _yp_monomial(ctx: _ExtCtx, e: int, c: np.ndarray | None = None) -> np.ndarray:
    arr = np.zeros((e + 1, ctx.dim), dtype=np.int64)
    if c is None:
        arr[e, 0] = 1
    else:
        arr[e] = c % ctx.q
    return arr


def _yp_scalar_mul(ctx: _ExtCtx, arr: np.ndarray, c: np.ndarray) -> np.ndarray:
    if arr.shape[0] == 0:
        return arr
    out = arr.astype(np.float64) @ _sc_matrix(ctx, c).astype(np.float64)
    return _yp_trim(out.astype(np.int64) % ctx.q)


def _yp_add(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(a.shape[0], b.shape[0])
    out = np.zeros((n, ctx.dim), dtype=np.int64)
    out[: a.shape[0]] += a
    out[: b.shape[0]] += b
    return _yp_trim(out % ctx.q)


def _yp_mul(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0 or b.shape[0] == 0:
        return _yp_zero(ctx)
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


def _fmod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, for integer-valued float64 0 <= x < 2^52 (floor(x / q) is exact there)."""
    x -= q * np.floor(x / q)
    return x


def _sc_is_one(ctx: _ExtCtx, c: np.ndarray) -> bool:
    return c[0] == 1 and (ctx.dim == 1 or not c[1:].any())


def _yp_divmod(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = _yp_trim(b)
    if b.shape[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = (a % ctx.q).astype(np.float64)
    lb = b.shape[0]
    if rem.shape[0] < lb:
        return _yp_zero(ctx), _yp_trim(a % ctx.q)
    monic = _sc_is_one(ctx, b[-1])
    minv = None
    if not monic:
        minv = _sc_matrix(ctx, _sc_inv(ctx, b[-1])).astype(np.float64)
    bf = b.astype(np.float64)
    quo = np.zeros((rem.shape[0] - lb + 1, ctx.dim), dtype=np.int64)
    for top in range(rem.shape[0] - 1, lb - 2, -1):
        head = rem[top] % ctx.q
        if head.any():
            c = head if monic else (head @ minv) % ctx.q
            quo[top - lb + 1] = c
            block = bf @ _sc_matrix(ctx, c.astype(np.int64)).astype(np.float64)
            rem[top - lb + 1 : top + 1] -= block
            rem[top - lb + 1 : top + 1] %= ctx.q
    out_rem = rem[: lb - 1].astype(np.int64) % ctx.q
    return _yp_trim(quo), _yp_trim(out_rem)


def _yp_mod(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _yp_divmod(ctx, a, b)[1]


def _yp_monic(ctx: _ExtCtx, a: np.ndarray) -> np.ndarray:
    a = _yp_trim(a)
    if a.shape[0] == 0:
        return a
    if _sc_is_one(ctx, a[-1]):
        return a
    return _yp_scalar_mul(ctx, a, _sc_inv(ctx, a[-1]))


def _yp_gcd(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = _yp_trim(a % ctx.q)
    b = _yp_trim(b % ctx.q)
    while b.shape[0] > 0:
        a, b = b, _yp_mod(ctx, a, b)
    return _yp_monic(ctx, a)


def _yp_pow_mod(ctx: _ExtCtx, base: np.ndarray, exp: int, mod: np.ndarray) -> np.ndarray:
    result = _yp_const(ctx, np.eye(1, ctx.dim, dtype=np.int64)[0])
    base = _yp_mod(ctx, base, mod)
    while exp:
        if exp & 1:
            result = _yp_mod(ctx, _yp_mul(ctx, result, base), mod)
        base = _yp_mod(ctx, _yp_mul(ctx, base, base), mod)
        exp >>= 1
    return result


class FrobeniusReducer:
    """Computes u -> u^q mod R over F_q[X]/(X^dim - gamma) repeatedly.

    ``linearized_residue`` chains these steps into sum a_i Y^(q^i) mod R, the
    residue that both root-finding entry points take a gcd with.

    In characteristic q the q-th power of sum(c_j Y^j) is
    sum(c_j^q Y^(q j)); coefficientwise the q-th power is the cheap
    gamma-scaling map, so each step is the substitution Y -> Y^q followed by
    reduction mod R.  Up to deg R = _TABLE_LIMIT the first step builds a
    table of Y^(q j) mod R for j < deg R, and every step is one contraction
    of that table with the scaled coefficients.  Above the limit the table
    would not fit in memory, so each step writes the coefficients into rows
    0, q, 2q, ... of a zero array (the substituted polynomial) and reduces it
    mod R once.

    The table is built in two parts, with d = deg R.  First
    P[i] = Y^(d+i) mod R for i < q, each from the one before by a one-row
    shift plus a multiple of P[0] = Y^d - R.  Then row j comes from row j-1,
    sum(c_t Y^t), in one pass: of Y^q times it, the terms c_t Y^(t+q) with
    t + q < d stay as they are, and the high coefficients h_i = c_(d-q+i)
    (the ones that reach Y^(d+i)) add sum_i h_i P[i].  That sum runs in the
    Fourier domain along X: real FFTs of length F, the power of two
    >= 2 dim - 1 (so products do not wrap), one (1 x q) @ (q x d) complex
    product per frequency, and an inverse FFT that gives the coefficients of
    X^0 .. X^(2 dim - 2).  These are rounded, folded with X^dim = gamma and
    reduced mod q.  Only the transformed P is kept.

    Exactness: each coefficient before the fold is a sum of at most q * dim
    products of residues below q, so B = q * dim * (q-1)^2 bounds both it and
    sum_i ||h_i||_2 ||P[i]_t||_2.  By Percival's bound for FFT products
    (twiddle factors accurate to 2^-53) plus the bound for the q-term complex
    sum, the computed coefficient is within B * (13 log2 F + 2q + 3) * 2^-53
    of the integer.  Building the table refuses (ParameterError) sizes where
    that reaches 1/4, and checks that every value lies within 1/4 of an
    integer before it is rounded.
    """

    _TABLE_LIMIT = 600

    def __init__(self, ctx: _ExtCtx, R: np.ndarray):
        self.ctx = ctx
        self.R = _yp_monic(ctx, R)
        if self.R.shape[0] < 2:
            raise ValueError("modulus must have degree at least 1")
        # step() contracts the table over deg R rows and dim columns at once
        _check_float_exact((self.R.shape[0] - 1) * ctx.dim, ctx.q, "Frobenius step")
        self._table: np.ndarray | None = None

    def _build_table(self):
        ctx = self.ctx
        q, dim = ctx.q, ctx.dim
        lr = self.R.shape[0] - 1  # residues have at most lr rows
        width = 2 * dim - 1  # X-degree of a product, before the fold
        nfft = 1 << (width - 1).bit_length()
        bound = q * dim * (q - 1) ** 2 * (13 * (nfft.bit_length() - 1) + 2 * q + 3)
        if 4 * bound >= 2**53:
            raise ParameterError(
                f"Frobenius table: q * dim * (q-1)^2 * (13 log2 F + 2q + 3) >= 2^51 with "
                f"q = {q}, dim = {dim}, F = {nfft}; the Fourier-domain sum would not be exact"
            )
        lo = max(q - lr, 0)  # Y^q * (row j-1) reaches Y^(lr+i) only for i >= lo
        p_hat = np.empty((nfft // 2 + 1, q - lo, lr), dtype=np.complex128)
        p0 = (-self.R[:lr] % q).astype(np.float64)
        p = p0
        for i in range(q):
            if i >= lo:
                p_hat[:, i - lo, :] = np.fft.rfft(p, n=nfft, axis=1).T
            top = p[-1]
            p = np.concatenate((np.zeros((1, dim)), p[:-1]))
            if top.any():
                p = _fmod(p + p0 @ _sc_matrix(ctx, top.astype(np.int64)).astype(np.float64), q)
        keep = max(lr - q, 0)  # rows of row j-1 that stay below Y^lr after the shift
        table = np.zeros((lr, lr, dim), dtype=np.float64)
        table[0, 0, 0] = 1
        for j in range(1, lr):
            prev, row = table[j - 1], table[j]
            row[q:] = prev[:keep]
            high = prev[keep:]
            if not high.any():
                continue
            h_hat = np.fft.rfft(high, n=nfft, axis=1)
            s_hat = np.matmul(h_hat.T[:, None, :], p_hat)[:, 0, :]
            s = np.fft.irfft(s_hat.T, n=nfft, axis=1)[:, :width]
            r = np.rint(s)
            if np.abs(s - r).max() > 0.25:
                raise FloatingPointError("Fourier-domain sum strayed from the integers")
            # below q + q * B < 2^51 (see the bound above): exact before the one reduction
            row += r[:, :dim]
            row[:, : dim - 1] += ctx.gamma * r[:, dim:]
            _fmod(row, q)
        self._table = table

    def step(self, u: np.ndarray) -> np.ndarray:
        """u^q mod R for a residue u (shape (<= deg R, dim))."""
        ctx = self.ctx
        u = _yp_trim(u % ctx.q)
        if u.shape[0] == 0:
            return u
        if ctx.dim == 1:
            # F_q is fixed by Frobenius, so u^q needs only log2(q) squarings,
            # and no table sized by q (which would refuse large prime q)
            return _yp_pow_mod(ctx, u, ctx.q, self.R)
        u = (u * ctx.gamma_pows[None, :]) % ctx.q
        n = u.shape[0]
        if self.R.shape[0] - 1 > self._TABLE_LIMIT:
            sub = np.zeros((ctx.q * (n - 1) + 1, ctx.dim), dtype=np.int64)
            sub[:: ctx.q] = u
            return _yp_mod(ctx, sub, self.R)
        if self._table is None:
            self._build_table()
        mats = _sc_matrix(ctx, u).astype(np.float64)
        prod = np.tensordot(self._table[:n], mats, axes=([0, 2], [0, 1]))
        return _yp_trim(prod.astype(np.int64) % ctx.q)

    def linearized_residue(self, a) -> np.ndarray:
        """sum_i a_i Y^(q^i) mod R for base-field scalars a_i, by len(a) - 1 steps."""
        ctx = self.ctx
        u = _yp_mod(ctx, _yp_monomial(ctx, 1), self.R)
        w = _yp_zero(ctx)
        for i, ai in enumerate(a):
            if ai:
                w = _yp_add(ctx, w, u * ai % ctx.q)
            if i < len(a) - 1:
                u = self.step(u)
        return w


def _half_field_power(ctx: _ExtCtx, base: np.ndarray, reducer: FrobeniusReducer) -> np.ndarray:
    """base^((|field| - 1) / 2) mod reducer.R.

    Written through the base-q factorization of the exponent:
    (q^dim - 1)/2 = (1 + q + ... + q^(dim-1)) * (q-1)/2, so the result is the
    norm-like product prod_i base^(q^i), raised to (q-1)/2.  The q-th powers
    come from cheap Frobenius steps instead of generic squarings; the caller
    passes one reducer per modulus, so its table is built once.
    """
    mod = reducer.R
    w = _yp_mod(ctx, base, mod)
    acc = w
    for _ in range(ctx.dim - 1):
        w = reducer.step(w)
        acc = _yp_mod(ctx, _yp_mul(ctx, acc, w), mod)
    return _yp_pow_mod(ctx, acc, (ctx.q - 1) // 2, mod)


def _edf_roots(ctx: _ExtCtx, g: np.ndarray, rng: random.Random) -> list[np.ndarray]:
    """All roots of a monic squarefree g that splits into linear factors over the field.

    Both callers pass g = gcd(R, L mod R), where L = sum a_i Y^(q^i) has all
    its roots in the field and L' = a_0 != 0, so g qualifies as it is.
    Randomized equal-degree splitting with exponent (|field| - 1) / 2: each
    round draws one random shift c, computes (Y + c)^((|field|-1)/2) modulo g
    once, and splits every remaining factor with gcd(h, that power - 1).  The
    randomness comes only from the supplied rng, so results are reproducible
    for a fixed seed.
    """
    roots: list[np.ndarray] = []
    g = _yp_trim(g)
    if g.shape[0] >= 2 and not g[0].any():
        roots.append(np.zeros(ctx.dim, dtype=np.int64))
        g = _yp_trim(g[1:])
    pending: list[np.ndarray] = []

    def route(h: np.ndarray):
        deg = h.shape[0] - 1
        if deg == 1:
            roots.append((-h[0]) % ctx.q)
        elif deg >= 2:
            pending.append(h)

    route(g)
    if not pending:
        return roots
    reducer = FrobeniusReducer(ctx, g)
    one = np.eye(1, ctx.dim, dtype=np.int64)
    rounds = 0
    while pending:
        rounds += 1
        if rounds > 10_000:  # Las Vegas splitting; this would indicate a bug
            raise AssertionError("equal-degree splitting failed to make progress")
        c = np.array([rng.randrange(ctx.q) for _ in range(ctx.dim)], dtype=np.int64)
        base = np.zeros((2, ctx.dim), dtype=np.int64)
        base[0] = c
        base[1, 0] = 1
        power = _half_field_power(ctx, base, reducer)
        batch, pending = pending, []
        for h in batch:
            ph = _yp_mod(ctx, power, h)
            d = _yp_gcd(ctx, h, _yp_add(ctx, ph, -one % ctx.q))
            if 0 < d.shape[0] - 1 < h.shape[0] - 1:
                route(d)
                route(_yp_divmod(ctx, h, d)[0])
            else:
                pending.append(h)
    return roots


def _roots_arr(ctx: _ExtCtx, arr: np.ndarray, seed: int) -> list[np.ndarray]:
    """All roots in the field of a nonzero polynomial given as a coefficient array."""
    arr = _yp_trim(arr % ctx.q)
    if arr.shape[0] == 0:
        raise ValueError("root finding needs a nonzero polynomial")
    if arr.shape[0] == 1:
        return []
    # the roots in the field are those of g = gcd(R, Y^(q^dim) - Y)
    field_equation = [ctx.q - 1] + [0] * (ctx.dim - 1) + [1]
    reducer = FrobeniusReducer(ctx, arr)
    g = _yp_gcd(ctx, reducer.R, reducer.linearized_residue(field_equation))
    return _edf_roots(ctx, g, random.Random(seed))


def roots_in_field(R: UniPoly, seed: int = 0) -> set:
    """Exactly the set {a in K : R(a) = 0} for R over a supported field K.

    A thin adapter over the array pipeline ``_roots_arr``: gcd of R with the
    field equation Y^|K| - Y, computed by a chain of Frobenius steps mod R,
    then randomized equal-degree splitting with exponent (|K|-1)/2 (odd
    characteristic) seeded by ``seed``.  Prime and extension fields take the
    same path.

    Raises ValueError on the zero polynomial.
    """
    if R.is_zero:
        raise ValueError("cannot find roots of the zero polynomial")
    field = R.field
    ctx = _ctx_for(field)
    if isinstance(field, PrimeField):
        arr = np.array([[c.value] for c in R.coeffs], dtype=np.int64)
        return {field.element(int(r[0])) for r in _roots_arr(ctx, arr, seed)}
    arr = np.array([list(c.coeffs) for c in R.coeffs], dtype=np.int64)
    return {
        ExtFieldElem(tuple(int(v) for v in r), field) for r in _roots_arr(ctx, arr, seed)
    }

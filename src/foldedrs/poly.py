"""Polynomials over the base and extension fields.

Three layers live here:

* ``UniPoly``: a dense univariate polynomial whose coefficients are field
  elements (``FieldElem`` or ``ExtFieldElem``), used at API boundaries.
* ``MultiPoly``: a multivariate polynomial over F_q in X, Y_1, ..., Y_s, held
  as a matrix of X-coefficients with one column per Y-exponent vector, which
  interpolation builds and stripping, substitution and re-verification read;
  its ``terms`` mapping serves evaluation and Hasse shift coefficients.
* a numpy toolkit for heavy univariate arithmetic over the extension field
  F_q[X]/(X^(q-1) - gamma), where a polynomial of degree d is stored as an
  int64 array of shape (d+1, q-1) whose rows go through the scalar kernels
  of ``galois``, as ``ExtFieldElem`` does; over F_q itself the arrays have
  one column (``PrimeField.ctx``, dim = 1), which is how ``frobenius_pow_mod``
  and ``galois.is_irreducible`` run.  Products are exact real 2-D FFT
  products under a checked float64 bound (``_yp_mul``): along Y a zero-padded
  power-of-two transform, along X a gamma-weighted cyclic transform of length
  dim, which multiplies mod X^dim - gamma directly (Crandall & Fagin,
  "Discrete weighted transforms and large-integer arithmetic", Math. Comp. 62,
  1994), one product with a cached real-DFT matrix up to dim 100 (``_x_dft``).
  ``FrobeniusReducer`` reduces them mod a fixed R by Barrett reduction.  Long
  division is one inverse-free row loop (``_yp_divide``): exact for a monic
  divisor, a unit multiple of the remainder otherwise (the gcd's steps).  Root
  finding is one pipeline on these arrays, over every field: the roots of R
  in the subspace V_k of elements with representative degree <= k are those
  of g = gcd(R, L_k mod R) (``_subspace_residue``), where L_k is the q-linearized
  polynomial that vanishes exactly on V_k (``low_degree_vanishing_coeffs``).
  L_k mod R is one combination of the powers Y^(q^i) mod R, which come as one
  array (``FrobeniusReducer.frobenius_powers``: steps through a precomputed
  table, or squarings up from Y and square-and-multiply q-th powers, chosen by
  a stated cost rule), and g comes from an inverse-free Euclid.  Its roots are
  read coordinate by coordinate from one worklist of factors, where every
  coordinate, the last included, splits by the same rules
  (``_subspace_roots``).  With k = dim - 1, L_k is the field equation
  Y^(q^dim) - Y and V_k the whole field; over F_q that is k = 0.  The decoder
  takes k from its parameters.

All operations are pure and deterministic: nothing draws random numbers.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .galois import (
    ExtFieldElem,
    FieldElem,
    ParameterError,
    PrimeField,
    _check_float_exact,
    _ExtCtx,
    _sc_frobenius,
    _sc_inv,
    _sc_is_one,
    _sc_matrix,
    _sc_mul,
    _window,
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
    """f^(q^j) mod E over the prime field, by square-and-multiply (``FrobeniusReducer.pow_mod``).

    With E = X^(q-1) - gamma and deg f < q-1 the result is f(gamma^j X): the
    q-th power map modulo E acts on representatives as the gamma-scaling
    substitution.  The power is computed as such, never through that identity,
    so the identity can be checked against ``scale_compose``.  Raises
    ParameterError where the FFT products mod E would not be exact
    (``_check_fft_exact``).
    """
    field = f.field
    if not isinstance(field, PrimeField):
        raise TypeError("frobenius powering is defined over prime fields")
    if j < 0:
        raise ValueError("power index must be nonnegative")
    reducer = FrobeniusReducer(field.ctx, _uni_array(E))  # refuses deg E < 1
    return UniPoly.from_ints(field, reducer.pow_mod(_uni_array(f), field.q**j)[:, 0].tolist())


# ---------------------------------------------------------------------------
# Weighted-degree monomial combinatorics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monomial:
    """Exponent vector (i, j_1, ..., j_s) of the monomial X^i Y_1^j1 ... Y_s^js."""

    exponents: tuple[int, ...]

    def weighted_degree(self, k: int) -> int:
        return self.exponents[0] + k * sum(self.exponents[1:])


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to exactly `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _weighted_exponents(k: int, D: int, s: int) -> np.ndarray:
    """The exponent vectors of enumerate_weighted_monomials, one int64 row each, in its order."""
    if k < 1 or D < 0 or s < 1:
        raise ValueError("need k >= 1, D >= 0, s >= 1")
    ys = np.array(
        [jvec for jsum in range(D // k + 1) for jvec in _compositions(jsum, s)], dtype=np.int64
    )
    runs = D - k * ys.sum(axis=1) + 1  # X exponents 0 .. D - k*jsum for each Y part
    starts = np.cumsum(runs) - runs
    ys = np.repeat(ys, runs, axis=0)
    xs = np.arange(len(ys)) - np.repeat(starts, runs)
    exps = np.column_stack([xs, ys])
    return exps[np.lexsort((*exps.T[::-1], xs + k * ys.sum(axis=1)))]


class _Monomials(Sequence):
    """Read-only Monomials over an int64 array of exponent rows, each made when it is read."""

    def __init__(self, exps: np.ndarray):
        self._exps = exps

    def __len__(self) -> int:
        return len(self._exps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Monomials(self._exps[i])
        return Monomial(tuple(self._exps[i].tolist()))

    def __iter__(self):
        return map(Monomial, map(tuple, self._exps.tolist()))

    def __eq__(self, other):
        if not isinstance(other, (_Monomials, list)):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))


def enumerate_weighted_monomials(k: int, D: int, s: int) -> Sequence[Monomial]:
    """All monomials X^i Y_1^j1 ... Y_s^js with i + k*(j_1+...+j_s) <= D.

    Returned in graded lexicographic order: ascending weighted degree, ties
    broken by the exponent vector (i, j_1, ..., j_s).  The sequence is
    read-only, makes each Monomial when it is read, and equals the list of
    the same Monomials.
    """
    return _Monomials(_weighted_exponents(k, D, s))


def count_weighted_monomials(k: int, D: int, s: int) -> int:
    """Number of monomials with (1,k,...,k)-weighted degree at most D."""
    if k < 1 or s < 1:
        raise ValueError("need k >= 1, s >= 1")
    if D < 0:
        return 0
    total = 0
    for jsum in range(D // k + 1):
        total += math.comb(jsum + s - 1, s - 1) * (D - k * jsum + 1)
    return total


def trivariate_monomial_count(k: int, D: int) -> int:
    """Closed form for s=2: k*C(a+2,3) + (D - a*k + 1)*C(a+2,2) with a = floor(D/k)."""
    if k < 1:
        raise ValueError("need k >= 1")
    if D < 0:
        return 0
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
    table.flags.writeable = False
    return table


class MultiPoly:
    """Multivariate polynomial over F_q in X, Y_1, ..., Y_s, as a polynomial in X.

    ``jvecs`` (n_y x s int64) holds the distinct Y-exponent vectors of the
    support in lexicographic order, and ``M`` ((deg_X + 1) x n_y residues, no
    zero column or last row, dense along X) their X-coefficients: M[i, c] is
    the coefficient of X^i Y^jvecs[c].  ``terms`` is the read-only mapping
    from exponent vectors (i, j_1, ..., j_s) to coefficients in [1, q), all
    Python ints, built on first use.  ``k`` is the weight of each Y in the
    weighted degree.
    """

    __slots__ = ("field", "s", "k", "M", "jvecs", "_terms")

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
        exps = np.array(list(clean), dtype=np.int64).reshape(len(clean), s + 1)
        jvecs, col = np.unique(exps[:, 1:], axis=0, return_inverse=True)
        M = np.zeros((int(exps[:, 0].max(initial=-1)) + 1, len(jvecs)), dtype=np.int64)
        M[exps[:, 0], col.reshape(-1)] = np.fromiter(clean.values(), np.int64, len(clean))
        self._set(field, s, k, M, jvecs)

    @classmethod
    def _from_arrays(cls, field: PrimeField, s: int, k: int, M, jvecs) -> "MultiPoly":
        """The constructor from ``M`` and ``jvecs`` in the form the class docstring
        states, which the caller guarantees."""
        Q = object.__new__(cls)
        Q._set(field, s, k, M, jvecs)
        return Q

    def _set(self, field, s, k, M, jvecs):
        self.field, self.s, self.k, self.M, self.jvecs, self._terms = field, s, k, M, jvecs, None

    @property
    def terms(self) -> MappingProxyType:
        if self._terms is None:
            rows, cols = np.nonzero(self.M)
            exps = map(tuple, np.column_stack([rows, self.jvecs[cols]]).tolist())
            self._terms = MappingProxyType(dict(zip(exps, self.M[rows, cols].tolist())))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.jvecs.shape[0]

    def weighted_degree(self) -> int:
        """Max of i + k*(j_1+...+j_s) over the support (-1 for the zero polynomial)."""
        x_deg = (np.arange(len(self.M))[:, None] * (self.M != 0)).max(axis=0, initial=0)
        return int((x_deg + self.k * self.jvecs.sum(axis=1)).max(initial=-1))

    def y_total_degree(self) -> int:
        return int(self.jvecs.sum(axis=1).max(initial=-1))

    def __add__(self, other):
        if other.field != self.field or other.s != self.s or other.k != self.k:
            raise ValueError("incompatible polynomials")
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, 0) + c
        return MultiPoly(self.field, self.s, self.k, merged)

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
            and np.array_equal(other.M, self.M)
            and np.array_equal(other.jvecs, self.jvecs)
        )

    def __repr__(self):
        n = np.count_nonzero(self.M)
        return f"MultiPoly(q={self.field.q}, s={self.s}, k={self.k}, {n} terms)"


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
    if any(e < 0 for e in b):
        raise ValueError("negative target exponent")
    table = _pascal_mod(q, max(len(Q.M) - 1, int(Q.jvecs.max(initial=0)), *b))
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
    trimmed coefficient array; an empty array means the identity holds.  One
    product of shifted-f powers per Y-exponent vector j of Q, times j's column
    of X-coefficients, one convolution each.
    """
    q = Q.field.q
    f = _yp_trim(np.asarray([int(c) % q for c in msg_coeffs], dtype=np.int64))
    pows = []
    g = 1
    for t in range(Q.s):
        scale = np.array([pow(g, i, q) for i in range(len(f))], dtype=np.int64)
        shifted = (f * scale) % q if len(f) else f
        g = g * gamma % q
        pt = [np.ones(1, dtype=np.int64)]
        for _ in range(Q.jvecs[:, t].max(initial=0)):
            pt.append(_np_mul(pt[-1], shifted, q))
        pows.append(pt)
    out_len = len(Q.M) + int(Q.jvecs.sum(axis=1).max(initial=0)) * max(len(f) - 1, 0)
    acc = np.zeros(out_len, dtype=np.int64)
    for jvec, col in zip(Q.jvecs.tolist(), Q.M.T):
        prod = np.ones(1, dtype=np.int64)
        for t, j in enumerate(jvec):
            if j:
                prod = _np_mul(prod, pows[t][j], q)
        term = _np_mul(col, prod, q)
        acc[: len(term)] += term
    return _yp_trim(acc % q)


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


def _yp_trim(arr: np.ndarray) -> np.ndarray:
    n = arr.shape[0]
    while n > 0 and not arr[n - 1].any():
        n -= 1
    return arr[:n]


def _yp_zero(ctx: _ExtCtx) -> np.ndarray:
    return np.zeros((0, ctx.dim), dtype=np.int64)


def _yp_pad(a: np.ndarray, rows: int) -> np.ndarray:
    """a mod Y^rows as an array of exactly `rows` rows."""
    out = np.zeros((rows, a.shape[1]), dtype=np.int64)
    out[: min(rows, a.shape[0])] = a[:rows]
    return out


def _yp_monomial(ctx: _ExtCtx, e: int) -> np.ndarray:
    arr = np.zeros((e + 1, ctx.dim), dtype=np.int64)
    arr[e, 0] = 1
    return arr


def _yp_scalar_mul(ctx: _ExtCtx, arr: np.ndarray, c: np.ndarray) -> np.ndarray:
    out = arr.astype(np.float64) @ _sc_matrix(ctx, c).astype(np.float64)
    return _yp_trim(out.astype(np.int64) % ctx.q)


def _yp_add(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(a.shape[0], b.shape[0])
    out = np.zeros((n, ctx.dim), dtype=np.int64)
    out[: a.shape[0]] += a
    out[: b.shape[0]] += b
    return _yp_trim(out % ctx.q)


def _fft_len(rows: int) -> int:
    """Transform length along Y for products with `rows` Y-coefficients: a power of
    two.  Along X it is dim, where the weighted transform wraps X^dim to gamma."""
    return 1 << (rows - 1).bit_length()


@functools.lru_cache(maxsize=None)
def _weights(dim: int, gamma: int) -> np.ndarray:
    """w_j = gamma^(j/dim) for j < dim; exactly [1.0] at dim = 1, whatever gamma.

    With X = w_1 Z, X^dim - gamma = gamma (Z^dim - 1): a cyclic product of
    a_j w_j and b_j w_j has coefficient w_k c_k, where c = a b mod X^dim - gamma.
    """
    w = np.ones(1) if dim == 1 else np.power(float(gamma), np.arange(dim) / dim)
    w.flags.writeable = False
    return w


# the longest X-transform that runs as one matrix product (``_x_dft``).  On one
# BLAS thread the product beat pocketfft's rfft and irfft at dim 12, 30 and 60
# on 16 to 256 rows, and at dim 100 on up to 64 (table steps and builds 9-24 %
# faster, mulmods within 5 %); at 128, 160 and 256 it lost from 64 rows on, as
# its O(dim^2) flops per row overtake O(dim log dim)
_X_MATMUL_DIM = 100


@functools.lru_cache(maxsize=None)
def _x_dft(dim: int, gamma: int) -> tuple[np.ndarray, np.ndarray]:
    """(forward, inverse): the gamma-weighted real DFT of length dim along X as a
    (dim, 2F) float64 matrix, F = dim // 2 + 1, and its unweighting inverse as a
    (2F, dim) one.  Columns 2f and 2f + 1 of forward hold w_j cos and -w_j sin of
    2 pi j f / dim, so a @ forward views as complex128 rfft(a w); inverse takes
    such rows back to irfft(.) / w, row 2f + 1 the imaginary parts (zero at f = 0
    and f = dim / 2, which irfft ignores).

    Each twiddle cos, sin of 2 pi m / dim is that of an angle reduced to
    [-pi/4, pi/4], rotated by its quadrant: within 3.4 * 2^-53 (2.4 for the
    angle's three roundings, 1 for libm), and exact where the angle is 0.
    Folding in w_j rounds once more, and 2/dim or 1/dim and 1/w_k three times,
    so each entry is within 7 * 2^-53 of its value at the computed weights,
    relative to w_j or (2/dim)/w_k (``_x_transform_error``).
    """
    tw = np.empty((dim, 2))  # cos and sin of 2 pi m / dim
    for m in range(dim):
        quad, r = divmod(8 * m + dim, 2 * dim)  # 2 pi m / dim = quad pi / 2 + phi
        phi = math.pi * (r - dim) / (4 * dim)
        c, s = math.cos(phi), math.sin(phi)
        tw[m] = ((c, s), (-s, c), (-c, -s), (s, -c))[quad % 4]
    n_freq = dim // 2 + 1
    m = np.outer(np.arange(dim), np.arange(n_freq)) % dim  # j f mod dim
    w = _weights(dim, gamma)
    forward = np.empty((dim, n_freq, 2))
    forward[..., 0] = tw[m, 0] * w[:, None]
    forward[..., 1] = -tw[m, 1] * w[:, None]
    scale = np.full(n_freq, 2 / dim)  # frequency f stands for f and dim - f
    scale[0] = 1 / dim
    if dim % 2 == 0:
        scale[-1] = 1 / dim  # dim / 2 is its own partner
    inverse = np.empty((n_freq, 2, dim))
    inverse[:, 0] = tw[m.T, 0] * scale[:, None] / w
    inverse[:, 1] = -tw[m.T, 1] * scale[:, None] / w
    forward, inverse = forward.reshape(dim, 2 * n_freq), inverse.reshape(2 * n_freq, dim)
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def _x_forward(ctx: _ExtCtx, a: np.ndarray) -> np.ndarray:
    """rfft(a w) along X for (rows, dim) residues a: one product with ``_x_dft`` up
    to _X_MATMUL_DIM, pocketfft above."""
    if ctx.dim > _X_MATMUL_DIM:
        return np.fft.rfft(a * _weights(ctx.dim, ctx.gamma), axis=1)
    a = np.ascontiguousarray(a, dtype=np.float64)
    return (a @ _x_dft(ctx.dim, ctx.gamma)[0]).view(np.complex128)


def _x_inverse(ctx: _ExtCtx, s: np.ndarray) -> np.ndarray:
    """irfft(s) / w along X for (rows, dim // 2 + 1) complex s, as ``_x_forward``."""
    if ctx.dim > _X_MATMUL_DIM:
        return np.fft.irfft(s, ctx.dim, axis=1) / _weights(ctx.dim, ctx.gamma)
    return np.ascontiguousarray(s).view(np.float64) @ _x_dft(ctx.dim, ctx.gamma)[1]


def _fft(ctx: _ExtCtx, a: np.ndarray, n: int) -> np.ndarray:
    """The weighted transform of (rows, dim) residues a, zero-padded along Y to n."""
    return np.fft.fft(_x_forward(ctx, a), n, axis=0)


@functools.lru_cache(maxsize=None)
def _transform_error(n: int) -> float:
    """kappa(n): the error growth of a length-n transform in units of 2^-53 (``_check_fft_exact``),
    13 per factor 2 and 3 sqrt(p) (p + 3) per odd prime factor p, with multiplicity."""
    total, p = 0.0, 2
    while n > 1:
        while n % p == 0:
            total += 13 if p == 2 else 3 * math.sqrt(p) * (p + 3)
            n //= p
        p += 1
    return total


@functools.lru_cache(maxsize=None)
def _x_transform_error(dim: int) -> float:
    """kappa_X(dim), the error growth along X (``_check_fft_exact``): kappa(dim) above
    _X_MATMUL_DIM, and the matrix path's 3 sqrt(2 dim) (dim + 10) up to it, 0 at dim 1."""
    if dim > _X_MATMUL_DIM:
        return _transform_error(dim)
    return 0.0 if dim == 1 else 3 * math.sqrt(2 * dim) * (dim + 10)


def _rounding_error(ctx: _ExtCtx, norms: float, top: float, kappa: float) -> float:
    """2^53 times the bound of ``_check_fft_exact`` on the distance of a computed
    coefficient from its integer: `norms` bounds ||a||_2 ||b||_2 before weighting,
    `top` every coefficient, `kappa` the transforms' error growth."""
    if ctx.dim == 1:  # w = [1.0]: weighting and unweighting are exact
        return norms * kappa
    growth = ctx.gamma ** (2 * (ctx.dim - 1) / ctx.dim)
    return growth * norms * kappa + (3 * math.log(ctx.gamma) + 9) * top


def _check_fft_exact(ctx: _ExtCtx, la: int, lb: int, n: int) -> None:
    """Refuse (ParameterError) a product of la- and lb-row residues that the FFT,
    of length n along Y, may round wrong.

    Each coefficient c_k of the product mod X^dim - gamma is a sum over
    min(la, lb) row pairs of sum_(i+j=k) a_i b_j + gamma sum_(i+j=k+dim) a_i b_j,
    so 0 <= c_k <= top = min(la, lb) (q-1)^2 (1 + gamma (dim - 1)); and
    B = sqrt(la lb) dim (q-1)^2 bounds ||a||_2 ||b||_2.  The weights w_j <= w_(dim-1)
    raise each norm by at most gamma^((dim-1)/dim) (a factor 1 at dim = 1).

    The transform along Y is radix-2 pocketfft.  The one along X has length
    dim = q - 1, which can have a large prime factor (46 = 2 * 23, 82 = 2 * 41);
    up to _X_MATMUL_DIM it is a matrix product, and above it pocketfft.  Percival's
    bound for radix-2 FFT products ("Rapid multiplication modulo the sum and
    difference of highly composite numbers", Math. Comp. 72, 2003; twiddle
    factors accurate to 2^-53) charges 13 * 2^-53 per factor 2 of the length
    across the two forward and one inverse transform, plus 3 for the pointwise
    product.  An odd prime p is a radix-p stage (pocketfft's generic passes, or
    its fixed butterflies for p = 3, 5, which take fewer operations); computed as
    a direct p-point DFT each output sums p products with inexact twiddles, so
    the stage has relative 2-norm error at most sqrt(p) (p + 3) 2^-53 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., §3.1 and §24.1,
    whose argument for radix 2 composes stages this way; Schatzman, SIAM J. Sci.
    Comput. 17, 1996, studies how mixed-radix errors depend on the radices and
    the twiddle factors), and the three transforms get 3 sqrt(p) (p + 3):
    kappa(n) in ``_transform_error``.  pocketfft switches to Bluestein's
    algorithm only at lengths of 50 and more whose largest prime factor p has
    p^2 > length, and only where its cost model prefers it (p above ~150);
    Bluestein's bound, two transforms of a smooth length below 4 * length with
    radices <= 11, is below kappa(p) for every such p.

    The matrix path (``_x_dft``) is a direct inner-product bound instead.  Each
    real output of a forward or inverse product sums at most dim + 2 products,
    so in any order of summation, BLAS blocking and threads included, it is
    within gamma_(dim+2) |x|^T |y| of the sum over its cached entries (Higham,
    §3.1), and each entry is within 7 * 2^-53 of its value: together within
    (dim + 10) 2^-53 times the 1-norm of the weighted row (forward) or 1/dim
    times that of the full spectrum (inverse).  The 1-norm is at most sqrt(dim)
    times the 2-norm, and a complex value is two real ones, so each of the
    three transforms has relative 2-norm error at most sqrt(2 dim) (dim + 10)
    2^-53: kappa_X(dim) = 3 sqrt(2 dim) (dim + 10) (``_x_transform_error``; above
    _X_MATMUL_DIM, kappa_X(dim) = kappa(dim)).  At dim 1 the matrices are
    [1, 0] and its transpose, and the path is exact: kappa_X(1) = 0.

    So the weighted cyclic product is within gamma^(2 (dim-1)/dim) B
    (kappa(n) + kappa_X(dim) + 3) 2^-53 of w_k c_k, and dividing by
    w_k >= 1 does not raise that.  The weights themselves are within
    (2 + ln gamma) 2^-53 relatively (pow of an argument j/dim rounded once), the
    weighting and the division round once each (in the matrix path, inside the
    entries' 7), and those errors move each term of c_k relatively, by at most
    (3 ln gamma + 9) 2^-53 together; so they add (3 ln gamma + 9) top 2^-53.
    Products are refused where the sum reaches 1/4 (``_rounding_error``);
    ``_fft_round`` checks the rest at run time.
    """
    norms = math.sqrt(la * lb) * ctx.dim * (ctx.q - 1) ** 2
    top = min(la, lb) * (ctx.q - 1) ** 2 * (1 + ctx.gamma * (ctx.dim - 1))
    kappa = _transform_error(n) + _x_transform_error(ctx.dim) + 3
    if 4 * _rounding_error(ctx, norms, top, kappa) >= 2**53:
        raise ParameterError(
            f"FFT product: {la} x {lb} rows over q = {ctx.q}, dim = {ctx.dim}, "
            f"gamma = {ctx.gamma}, N = {n} x {ctx.dim}: the rounding bound reaches 1/4, "
            f"it would not be exact"
        )


def _fft_round(ctx: _ExtCtx, prod_hat: np.ndarray, n: int, rows: int) -> np.ndarray:
    """Rows 0..rows-1 of the product mod X^dim - gamma with weighted transform
    prod_hat: unweighted, rounded and reduced mod q, as int64.  The inverse runs
    along Y, then along X on the kept rows only (``_x_inverse``)."""
    s = _x_inverse(ctx, np.fft.ifft(prod_hat, n, axis=0)[:rows])
    r = np.rint(s)
    if not np.abs(s - r).max() <= 0.25:  # NaN fails too
        raise FloatingPointError("FFT product strayed from the integers")
    return _fmod(r, ctx.q).astype(np.int64)


def _yp_mul(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for reduced a and b by one weighted real 2-D FFT product (exact, see
    ``_check_fft_exact``); squaring (b is a) transforms once."""
    la, lb = a.shape[0], b.shape[0]
    if la == 0 or lb == 0:
        return _yp_zero(ctx)
    n = _fft_len(la + lb - 1)
    _check_fft_exact(ctx, la, lb, n)
    a_hat = _fft(ctx, a, n)
    b_hat = a_hat if b is a else _fft(ctx, b, n)
    return _yp_trim(_fft_round(ctx, a_hat * b_hat, n, la + lb - 1))


def _fmod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, exact for integer-valued float64 x with |x| <= 2^53 - q,
    and for float32 x with |x| <= 2^24 - q.

    With x = n q + r, 0 <= r < q: fl(x / q) is within 2^-53 |x / q| < 1/q of
    x / q, and n, n + 1 are r/q, (q-r)/q away, so floor(fl(x / q)) = n (for
    r = 0, x / q = n is a float).  |q n| <= |x| + q - 1 < 2^53 makes the rest exact.
    In float32 (q < 2^24 is a float32, and x / q, q n and x - q n stay float32)
    the unit roundoff is 2^-24, so the same argument holds with 2^24 for 2^53.
    """
    x -= q * np.floor(x / q)
    return x


def _yp_divide(ctx: _ExtCtx, rem: np.ndarray, b: np.ndarray, quo: np.ndarray | None = None):
    """Long division of float64 residues rem (overwritten) by a nonzero float64 b,
    with no inverse; returns the remainder rows.

    For a monic b each quotient row is the top row c of rem, exact: it goes to
    quo[top - deg b] when quo is given, and the deg b + 1 rows ending at the top
    lose b * c and are reduced.  For
    any other b (the gcd's non-normal steps) each quotient row first multiplies
    the live rows by lc(b), so the result is a unit multiple of rem mod b.
    Every product has entries in [0, dim (q-1)^2], so |x| <= dim (q-1)^2 <=
    2^53 - q (_ExtCtx checks it) before each exact _fmod.
    """
    lb = b.shape[0]
    lead = None if _sc_is_one(ctx, b[-1]) else _sc_matrix(ctx, b[-1])
    for top in range(rem.shape[0] - 1, lb - 2, -1):
        if rem[top].any():
            head = _sc_matrix(ctx, rem[top])
            if lead is None:
                if quo is not None:
                    quo[top - lb + 1] = rem[top]
                live = rem[top - lb + 1 : top + 1]
            else:
                live = rem[: top + 1]
                live[:] = live @ lead
            live[-lb:] -= b @ head
            _fmod(live, ctx.q)
    return _yp_trim(rem[: lb - 1])


def _yp_divmod(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) of a by a nonzero b; a non-monic b is made monic
    once, and its quotient scaled back."""
    b = _yp_trim(b)
    if b.shape[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    lb = b.shape[0]
    if a.shape[0] < lb:
        return _yp_zero(ctx), _yp_trim(a % ctx.q)
    lead_inv = None if _sc_is_one(ctx, b[-1]) else _sc_inv(ctx, b[-1])
    if lead_inv is not None:
        b = _yp_scalar_mul(ctx, b, lead_inv)
    quo = np.zeros((a.shape[0] - lb + 1, ctx.dim), dtype=np.int64)
    rem = _yp_divide(ctx, (a % ctx.q).astype(np.float64), b.astype(np.float64), quo)
    quo = _yp_trim(quo) if lead_inv is None else _yp_scalar_mul(ctx, quo, lead_inv)
    return quo, rem.astype(np.int64)


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
    """The monic gcd: an inverse-free Euclid on float residues, and one inverse at the end.

    A normal step, deg a = deg b + 1 = n >= 2, takes in one pass the
    pseudo-remainder r = lc^2 a - (q1 Y + q0) b, where lc = b_(n-1),
    q1 = lc a_n and q0 = lc a_(n-1) - a_n b_(n-2) (von zur Gathen & Gerhard,
    Modern Computer Algebra, §6.12): rows 0..n-2 of a, b and Y b times M(lc^2),
    M(q0) and M(q1), two subtractions and one _fmod; rows n-1 and n of r vanish
    by the choice of q1 and q0.  The heads come from one product: the rows
    (a_(n-1), a_n, lc) times W(lc), the dim x 2 dim window of lc's tripled
    vector (gamma^2 lc, gamma lc, lc) mod q whose row u starts at entry dim - u.
    x W(c) is (gamma x c, x c), the doubled vector of x c, so once b_(n-2) W(a_n)
    is taken from the first row, one _fmod and one ``_window`` give M(q0), M(q1)
    and M(lc^2), as in ``_sc_matrix``.  W(a_n) is the last step's W(lc) when
    that step was normal: a_n was its lc.  Each head entry is a sum of dim
    products of residues, within dim (q-1)^2 of 0, and each product of the step
    has entries in [0, dim (q-1)^2], so -2 dim (q-1)^2 <= r <= dim (q-1)^2
    before the _fmod.  2 dim (q-1)^2 + q <= 2^53 is checked once per call; it
    holds for prime fields up to q ~ 6.7e7 and for extensions with dim = q - 1
    up to q ~ 1.65e5, whatever gamma.  Past it every step goes through the long
    division ``_yp_divide``, which reduces after each quotient row, and so do
    all other steps (deg a - deg b != 1, or deg b = 0).

    Width: where also 2 dim (q-1)^2 + q <= 2^24 (checked once per call: prime
    fields up to q = 2897, extensions with dim = q - 1 up to q = 199), the
    remainders, the windows, the heads and the normal step's products,
    subtractions and _fmod run in float32, whose sums of such integers are
    exact in any order below 2^24 (FFLAS-FFPACK's rule, Dumas, Giorgi & Pernet,
    ACM TOMS 35, 2008), and _fmod is exact on |x| <= 2^24 - q.  The long
    division runs on float64 copies.  Past the bound all of it runs in float64.
    Both widths give the same integers, so the same g.

    r is lc times the remainder of ``_yp_divide``'s two rows when its second
    head q0 vanishes, and equal to it otherwise; a unit factor leaves the
    monic gcd as it is.
    """
    q, dim = ctx.q, ctx.dim
    fused = 2 * dim * (q - 1) ** 2 + q <= 2**53
    width = np.float32 if fused and 2 * dim * (q - 1) ** 2 + q <= 2**24 else np.float64
    scale = np.array([[ctx.gamma**2 % q], [ctx.gamma], [1]], dtype=width)
    a = _yp_trim((a % q).astype(width))
    b = _yp_trim((b % q).astype(width))
    prev = None  # lc's window from the last step when it was normal: a_n's now
    while b.shape[0] > 0:
        n = b.shape[0]
        if not (fused and a.shape[0] == n + 1 and n >= 2):
            rem = _yp_divide(ctx, a.astype(np.float64, copy=False), b.astype(np.float64, copy=False))
            a, b, prev = b, rem.astype(width, copy=False), None
            continue
        if prev is None:
            prev = _window(_fmod(scale * a[-1], q).reshape(-1), dim)
        w = _window(_fmod(scale * b[-1], q).reshape(-1), dim)
        heads = np.concatenate((a[-2:], b[-1:])) @ w
        heads[0] -= b[-2] @ prev
        q0, q1, lc2 = _window(_fmod(heads, q), dim)
        r = a[: n - 1] @ lc2
        r -= b[: n - 1] @ q0
        r[1:] -= b[: n - 2] @ q1
        a, b, prev = b, _yp_trim(_fmod(r, q)), w
    return _yp_monic(ctx, a.astype(np.int64))


# quotients of fewer rows come from long division (~20 us a row), which beats the
# ~200 us of a Barrett reduction's three transforms there
_BARRETT_ROWS = 8


class FrobeniusReducer:
    """Arithmetic modulo a fixed monic R of degree d over F_q[X]/(X^dim - gamma):
    products, powers, the Frobenius step u -> u^q, and the residue sum
    a_i Y^(q^i) mod R of ``linearized_residue`` that both root-finding entry
    points take a gcd with.  Three rules choose how it works.

    Long division or Barrett (``_reduce``, the one remainder mod R).  A
    quotient of fewer than _BARRETT_ROWS rows, or of more than d rows, comes
    from long division (``_yp_mod``).  Otherwise (a of at most 2d rows: a
    product of residues, or a square times Y, which is reduced once) the m-row
    quotient is the reversal of rev(a) * inv mod Y^m (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 9), where inv = rev(R)^-1 mod Y^d comes from
    Newton iteration once per reducer.  That product runs at the cached length
    N_inv = 2^ceil(log2(2d - 2)) >= d, where only row 0 can take a wrapped
    term (m = d and N_inv = 2d - 2), and row 0 is the top row of a, as
    inv_0 = 1.  The quotient of a start power Y^e, d <= e < 2d, needs no
    product: rev(Y^e) = 1, so it is the reversal of inv mod Y^(e-d+1), a
    prefix of the stored coefficients of inv.  a - quotient * R is then taken
    mod Y^N - 1 for N >= d + 1, a cyclic product of half the length, where a
    folds at most once.  The weighted transforms of inv and R are cached, and
    every product checks the float64 bound of ``_check_fft_exact``.  The Newton
    round from precision p to 2p needs only rows p..2p-1 of e = rev(R) * inv - 1,
    which vanishes below p: they are rows of the product mod Y^N - 1 for
    N >= 2p, whose rows past N wrap below p.  The correction, the (2p-1)-row
    product inv * e[p:2p], does not wrap at that N either, so it reuses the
    transform of inv and checks its own size.  A coefficient of a cyclic product of la
    and lb <= N rows is still a sum of at most min(la, lb) * dim products of
    residues, so the sizes of the final inverse and of R, checked before the
    iteration, bound every round.

    Square from Y or step from the previous power (``frobenius_powers``).
    With the table T[j] = Y^(q j) mod R, j < d, ``step`` takes u^q as
    sum_j sigma(c_j) T[j] for u = sum c_j Y^j, sigma the coefficientwise q-th
    power (the gamma-scaling map), in the weighted X-transform domain
    (``_fourier_sum``); without the table, by square-and-multiply over
    ``mulmod``: floor(log2 q) squarings plus popcount(q) - 1 products.
    ``_power_of_y`` squares up to Y^e from Y^e0, e0 the longest binary prefix of
    e with e0 <= 2d - 2, reduced once: a squaring per remaining bit of e,
    shifted one row (times Y) for a 1-bit before its one reduction.  Without
    the table each Y^(q^i) takes whichever makes fewer mulmods; at q = 31 and
    d = 125 squaring up takes 0, 2 and 7 squarings for i = 1, 2, 3 against 8
    mulmods a step.

    Table or not (``plan(steps, products)``).  The table is built when it is
    exact (see below) and T_build + steps * T_table < products * T_mul + T_setup,
    where `products` is the mulmod count of the chain without a table (by
    default, steps q-th power steps) and T_setup is the Newton set-up when it
    has not run yet and products reach Barrett at all.  The costs are in
    seconds, with M(n) = 2^ceil(log2 n) * dim the points of a product transform:
    T_build = 6.1e-10 d^2 q dim + 2.0e-5 (d + q), the table build below on a
    fresh reducer (with Y^q from ``_power_of_y`` where d < q);
    T_table = 6.3e-10 d^2 dim + 2.6e-10 d dim^2 + 2.3e-5, one step, whose two
    X-transforms are products with dim x dim matrices;
    t(n) = 3.4e-9 M(n) log2 M(n) + 9.3e-5, a mulmod whose product has n rows,
    so T_mul = t(2d - 1), and T_setup = sum of t(2p - 1) over the Newton
    precisions p = 2, 4, ..., d.  Each formula is a least-squares fit, in
    relative error, to the minimum of 15 interleaved timings on a 2-vCPU x86 VM
    with one BLAS thread, over q in {13, 31, 47, 61, 83, 101} and d from 10 to
    600 (125 for the table): within 0.72-1.20x of every mulmod timing,
    0.75-1.25x of every step and 0.69-1.19x of every build.  For k + 1 = 3
    steps the rule keeps the table up to d 46, 56, 46 and 26 at q = 13, 31, 61
    and 101; timed, the crossovers lie at d 48-52, 52-56 (a tie up to 80),
    40-44 and 40-44.  M(n) doubles where n passes a power of two, but a
    mulmod's time rises ~25 % there (its X-transforms and the reduction run on
    the unpadded rows), so the rule misplaces a few d just past one: it keeps
    the table at q = 61, d 66 and drops it at q = 101, d 28-32.

    The table is built in two parts.  First P[i] = Y^(d+i) mod R for
    lo <= i < q, lo = max(q - d, 0), the only ones that row j-1 can reach:
    P[lo] is P[0] = Y^d - R when lo = 0 and Y^q mod R (``_power_of_y``)
    otherwise, and each next one is a one-row shift plus a multiple of P[0].
    Then row j comes from row j-1, sum(c_t Y^t), in one pass: of Y^q times it,
    the terms c_t Y^(t+q) with t + q < d stay as they are, and the high
    coefficients h_i = c_(d-q+i) (the ones that reach Y^(d+i)) add
    sum_i h_i P[i].  That sum runs in the Fourier domain along X:
    gamma-weighted real DFTs of length dim (``_x_forward``), one (1 x q) @ (q x d)
    complex product per frequency, dim // 2 + 1 of them, and an unweighting
    inverse (``_x_inverse``) that gives the coefficients of X^k mod
    X^dim - gamma, rounded and reduced mod q.  Only the transforms of P and of
    the rows, laid out (frequency, j, t), are kept.

    Exactness: a coefficient of the build's sum adds min(q, d) pairs
    (h_i, P[i]_t), and a step's at most d pairs (sigma(c_j), T[j]_t), of dim
    products of residues, gamma times the ones that wrap.  So with
    n = max(q, d) it lies in [0, top], top = n (q-1)^2 (1 + gamma (dim - 1)),
    and B = n dim (q-1)^2 bounds the pairs' sum of ||.||_2 ||.||_2.  The bound
    of ``_check_fft_exact`` carries over with kappa(N) + kappa_X(dim) + 3
    replaced by kappa_X(dim) + 2n + 3: no transform along Y, and 2n for the
    n-term complex sum; kappa_X(dim) is the matrix path's direct inner-product
    bound up to _X_MATMUL_DIM (``_x_transform_error``).  ``plan``
    never builds a table where that reaches 1/4 (``_build_table`` refuses it
    with ParameterError), and every sum checks that each value lies within
    1/4 of an integer before it is rounded.
    """

    def __init__(self, ctx: _ExtCtx, R: np.ndarray):
        self.ctx = ctx
        self.R = _yp_monic(ctx, R)
        if self.R.shape[0] < 2:
            raise ValueError("modulus must have degree at least 1")
        # a table step sums deg R * dim products of residues (rounding: _table_error)
        _check_float_exact((self.R.shape[0] - 1) * ctx.dim, ctx.q, "Frobenius step")
        self._table: np.ndarray | None = None
        self._inv_hat: np.ndarray | None = None

    def _table_error(self) -> float:
        """2^53 times the error bound of the build's and a step's sums (see Exactness above)."""
        ctx = self.ctx
        q, dim = ctx.q, ctx.dim
        n = max(q, self.R.shape[0] - 1)  # pairs in a build's sum (<= q) and a step's (<= deg R)
        top = n * (q - 1) ** 2 * (1 + ctx.gamma * (dim - 1))
        kappa = _x_transform_error(dim) + 2 * n + 3
        return _rounding_error(ctx, n * dim * (q - 1) ** 2, top, kappa)

    def plan(self, steps: int, products: int | None = None) -> None:
        """Build the table if it is exact and pays for `steps` more steps that would
        otherwise make `products` mulmods, by default `steps` q-th powers (the rule above)."""
        if self._table is not None or 4 * self._table_error() >= 2**53:
            return
        q, dim = self.ctx.q, self.ctx.dim
        d = self.R.shape[0] - 1
        if products is None:
            products = steps * self._step_mulmods()

        def t_mul(rows):  # a mulmod whose product has `rows` rows
            m = _fft_len(rows) * dim
            return 3.4e-9 * m * math.log2(m) + 9.3e-5

        t_direct = products * t_mul(2 * d - 1)
        if products and d >= _BARRETT_ROWS and self._inv_hat is None:  # Barrett set-up
            prec = 1
            while prec < d:
                prec = min(2 * prec, d)
                t_direct += t_mul(2 * prec - 1)
        t_build = 6.1e-10 * d * d * q * dim + 2.0e-5 * (d + q)
        t_table = 6.3e-10 * d * d * dim + 2.6e-10 * d * dim * dim + 2.3e-5
        if t_build + steps * t_table < t_direct:
            self._build_table()

    def _build_table(self):
        ctx = self.ctx
        q, dim = ctx.q, ctx.dim
        lr = self.R.shape[0] - 1  # residues have at most lr rows
        if 4 * self._table_error() >= 2**53:
            raise ParameterError(
                f"Frobenius table: q = {q}, dim = {dim}, gamma = {ctx.gamma}: the rounding "
                f"bound of the Fourier-domain sum reaches 1/4, it would not be exact"
            )
        lo = max(q - lr, 0)  # Y^q * (row j-1) reaches Y^(lr+i) only for i >= lo
        p_hat = np.empty((dim // 2 + 1, q - lo, lr), dtype=np.complex128)
        p0 = (-self.R[:lr] % q).astype(np.float64)
        p = _yp_pad(self._power_of_y(q), lr).astype(np.float64) if lo else p0
        for i in range(lo, q):
            p_hat[:, i - lo, :] = _x_forward(ctx, p).T
            top = p[-1]
            p = np.concatenate((np.zeros((1, dim)), p[:-1]))
            if top.any():
                p = _fmod(p + p0 @ _sc_matrix(ctx, top.astype(np.int64)).astype(np.float64), q)
        keep = max(lr - q, 0)  # rows of row j-1 that stay below Y^lr after the shift
        table = np.empty((dim // 2 + 1, lr, lr), dtype=np.complex128)
        row = np.zeros((lr, dim))
        row[0, 0] = 1
        for j in range(lr):
            row_hat = _x_forward(ctx, row)
            table[:, j, :] = row_hat.T
            if j + 1 < lr:  # row j+1: the high rows add sum_i h_i P[i], the low ones shift
                low = row[:keep]
                row = self._fourier_sum(row_hat[keep:], p_hat)
                row[lr - keep :] += low
                _fmod(row, q)  # below q + top < 2^51 (see the bound above): exact before it
        self._table = table

    def _fourier_sum(self, h_hat: np.ndarray, p_hat: np.ndarray) -> np.ndarray:
        """sum_i h_i P_i, rounded but not reduced, from the weighted X-transforms h_hat
        (n, F) of scalars and p_hat (F, n, cols) of rows of cols residues: one
        (1 x n) @ (n x cols) product per frequency and one inverse transform."""
        s_hat = np.matmul(h_hat.T[:, None, :], p_hat)[:, 0, :]
        s = _x_inverse(self.ctx, s_hat.T)
        r = np.rint(s)
        if not np.abs(s - r).max() <= 0.25:  # NaN fails too
            raise FloatingPointError("Fourier-domain sum strayed from the integers")
        return r

    def _setup_barrett(self):
        """inv = rev(R)^-1 mod Y^d by Newton iteration, kept with its transform, and R's.

        The sizes of the final products, d x d and d x (d + 1) rows, are checked
        first: they bound every product of the iteration, so a refused modulus
        is refused before it."""
        ctx = self.ctx
        d = self.R.shape[0] - 1
        self._inv_len = _fft_len(2 * d - 2)  # the quotient's product (class docstring)
        self._r_len = _fft_len(d + 1)  # cyclic: R (d + 1 rows) does not wrap
        _check_fft_exact(ctx, d, d, self._inv_len)
        _check_fft_exact(ctx, d, d + 1, self._r_len)
        rev = self.R[::-1]
        inv = _yp_monomial(ctx, 0)  # rev(R)(0) = lc(R) = 1
        while inv.shape[0] < d:
            old = inv.shape[0]
            prec = min(2 * old, d)
            # rows old..prec-1 of e = rev(R) * inv - 1, from a cyclic product, and the
            # correction inv * e[old:] (prec - 1 rows) at the same length, on the same
            # transform of inv (class docstring)
            length = _fft_len(prec)
            inv_hat = _fft(ctx, inv, length)
            e = _fft_round(ctx, _fft(ctx, rev[:prec], length) * inv_hat, length, prec)[old:]
            _check_fft_exact(ctx, old, prec - old, length)
            corr = _fft_round(ctx, inv_hat * _fft(ctx, e, length), length, prec - old)
            inv = np.concatenate((inv, -corr % ctx.q))
        self._inv = inv
        self._inv_hat = _fft(ctx, inv, self._inv_len)
        self._r_hat = _fft(ctx, self.R, self._r_len)

    def _barrett(self, m: int) -> bool:
        """Whether an m-row quotient comes from Barrett (class docstring), set up on first use."""
        if m < _BARRETT_ROWS or m > self.R.shape[0] - 1:
            return False
        if self._inv_hat is None:
            self._setup_barrett()
        return True

    def _reduce(self, a: np.ndarray) -> np.ndarray:
        """a mod R for a reduced a: the long-division-or-Barrett rule (class docstring)."""
        ctx = self.ctx
        d = self.R.shape[0] - 1
        m = a.shape[0] - d  # quotient rows
        if m <= 0:
            return a
        if not self._barrett(m):
            return _yp_mod(ctx, a, self.R)
        quo_hat = _fft(ctx, a[: d - 1 : -1], self._inv_len) * self._inv_hat
        quo = _fft_round(ctx, quo_hat, self._inv_len, m)
        quo[0] = a[-1]  # the one row a wrap can reach
        return self._remainder(a, quo[::-1])

    def _remainder(self, a: np.ndarray, quo: np.ndarray) -> np.ndarray:
        """a - quo * R for a of at most 2d rows and its quotient quo by R, from
        a mod Y^N - 1 and a cyclic product at N = _r_len (class docstring)."""
        ctx = self.ctx
        d = self.R.shape[0] - 1
        n_cyc = self._r_len
        rem = a[:d] - _fft_round(ctx, _fft(ctx, quo, n_cyc) * self._r_hat, n_cyc, d)
        rem[: max(a.shape[0] - n_cyc, 0)] += a[n_cyc:]  # a mod Y^N - 1
        return _yp_trim(rem % ctx.q)

    def mulmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a * b mod R for residues a and b."""
        return self._reduce(_yp_mul(self.ctx, a, b))

    def pow_mod(self, u: np.ndarray, e: int) -> np.ndarray:
        """u^e mod R for a reduced u by left-to-right square-and-multiply over ``mulmod``."""
        u = self._reduce(u)
        if e == 0:
            return _yp_monomial(self.ctx, 0)
        w = u
        for bit in bin(e)[3:]:
            w = self.mulmod(w, w)
            if bit == "1":
                w = self.mulmod(w, u)
        return w

    def step(self, u: np.ndarray) -> np.ndarray:
        """u^q mod R for a residue u (shape (<= deg R, dim))."""
        ctx = self.ctx
        u = _yp_trim(u % ctx.q)
        if u.shape[0] == 0:
            return u
        if self._table is None:
            return self.pow_mod(u, ctx.q)
        u_hat = _x_forward(ctx, _sc_frobenius(ctx, u, 1))
        prod = self._fourier_sum(u_hat, self._table[:, : u.shape[0]])
        return _yp_trim(_fmod(prod, ctx.q).astype(np.int64))

    def _step_mulmods(self) -> int:
        """The mulmods of a q-th power step without the table (class docstring)."""
        return self.ctx.q.bit_length() + self.ctx.q.bit_count() - 2

    def _squarings(self, e: int) -> int:
        """The squarings ``_power_of_y`` makes for Y^e: the bits of e after its
        longest binary prefix e0 with e0 <= 2 deg R - 2."""
        cap = 2 * self.R.shape[0] - 4
        drop = max(e.bit_length() - cap.bit_length(), 0)
        return drop + (e >> drop > cap)

    def _monomial_mod(self, e: int) -> np.ndarray:
        """Y^e mod R for e < 2d; a Barrett quotient is a reversed prefix of the
        stored inverse (class docstring)."""
        m = e - self.R.shape[0] + 2  # quotient rows
        y = _yp_monomial(self.ctx, e)
        return self._remainder(y, self._inv[m - 1 :: -1]) if self._barrett(m) else self._reduce(y)

    def _power_of_y(self, e: int) -> np.ndarray:
        """Y^e mod R: Y^e0 reduced once (``_monomial_mod``), then for each remaining
        bit of e a squaring, shifted one row (a multiplication by Y) for a 1-bit,
        and reduced once."""
        ctx = self.ctx
        drop = self._squarings(e)
        w = self._monomial_mod(e >> drop)
        for bit in format(e, "b")[e.bit_length() - drop :]:
            w = _yp_mul(ctx, w, w)
            if bit == "1" and w.shape[0]:
                w = np.concatenate((np.zeros((1, ctx.dim), dtype=np.int64), w))
            w = self._reduce(w)
        return w

    def frobenius_powers(self, n: int) -> np.ndarray:
        """Y^(q^i) mod R for i = 0..n, as an (n + 1, deg R, dim) array whose row i
        holds Y^(q^i) mod R padded with zero rows.

        With the table, Y^(q^i) is a step from Y^(q^(i-1)); without it, it comes
        from whichever route makes fewer mulmods: ``_power_of_y``, or a q-th power
        of Y^(q^(i-1)) by ``step``."""
        ctx = self.ctx
        per_step = self._step_mulmods()
        squarings = [self._squarings(ctx.q**i) for i in range(1, n + 1)]
        self.plan(n, sum(min(s, per_step) for s in squarings))
        out = np.zeros((n + 1, self.R.shape[0] - 1, ctx.dim), dtype=np.int64)
        u = self._power_of_y(1)
        out[0, : u.shape[0]] = u
        for i, s in enumerate(squarings, 1):
            u = self._power_of_y(ctx.q**i) if self._table is None and s <= per_step else self.step(u)
            out[i, : u.shape[0]] = u
        return out

    def linearized_residue(self, a) -> np.ndarray:
        """sum_i a_i Y^(q^i) mod R for base-field scalars a_i (``frobenius_powers``),
        as int64 sums of len(a) products of residues: exact for len(a) <= dim + 1,
        as the context bounds dim (q-1)^2 by 2^53."""
        powers = self.frobenius_powers(len(a) - 1)
        return _yp_trim(np.tensordot(np.array(a, dtype=np.int64), powers, 1) % self.ctx.q)


def low_degree_vanishing_coeffs(q: int, gamma: int, k: int) -> list[int]:
    """Coefficients a_0..a_(k+1) of the q-linearized polynomial L_k = sum a_i Y^(q^i)
    whose roots are exactly the extension elements represented by polynomials
    of degree at most k.

    X^j is an eigenvector of the q-power map with eigenvalue gamma^j, so the
    degree <= k subspace is the kernel of the product of (Frobenius - gamma^j)
    over j = 0..k, and the a_i are the coefficients of the node product
    prod_(j<=k) (z - gamma^j).  At k = dim - 1 that is z^dim - 1 (gamma has
    order dim): L_k is the field equation Y^(q^dim) - Y.
    """
    a = np.array([q - 1, 1], dtype=np.int64)
    for j in range(1, k + 1):
        a = (np.append(0, a) - pow(gamma, j, q) * np.append(a, 0)) % q
    return a.tolist()


@functools.lru_cache(maxsize=None)
def _coordinate_functionals(q: int, gamma: int, k: int) -> np.ndarray:
    """C with ell_j(Y) = sum_i C[j, i] Y^(q^i) mapping sum_(t<=k) f_t X^t to f_j X^j.

    X^t is an eigenvector of the q-power map with eigenvalue gamma^t, so
    ell_j = P_j(Frobenius) does this for the Lagrange basis polynomial
    P_j(z) = N(z) / ((z - gamma^j) N'(gamma^j)), N the node product of
    ``low_degree_vanishing_coeffs``, which is 1 at gamma^j and 0 at every other
    gamma^t, t <= k; row j holds its coefficients.  One synthetic division by
    z - x runs for all nodes x at once, with Horner's rule for N'(x) beside it.
    """
    N = low_degree_vanishing_coeffs(q, gamma, k)
    x = np.array([pow(gamma, t, q) for t in range(k + 1)], dtype=np.int64)
    C = np.zeros((k + 1, k + 1), dtype=np.int64)
    acc, deriv = np.full(k + 1, N[-1], dtype=np.int64), np.zeros(k + 1, dtype=np.int64)
    for i in range(k, -1, -1):  # acc: coefficient i of N(z) / (z - x)
        C[:, i] = acc
        deriv = (deriv * x + acc) % q
        acc = (acc * x + N[i]) % q
    C = C * np.array([pow(int(d), -1, q) for d in deriv], dtype=np.int64)[:, None] % q
    C.flags.writeable = False
    return C


# entries of the dim x dim matrices and dim-vectors that one slice of _roots_among's
# candidates may hold: a pass over q candidates is one slice up to q = 127, and
# over F_q a slice is 2^20 candidates
_CANDIDATE_ENTRIES = 2**21


def _roots_among(ctx: _ExtCtx, h: np.ndarray, base: np.ndarray, step: np.ndarray) -> list:
    """The candidates base + c step, c = 0..q-1 in order, at which h vanishes, in
    slices made when they are evaluated, whose dim x dim multiplication matrices
    and dim-vectors hold at most _CANDIDATE_ENTRIES entries (at least one
    candidate a slice)."""
    q = ctx.q
    size = max(_CANDIDATE_ENTRIES // (ctx.dim**2 + ctx.dim), 1)
    found = []
    for lo in range(0, q, size):  # a call per slice frees its arrays before the next
        found += _zeros_among(ctx, h, (base + np.arange(lo, min(lo + size, q))[:, None] * step) % q)
    return found


def _zeros_among(ctx: _ExtCtx, h: np.ndarray, cand: np.ndarray) -> list[np.ndarray]:
    """The rows of cand (candidates, dim) at which h vanishes: Horner's rule on all at once."""
    mats = _sc_matrix(ctx, cand.astype(np.float64))  # gamma c < q^2: exact
    acc = np.broadcast_to(h[-1].astype(np.float64), cand.shape)
    for c in h[-2::-1]:
        acc = _fmod(np.matmul(acc[:, None, :], mats)[:, 0, :] + c, ctx.q)
    return list(cand[~acc.any(axis=1)])


def _subspace_residue(ctx: _ExtCtx, R: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(R made monic, L_k mod R) for R of degree >= 1, where L_k vanishes exactly on
    the elements of representative degree <= k (``low_degree_vanishing_coeffs``).

    Their gcd g is the monic product of Y - a over the distinct roots a of R of
    representative degree <= k: L_k' = a_0 != 0 and L_k has its q^(k+1) roots
    in the field, so g divides a separable split polynomial."""
    reducer = FrobeniusReducer(ctx, R)
    return reducer.R, reducer.linearized_residue(low_degree_vanishing_coeffs(ctx.q, ctx.gamma, k))


def _subspace_roots(ctx: _ExtCtx, g: np.ndarray, k: int) -> list[np.ndarray]:
    """All roots of a monic g whose roots are distinct and lie in the subspace
    V = {sum_(t<=k) f_t X^t} of F_q[X]/(X^(q-1) - gamma), or of F_q at k = 0,
    with no randomness.

    The coordinate functional ell_j (``_coordinate_functionals``) maps a root
    to f_j X^j, so u_j = X^-j (ell_j mod g) takes the value f_j in F_q at each
    root (Berlekamp's trace algorithm, Math. Comp. 24, 1970, with coordinates
    in place of traces).  ell_j mod g is an F_q-combination of the Y^(q^i) mod g,
    i <= k, from a ``FrobeniusReducer`` on g; u_j is made once, when a factor
    first reaches coordinate j.

    One worklist holds entries (f, j, t, u_j mod f, reducer on f), a factor f
    of g at coordinate j and round t, from (g, 0, 0).  A linear factor is a
    root.  For any other factor, u_j mod f is
    * constant: if it is in F_q, every root of f has coordinate j equal to it,
      and f moves to coordinate j + 1 at round 0;
    * linear, a Y + b with a != 0: the roots of f are among the (c - b) / a,
      c in F_q, and come out in one pass (``_roots_among``);
    * otherwise: f splits by the quadratic character of u_j + t.
      gcd(f, (u_j + t)^((q-1)/2) - 1) collects the roots where u_j + t is a
      nonzero square, and f, or its two parts, go on at round t + 1.
    Two values c != c' share that class at every t in F_q only if
    [x is a nonzero square] has period c' - c, that is, is constant, which it
    is not (0 is not a nonzero square, 1 is).  So q rounds separate every value.

    No coordinate needs a pass of its own.  The roots of a factor at
    coordinate k share coordinates 0..k-1, as it has moved past each, so they
    lie on an affine F_q-line a + c X^k, where u_k takes the value c.  So does
    the linear residue X^-k (Y - a), and two residues mod a squarefree f that
    agree at every root of f are equal: u_k mod f is X^-k (Y - a), and the
    linear rule walks a + c X^k.  At k = 0, which covers every prime field,
    u_0 = Y and that pass is one over F_q.

    A factor left after coordinate k or after q rounds, or with a constant u_j
    outside F_q, has a repeated root or a root outside V, and is dropped.
    Raises AssertionError unless it finds exactly deg g distinct roots, all in
    V: a root outside V or a repeated root fails loudly.
    """
    q, dim = ctx.q, ctx.dim
    g = _yp_trim(g)
    n = g.shape[0] - 1
    if n >= 2:
        powers = FrobeniusReducer(ctx, g).frobenius_powers(k)
        C = _coordinate_functionals(q, ctx.gamma, k)
        one = np.eye(1, dim, dtype=np.int64)
    roots, u = [], {}  # u[j]: u_j mod g
    todo = [(g, 0, 0, None, None)] if n >= 1 else []  # (f, j, t, u_j mod f, reducer on f)
    while todo:
        f, j, t, uf, reducer = todo.pop()
        if f.shape[0] == 2:
            roots.append(-f[0] % q)
            continue
        if uf is None:
            if j not in u:
                u[j] = np.tensordot(C[j], powers, 1) % q
                if j:  # X^-j = X^(dim-j) / gamma
                    u[j] = np.roll(u[j], -j, axis=1)
                    u[j][:, dim - j :] = u[j][:, dim - j :] * pow(ctx.gamma, -1, q) % q
            uf = _yp_mod(ctx, u[j], f)
        if uf.shape[0] <= 1:
            if j < k and not uf[:, 1:].any():
                todo.append((f, j + 1, 0, None, None))
        elif uf.shape[0] == 2:
            inv = _sc_inv(ctx, uf[1])
            roots += _roots_among(ctx, f, _sc_mul(ctx, -uf[0] % q, inv), inv)
        elif t < q:
            reducer = reducer or FrobeniusReducer(ctx, f)
            w = reducer.pow_mod(_yp_add(ctx, uf, t * one), (q - 1) // 2)
            b = _yp_gcd(ctx, f, _yp_add(ctx, w, -one % q))
            if 0 < b.shape[0] - 1 < f.shape[0] - 1:
                todo += [(p, j, t + 1, _yp_mod(ctx, uf, p), None) for p in (b, _yp_divmod(ctx, f, b)[0])]
            else:
                todo.append((f, j, t + 1, uf, reducer))
    distinct = {r.tobytes() for r in roots}
    if len(roots) != n or len(distinct) != n or any(r[k + 1 :].any() for r in roots):
        raise AssertionError(
            f"root extraction found {len(roots)} roots for a degree-{n} g, not {n} distinct "
            f"roots of representative degree <= {k}"
        )
    return roots


def _roots_arr(ctx: _ExtCtx, arr: np.ndarray) -> list[np.ndarray]:
    """All roots in the field of a nonzero polynomial given as a coefficient array:
    those of representative degree <= dim - 1, so the field is the subspace."""
    arr = _yp_trim(arr % ctx.q)
    if arr.shape[0] == 1:
        return []
    g = _yp_gcd(ctx, *_subspace_residue(ctx, arr, ctx.dim - 1))
    return _subspace_roots(ctx, g, ctx.dim - 1)


def roots_in_field(R: UniPoly) -> set:
    """Exactly the set {a in K : R(a) = 0} for R over a supported field K.

    A thin adapter over the array pipeline ``_roots_arr``: gcd of R with the
    field equation Y^|K| - Y, computed by a chain of Frobenius steps mod R,
    then the roots of that gcd, read coordinate by coordinate with the whole
    field as the subspace (``_subspace_roots``; over F_q one pass over its q
    elements).  There is no randomness.

    Raises ValueError on the zero polynomial.
    """
    if R.is_zero:
        raise ValueError("cannot find roots of the zero polynomial")
    field = R.field
    roots = _roots_arr(field.ctx, _uni_array(R))
    if isinstance(field, PrimeField):
        return {field.element(int(r[0])) for r in roots}
    return {field._wrap(r) for r in roots}


def _uni_array(f: UniPoly) -> np.ndarray:
    """The coefficient array of f, shape (deg f + 1, dim): dim = 1 over a prime field."""
    if isinstance(f.field, PrimeField):
        return np.array([c.value for c in f.coeffs], dtype=np.int64).reshape(-1, 1)
    return np.array([c.coeffs for c in f.coeffs], dtype=np.int64).reshape(-1, f.field.dim)

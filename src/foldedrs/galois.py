"""Exact arithmetic in prime fields F_q and the extension F_q[X]/(X^(q-1) - gamma).

The extension is always built on the binomial X^(q-1) - gamma for a generator
gamma of F_q*; that binomial is irreducible precisely because gamma is
primitive, so the quotient ring is a field of size q^(q-1).  Extension
elements are stored as their reduced representative, a coefficient vector of
length q-1 over F_q.  Its one scalar arithmetic is the ``_sc_*`` kernels on
int64 vectors (``ExtField.ctx``; ``PrimeField.ctx`` is the case dim = 1):
products by convolution and the fold X^dim = gamma, inverses through the
norm, the q-th power as a gamma-scaling.  ``ExtFieldElem`` wraps them, and
the polynomial arrays of ``poly`` use them row by row.

This module holds field arithmetic only.  Polynomials over either field are
the arrays of ``poly``; ``is_irreducible`` runs on them, over ``PrimeField.ctx``.

Base fields are restricted to odd primes q >= 3.  All values are immutable
after construction and every operation is a pure function, so everything in
this module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Decoding parameters were rejected (infeasible or outside supported range)."""


def _check_float_exact(terms: int, q: int, what: str) -> None:
    """Refuse q when a sum of ``terms`` products of residues mod q can come within q of 2^53.

    The numpy paths multiply residues in float64 (BLAS matmul) and reduce the
    result mod q afterwards; that is exact only while every such sum, at most
    terms * (q-1)^2, is representable.  The margin of q also keeps a residue
    minus such a sum in the range |x| <= 2^53 - q where ``poly._fmod`` is exact.
    """
    if terms * (q - 1) ** 2 + q > 2**53:
        raise ParameterError(
            f"{what}: {terms} * (q-1)^2 + q > 2^53 with q = {q}, float64 products would not be exact"
        )


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class PrimeField:
    """The prime field F_q for an odd prime q >= 3."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if _prime_factors(q) != [q]:
            raise ValueError(f"field modulus {q} is not prime")
        if q < 3 or q % 2 == 0:
            raise ValueError(f"field modulus must be an odd prime >= 3, got {q}")
        self.q = q

    def element(self, value: int) -> "FieldElem":
        return FieldElem(value % self.q, self)

    def zero(self) -> "FieldElem":
        return FieldElem(0, self)

    def one(self) -> "FieldElem":
        return FieldElem(1, self)

    @property
    def ctx(self) -> _ExtCtx:
        """The scalar-kernel context of F_q, the case dim = 1."""
        return _ext_ctx(self.q, 1, 0)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


class FieldElem:
    """An element of a PrimeField.  Supports +, -, *, /, ** and comparison.

    Mixing elements of different fields is a contract violation and raises.
    Plain ints are coerced into the element's field.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = int(value) % field.q
        self.field = field

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.field != self.field:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, int):
            return FieldElem(other, self.field)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.value + o.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.value - o.value, self.field)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElem(self.value * o.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElem(-self.value, self.field)

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        return FieldElem(pow(self.value, exp, self.field.q), self.field)

    def inverse(self) -> "FieldElem":
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElem(pow(self.value, self.field.q - 2, self.field.q), self.field)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return other.field == self.field and other.value == self.value
        try:
            return self.value == operator.index(other) % self.field.q
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # equal to the int self.value, so hashed like it
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"F{self.field.q}({self.value})"


def find_primitive_element(field: PrimeField) -> FieldElem:
    """Smallest generator of the multiplicative group F_q*.

    gamma has order exactly q-1 iff gamma^((q-1)/p) != 1 for every prime
    p dividing q-1.  The smallest such gamma is returned, so the result is
    deterministic for a given q.
    """
    q = field.q
    factors = _prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in factors):
            return field.element(g)
    raise ArithmeticError(f"no generator found for F_{q}*")  # unreachable for prime q


def is_irreducible(p) -> bool:
    """Whether a nonzero univariate polynomial over a prime field is irreducible.

    Uses the distinct-degree criterion: p of degree n is irreducible iff
    gcd(X^(q^d) - X, p) is constant for every d <= n/2 and X^(q^n) = X mod p.
    Accepts a UniPoly over a PrimeField.  Each power X^(q^d) mod p is a q-th
    power of the previous one by square-and-multiply (``poly.FrobeniusReducer.step``)
    and the gcds come from ``poly._yp_gcd``, on coefficient arrays over
    ``PrimeField.ctx``.

    Raises ValueError for zero or constant input, and ParameterError where the
    FFT products mod p would not be exact (``poly._check_fft_exact``).
    """
    from .poly import FrobeniusReducer, _uni_array, _yp_add, _yp_gcd, _yp_mod, _yp_monomial

    field = p.field
    if not isinstance(field, PrimeField):
        raise TypeError("irreducibility test is defined over prime fields")
    deg = p.degree
    if deg < 1:
        raise ValueError("irreducibility is undefined for zero or constant polynomials")
    ctx = field.ctx
    reducer = FrobeniusReducer(ctx, _uni_array(p))
    x = _yp_mod(ctx, _yp_monomial(ctx, 1), reducer.R)
    u = x
    for d in range(1, deg + 1):
        u = reducer.step(u)
        if d <= deg // 2 and _yp_gcd(ctx, reducer.R, _yp_add(ctx, u, -x % ctx.q)).shape[0] > 1:
            return False
    return np.array_equal(u, x)


# ---------------------------------------------------------------------------
# Scalar arithmetic in F_q[X]/(X^dim - gamma) on int64 vectors of length dim.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ExtCtx:
    q: int
    dim: int
    gamma: int  # X^dim = gamma; irrelevant when dim == 1

    def __post_init__(self):
        # _sc_mul and the products of poly's _yp_* sum dim products per entry
        _check_float_exact(self.dim, self.q, "extension-field arithmetic")


@functools.lru_cache(maxsize=None)
def _ext_ctx(q: int, dim: int, gamma: int) -> _ExtCtx:
    """One shared context per (q, dim, gamma); built, and its bound checked, on first use."""
    return _ExtCtx(q, dim, gamma)


@functools.lru_cache(maxsize=None)
def _gamma_pows(q: int, dim: int, gamma: int) -> np.ndarray:
    out = np.ones(dim, dtype=np.int64)
    for i in range(1, dim):
        out[i] = out[i - 1] * gamma % q
    out.flags.writeable = False
    return out


def _window(v: np.ndarray, dim: int) -> np.ndarray:
    """An owned copy of the dim rows over a C-contiguous v of shape (..., dim + w) whose
    row u reads v[..., dim - u : dim - u + w]: a strided view, each row one entry left of the last."""
    item = v.itemsize
    shape = v.shape[:-1] + (dim, v.shape[-1] - dim)
    return np.ndarray(shape, v.dtype, v, dim * item, v.strides[:-1] + (-item, item)).copy()


def _sc_matrix(ctx: _ExtCtx, c: np.ndarray) -> np.ndarray:
    """Multiplication-by-c matrix M: (a @ M) is the coefficient vector of a*c.

    Row u is X^u c, the window of the doubled vector (gamma c, c) mod q that
    starts at entry dim - u: the part that wraps past X^dim lands in the low
    columns already scaled by gamma.  Scalars of shape (..., dim) give stacked
    matrices of shape (..., dim, dim), of c's dtype.
    """
    return _window(np.concatenate(((ctx.gamma * c) % ctx.q, c % ctx.q), axis=-1), ctx.dim)


def _sc_fold(ctx: _ExtCtx, v: np.ndarray) -> np.ndarray:
    """The reduced representative of sum_i v_i X^i, for an int64 v of length >= dim.

    With X^dim = gamma the blocks of dim coefficients add up by Horner's rule in gamma.
    A matrix v, X-degree down the rows, folds each column: this is the remainder
    mod E = X^dim - gamma of every column at once.
    """
    q, dim = ctx.q, ctx.dim
    top = (len(v) - 1) // dim * dim
    acc = v[top:] % q
    for start in range(top - dim, -1, -dim):
        block = v[start : start + dim] % q
        block[: len(acc)] += ctx.gamma * acc
        acc = block % q
    return acc


def _sc_mul(ctx: _ExtCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for reduced a and b: an exact int64 convolution (_ExtCtx bounds it), folded."""
    return _sc_fold(ctx, np.convolve(a, b))


def _sc_frobenius(ctx: _ExtCtx, c: np.ndarray, i: int) -> np.ndarray:
    """c^(q^i): X^q = X (X^dim)^((q-1)/dim) = zeta X with zeta = gamma^((q-1)/dim) in F_q,
    so X^(q^i) = zeta^i X and coefficient j scales by zeta^(i j).  Raises ValueError
    where dim does not divide q - 1: there X^q is no multiple of X."""
    q, dim = ctx.q, ctx.dim
    if (q - 1) % dim:
        raise ValueError(f"dim = {dim} does not divide q - 1 = {q - 1}: the q-th power is no scaling")
    return c * _gamma_pows(q, dim, pow(ctx.gamma, i * ((q - 1) // dim), q)) % q


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
    beta, m = c, 1
    for bit in bin(ctx.dim - 1)[3:]:
        beta, m = _sc_mul(ctx, beta, _sc_frobenius(ctx, beta, m)), 2 * m
        if bit == "1":
            beta, m = _sc_mul(ctx, c, _sc_frobenius(ctx, beta, 1)), m + 1
    r = _sc_frobenius(ctx, beta, 1)
    norm = _sc_mul(ctx, c, r)
    if norm[1:].any() or norm[0] == 0:
        raise ZeroDivisionError("element is not invertible (norm not a nonzero scalar)")
    return r * pow(int(norm[0]), q - 2, q) % q


def _sc_is_one(ctx: _ExtCtx, c: np.ndarray) -> bool:
    return c[0] == 1 and (ctx.dim == 1 or not c[1:].any())


class ExtField:
    """The extension field F_q[X]/(X^(q-1) - gamma) with gamma primitive in F_q."""

    __slots__ = ("base", "gamma", "dim")

    def __init__(self, base: PrimeField, gamma: FieldElem | None = None):
        self.base = base
        if gamma is None:
            gamma = find_primitive_element(base)
        if gamma.field != base:
            raise ValueError("gamma must live in the base field")
        q = base.q
        factors = _prime_factors(q - 1)
        if any(pow(gamma.value, (q - 1) // p, q) == 1 for p in factors):
            raise ValueError(f"{gamma.value} does not generate F_{q}*")
        self.gamma = gamma
        self.dim = q - 1

    @property
    def ctx(self) -> _ExtCtx:
        """The scalar-kernel context; built on use, so only arithmetic checks its bound."""
        return _ext_ctx(self.base.q, self.dim, self.gamma.value)

    @property
    def size(self) -> int:
        return self.base.q ** self.dim

    @property
    def modulus(self):
        """The defining polynomial X^(q-1) - gamma as a UniPoly over the base."""
        from .poly import UniPoly

        coeffs = [(-self.gamma.value) % self.base.q] + [0] * (self.dim - 1) + [1]
        return UniPoly.from_ints(self.base, coeffs)

    def element(self, coeffs) -> "ExtFieldElem":
        """Element from base-field coefficients of any representative, low degree first."""
        vals = [int(getattr(c, "value", c)) % self.base.q for c in coeffs]
        if len(vals) > self.dim:
            return self._wrap(_sc_fold(self.ctx, np.array(vals, dtype=np.int64)))
        return ExtFieldElem(tuple(vals) + (0,) * (self.dim - len(vals)), self)

    def _wrap(self, v: np.ndarray) -> "ExtFieldElem":
        return ExtFieldElem(tuple(v.tolist()), self)

    def zero(self) -> "ExtFieldElem":
        return ExtFieldElem((0,) * self.dim, self)

    def one(self) -> "ExtFieldElem":
        return ExtFieldElem((1,) + (0,) * (self.dim - 1), self)

    def embed(self, a: FieldElem) -> "ExtFieldElem":
        """The image of a base-field element under F_q -> F_q[X]/(E)."""
        if a.field != self.base:
            raise ValueError("element is not in the base field")
        return ExtFieldElem((a.value,) + (0,) * (self.dim - 1), self)

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and other.base == self.base
            and other.gamma == self.gamma
        )

    def __hash__(self):
        return hash(("ExtField", self.base.q, self.gamma.value))

    def __repr__(self):
        return f"ExtField(F_{self.base.q}[X]/(X^{self.dim} - {self.gamma.value}))"


class ExtFieldElem:
    """An element of an ExtField, stored as its length q-1 coefficient vector."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: tuple[int, ...], field: ExtField):
        self.coeffs = coeffs
        self.field = field

    @property
    def rep_degree(self) -> int:
        """Degree of the representative polynomial (-1 for zero)."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def _coerce(self, other) -> "ExtFieldElem":
        if isinstance(other, ExtFieldElem):
            if other.field != self.field:
                raise ValueError("cannot mix elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element([other])
        if isinstance(other, FieldElem):
            return self.field.embed(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        q = self.field.base.q
        return ExtFieldElem(tuple((a + b) % q for a, b in zip(self.coeffs, o.coeffs)), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self + -o

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        q = self.field.base.q
        return ExtFieldElem(tuple(-a % q for a in self.coeffs), self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field._wrap(_sc_mul(self.field.ctx, self._vec(), o._vec()))

    __rmul__ = __mul__

    def _vec(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.int64)

    def inverse(self) -> "ExtFieldElem":
        return self.field._wrap(_sc_inv(self.field.ctx, self._vec()))

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __pow__(self, exp: int):
        if exp < 0:
            return self.inverse() ** (-exp)
        result = self.field.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def frobenius(self) -> "ExtFieldElem":
        """The q-th power map; on representatives (dim = q - 1) it scales coefficient i by gamma^i."""
        return self.field._wrap(_sc_frobenius(self.field.ctx, self._vec(), 1))

    def __eq__(self, other):
        if isinstance(other, ExtFieldElem):
            return other.field == self.field and other.coeffs == self.coeffs
        try:
            return self == self.field.element([operator.index(other)])
        except TypeError:
            return NotImplemented

    def __hash__(self):
        # a constant equals the int coeffs[0], so it is hashed like it
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"Ext{self.field.base.q}({list(self.coeffs)})"


def ext_invert(a: ExtFieldElem) -> ExtFieldElem:
    """Multiplicative inverse in the extension field; raises on zero input."""
    return a.inverse()


@functools.cache
def standard_extension(q: int) -> ExtField:
    """The canonical extension F_q[X]/(X^(q-1) - gamma) with the smallest primitive gamma."""
    field = PrimeField(q)
    return ExtField(field, find_primitive_element(field))

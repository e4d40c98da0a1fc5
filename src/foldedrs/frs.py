"""Folded Reed-Solomon code parameterization, encoding and folding.

A message is a polynomial f over F_q of degree at most k.  Its unfolded
codeword evaluates f at the first n powers 1, gamma, ..., gamma^(n-1) of a
primitive element, where n is the largest multiple of the folding parameter
m not exceeding q-1; the folded codeword bundles consecutive m-tuples into
N = n/m symbols over F_q^m.  Folding changes the alphabet but not the rate
(k+1)/n.

Words over the folded alphabet are plain tuples of m-tuples of ints so they
hash and compare cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .galois import FieldElem, PrimeField, find_primitive_element
from .poly import UniPoly

STANDARD = "standard"
SHIFTED = "shifted"

Codeword = tuple[tuple[int, ...], ...]
ReceivedWord = tuple[tuple[int, ...], ...]


class ShapeError(ValueError):
    """A folded word does not match the code's (N, m) shape."""


class UnsupportedVariantError(ValueError):
    """Requested a variant/parameter combination that is not defined."""


def derive_block_structure(q: int, m: int) -> tuple[int, int]:
    """(n, N) with n the largest multiple of m that is at most q-1, N = n/m."""
    if m < 1:
        raise ValueError("folding parameter must be positive")
    if m > q - 1:
        raise ValueError(f"folding parameter {m} exceeds the {q - 1} nonzero field elements")
    n = m * ((q - 1) // m)
    return n, n // m


@dataclass(frozen=True)
class FRSParams:
    """Full description of a folded Reed-Solomon code instance.

    q: odd prime field size; m: folding parameter; k: message degree bound;
    s: interpolation order (1 <= s <= m); r: interpolation multiplicity;
    variant: "standard" or "shifted" (the high-rate trivariate point set).
    Derived: gamma (smallest primitive element), n (unfolded length),
    N = n/m (folded length).
    """

    q: int
    m: int
    k: int
    s: int = 1
    r: int = 1
    variant: str = STANDARD
    field: PrimeField = dc_field(init=False, repr=False, compare=False)
    gamma: FieldElem = dc_field(init=False, repr=False, compare=False)
    n: int = dc_field(init=False, compare=False)
    N: int = dc_field(init=False, compare=False)

    def __post_init__(self):
        fld = PrimeField(self.q)
        n, N = derive_block_structure(self.q, self.m)
        if self.k < 1:
            raise ValueError("message degree bound k must be at least 1")
        if self.k + 1 >= n:
            raise ValueError(
                f"k = {self.k} leaves no redundancy against the unfolded length n = {n}"
            )
        if not 1 <= self.s <= self.m:
            raise ValueError(f"interpolation order s = {self.s} must satisfy 1 <= s <= m")
        if self.r < 1:
            raise ValueError("multiplicity r must be at least 1")
        if self.variant not in (STANDARD, SHIFTED):
            raise ValueError(f"unknown variant {self.variant!r}")
        object.__setattr__(self, "field", fld)
        object.__setattr__(self, "gamma", find_primitive_element(fld))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)

    @property
    def rate(self) -> float:
        return (self.k + 1) / self.n

    def evaluation_points(self) -> list[int]:
        """The n evaluation points 1, gamma, gamma^2, ... as ints."""
        q, g = self.q, self.gamma.value
        pts = [1]
        for _ in range(self.n - 1):
            pts.append(pts[-1] * g % q)
        return pts


def encode(params: FRSParams, msg: UniPoly) -> Codeword:
    """Folded codeword of a message polynomial.

    Symbol j is the m-tuple (f(gamma^(jm)), ..., f(gamma^(jm+m-1))).
    Raises ValueError when deg(msg) > k.
    """
    if msg.field != params.field:
        raise ValueError("message is not over the code's field")
    if msg.degree > params.k:
        raise ValueError(f"message degree {msg.degree} exceeds the bound k = {params.k}")
    q = params.q
    coeffs = msg.int_coeffs()
    values = []
    for x in params.evaluation_points():
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % q
        values.append(acc)
    m = params.m
    return tuple(tuple(values[j * m : (j + 1) * m]) for j in range(params.N))


def validate_word(params: FRSParams, word) -> ReceivedWord:
    """Check a folded word against the code shape and normalize to int tuples."""
    if len(word) != params.N:
        raise ShapeError(f"word has {len(word)} symbols, expected N = {params.N}")
    out = []
    for sym in word:
        if len(sym) != params.m:
            raise ShapeError(f"symbol width {len(sym)} does not match m = {params.m}")
        vals = tuple(int(v) for v in sym)
        if any(not 0 <= v < params.q for v in vals):
            raise ShapeError(f"symbol {vals} has entries outside [0, {params.q})")
        out.append(vals)
    return tuple(out)


def unfold(params: FRSParams, word) -> list[int]:
    """Concatenate the folded symbols: y[j*m + l] = word[j][l]."""
    word = validate_word(params, word)
    return [v for sym in word for v in sym]


def fold(params: FRSParams, y) -> Codeword:
    """Inverse of unfold; y must have length n."""
    if len(y) != params.n:
        raise ShapeError(f"unfolded vector has length {len(y)}, expected n = {params.n}")
    m = params.m
    return tuple(tuple(int(v) for v in y[j * m : (j + 1) * m]) for j in range(params.N))


def interpolation_index_set(params: FRSParams) -> list[int]:
    """The index set I of unfolded positions used for interpolation.

    standard: every block keeps its first m-s+1 positions, so the s-window
    starting at each kept index stays inside one folded symbol.
    shifted: I = {0, ..., n-2} (defined for s = 2 only), where windows may
    straddle block boundaries and one bad symbol spoils at most m+1 windows.
    """
    n, m, s = params.n, params.m, params.s
    if params.variant == SHIFTED:
        if s != 2:
            raise UnsupportedVariantError("the shifted point set is defined for s = 2 only")
        return list(range(n - 1))
    return [j * m + w for j in range(params.N) for w in range(m - s + 1)]


def interpolation_points(params: FRSParams, y) -> list[tuple[int, ...]]:
    """Interpolation tuples (gamma^i, y_i, y_(i+1), ..., y_(i+s-1)) for i in I."""
    if len(y) != params.n:
        raise ShapeError(f"unfolded vector has length {len(y)}, expected n = {params.n}")
    pts = params.evaluation_points()
    s = params.s
    return [
        (pts[i],) + tuple(int(y[i + t]) for t in range(s))
        for i in interpolation_index_set(params)
    ]


@dataclass(frozen=True)
class RecoverySets:
    """Per-position candidate sets over the folded alphabet, each of size <= l."""

    sets: tuple[frozenset[tuple[int, ...]], ...]
    l: int

    def __post_init__(self):
        for j, S in enumerate(self.sets):
            if len(S) > self.l:
                raise ValueError(f"set at position {j} has {len(S)} > l = {self.l} elements")

    @classmethod
    def from_iterables(cls, sets, l: int) -> "RecoverySets":
        return cls(tuple(frozenset(tuple(int(v) for v in tup) for tup in S) for S in sets), l)


def validate_recovery_sets(params: FRSParams, sets: RecoverySets) -> None:
    if len(sets.sets) != params.N:
        raise ShapeError(f"{len(sets.sets)} sets given, expected N = {params.N}")
    for j, S in enumerate(sets.sets):
        for tup in S:
            if len(tup) != params.m:
                raise ShapeError(f"tuple {tup} at position {j} does not have width m = {params.m}")
            if any(not 0 <= v < params.q for v in tup):
                raise ShapeError(f"tuple {tup} at position {j} has entries outside [0, {params.q})")


def folded_agreement(a, b) -> int:
    """Number of folded positions where two words carry the same symbol."""
    if len(a) != len(b):
        raise ShapeError("words have different lengths")
    return sum(1 for x, y in zip(a, b) if tuple(x) == tuple(y))


# ---------------------------------------------------------------------------
# Text formats: message file = k+1 whitespace-separated ints, low degree
# first; word file = N lines of m space-separated ints.
# ---------------------------------------------------------------------------


def write_message(path: str, params: FRSParams, msg: UniPoly) -> None:
    coeffs = msg.int_coeffs(pad_to=params.k + 1)
    with open(path, "w") as fh:
        fh.write(" ".join(str(c) for c in coeffs) + "\n")


def read_message(path: str, params: FRSParams) -> UniPoly:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) != params.k + 1:
        raise ValueError(f"message file holds {len(tokens)} values, expected k + 1 = {params.k + 1}")
    vals = [int(t) for t in tokens]
    if any(not 0 <= v < params.q for v in vals):
        raise ValueError(f"message coefficients must lie in [0, {params.q})")
    return UniPoly.from_ints(params.field, vals)


def write_word(path: str, word) -> None:
    with open(path, "w") as fh:
        for sym in word:
            fh.write(" ".join(str(v) for v in sym) + "\n")


def read_word(path: str, params: FRSParams) -> ReceivedWord:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(tuple(int(t) for t in line.split()))
    return validate_word(params, rows)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldedrs.galois import (
    ExtField,
    FieldElem,
    ParameterError,
    PrimeField,
    _ExtCtx,
    _sc_fold,
    _sc_frobenius,
    _sc_inv,
    _sc_matrix,
    _sc_mul,
    ext_invert,
    find_primitive_element,
    is_irreducible,
    standard_extension,
)
from foldedrs.poly import MultiPoly, UniPoly, hasse_coefficient

SMALL_PRIMES = [5, 7, 13]


# ---------------------------------------------------------------------------
# pure-Python references: polynomials over F_q on coefficient lists (low
# degree first), the irreducibility test and Frobenius powering on them, and
# the extension-field scalar kernels.  The lists cover q = 2 as well, which
# PrimeField refuses.
# ---------------------------------------------------------------------------


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], q - 2, q)
    for top in range(len(a) - 1, len(b) - 2, -1):
        c = a[top] * inv_lead % q
        if c:
            quo[top - len(b) + 1] = c
            shift = top - len(b) + 1
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % q
    return _ptrim(quo), _ptrim(a)


def _pmod(a: list[int], b: list[int], q: int) -> list[int]:
    return _pdivmod(a, b, q)[1]


def _pgcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, q)
    if a:
        inv = pow(a[-1], q - 2, q)
        a = [c * inv % q for c in a]
    return a


def _ppow_mod(base: list[int], exp: int, mod: list[int], q: int) -> list[int]:
    result = [1]
    base = _pmod(base, mod, q)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, q), mod, q)
        base = _pmod(_pmul(base, base, q), mod, q)
        exp >>= 1
    return result


def _psub(a: list[int], b: list[int], q: int) -> list[int]:
    n = max(len(a), len(b))
    a = a + [0] * (n - len(a))
    b = b + [0] * (n - len(b))
    return _ptrim([(x - y) % q for x, y in zip(a, b)])


def _ref_is_irreducible(coeffs: list[int], q: int) -> bool:
    """The distinct-degree test on coefficient lists (the array version is is_irreducible)."""
    inv_lead = pow(coeffs[-1], q - 2, q)
    coeffs = [c * inv_lead % q for c in coeffs]
    deg = len(coeffs) - 1
    x = [0, 1]
    u = list(x)
    for d in range(1, deg + 1):
        u = _ppow_mod(u, q, coeffs, q)
        if d <= deg // 2 and len(_pgcd(_psub(u, x, q), coeffs, q)) != 1:
            return False
    return u == _pmod(x, coeffs, q)


def _pext_euclid_inverse(a: list[int], mod: list[int], q: int) -> list[int]:
    """Inverse of a modulo mod over F_q, by the extended euclidean algorithm."""
    if not a:
        raise ZeroDivisionError("inverse of zero in extension field")
    r0, r1 = list(mod), _pmod(a, mod, q)
    s0, s1 = [], [1]
    while r1:
        quo, rem = _pdivmod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, _psub(s0, _pmul(quo, s1, q), q)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible (gcd not constant)")
    inv_r = pow(r0[0], q - 2, q)
    return _ptrim([c * inv_r % q for c in s0])


def _reference_mul(a, b) -> tuple[int, ...]:
    """Schoolbook convolution of the representatives, then the fold X^dim = gamma."""
    ext = a.field
    q, dim, gamma = ext.base.q, ext.dim, ext.gamma.value
    prod = [0] * (2 * dim - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            prod[i + j] += ai * bj
    out = prod[:dim]
    for t in range(dim, 2 * dim - 1):
        out[t - dim] += gamma * prod[t]
    return tuple(v % q for v in out)


def _reference_zeros(ctx, arr, points) -> set[tuple[int, ...]]:
    """The rows of points (n x dim) at which the polynomial arr ((deg + 1) x dim,
    low degree first) vanishes: Horner's rule, each product a schoolbook
    convolution of the representatives folded with X^dim = gamma."""
    dim = ctx.dim
    xs = np.ascontiguousarray(points.T)  # one coordinate a row
    acc = np.zeros_like(xs)
    for c in arr[::-1]:
        prod = np.zeros((2 * dim, xs.shape[1]), dtype=np.int64)
        for i in range(dim):
            prod[i : i + dim] += acc[i] * xs
        acc = (prod[:dim] + ctx.gamma * prod[dim:] + c[:, None]) % ctx.q
    return set(map(tuple, points[~acc.any(axis=0)].tolist()))


def _reference_inverse(a) -> tuple[int, ...]:
    ext = a.field
    q = ext.base.q
    modulus = [(-ext.gamma.value) % q] + [0] * (ext.dim - 1) + [1]
    inv = _pext_euclid_inverse(_ptrim(list(a.coeffs)), modulus, q)
    return tuple(inv + [0] * (ext.dim - len(inv)))


def _reference_frobenius(a) -> tuple[int, ...]:
    """Coefficient i times gamma^i: the q-th power on representatives."""
    q, gamma = a.field.base.q, a.field.gamma.value
    return tuple(c * pow(gamma, i, q) % q for i, c in enumerate(a.coeffs))


def _reference_pow(a, exp: int) -> tuple[int, ...]:
    ext = a.field
    base = ext.element(_reference_inverse(a)) if exp < 0 else a
    result = ext.one()
    for bit in bin(abs(exp))[2:]:
        result = ext.element(_reference_mul(result, result))
        if bit == "1":
            result = ext.element(_reference_mul(result, base))
    return result.coeffs


def test_prime_field_rejects_bad_modulus():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_primitive_element_examples():
    assert find_primitive_element(PrimeField(3)).value == 2
    assert find_primitive_element(PrimeField(5)).value == 2
    assert find_primitive_element(PrimeField(7)).value == 3


@pytest.mark.parametrize("q", [5, 7, 11, 13, 31])
def test_primitive_element_has_full_order(q):
    field = PrimeField(q)
    g = find_primitive_element(field).value
    acc = 1
    for j in range(1, q - 1):
        acc = acc * g % q
        assert acc != 1, f"gamma^{j} = 1 before the group order"
    assert acc * g % q == 1


@settings(max_examples=100, deadline=None)
@given(
    q=st.sampled_from(SMALL_PRIMES),
    a=st.integers(min_value=0, max_value=100),
    b=st.integers(min_value=0, max_value=100),
    c=st.integers(min_value=0, max_value=100),
)
def test_prime_field_axioms(q, a, b, c):
    f = PrimeField(q)
    x, y, z = f.element(a), f.element(b), f.element(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from(SMALL_PRIMES), a=st.integers(min_value=1, max_value=100))
def test_prime_field_inverse(q, a):
    f = PrimeField(q)
    x = f.element(a)
    if x.value:
        assert x * x.inverse() == f.one()


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([5, 7, 13, 31]),
    data=st.data(),
)
def test_ext_field_axioms_and_inverse(q, data):
    ext = standard_extension(q)
    dim = ext.dim
    coeffs = st.lists(st.integers(min_value=0, max_value=q - 1), min_size=dim, max_size=dim)
    x = ext.element(data.draw(coeffs))
    y = ext.element(data.draw(coeffs))
    z = ext.element(data.draw(coeffs))
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x * y).coeffs == _reference_mul(x, y)
    assert x.frobenius().coeffs == _reference_frobenius(x)
    exp = data.draw(st.integers(min_value=-2 * q, max_value=2 * q))
    if x:
        assert x * ext_invert(x) == ext.one()
        assert x.inverse().coeffs == _reference_inverse(x)
    if x or exp >= 0:
        assert (x**exp).coeffs == _reference_pow(x, exp)


def test_ext_invert_examples():
    ext = standard_extension(5)  # F_5[X]/(X^4 - 2)
    assert ext_invert(ext.one()) == ext.one()
    x = ext.element([0, 1])
    assert ext_invert(x) == ext.element([0, 0, 0, 3])
    with pytest.raises(ZeroDivisionError):
        ext_invert(ext.zero())


def test_cross_field_mixing_rejected():
    a = PrimeField(5).element(2)
    b = PrimeField(7).element(2)
    with pytest.raises(ValueError):
        a + b


def _monic_irreducibles_up_to_degree_2(q):
    """Trial-division oracle helper: all monic irreducibles of degree <= 2 over F_q."""
    field = PrimeField(q)
    out = []
    for c0 in range(q):
        out.append(UniPoly.from_ints(field, [c0, 1]))
    for c0 in range(q):
        for c1 in range(q):
            p = UniPoly.from_ints(field, [c0, c1, 1])
            if all(p(field.element(x)) != field.zero() for x in range(q)):
                out.append(p)
    return out


def test_is_irreducible_examples():
    F5, F7 = PrimeField(5), PrimeField(7)
    assert is_irreducible(UniPoly.from_ints(F5, [-1, 0, 1])) is False  # (X-1)(X+1)
    assert is_irreducible(UniPoly.from_ints(F5, [-2, 0, 0, 0, 1])) is True
    assert is_irreducible(UniPoly.from_ints(F7, [-3, 0, 0, 0, 0, 0, 1])) is True


def test_is_irreducible_against_trial_division():
    # X^4 - 2 over F_5 has no monic irreducible factor of degree <= 2
    F5 = PrimeField(5)
    p = UniPoly.from_ints(F5, [-2, 0, 0, 0, 1])
    for d in _monic_irreducibles_up_to_degree_2(5):
        assert not (p % d).is_zero
    assert is_irreducible(p)


def test_is_irreducible_rejects_constants():
    F5 = PrimeField(5)
    with pytest.raises(ValueError):
        is_irreducible(UniPoly.from_ints(F5, [3]))
    with pytest.raises(ValueError):
        is_irreducible(UniPoly.zero(F5))


@settings(max_examples=80, deadline=None)
@given(q=st.sampled_from([5, 7, 13, 31]), data=st.data())
def test_is_irreducible_matches_list_reference(q, data):
    deg = data.draw(st.integers(min_value=1, max_value=8))
    coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=deg, max_size=deg))
    coeffs.append(data.draw(st.integers(1, q - 1)))
    p = UniPoly.from_ints(PrimeField(q), coeffs)
    assert is_irreducible(p) == _ref_is_irreducible(coeffs, q)


def test_is_irreducible_refuses_inexact_products():
    # over F_65537 the FFT products of residues mod a modulus of degree 3100
    # exceed the float64 bound of poly._check_fft_exact: refused at once,
    # where the list-based test would run for hours
    p = UniPoly.from_ints(PrimeField(65537), [3] + [0] * 3099 + [1])
    with pytest.raises(ParameterError):
        is_irreducible(p)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_field_binomial_is_irreducible(q):
    field = PrimeField(q)
    gamma = find_primitive_element(field)
    E = ExtField(field, gamma).modulus
    assert is_irreducible(E)


def test_ext_field_rejects_non_primitive_gamma():
    field = PrimeField(7)
    with pytest.raises(ValueError):
        ExtField(field, field.element(2))  # 2 has order 3 mod 7


def test_ext_element_frobenius_matches_power():
    ext = standard_extension(7)
    a = ext.element([3, 1, 0, 4, 0, 2])
    assert a.frobenius() == a**7


def test_sc_frobenius_is_the_q_th_power_for_a_dim_dividing_q_minus_1():
    # over F_13[X]/(X^3 - 2) the q-th power scales X by 2^((13-1)/3) = 3, not by
    # gamma = 2; c^13 comes from twelve products
    ctx = _ExtCtx(13, 3, 2)
    for c in ([1, 2, 3], [0, 1, 0], [5, 0, 7]):
        c = np.array(c)
        power = c
        for _ in range(12):
            power = _sc_mul(ctx, power, c)
        assert _sc_frobenius(ctx, c, 1).tolist() == power.tolist()
        assert _sc_frobenius(ctx, c, 2).tolist() == _sc_frobenius(ctx, power, 1).tolist()
    assert _sc_frobenius(ctx, np.array([1, 2, 3]), 1).tolist() == [1, 6, 1]


def test_sc_inv_over_a_dim_2_field():
    # X^2 - 5 over F_30000023: the inverse goes through q-th powers, which scale
    # X by 5^((q-1)/2) = -1 (5 is a non-square), not by 5
    ctx = _ExtCtx(30000023, 2, 5)
    for c in ([1, 1], [2, 29999999], [0, 7]):
        c = np.array(c)
        assert _sc_mul(ctx, c, _sc_inv(ctx, c)).tolist() == [1, 0]


def test_sc_frobenius_refuses_a_dim_not_dividing_q_minus_1():
    # over F_13[X]/(X^5 - 2), X^13 = 2^2 X^3 is no multiple of X
    with pytest.raises(ValueError, match="dim = 5 does not divide q - 1 = 12"):
        _sc_frobenius(_ExtCtx(13, 5, 2), np.array([1, 2, 3, 4, 5]), 1)


def test_ext_element_folds_long_representatives():
    # X^dim = gamma: X^(2 dim + 1) is gamma^2 X, and the fold matches the
    # remainder mod X^dim - gamma
    ext = standard_extension(5)  # F_5[X]/(X^4 - 2)
    assert ext.element([0] * 9 + [1]) == ext.element([0, 4])
    long = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    modulus = [(-ext.gamma.value) % 5] + [0] * (ext.dim - 1) + [1]
    assert ext.element(long) == ext.element(_pmod([c % 5 for c in long], modulus, 5))


@pytest.mark.parametrize("q", [5, 13, 31])
def test_sc_fold_of_a_matrix_folds_each_column(q):
    # candidates_from_Q reduces every column of Q's X-coefficients mod
    # E = X^dim - gamma in one fold, padding fewer than dim rows first
    ext = standard_extension(q)
    ctx, dim = ext.ctx, ext.dim
    E = [(-ext.gamma.value) % q] + [0] * (dim - 1) + [1]
    gen = np.random.default_rng(q)
    for rows in (dim // 2, dim, 2 * dim + 3):
        M = np.zeros((max(rows, dim), 5), dtype=np.int64)
        M[:rows] = gen.integers(0, q, (rows, 5))
        folded = _sc_fold(ctx, M)
        assert folded.shape == (dim, 5)
        for c in range(5):
            assert np.array_equal(folded[:, c], _sc_fold(ctx, M[:, c]))
            rem = _pmod(M[:, c].tolist(), E, q)
            assert folded[:, c].tolist() == rem + [0] * (dim - len(rem))
    # a column E(X) * c(X) folds to zero
    cols = [_pmul(E, gen.integers(0, q, n).tolist(), q) for n in (1, 2, dim, dim + 5)]
    M = np.zeros((max(map(len, cols)), len(cols)), dtype=np.int64)
    for c, col in enumerate(cols):
        M[: len(col), c] = col
    assert not _sc_fold(ctx, M).any()


@pytest.mark.parametrize("dim", [1, 12, 30, 100, 256])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_sc_matrix_rows_are_shifted_products(dim, dtype):
    # row u of M(c) is X^u c mod X^dim - gamma, built by multiplying by X one
    # row at a time, over F_7 itself (dim 1) and over F_(dim+1)^dim; one scalar
    # and a (2, 3) stack of them
    ctx = PrimeField(7).ctx if dim == 1 else standard_extension(dim + 1).ctx
    q = ctx.q
    gen = np.random.default_rng(dim)
    for shape in ((dim,), (2, 3, dim)):
        c = gen.integers(0, q, shape).astype(dtype)
        c_before = c.copy()
        m = _sc_matrix(ctx, c)
        assert m.shape == shape + (dim,) and m.dtype == dtype
        for index in np.ndindex(shape[:-1]):
            row = c[index].astype(np.int64)
            for u in range(dim):
                assert np.array_equal(m[index][u], row)
                row = np.concatenate(([ctx.gamma * row[-1] % q], row[:-1]))
        # the rows are an owned copy: writing one changes neither c nor another row
        expect = m.copy()
        m[..., 0, :] = -1
        assert np.array_equal(c, c_before)
        assert np.array_equal(m[..., 1:, :], expect[..., 1:, :])


def test_numpy_integers_become_python_ints():
    ext = standard_extension(7)
    a = ext.element(np.array([1, 2]))
    assert all(type(c) is int for c in a.coeffs)
    assert a * a.inverse() == ext.one()
    field = PrimeField(7)
    x = FieldElem(np.int64(3), field)
    assert type(x.value) is int
    assert x.inverse() == x**-1 == field.element(5)
    # hasse_coefficient sums Pascal-table entries, which are numpy integers
    Q = MultiPoly(field, 1, 1, {(2, 1): 3, (0, 0): 1})
    h = hasse_coefficient(Q, (2, 5), (1, 0))
    assert type(h.value) is int
    assert h * h.inverse() == field.one()


def test_any_integer_compares_equal():
    field, ext = PrimeField(7), standard_extension(7)
    assert field.element(3) == np.int64(3) == ext.element([3])
    assert field.element(3) == np.int64(10) and ext.element([3]) == np.uint8(10)
    assert field.element(3) != np.int64(4) and ext.element([3]) != np.int64(4)
    # foreign types are left to Python: not equal, and no exception
    assert field.element(3).__eq__(3.0) is NotImplemented
    assert ext.element([3]).__eq__("3") is NotImplemented
    assert field.element(3) != 3.0 and ext.element([3]) != "3"


def test_elements_hash_like_the_integers_they_equal():
    field, ext = PrimeField(7), standard_extension(7)
    a, b, c = field.element(3), ext.element([3]), ext.element([3, 1])
    assert 3 in {a} and 3 in {b} and np.int64(3) in {a, b}
    assert a in {3} and b in {np.int64(3)} and c not in {3}
    assert {3: "int"}[a] == {3: "int"}[b] == "int"
    assert {a: "prime"}[3] == "prime" and {b: "ext"}[np.int64(3)] == "ext"
    # a prime-field element and an extension constant are not equal to each other
    assert len({a, b, c}) == 3 and len({a, field.element(10), PrimeField(11).element(3)}) == 2
    assert {c: 1, ext.element([3, 1, 0]): 2} == {c: 2}


def test_field_contexts_are_shared():
    ext = standard_extension(7)
    assert ext.ctx is ext.ctx
    assert PrimeField(7).ctx is PrimeField(7).ctx
    # a context past the float64 bound is refused on every use, never cached
    big = standard_extension(208067)
    for _ in range(2):
        with pytest.raises(ParameterError):
            big.ctx


_FOREIGN_OPERATORS = {
    "add": lambda a: a + "z",
    "radd": lambda a: "z" + a,
    "sub": lambda a: a - "z",
    "rsub": lambda a: "z" - a,
    "mul": lambda a: a * "z",
    "truediv": lambda a: a / "z",
}


@pytest.mark.parametrize("op", list(_FOREIGN_OPERATORS), ids=list(_FOREIGN_OPERATORS))
@pytest.mark.parametrize("kind", ["prime", "ext"])
def test_foreign_operands_raise_type_error(kind, op):
    a = PrimeField(7).element(3) if kind == "prime" else standard_extension(7).element([1, 2])
    with pytest.raises(TypeError):
        _FOREIGN_OPERATORS[op](a)


def test_extension_too_large_for_the_kernels_still_builds():
    # 208067 is the least prime with (q-1)^3 >= 2^53: the field and its
    # elements build, and arithmetic through the float64 kernels is refused
    q = 208067
    ext = standard_extension(q)
    a = ext.element([1, 2])
    assert a + a == ext.element([2, 4])
    with pytest.raises(ParameterError):
        a * a


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: PrimeField(0), ValueError, "field modulus 0 is not prime"),
        (lambda: PrimeField(1), ValueError, "field modulus 1 is not prime"),
        (lambda: PrimeField(2), ValueError, "field modulus must be an odd prime >= 3, got 2"),
        (lambda: PrimeField(9), ValueError, "field modulus 9 is not prime"),
        (lambda: PrimeField(15), ValueError, "field modulus 15 is not prime"),
        (lambda: PrimeField(7).zero().inverse(), ZeroDivisionError, "inverse of zero field element"),
        (lambda: ExtField(PrimeField(5), PrimeField(7).element(3)), ValueError,
         "gamma must live in the base field"),
        (lambda: standard_extension(5).embed(PrimeField(7).one()), ValueError,
         "element is not in the base field"),
        (lambda: standard_extension(5).one() + standard_extension(7).one(), ValueError,
         "cannot mix elements of different fields"),
        (lambda: is_irreducible(UniPoly.x(standard_extension(5))), TypeError,
         "irreducibility test is defined over prime fields"),
    ],
)
def test_galois_refusals(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_scalars_mix_with_ints_and_base_field_elements():
    F = PrimeField(7)
    ext = standard_extension(7)
    assert F.element(5) + 4 == F.element(2)
    assert ext.element([1, 2]) + F.element(6) == ext.element([0, 2])

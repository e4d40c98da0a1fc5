import itertools

import pytest

from foldedrs.frs import (
    FRSParams,
    RecoverySets,
    ShapeError,
    UnsupportedVariantError,
    derive_block_structure,
    encode,
    fold,
    folded_agreement,
    interpolation_index_set,
    interpolation_points,
    read_message,
    read_word,
    unfold,
    write_message,
    write_word,
)
from foldedrs.poly import UniPoly, evaluate


def test_derive_block_structure_examples():
    assert derive_block_structure(5, 2) == (4, 2)
    assert derive_block_structure(13, 4) == (12, 3)
    assert derive_block_structure(31, 4) == (28, 7)


def test_derive_block_structure_rejects_large_m():
    with pytest.raises(ValueError):
        derive_block_structure(5, 5)


def test_encode_examples():
    p = FRSParams(q=5, m=2, k=1)
    assert p.gamma.value == 2
    f = UniPoly.from_ints(p.field, [0, 1])
    assert encode(p, f) == ((1, 2), (4, 3))
    assert encode(p, UniPoly.zero(p.field)) == ((0, 0), (0, 0))
    assert encode(p, UniPoly.one(p.field)) == ((1, 1), (1, 1))


def test_encode_rejects_large_degree():
    p = FRSParams(q=5, m=2, k=1)
    with pytest.raises(ValueError):
        encode(p, UniPoly.from_ints(p.field, [0, 0, 1]))


def test_unfold_examples():
    p = FRSParams(q=5, m=2, k=1)
    assert unfold(p, ((1, 2), (4, 3))) == [1, 2, 4, 3]
    assert unfold(p, ((0, 0), (0, 0))) == [0, 0, 0, 0]
    with pytest.raises(ShapeError):
        unfold(p, ((1, 2, 3), (4, 3, 0)))
    with pytest.raises(ShapeError):
        unfold(p, ((1, 2),))


def test_fold_unfold_roundtrip():
    p = FRSParams(q=13, m=3, k=2)
    w = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
    assert fold(p, unfold(p, w)) == w


def test_unfolded_codeword_is_rs_evaluation():
    p = FRSParams(q=13, m=3, k=4)
    f = UniPoly.from_ints(p.field, [3, 1, 0, 7, 9])
    y = unfold(p, encode(p, f))
    g = p.gamma
    x = p.field.one()
    for i in range(p.n):
        assert y[i] == evaluate(f, x).value
        x = x * g


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_rate_independent_of_folding(m):
    p = FRSParams(q=13, m=m, k=2)
    assert p.rate == 3 / p.n
    assert p.n == m * ((13 - 1) // m)


def test_interpolation_index_set_examples():
    p = FRSParams(q=13, m=3, k=2, s=2)
    I = interpolation_index_set(p)
    assert I == [0, 1, 3, 4, 6, 7, 9, 10]
    assert len(I) == p.n * (p.m - p.s + 1) // p.m

    psh = FRSParams(q=13, m=3, k=2, s=2, variant="shifted")
    assert interpolation_index_set(psh) == list(range(11))

    p22 = FRSParams(q=5, m=2, k=1, s=2)
    assert interpolation_index_set(p22) == [0, 2]


def test_shifted_variant_requires_s2():
    p = FRSParams(q=13, m=3, k=2, s=3, variant="shifted")
    with pytest.raises(UnsupportedVariantError):
        interpolation_index_set(p)


def test_interpolation_points_windows():
    p = FRSParams(q=13, m=3, k=2, s=2)
    f = UniPoly.from_ints(p.field, [1, 2, 3])
    y = unfold(p, encode(p, f))
    pts = interpolation_points(p, y)
    assert len(pts) == 8
    evals = p.evaluation_points()
    for idx, i in enumerate(interpolation_index_set(p)):
        assert pts[idx] == (evals[i], y[i], y[i + 1])


def test_mds_distance_tiny_instance():
    # q=13, m=2, k=2: every pair of distinct codewords differs in >= n-k
    # unfolded positions; by linearity it suffices to check weights of all
    # nonzero messages, but the point here is the tiny exhaustive sweep
    p = FRSParams(q=13, m=2, k=2)
    seen = {}
    for coeffs in itertools.product(range(13), repeat=3):
        y = tuple(unfold(p, encode(p, UniPoly.from_ints(p.field, list(coeffs)))))
        seen[coeffs] = y
    zero = seen[(0, 0, 0)]
    for coeffs, y in seen.items():
        if coeffs == (0, 0, 0):
            continue
        dist = sum(1 for a, b in zip(y, zero) if a != b)
        assert dist >= p.n - p.k


def test_folded_agreement():
    a = ((1, 2), (3, 4), (5, 6))
    b = ((1, 2), (0, 4), (5, 6))
    assert folded_agreement(a, b) == 2
    with pytest.raises(ShapeError):
        folded_agreement(a, b[:2])


def test_recovery_sets_size_limit():
    with pytest.raises(ValueError):
        RecoverySets.from_iterables([[(1, 2), (3, 4)]], l=1)
    rs = RecoverySets.from_iterables([[(1, 2), (3, 4)]], l=2)
    assert rs.l == 2


@pytest.mark.parametrize("l", [0, -1])
def test_recovery_sets_refuse_l_below_1(l):
    # a list size below 1 is refused by name, also when every set is empty
    for sets in ([], [[]], [[(1, 2)]]):
        with pytest.raises(ValueError, match=rf"list size l = {l} must be at least 1"):
            RecoverySets.from_iterables(sets, l)

def test_message_and_word_files(tmp_path):
    p = FRSParams(q=13, m=3, k=2)
    msg = UniPoly.from_ints(p.field, [5, 0, 7])
    mpath = tmp_path / "msg.txt"
    write_message(str(mpath), p, msg)
    assert read_message(str(mpath), p) == msg

    cw = encode(p, msg)
    wpath = tmp_path / "cw.txt"
    write_word(str(wpath), cw)
    assert read_word(str(wpath), p) == cw


def test_message_file_validation(tmp_path):
    p = FRSParams(q=13, m=3, k=2)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    with pytest.raises(ValueError):
        read_message(str(bad), p)
    bad.write_text("1 2 99\n")
    with pytest.raises(ValueError):
        read_message(str(bad), p)

import random

import pytest

from foldedrs.decoder import (
    agreement_threshold,
    decoding_bounds,
    list_decode,
    list_recover,
    shifted_error_budget,
    suggest_params,
)
from foldedrs.frs import (
    FRSParams,
    RecoverySets,
    encode,
    folded_agreement,
    interpolation_points,
    unfold,
)
from foldedrs.harness import ChannelSpec, apply_channel, oracle_decode, pipeline_threshold
from foldedrs.interp import (
    InterpolationProblem,
    ParameterError,
    choose_D,
    degree_bound_formula,
    interpolate_with_report,
)
from foldedrs.poly import UniPoly

P13 = FRSParams(q=13, m=3, k=2, s=2, r=3)


def test_agreement_threshold_examples():
    assert agreement_threshold(17, 3, 2, 3) == 3
    assert agreement_threshold(13, 3, 2, 3) == 3
    # strict inequality at an exact divisor: D/((m-s+1)r) = 6 exactly
    assert agreement_threshold(6, 2, 2, 1) == 7


def test_zero_error_decode():
    msg = UniPoly.from_ints(P13.field, [7, 3, 11])
    res = list_decode(P13, encode(P13, msg))
    assert msg in res.messages


def test_single_error_decode():
    msg = UniPoly.from_ints(P13.field, [1, 0, 12])
    cw = encode(P13, msg)
    for seed in range(5):
        recv = apply_channel(cw, ChannelSpec(kind="uniform", e=1, seed=seed), q=13)
        res = list_decode(P13, recv)
        assert msg in res.messages


def test_soundness_all_outputs_at_threshold():
    rng = random.Random(3)
    for trial in range(5):
        word = tuple(tuple(rng.randrange(13) for _ in range(3)) for _ in range(4))
        res = list_decode(P13, word)
        for f in res.messages:
            assert folded_agreement(encode(P13, f), word) >= res.t


def test_oracle_equivalence_random_words():
    rng = random.Random(99)
    for trial in range(8):
        word = tuple(tuple(rng.randrange(13) for _ in range(3)) for _ in range(4))
        res = list_decode(P13, word)
        assert set(res.messages) == oracle_decode(P13, word, res.t)


def test_decode_stats_shape():
    msg = UniPoly.from_ints(P13.field, [0, 1, 2])
    res = list_decode(P13, encode(P13, msg))
    st = res.stats
    assert st.n_points == 8
    assert st.matrix_rows == 80
    assert st.matrix_cols > st.matrix_rows
    assert st.t == res.t
    assert st.candidates_kept == len(res.messages)


def test_decode_stats_report_the_interpolation_solve():
    msg = UniPoly.from_ints(P13.field, [5, 0, 9])
    word = apply_channel(encode(P13, msg), ChannelSpec(kind="uniform", e=2, seed=4), q=13)
    st = list_decode(P13, word).stats
    points = tuple(interpolation_points(P13, unfold(P13, word)))
    D = choose_D(P13.k, len(points), P13.r, P13.s)
    problem = InterpolationProblem(field=P13.field, points=points, r=P13.r, k=P13.k, s=P13.s, D=D)
    _, report = interpolate_with_report(problem)
    assert (st.rank, st.free_col) == (report.rank, report.pivot_cols)
    assert st.rank == st.free_col < st.matrix_cols


def test_list_recover_l1_equals_list_decode():
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    msg = UniPoly.from_ints(p.field, [4, 9])
    cw = encode(p, msg)
    sets = RecoverySets.from_iterables([[sym] for sym in cw], l=1)
    r1 = list_recover(p, sets)
    r2 = list_decode(p, cw)
    assert set(r1.messages) == set(r2.messages)
    assert r1.t == r2.t


def test_list_recover_planted_sets():
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    msg = UniPoly.from_ints(p.field, [4, 9])
    cw = encode(p, msg)
    rng = random.Random(5)
    sets = RecoverySets.from_iterables(
        [[sym, tuple(rng.randrange(13) for _ in range(3))] for sym in cw], l=2
    )
    res = list_recover(p, sets)
    assert msg in res.messages


def test_list_recover_two_planted_codewords():
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    f = UniPoly.from_ints(p.field, [4, 9])
    g = UniPoly.from_ints(p.field, [1, 3])
    sets = RecoverySets.from_iterables(
        [[a, b] for a, b in zip(encode(p, f), encode(p, g))], l=2
    )
    res = list_recover(p, sets)
    assert f in res.messages and g in res.messages


def test_list_recover_D_formula_uses_the_n0_that_chose_D():
    # D comes from n0 = l * (interpolation windows) = 48, not from the 24
    # merged points, so D_formula must be computed from 48 as well
    p = FRSParams(q=31, m=5, k=2, s=2, r=3)
    msg = UniPoly.from_ints(p.field, [3, 1, 4])
    sets = RecoverySets.from_iterables([[sym] for sym in encode(p, msg)], l=2)
    res = list_recover(p, sets)
    st = res.stats
    assert (st.n_points, st.D) == (24, 20)
    assert st.D_formula == degree_bound_formula(p.k, 48, p.r, p.s)
    assert st.D <= st.D_formula
    assert msg in res.messages


def test_list_recover_rejects_shifted():
    p = FRSParams(q=13, m=3, k=1, s=2, r=2, variant="shifted")
    sets = RecoverySets.from_iterables([[(0, 0, 0)]] * p.N, l=1)
    with pytest.raises(ValueError):
        list_recover(p, sets)


def test_shifted_variant_planted_recovery():
    p = FRSParams(q=31, m=4, k=2, s=2, r=3, variant="shifted")
    msg = UniPoly.from_ints(p.field, [3, 8, 30])
    cw = encode(p, msg)
    for seed in range(3):
        recv = apply_channel(cw, ChannelSpec(kind="uniform", e=2, seed=seed), q=31)
        res = list_decode(p, recv)
        assert msg in res.messages


def test_shifted_error_budget_consistency():
    p = FRSParams(q=31, m=4, k=2, s=2, r=3, variant="shifted")
    from foldedrs.frs import interpolation_index_set
    from foldedrs.interp import choose_D

    n0 = len(interpolation_index_set(p))
    D = choose_D(p.k, n0, p.r, p.s)
    t_w, e_max = shifted_error_budget(p, D)
    assert t_w * p.r > D
    assert n0 - e_max * (p.m + 1) >= t_w
    assert n0 - (e_max + 1) * (p.m + 1) < t_w


def test_unfolded_code_decodes_with_m1():
    # m = 1 degenerates to a plain Reed-Solomon code with s = 1 interpolation
    p = FRSParams(q=13, m=1, k=2, s=1, r=2)
    msg = UniPoly.from_ints(p.field, [3, 7, 1])
    cw = encode(p, msg)
    res = list_decode(p, cw)
    assert msg in res.messages
    e_star = p.N - res.t
    assert e_star >= 1
    recv = apply_channel(cw, ChannelSpec(kind="uniform", e=e_star, seed=2), q=13)
    assert msg in list_decode(p, recv).messages


@pytest.mark.parametrize(
    "p",
    [
        # deg R 1023 at dim 30: the Frobenius chain steps by square-and-multiply
        FRSParams(q=31, m=5, k=4, s=3, r=2),
        # deg R 404 at dim 100, nine steps
        FRSParams(q=101, m=5, k=8, s=2, r=2),
    ],
    ids=["q31-s3-degR1023", "q101-k8-degR404"],
)
def test_large_substituted_degree_decodes_at_the_threshold(p):
    rng = random.Random(1)
    msg = UniPoly.from_ints(p.field, [rng.randrange(p.q) for _ in range(p.k + 1)])
    e = p.N - pipeline_threshold(p)
    recv = apply_channel(encode(p, msg), ChannelSpec(kind="uniform", e=e), rng, q=p.q)
    res = list_decode(p, recv)
    assert res.stats.substituted_degree > 400
    assert msg in res.messages
    assert all(folded_agreement(encode(p, f), recv) >= res.t for f in res.messages)


def test_decode_parameter_rejection():
    # q=5, m=4, s=1, r=3 forces floor(D/k) >= q in the interpolation step
    p = FRSParams(q=5, m=4, k=1, s=1, r=3)
    word = tuple(tuple(0 for _ in range(4)) for _ in range(p.N))
    with pytest.raises(ParameterError):
        list_decode(p, word)


# ---------------------------------------------------------------------------
# bounds and parameter suggestions
# ---------------------------------------------------------------------------


def test_bounds_examples():
    row = decoding_bounds(0.25, 4, 2, 1000)
    assert row.rho_gs == pytest.approx(0.5, abs=1e-12)
    assert row.capacity == pytest.approx(0.75, abs=1e-12)
    # for m=2 the standard trivariate bound is 1 - (2R)^(2/3)
    for R in [0.1, 0.2, 0.3]:
        row = decoding_bounds(R, 2, 2, 1000)
        assert row.rho_a == pytest.approx(1 - (2 * R) ** (2 / 3), abs=1e-12)


def test_bounds_clamping_and_flags():
    row = decoding_bounds(0.9, 2, 2, 10)
    assert row.rho_a == 0.0
    assert "rho_a" in row.vacuous
    row2 = decoding_bounds(0.2, 4, 2, 10)
    assert row2.vacuous == frozenset()


def test_bounds_validation():
    with pytest.raises(ValueError):
        decoding_bounds(0.0, 4, 2, 1)
    with pytest.raises(ValueError):
        decoding_bounds(0.5, 2, 3, 1)


def test_bounds_monotonicity():
    rs = [i / 20 for i in range(1, 20)]
    prev = None
    for R in rs:
        v = decoding_bounds(R, 4, 2, 3).rho_svar
        if prev is not None:
            assert v <= prev + 1e-12
        prev = v
    for R in [0.2, 0.5, 0.8]:
        vals = [decoding_bounds(R, 4, 2, r).rho_svar for r in [1, 2, 4, 8, 16]]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_suggest_params_examples():
    sp = suggest_params(0.25, 1.0)
    assert sp.s == 2
    sp = suggest_params(0.5, 0.25)
    assert sp.s == 4
    assert sp.delta == pytest.approx(0.2, abs=1e-12)
    assert sp.m == 48
    assert sp.r == 60
    assert sp.radius >= 1 - 0.5 - 0.25 - 1e-9


def test_agreement_threshold_refuses_r_below_1():
    # a negative r gave a negative threshold and r = 0 a ZeroDivisionError
    for r in (0, -1):
        with pytest.raises(ValueError, match="need 1 <= s <= m and r >= 1"):
            agreement_threshold(10, 3, 2, r)


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: agreement_threshold(10, 3, 0, 3), "need 1 <= s <= m"),
        (lambda: agreement_threshold(10, 3, 4, 3), "need 1 <= s <= m"),
        (lambda: suggest_params(0.0, 0.1), "rate must lie strictly between 0 and 1"),
        (lambda: suggest_params(1.0, 0.1), "rate must lie strictly between 0 and 1"),
        (lambda: suggest_params(0.5, 0.0), "eps must be positive"),
    ],
)
def test_decoder_refusals(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()


def test_decoding_bounds_at_m_1_mark_rho_a_vacuous():
    row = decoding_bounds(0.25, 1, 1, 2)
    assert row.rho_a == 0.0 and "rho_a" in row.vacuous

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from foldedrs.frs import FRSParams, RecoverySets, encode, folded_agreement, read_word, write_word
from foldedrs.harness import (
    BOUNDS_HEADER,
    SIMULATE_HEADER,
    ChannelSpec,
    apply_channel,
    emit_bound_curves,
    oracle_decode,
    pipeline_threshold,
    read_recovery_sets,
    run_cli,
    simulate,
    simulate_csv,
    write_recovery_sets,
)
from foldedrs.poly import UniPoly

P13 = FRSParams(q=13, m=3, k=2, s=2, r=3)


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------


def test_channel_zero_errors_is_identity():
    cw = encode(P13, UniPoly.from_ints(P13.field, [1, 2, 3]))
    out = apply_channel(cw, ChannelSpec(kind="uniform", e=0, seed=1), q=13)
    assert out == cw


@pytest.mark.parametrize("kind", ["uniform", "burst"])
@pytest.mark.parametrize("e", [1, 2, 4])
def test_channel_distance_exactly_e(kind, e):
    cw = encode(P13, UniPoly.from_ints(P13.field, [5, 6, 7]))
    for seed in range(10):
        out = apply_channel(cw, ChannelSpec(kind=kind, e=e, seed=seed), q=13)
        assert P13.N - folded_agreement(cw, out) == e


def test_channel_burst_is_contiguous():
    cw = encode(P13, UniPoly.from_ints(P13.field, [5, 6, 7]))
    for seed in range(10):
        out = apply_channel(cw, ChannelSpec(kind="burst", e=2, seed=seed), q=13)
        bad = [j for j in range(P13.N) if out[j] != cw[j]]
        assert len(bad) == 2
        d = (bad[1] - bad[0]) % P13.N
        assert d == 1 or d == P13.N - 1


def test_channel_full_corruption():
    cw = encode(P13, UniPoly.from_ints(P13.field, [0, 0, 1]))
    out = apply_channel(cw, ChannelSpec(kind="uniform", e=P13.N, seed=3), q=13)
    assert all(a != b for a, b in zip(cw, out))


def test_channel_infers_two_symbols_for_the_zero_word():
    # 1 + the largest entry of the zero codeword would be one symbol, with no
    # other tuple to draw; without q the inferred alphabet has at least two
    cw = encode(P13, UniPoly.zero(P13.field))
    out = apply_channel(cw, ChannelSpec(kind="uniform", e=1))
    assert P13.N - folded_agreement(cw, out) == 1


def test_channel_rejects_too_many_errors():
    cw = encode(P13, UniPoly.from_ints(P13.field, [0, 0, 1]))
    with pytest.raises(ValueError):
        apply_channel(cw, ChannelSpec(kind="uniform", e=P13.N + 1, seed=0), q=13)


def test_channel_fixed_positions_and_values():
    cw = encode(P13, UniPoly.from_ints(P13.field, [1, 1, 1]))
    spec = ChannelSpec(
        kind="fixed-positions",
        e=2,
        positions=(0, 2),
        values=((9, 9, 9), (8, 8, 8)),
    )
    out = apply_channel(cw, spec, q=13)
    assert out[0] == (9, 9, 9) and out[2] == (8, 8, 8)
    assert out[1] == cw[1] and out[3] == cw[3]


def test_channel_fixed_positions_pair_values_in_given_order():
    # unsorted positions: each value goes with its own position, not with the
    # position of the same rank
    cw = encode(P13, UniPoly.from_ints(P13.field, [1, 1, 1]))
    spec = ChannelSpec(
        kind="fixed-positions",
        e=2,
        positions=(3, 1),
        values=((9, 9, 9), (8, 8, 8)),
    )
    out = apply_channel(cw, spec, q=13)
    assert out[3] == (9, 9, 9) and out[1] == (8, 8, 8)
    assert out[0] == cw[0] and out[2] == cw[2]


def test_channel_fixed_positions_validation():
    cw = encode(P13, UniPoly.from_ints(P13.field, [1, 1, 1]))
    with pytest.raises(ValueError):
        apply_channel(cw, ChannelSpec(kind="fixed-positions", e=2, positions=(1,)), q=13)
    with pytest.raises(ValueError):
        apply_channel(
            cw,
            ChannelSpec(kind="fixed-positions", e=1, positions=(1,), values=(tuple(cw[1]),)),
            q=13,
        )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_examples():
    p = FRSParams(q=5, m=2, k=1, s=2, r=1)
    f = UniPoly.from_ints(p.field, [2, 3])
    cw = encode(p, f)
    assert oracle_decode(p, cw, p.N) == {f}
    assert len(oracle_decode(p, cw, 0)) == 5**2


def test_oracle_contains_planted_at_agreement():
    msg = UniPoly.from_ints(P13.field, [3, 1, 4])
    cw = encode(P13, msg)
    recv = apply_channel(cw, ChannelSpec(kind="uniform", e=1, seed=5), q=13)
    t = folded_agreement(cw, recv)
    assert msg in oracle_decode(P13, recv, t)


def test_oracle_budget():
    p = FRSParams(q=31, m=2, k=4, s=1, r=1)
    word = tuple((0, 0) for _ in range(p.N))
    with pytest.raises(ValueError):
        oracle_decode(p, word, 1)


# ---------------------------------------------------------------------------
# simulate and CSV emitters
# ---------------------------------------------------------------------------


def test_simulate_reproducible_modulo_walltime():
    p = FRSParams(q=13, m=3, k=2, s=2, r=2)
    a = simulate(p, "uniform", 1, 3, seed=21)
    b = simulate(p, "uniform", 1, 3, seed=21)
    strip = lambda recs: [dataclasses.replace(rec, ms=0.0) for rec in recs]
    assert strip(a) == strip(b)
    csv_a = "\n".join(",".join(line.split(",")[:-1]) for line in simulate_csv(a).splitlines())
    csv_b = "\n".join(",".join(line.split(",")[:-1]) for line in simulate_csv(b).splitlines())
    assert csv_a == csv_b


def test_simulate_csv_columns():
    p = FRSParams(q=13, m=2, k=1, s=2, r=1)
    text = simulate_csv(simulate(p, "burst", 1, 2, seed=0))
    lines = text.strip().splitlines()
    assert lines[0] == SIMULATE_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:9] == ["13", "2", "1", "2", "1", "standard", "burst", "1", "0"]
    assert first[9] in ("0", "1")


def test_bound_curves_csv():
    text = emit_bound_curves([4], [2], 1000, 0.01)
    lines = text.strip().splitlines()
    assert lines[0] == BOUNDS_HEADER
    row = next(l for l in lines if l.startswith("0.250000"))
    cells = row.split(",")
    assert cells[1] == "0.500000"  # rho_gs(0.25)
    assert cells[7] == "0.750000"  # capacity
    # clamped rows carry an exact zero
    row9 = next(l for l in lines if l.startswith("0.990000"))
    assert float(row9.split(",")[2]) >= 0.0


def test_bound_curves_multi_pairs_have_keys():
    text = emit_bound_curves([4, 5], [2], 1000, 0.25)
    lines = text.strip().splitlines()
    assert lines[0] == "m,s," + BOUNDS_HEADER
    assert lines[1].startswith("4,2,")
    assert any(l.startswith("5,2,") for l in lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_encode_example(tmp_path, capsys):
    msgf, cwf = tmp_path / "msg.txt", tmp_path / "cw.txt"
    msgf.write_text("0 1\n")
    rc = run_cli(["encode", "--q", "5", "--m", "2", "--k", "1",
                  "--in", str(msgf), "--out", str(cwf)])
    assert rc == 0
    assert cwf.read_text() == "1 2\n4 3\n"


def test_cli_decode_uncorrupted(tmp_path, capsys):
    msgf, cwf = tmp_path / "msg.txt", tmp_path / "cw.txt"
    msgf.write_text("7 3 11\n")
    assert run_cli(["encode", "--q", "13", "--m", "3", "--k", "2",
                    "--in", str(msgf), "--out", str(cwf)]) == 0
    rc = run_cli(["decode", "--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3",
                  "--in", str(cwf)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "7 3 11" in out.splitlines()


def test_cli_corrupt_then_decode_roundtrip(tmp_path, capsys):
    msgf = tmp_path / "msg.txt"
    cwf = tmp_path / "cw.txt"
    rxf = tmp_path / "rx.txt"
    msgf.write_text("1 0 12\n")
    assert run_cli(["encode", "--q", "13", "--m", "3", "--k", "2",
                    "--in", str(msgf), "--out", str(cwf)]) == 0
    assert run_cli(["corrupt", "--q", "13", "--m", "3", "--k", "2", "--errors", "1",
                    "--seed", "4", "--in", str(cwf), "--out", str(rxf)]) == 0
    p = FRSParams(q=13, m=3, k=2)
    cw = read_word(str(cwf), p)
    rx = read_word(str(rxf), p)
    assert p.N - folded_agreement(cw, rx) == 1
    rc = run_cli(["decode", "--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3",
                  "--in", str(rxf)])
    assert rc == 0
    assert "1 0 12" in capsys.readouterr().out.splitlines()


def test_cli_oracle_matches_decode(tmp_path, capsys):
    msgf, cwf = tmp_path / "m.txt", tmp_path / "c.txt"
    msgf.write_text("2 5 0\n")
    run_cli(["encode", "--q", "13", "--m", "3", "--k", "2", "--in", str(msgf), "--out", str(cwf)])
    rc = run_cli(["decode", "--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3",
                  "--in", str(cwf)])
    decoded = capsys.readouterr().out
    rc2 = run_cli(["oracle", "--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3",
                   "--in", str(cwf)])
    oracled = capsys.readouterr().out
    assert rc == 0 and rc2 == 0
    assert sorted(decoded.splitlines()) == sorted(oracled.splitlines())


def test_cli_recover(tmp_path, capsys):
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    msg = UniPoly.from_ints(p.field, [4, 9])
    cw = encode(p, msg)
    setsf = tmp_path / "sets.txt"
    rng = random.Random(0)
    lines = []
    for sym in cw:
        other = tuple(rng.randrange(13) for _ in range(3))
        lines.append(",".join(map(str, sym)) + ";" + ",".join(map(str, other)))
    setsf.write_text("\n".join(lines) + "\n")
    rc = run_cli(["recover", "--q", "13", "--m", "3", "--k", "1", "--s", "2", "--r", "2",
                  "--l", "2", "--in", str(setsf)])
    assert rc == 0
    assert "4 9" in capsys.readouterr().out.splitlines()


def test_recovery_sets_roundtrip_keeps_empty_sets(tmp_path):
    # an empty set is an empty line, at the start, in the middle and at the end
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    sets = RecoverySets.from_iterables(
        [[], [(1, 2, 3), (4, 5, 6)], [], [(7, 8, 9)], []], 2
    )
    path = tmp_path / "sets.txt"
    write_recovery_sets(str(path), sets)
    assert path.read_text() == "\n1,2,3;4,5,6\n\n7,8,9\n\n"
    assert read_recovery_sets(str(path), p, 2) == sets


def test_cli_recover_with_an_erased_position(tmp_path, capsys):
    p = FRSParams(q=13, m=3, k=1, s=2, r=2)
    msg = UniPoly.from_ints(p.field, [4, 9])
    cw = encode(p, msg)
    sets = [[tuple(sym)] for sym in cw]
    sets[p.N // 2] = []
    setsf = tmp_path / "sets.txt"
    write_recovery_sets(str(setsf), RecoverySets.from_iterables(sets, 1))
    rc = run_cli(["recover", "--q", "13", "--m", "3", "--k", "1", "--s", "2", "--r", "2",
                  "--l", "1", "--in", str(setsf)])
    assert rc == 0
    assert "4 9" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("l", ["0", "-1"])
def test_cli_recover_refuses_l_below_1(tmp_path, capsys, l):
    # exit 2, as for --s 0, with a message that names l
    setsf = tmp_path / "sets.txt"
    setsf.write_text("1,2,3\n" * 3)
    rc = run_cli(["recover", "--q", "13", "--m", "3", "--k", "1", "--s", "2", "--r", "2",
                  "--l", l, "--in", str(setsf)])
    assert rc == 2
    assert f"list size l = {l} must be at least 1" in capsys.readouterr().err

def test_cli_simulate_and_bounds_files(tmp_path):
    simf = tmp_path / "trials.csv"
    rc = run_cli(["simulate", "--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3",
                  "--errors", "1", "--trials", "2", "--seed", "9", "--out", str(simf)])
    assert rc == 0
    lines = simf.read_text().strip().splitlines()
    assert lines[0] == SIMULATE_HEADER
    assert len(lines) == 3

    curvesf = tmp_path / "curves.csv"
    rc = run_cli(["bounds", "--m", "4", "--s", "2", "--r", "1000", "--out", str(curvesf)])
    assert rc == 0
    lines = curvesf.read_text().strip().splitlines()
    assert lines[0] == BOUNDS_HEADER
    assert any(l.startswith("0.250000,0.500000") for l in lines)


def test_cli_exit_codes(tmp_path):
    msgf = tmp_path / "msg.txt"
    msgf.write_text("0 1\n")
    # unknown flag -> 64
    assert run_cli(["encode", "--q", "5", "--m", "2", "--k", "1", "--frob", "9",
                    "--in", str(msgf), "--out", str(tmp_path / "o")]) == 64
    # unknown subcommand -> 64
    assert run_cli(["transmogrify"]) == 64
    # missing input file -> 2
    assert run_cli(["encode", "--q", "5", "--m", "2", "--k", "1",
                    "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")]) == 2
    # malformed message file -> 2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4\n")
    assert run_cli(["encode", "--q", "5", "--m", "2", "--k", "1",
                    "--in", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_parameter_rejection_is_exit_1(tmp_path):
    # q=5, m=4, s=1, r=3 trips the Y-degree check inside interpolation
    wordf = tmp_path / "w.txt"
    wordf.write_text("0 0 0 0\n")
    rc = run_cli(["decode", "--q", "5", "--m", "4", "--k", "1", "--s", "1", "--r", "3",
                  "--in", str(wordf)])
    assert rc == 1


def test_pipeline_threshold_matches_decode():
    msg = UniPoly.from_ints(P13.field, [1, 2, 3])
    res_t = pipeline_threshold(P13)
    from foldedrs.decoder import list_decode

    assert list_decode(P13, encode(P13, msg)).t == res_t


def test_error_sweep_script_smoke(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "sweep.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(root / "src"), env.get("PYTHONPATH")] if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "error_sweep.py"), "--trials", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    t = pipeline_threshold(P13)
    first = proc.stdout.splitlines()[0]
    assert first.startswith(f"n={P13.n} N={P13.N} D=")
    assert f" t={t} certified e* = {P13.N - t}" in first
    assert out.read_text().splitlines()[0] == SIMULATE_HEADER


@pytest.mark.parametrize("s, r", [("0", "2"), ("2", "0")])
def test_cli_refuses_s_or_r_of_zero(tmp_path, capsys, s, r):
    # s = 0 and r = 0 reach FRSParams, which refuses them (exit 2); neither is
    # read as a default of 1
    cwf, simf = tmp_path / "cw.txt", tmp_path / "trials.csv"
    write_word(str(cwf), encode(P13, UniPoly.from_ints(P13.field, [7, 3, 11])))
    code = ["--q", "13", "--m", "3", "--k", "2", "--s", s, "--r", r]
    assert run_cli(["decode", *code, "--in", str(cwf)]) == 2
    assert run_cli(["simulate", *code, "--errors", "1", "--trials", "1", "--out", str(simf)]) == 2
    assert not simf.exists()
    assert capsys.readouterr().out == ""


def test_cli_decode_and_recover_take_no_seed():
    # decoding is deterministic: --seed seeds only the channel of corrupt and
    # simulate, and the parser refuses it before any file is read
    code = ["--q", "13", "--m", "3", "--k", "2", "--s", "2", "--r", "3", "--in", "rx.txt"]
    assert run_cli(["decode", *code, "--seed", "1"]) == 64
    assert run_cli(["recover", *code, "--l", "1", "--seed", "1"]) == 64

"""Tests of the benchmark itself: span arithmetic, wrapper restoration, the
correctness gate and the agreement of BENCHMARK.json with what run.py emits.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import foldedrs  # noqa: E402
from foldedrs import ParameterError, UniPoly  # noqa: E402

import run  # noqa: E402
from tracer import Binding, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, gate, make_cases, run_case  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_arithmetic():
    # root 0..10 holds a 1..4 (which holds b 2..3) and c 5..6
    tr = Tracer([], clock=fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    root = tr.open("root")
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    tr.close(a)
    c = tr.open("a")
    tr.close(c)
    tr.close(root)
    selfs = self_times(tr.spans)
    assert selfs == {root.id: 6, a.id: 2, b.id: 1, c.id: 1}
    assert sum(selfs.values()) == root.duration
    summ = summarize(tr.spans)
    assert summ["a"] == {"calls": 2, "incl_s": 4, "self_s": 3}
    assert {s.decode for s in tr.spans} == {0}
    assert b.parent == a.id and a.parent == root.id and root.parent is None


def test_span_closed_out_of_order_raises():
    tr = Tracer([])
    outer = tr.open("outer")
    tr.open("inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_wrappers_record_spans_and_are_restored():
    bindings = run.layer_bindings(foldedrs)
    before = [getattr(b.owner, b.attr) for b in bindings]
    wl = dataclasses.replace(WORKLOADS["decode-small"], pool=1)
    params = wl.params()
    case = make_cases(wl, params, seed=3)[0]
    tr = Tracer(bindings)
    with tr:
        assert not tr.restored()
        root = tr.open("decoder.decode")
        run_case(wl, params, case)
        tr.close(root)
    assert tr.restored()
    assert [getattr(b.owner, b.attr) for b in bindings] == before
    names = {s.name for s in tr.spans}
    assert {"interp.interpolate", "rootfind.candidates", "poly.frobenius_step", "frs.prepare"} <= names
    assert all(s.decode == 0 for s in tr.spans)
    assert sum(self_times(tr.spans).values()) == pytest.approx(root.duration)

    # an exception inside the traced region restores the names too
    with pytest.raises(ZeroDivisionError):
        with tr:
            1 / 0
    assert tr.restored()


def test_install_refuses_a_changed_binding():
    class Owner:
        f = staticmethod(len)

    tr = Tracer([Binding(Owner, "f", "f")])
    Owner.f = staticmethod(abs)
    with pytest.raises(RuntimeError):
        tr.install()


def test_gate_passes_a_true_list_and_fails_wrong_ones():
    wl = WORKLOADS["decode-small"]
    params = wl.params()
    case = make_cases(wl, params, seed=5)[0]
    result = run_case(wl, params, case)
    assert gate(wl, params, case, result) == []

    missing = dataclasses.replace(
        result, messages=tuple(f for f in result.messages if f not in case.planted)
    )
    problems = gate(wl, params, case, missing)
    assert any("missing" in p for p in problems)
    assert "list differs from oracle_decode" in problems

    stranger = next(
        f
        for f in (UniPoly.from_ints(params.field, [a, 1, 1]) for a in range(params.q))
        if f not in result.messages
    )
    extra = dataclasses.replace(result, messages=result.messages + (stranger,))
    assert any("scores" in p for p in gate(wl, params, case, extra))


def test_gate_on_list_recovery():
    wl = dataclasses.replace(WORKLOADS["recover-l2"], pool=1)
    params = wl.params()
    case = make_cases(wl, params, seed=2)[0]
    result = run_case(wl, params, case)
    assert len(case.planted) == 2
    assert gate(wl, params, case, result) == []
    dropped = dataclasses.replace(result, messages=result.messages[1:])
    assert any("missing" in p for p in gate(wl, params, case, dropped))


def test_refused_decode_counts_as_failure_and_digest_is_reproducible():
    wl = dataclasses.replace(WORKLOADS["decode-small"], pool=3)
    params = wl.params()

    def plain(case):
        return run_case(wl, params, case)

    def refusing(case):
        if case is cases[1]:
            raise ParameterError("refused")
        return plain(case)

    cases = make_cases(wl, params, seed=9)
    digests = []
    for _ in range(2):
        attempts, _ = run.closed_loop(make_cases(wl, params, seed=9), 0.0, plain)
        failed, d, problems = run.evaluate(wl, params, cases, attempts)
        assert (failed, problems) == (0, [])
        digests.append(run.digest(d["plain"]))
    assert digests[0] == digests[1]

    attempts, _ = run.closed_loop(cases, 0.0, plain, refusing)
    failed, d, problems = run.evaluate(wl, params, cases, attempts)
    assert len(attempts) == 6 and failed == 2
    assert d["plain"][1] != d["traced"][1]
    assert any("ParameterError" in p for p in problems)


def test_calibration_scales_each_decode_by_the_kernel_runs_around_it():
    ref = run.CAL_REF_S
    attempts = [(0, "plain", dt, None) for dt in (0.1, 0.2, 0.3)]
    # kernel runs before attempt 0, before attempt 2 and after the last one
    cal = [(0, ref), (2, 3 * ref), (3, ref)]
    assert run.scaled_seconds(attempts, cal) == pytest.approx([0.05, 0.1, 0.15])
    values = run.end_to_end([0.1, 0.2, 0.3], [0.5, 0.4, 0.6], 40.0)
    assert values == pytest.approx(
        {"words_per_s": 5.0, "latency_p50_ms": 200.0, "setup_s": 0.5, "peak_rss_mb": 40.0}
    )
    attempts, cal = run.closed_loop([None], 0.0, lambda c: 1, calibrate=lambda: 0)
    assert len(attempts) == 1 and [n for n, _ in cal] == [0, 1]


def test_benchmark_json_matches_what_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)

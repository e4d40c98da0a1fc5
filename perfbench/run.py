"""Closed-loop decode benchmark for foldedrs.

    python3 perfbench/run.py --workload decode-small --seed 1 --seconds 25 --trace 0

One process, one caller: the next ``list_decode`` / ``list_recover`` starts
only after the previous one returns.  The received words are generated from
``--seed`` before timing starts and decoded round-robin until ``--seconds``
have passed and every word has been decoded at least once.  Every returned
list is then checked (see ``workloads.gate``) outside the timed region.

``--trace 0`` reports the end-to-end metrics.  On a shared 2-vCPU virtual
machine the speed of the same decode drifts by 20 % and more over tens of
seconds, which moves every timing alike.  So the loop also times a fixed
calibration kernel every CAL_EVERY_S, and the timed metrics in the JSON
result are scaled to a host on which that kernel takes ``CAL_REF_S``: each
decode time is multiplied by CAL_REF_S over the mean of the kernel times
just before and just after it, and the set-up times likewise by the kernel
runs around them.  The raw figures are printed next to them.

``--trace 1`` decodes each word twice per round, once plain and once with
the span tracer installed (alternating which goes first), and reports
per-layer metrics: per-decode time of each layer in ms, its share of decode
wall time, call counts and counters, plus the tracing overhead.  Layer
times are self times except ``rootfind.candidates`` and
``poly.roots_in_field``, which include the spans they call;
``rootfind.self`` and ``poly.roots_in_field_self`` are their self times.
``poly.frobenius_step`` counts steps under both.  The spans are written to
``.perfbench_out/``.

The last line of standard output is the JSON result; the lines before it
give the same numbers with units and the run context.

The sources are imported from ``src/`` of the checkout this file sits in;
the benchmark exits with code 2 when they are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Binding, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# One BLAS thread: the benchmark models a single caller, and a pinned count
# keeps runs on a shared machine comparable.
BLAS_THREADS = 1
P90_MIN_BEYOND = 10  # report p90 only with at least this many samples beyond it
CAL_REF_S = 0.05  # calibration kernel time on the reference host
CAL_EVERY_S = 0.5  # time the kernel after a decode once this much has passed

END_TO_END = (
    ("words_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (span name, metric prefix, time kind): "self" excludes child spans,
# "incl" includes them.  The "self" rows partition the decode wall time.
LAYER_TIMES = (
    ("decoder.decode", "decoder.self", "self"),
    ("frs.prepare", "frs.prepare", "self"),
    ("frs.encode", "frs.encode", "self"),
    ("interp.choose_D", "interp.choose_D", "self"),
    ("interp.interpolate", "interp.interpolate", "self"),
    ("rootfind.strip", "rootfind.strip", "self"),
    ("rootfind.candidates", "rootfind.candidates", "incl"),
    ("rootfind.candidates", "rootfind.self", "self"),
    ("poly.frobenius_step", "poly.frobenius_step", "self"),
    ("poly.roots_in_field", "poly.roots_in_field", "incl"),
    ("poly.roots_in_field", "poly.roots_in_field_self", "self"),
    ("poly.compose_message", "poly.compose_message", "self"),
)
# (metric, span name): calls of that span per decode
LAYER_CALLS = (
    ("frs.encode_calls", "frs.encode"),
    ("interp.interpolate_calls", "interp.interpolate"),
    ("rootfind.candidates_calls", "rootfind.candidates"),
    ("poly.frobenius_steps", "poly.frobenius_step"),
    ("poly.roots_in_field_calls", "poly.roots_in_field"),
    ("poly.compose_message_calls", "poly.compose_message"),
)
# (metric, span name, attribute): mean of a recorded attribute over those spans
LAYER_ATTRS = (
    ("interp.matrix_rows", "interp.interpolate", "rows"),
    ("interp.matrix_cols", "interp.interpolate", "cols"),
    ("interp.rank", "interp.interpolate", "rank"),
    ("rootfind.substituted_degree", "interp.interpolate", "substituted_degree"),
    ("rootfind.E_power", "rootfind.strip", "E_power"),
    ("poly.root_poly_degree", "poly.roots_in_field", "degree"),
)
PER_LAYER = (
    tuple((f"{p}_ms", "ms") for _, p, _ in LAYER_TIMES)
    + tuple((f"{p}_share", "ratio") for _, p, _ in LAYER_TIMES)
    + tuple((m, "count") for m, _ in LAYER_CALLS)
    + tuple((m, "count") for m, _, _ in LAYER_ATTRS)
    + (
        ("rootfind.candidates_found", "count"),
        ("rootfind.kept_ratio", "ratio"),
        ("trace.decode_ms", "ms"),
        ("trace.accounted_share", "ratio"),
        ("trace.spans_per_decode", "count"),
        ("trace.decodes", "count"),
        ("trace.words_per_s", "1/s"),
        ("trace.untraced_words_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
    )
)

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from foldedrs import FRSParams, standard_extension
params = FRSParams(*map(int, sys.argv[2:]))
standard_extension(params.q)
print(time.perf_counter() - t0)
"""


def measure_setup(wl) -> list[float]:
    """Seconds to import foldedrs, build FRSParams and the extension field,
    each in a fresh interpreter; the first, untimed start compiles bytecode."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(v) for v in (wl.q, wl.m, wl.k, wl.s, wl.r)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def calibration_kernel() -> int:
    """Fixed work in the decoder's mix: interpreted integer arithmetic, small
    float matmuls, numpy row elimination mod a prime and many numpy calls on
    tiny arrays.  Its time tracks how fast the host currently runs that mix;
    it uses no foldedrs code, so a change to the library cannot move it."""
    import numpy as np

    acc = 0
    for i in range(100000):
        acc = (acc * 31 + i) % 1000003
    a = (np.arange(120 * 120, dtype=np.int64).reshape(120, 120) % 31).astype(np.float64)
    for _ in range(13):
        a = np.fmod(a @ a.T, 31.0)
    m = np.arange(300 * 300, dtype=np.int64).reshape(300, 300) % 101
    for r in range(20):
        m[r + 1 :] = (m[r + 1 :] - np.outer(m[r + 1 :, r], m[r])) % 101
    x = np.arange(36 * 12, dtype=np.int64).reshape(36, 12) % 13
    y = np.arange(12, dtype=np.int64) + 1
    for i in range(600):
        z = (x * y[None, :]) % 13
        acc += int(np.flatnonzero(z.any(axis=1))[-1]) + int(np.convolve(y, z[0])[3])
        x = np.roll(z, 1, axis=0) + i % 13
    return acc + int(a[0, 0]) + int(m[-1, -1])


def layer_bindings(foldedrs):
    """The call-site bindings the tracer wraps, with the span each becomes."""
    decoder, rootfind, poly = foldedrs.decoder, foldedrs.rootfind, foldedrs.poly

    def interp_note(args, out):
        rep = out[1]
        return {"rows": rep.rows, "cols": rep.cols, "rank": rep.rank,
                "substituted_degree": rep.substituted_degree}

    return [
        Binding(decoder, "validate_word", "frs.prepare"),
        Binding(decoder, "unfold", "frs.prepare"),
        Binding(decoder, "interpolation_points", "frs.prepare"),
        Binding(decoder, "validate_recovery_sets", "frs.prepare"),
        Binding(decoder, "encode", "frs.encode"),
        Binding(decoder, "choose_D", "interp.choose_D"),
        Binding(decoder, "interpolate_with_report", "interp.interpolate", interp_note),
        Binding(decoder, "strip_E_power", "rootfind.strip", lambda a, out: {"E_power": out[1]}),
        Binding(decoder, "candidates_from_Q", "rootfind.candidates", lambda a, out: {"found": len(out)}),
        Binding(rootfind, "roots_in_field", "poly.roots_in_field", lambda a, out: {"degree": a[0].degree}),
        Binding(rootfind, "compose_message", "poly.compose_message"),
        Binding(poly.FrobeniusReducer, "step", "poly.frobenius_step"),
    ]


def seconds_of(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed(call, case):
    """(seconds, result or the exception raised) of one call."""
    t0 = time.perf_counter()
    try:
        out = call(case)
    except Exception as exc:  # a refused or crashed decode is a counted failure
        out = exc
    return time.perf_counter() - t0, out


def closed_loop(cases, seconds: float, plain, traced=None, calibrate=None):
    """Attempts as (case index, mode, seconds, result), in the order made,
    and calibrations as (attempts made before it, seconds it took).

    With ``traced`` each round decodes every case in both modes, alternating
    which mode goes first.  ``calibrate`` runs before the first decode, after
    any decode that ends CAL_EVERY_S or more after its last run, and at the end.
    """
    attempts, cal = [], []
    next_cal = time.perf_counter()
    deadline = next_cal + seconds
    i = 0
    while i < len(cases) or time.perf_counter() < deadline:
        if calibrate is not None and time.perf_counter() >= next_cal:
            cal.append((len(attempts), seconds_of(calibrate)))
            next_cal = time.perf_counter() + CAL_EVERY_S
        c = i % len(cases)
        modes = [("plain", plain)] if traced is None else [("plain", plain), ("traced", traced)]
        if (i // len(cases) + c) % 2:
            modes.reverse()
        for mode, call in modes:
            attempts.append((c, mode, *timed(call, cases[c])))
        i += 1
    if calibrate is not None:
        cal.append((len(attempts), seconds_of(calibrate)))
    return attempts, cal


def scaled_seconds(attempts, cal) -> list[float]:
    """Each attempt's seconds times CAL_REF_S over the mean of the kernel
    times just before and just after it (``cal`` as from closed_loop)."""
    out = []
    k = 0
    for j, (_, _, dt, _) in enumerate(attempts):
        while cal[k + 1][0] <= j:
            k += 1
        out.append(dt * CAL_REF_S * 2 / (cal[k][1] + cal[k + 1][1]))
    return out


def end_to_end(decode_s, setup_s, peak_rss_mb) -> dict[str, float]:
    return {
        "words_per_s": len(decode_s) / sum(decode_s),
        "latency_p50_ms": statistics.median(decode_s) * 1000.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def evaluate(wl, params, cases, attempts):
    """Failed attempt count, per mode the first outcome of each word in word
    order, and one line per problem found.

    An attempt fails when it raised, when its list differs from the first
    list returned for the same word, or when that first list fails the gate.
    """
    from workloads import gate, outcome_key

    def key(res):
        if isinstance(res, Exception):
            return ["error", f"{type(res).__name__}: {res}"]
        return json.loads(json.dumps(outcome_key(params, res)))

    first, first_by_mode, problems = {}, {}, []
    for c, mode, _, res in attempts:
        first.setdefault(c, (key(res), res))
        first_by_mode.setdefault(mode, {}).setdefault(c, key(res))
    bad_case = {}
    for c, (k, res) in first.items():
        found = [k[1]] if k[0] == "error" else gate(wl, params, cases[c], res)
        bad_case[c] = bool(found)
        problems += [f"word {c}: {p}" for p in found]
    failed = 0
    for c, mode, _, res in attempts:
        differs = key(res) != first[c][0]
        if differs:
            problems.append(f"word {c}: {mode} decode returned a different list")
        failed += bad_case[c] or differs or isinstance(res, Exception)
    outcomes = {mode: [keys[c] for c in sorted(keys)] for mode, keys in first_by_mode.items()}
    return failed, outcomes, problems


def digest(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


def traced_words(pool: int) -> int:
    """Words in a --trace 1 run: each is decoded twice per round there."""
    return max(1, pool // 2)


def layer_metrics(spans, plain_s, traced_s) -> dict[str, float]:
    summ = summarize(spans)
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
    root = summ["decoder.decode"]
    n, wall = root["calls"], root["incl_s"]
    out = {}
    for span, prefix, kind in LAYER_TIMES:
        total = summ.get(span, zero)[f"{kind}_s"]
        out[f"{prefix}_ms"] = total / n * 1000.0
        out[f"{prefix}_share"] = total / wall
    for metric, span in LAYER_CALLS:
        out[metric] = summ.get(span, zero)["calls"] / n
    for metric, span, attr in LAYER_ATTRS:
        vals = [s.attrs[attr] for s in spans if s.name == span and attr in s.attrs]
        out[metric] = statistics.fmean(vals) if vals else 0.0
    found = sum(s.attrs.get("found", 0) for s in spans if s.name == "rootfind.candidates")
    kept = sum(s.attrs.get("kept", 0) for s in spans if s.name == "decoder.decode")
    plain_wps, traced_wps = len(plain_s) / sum(plain_s), len(traced_s) / sum(traced_s)
    out.update({
        "rootfind.candidates_found": found / n,
        "rootfind.kept_ratio": kept / found if found else 0.0,
        "trace.decode_ms": wall / n * 1000.0,
        "trace.accounted_share": sum(r["self_s"] for r in summ.values()) / wall,
        "trace.spans_per_decode": len(spans) / n,
        "trace.decodes": n,
        "trace.words_per_s": traced_wps,
        "trace.untraced_words_per_s": plain_wps,
        "trace.overhead_pct": (plain_wps - traced_wps) / plain_wps * 100.0,
    })
    return out


def git_sha() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(wl, params) -> dict:
    import numpy

    return {
        "workload": wl.describe(params),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loop": "closed, 1 caller",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    if not (SRC / "foldedrs" / "__init__.py").is_file():
        print(f"perfbench: no foldedrs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_cases, run_case

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    if not args.trace:
        calibration_kernel()  # untimed: the first run pays one-off numpy set-up
        before = seconds_of(calibration_kernel)
        setup = measure_setup(wl)
        setup_scale = CAL_REF_S * 2 / (before + seconds_of(calibration_kernel))

    import foldedrs

    params = wl.params()
    cases = make_cases(wl, params, args.seed)
    if args.trace:
        cases = cases[: traced_words(len(cases))]

    def plain(case):
        return run_case(wl, params, case)

    tracer = Tracer(layer_bindings(foldedrs))

    def traced(case):
        with tracer:
            span = tracer.open("decoder.decode")
            try:
                res = run_case(wl, params, case)
                span.attrs["kept"] = len(res.messages)
            finally:
                tracer.close(span)
        return res

    timed(plain, cases[0])  # warm-up: fills the library's per-field caches
    if args.trace:
        attempts, cal = closed_loop(cases, args.seconds, plain, traced)
    else:
        attempts, cal = closed_loop(cases, args.seconds, plain, calibrate=calibration_kernel)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, outcomes, problems = evaluate(wl, params, cases, attempts)
    digests = {mode: digest(keys) for mode, keys in outcomes.items()}
    restored = tracer.restored()
    correct = failed == 0 and len(set(digests.values())) == 1 and restored

    ctx = context(wl, params)
    lines = [f"context {json.dumps(ctx)}"]
    plain_s = [dt for _, mode, dt, _ in attempts if mode == "plain"]
    lines.append(f"failure_rate     {failed / len(attempts):.4f} ratio  ({failed} of {len(attempts)} attempts)")
    for mode, d in digests.items():
        lines.append(f"digest[{mode}]   sha256:{d}  ({len(cases)} words, seed {args.seed})")
    if args.trace:
        traced_s = [dt for _, mode, dt, _ in attempts if mode == "traced"]
        values = layer_metrics(tracer.spans, plain_s, traced_s)
        units = dict(PER_LAYER)
        lines.append(f"wrapped names restored: {restored}")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        with open(trace_file, "w") as fh:
            json.dump({"context": ctx, "spans": [vars(s) for s in tracer.spans]}, fh)
        lines.append(f"spans            {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        half = outcomes["plain"][: traced_words(len(cases))]
        lines.append(f"digest[first {len(half)}]   sha256:{digest(half)}  (the words a --trace 1 run decodes)")
        n = len(plain_s)
        raw = end_to_end(plain_s, setup, peak_rss_mb)
        values = end_to_end(scaled_seconds(attempts, cal), [t * setup_scale for t in setup], peak_rss_mb)
        units = dict(END_TO_END)
        cal_s = [dt for _, dt in cal]
        lines.append(
            f"calibration      {len(cal_s)} kernel runs, median {statistics.median(cal_s) * 1000:.2f} ms"
            f" (min {min(cal_s) * 1000:.2f}, max {max(cal_s) * 1000:.2f}), reference {CAL_REF_S * 1000:.0f} ms"
        )
        lines += [f"raw {name:<28} {raw[name]:.6g} {unit}" for name, unit in units.items()]
        if n >= 10 * P90_MIN_BEYOND:
            p90 = statistics.quantiles(plain_s, n=10)[-1] * 1000.0
            lines.append(f"raw latency_p90_ms           {p90:.6g} ms  ({n} samples, {n - int(0.9 * n)} beyond p90)")
        else:
            lines.append(f"raw latency_p90_ms           not reported: {n} samples, fewer than {P90_MIN_BEYOND} beyond p90")
        lines.append(f"setup runs (s)   {' '.join(f'{t:.4f}' for t in setup)}")
    for name, unit in units.items():
        lines.append(f"{name:<32} {values[name]:.6g} {unit}")
    lines += [f"problem: {p}" for p in problems[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

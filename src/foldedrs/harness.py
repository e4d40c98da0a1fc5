"""Channel simulation, brute-force oracle, CSV emitters, and the CLI.

Subcommands: encode | corrupt | decode | recover | simulate | bounds | oracle.
Exit codes: 0 success, 1 decode-parameter rejection, 2 I/O or format error,
64 usage error (unknown flag or bad invocation).  ``--seed`` seeds the
channel of ``corrupt`` and ``simulate``.  ``decode`` and ``recover`` are
deterministic and take none (``decode --q 13 --m 3 --k 2 --s 2 --r 3 --in
rx.txt``, ``recover ... --l 2 --in sets.txt``); given ``--seed`` they exit 64.

File formats: a message file holds k+1 whitespace-separated ints, low degree
first; a word file holds N lines of m space-separated ints; a recovery-sets
file holds N lines, each a ';'-separated list of comma-separated m-tuples
(for example "1,2;4,3" is a two-element set of pairs); an empty line is the
empty set.  Simulation and bound CSVs print exact integers or 6-decimal
fixed point.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from .decoder import (
    _threshold_plan,
    decoding_bounds,
    list_decode,
    list_recover,
)
from .frs import (
    FRSParams,
    RecoverySets,
    ShapeError,
    encode,
    read_message,
    read_word,
    validate_word,
    write_word,
)
from .interp import ParameterError
from .poly import UniPoly

UNIFORM = "uniform"
BURST = "burst"
FIXED = "fixed-positions"

SIMULATE_HEADER = "q,m,k,s,r,variant,channel,e,trial,success,list_size,ms"
BOUNDS_HEADER = "R,rho_gs,rho_a,rho_b,rho_max,rho_svar,limit_23,capacity"


@dataclass(frozen=True)
class ChannelSpec:
    """How to corrupt a codeword: kind, number of folded errors, seed.

    fixed-positions takes the error locations (and optionally the replacement
    tuples) from the caller instead of the rng, for worst-case experiments.
    """

    kind: str
    e: int
    seed: int = 0
    positions: tuple[int, ...] | None = None
    values: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in (UNIFORM, BURST, FIXED):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.e < 0:
            raise ValueError("error count must be nonnegative")


@dataclass(frozen=True)
class TrialRecord:
    """One simulated transmission: parameters, channel, outcome, wall time."""

    q: int
    m: int
    k: int
    s: int
    r: int
    variant: str
    channel: str
    e: int
    trial: int
    success: bool
    list_size: int
    ms: float

    def csv_row(self) -> str:
        return (
            f"{self.q},{self.m},{self.k},{self.s},{self.r},{self.variant},"
            f"{self.channel},{self.e},{self.trial},{int(self.success)},"
            f"{self.list_size},{self.ms:.6f}"
        )


def _random_different_tuple(original, q: int, m: int, rng: random.Random):
    while True:
        cand = tuple(rng.randrange(q) for _ in range(m))
        if cand != tuple(original):
            return cand


def apply_channel(cw, spec: ChannelSpec, rng: random.Random | None = None, q: int | None = None):
    """Corrupt exactly spec.e distinct folded positions of a codeword.

    uniform picks the positions uniformly; burst corrupts a cyclically
    contiguous run; fixed-positions uses the caller-given index list (and the
    caller-given replacement tuples, when present).  Every corrupted symbol
    is replaced by a different m-tuple, so the folded Hamming distance from
    the input is exactly spec.e.  Replacement tuples are drawn uniformly from
    [0, q)^m; if q is not given it is inferred as 1 + the largest entry seen,
    and never as fewer than two symbols, so an all-zero word has a different tuple.
    """
    if rng is None:
        rng = random.Random(spec.seed)
    word = [tuple(sym) for sym in cw]
    N = len(word)
    if spec.e > N:
        raise ValueError(f"cannot corrupt {spec.e} of {N} symbols")
    m = len(word[0]) if word else 0
    if q is None:
        q = max(2, 1 + max((v for sym in word for v in sym), default=1))
    if spec.kind == UNIFORM:
        positions = sorted(rng.sample(range(N), spec.e))
    elif spec.kind == BURST:
        start = rng.randrange(N) if N else 0
        positions = sorted({(start + i) % N for i in range(spec.e)})
    else:
        if spec.positions is None:
            raise ValueError("fixed-positions channel needs an explicit position list")
        positions = sorted(set(spec.positions))
        if len(positions) != spec.e:
            raise ValueError(f"{len(positions)} distinct positions given for e = {spec.e}")
        if any(not 0 <= p < N for p in positions):
            raise ValueError("error position out of range")
    values = None
    if spec.kind == FIXED and spec.values is not None:
        # each value goes with its position in the caller's order
        values = {p: tuple(v) for p, v in zip(spec.positions, spec.values)}
        if len(spec.values) != spec.e or len(values) != spec.e:
            raise ValueError("need one replacement tuple per position")
    for p in positions:
        if values is not None:
            repl = values[p]
            if repl == word[p]:
                raise ValueError(f"replacement at position {p} equals the original symbol")
        else:
            repl = _random_different_tuple(word[p], q, m, rng)
        word[p] = repl
    return tuple(word)


def oracle_decode(params: FRSParams, received, t: int) -> set[UniPoly]:
    """Exhaustive reference decoder: all q^(k+1) messages with agreement >= t.

    Only valid when q^(k+1) <= 2^20.
    """
    q, k = params.q, params.k
    total = q ** (k + 1)
    if total > 2**20:
        raise ValueError(f"q^(k+1) = {total} exceeds the oracle budget of 2^20")
    received = validate_word(params, received)
    flat = np.array([v for sym in received for v in sym], dtype=np.int64)
    pts = params.evaluation_points()
    power_table = np.array(
        [[pow(x, j, q) for j in range(k + 1)] for x in pts], dtype=np.int64
    )  # (n, k+1)
    out: set[UniPoly] = set()
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(idx), k + 1), dtype=np.int64)
        rem = idx.copy()
        for j in range(k + 1):
            digits[:, j] = rem % q
            rem //= q
        evals = digits @ power_table.T % q  # (chunk, n)
        hits = (evals.reshape(len(idx), params.N, params.m) == flat.reshape(1, params.N, params.m))
        agreement = hits.all(axis=2).sum(axis=1)
        for row in np.flatnonzero(agreement >= t):
            out.add(UniPoly.from_ints(params.field, digits[row].tolist()))
    return out


def pipeline_threshold(params: FRSParams) -> int:
    """The agreement threshold list_decode will use for these parameters."""
    return _threshold_plan(params)[2]


def simulate(
    params: FRSParams, channel: str, e: int, trials: int, seed: int
) -> list[TrialRecord]:
    """Random-message transmissions through the channel, decoded and timed.

    Trial i uses its own rng derived from (seed, i), so runs are reproducible
    and trials are independent of scheduling.
    """
    records = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        coeffs = [rng.randrange(params.q) for _ in range(params.k + 1)]
        msg = UniPoly.from_ints(params.field, coeffs)
        cw = encode(params, msg)
        spec = ChannelSpec(kind=channel, e=e)
        received = apply_channel(cw, spec, rng, q=params.q)
        start = time.perf_counter()
        result = list_decode(params, received)
        ms = (time.perf_counter() - start) * 1000.0
        records.append(
            TrialRecord(
                q=params.q,
                m=params.m,
                k=params.k,
                s=params.s,
                r=params.r,
                variant=params.variant,
                channel=channel,
                e=e,
                trial=trial,
                success=msg in result.messages,
                list_size=len(result.messages),
                ms=ms,
            )
        )
    return records


def simulate_csv(records) -> str:
    return "\n".join([SIMULATE_HEADER] + [rec.csv_row() for rec in records]) + "\n"


def emit_bound_curves(m_list, s_list, r: int, grid_step: float) -> str:
    """CSV of radius bounds over the rate grid R = step, 2 step, ... < 1.

    Columns per row: the rate, rho_gs, the two trivariate bounds, their max
    (the plotted quantity for small m), the (s+1)-variate bound, the large-m
    trivariate limit 1 - R^(2/3), and capacity 1 - R.  With several (m, s)
    pairs the rows gain leading m and s key columns.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    pairs = [(m, s) for m in m_list for s in s_list]
    multi = len(pairs) > 1
    header = ("m,s," if multi else "") + BOUNDS_HEADER
    lines = [header]
    steps = int(1.0 / grid_step - 1e-9)
    for m, s in pairs:
        for i in range(1, steps + 1):
            R = i * grid_step
            if R >= 1.0 - 1e-12:
                break
            row = decoding_bounds(R, m, s, r)
            rho_max = max(row.rho_a, row.rho_b)
            limit_23 = 1.0 - R ** (2.0 / 3.0)
            cells = (
                f"{R:.6f},{row.rho_gs:.6f},{row.rho_a:.6f},{row.rho_b:.6f},"
                f"{rho_max:.6f},{row.rho_svar:.6f},{limit_23:.6f},{row.capacity:.6f}"
            )
            lines.append((f"{m},{s}," if multi else "") + cells)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Recovery-sets file format
# ---------------------------------------------------------------------------


def read_recovery_sets(path: str, params: FRSParams, l: int) -> RecoverySets:
    """One set per line; an empty line is the empty set (an erased position)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            chunks = line.split(";") if line else []
            rows.append([tuple(int(v) for v in chunk.split(",")) for chunk in chunks])
    return RecoverySets.from_iterables(rows, l)


def write_recovery_sets(path: str, sets: RecoverySets) -> None:
    with open(path, "w") as fh:
        for S in sets.sets:
            fh.write(";".join(",".join(str(v) for v in tup) for tup in sorted(S)) + "\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="foldedrs", description="Folded Reed-Solomon codec")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_args(p, need_sr=True):
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--s", type=int, default=1 if not need_sr else None,
                       required=need_sr)
        p.add_argument("--r", type=int, default=1 if not need_sr else None,
                       required=need_sr)
        p.add_argument("--variant", choices=["standard", "shifted"], default="standard")

    p = sub.add_parser("encode", help="encode a message file into a codeword file")
    add_code_args(p, need_sr=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("corrupt", help="apply a channel to a codeword file")
    add_code_args(p, need_sr=False)
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--channel", choices=[UNIFORM, BURST, FIXED], default=UNIFORM)
    p.add_argument("--positions", type=str, default=None,
                   help="comma-separated folded positions for fixed-positions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)

    p = sub.add_parser("decode", help="list decode a received word file")
    add_code_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)

    p = sub.add_parser("recover", help="list recover from a sets file")
    add_code_args(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)

    p = sub.add_parser("simulate", help="run seeded random trials, emit CSV")
    add_code_args(p)
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--channel", choices=[UNIFORM, BURST], default=UNIFORM)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="outfile", default=None)

    p = sub.add_parser("bounds", help="emit decoding-radius bound curves as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", dest="outfile", default=None)

    p = sub.add_parser("oracle", help="exhaustive reference decode of a word file")
    add_code_args(p)
    p.add_argument("--t", type=int, default=None,
                   help="agreement threshold; defaults to the pipeline's value")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default=None)

    return parser


def _params_from_args(args) -> FRSParams:
    return FRSParams(
        q=args.q,
        m=args.m,
        k=args.k,
        s=args.s,
        r=args.r,
        variant=args.variant,
    )


def _emit_messages(messages, params, outfile):
    lines = [" ".join(str(c) for c in f.int_coeffs(pad_to=params.k + 1)) for f in messages]
    text = "\n".join(lines) + ("\n" if lines else "")
    if outfile:
        with open(outfile, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 64

    try:
        if args.command == "encode":
            params = _params_from_args(args)
            msg = read_message(args.infile, params)
            write_word(args.outfile, encode(params, msg))
        elif args.command == "corrupt":
            params = _params_from_args(args)
            cw = read_word(args.infile, params)
            positions = None
            if args.positions is not None:
                positions = tuple(int(v) for v in args.positions.split(","))
            spec = ChannelSpec(
                kind=args.channel, e=args.errors, seed=args.seed, positions=positions
            )
            write_word(args.outfile, apply_channel(cw, spec, q=params.q))
        elif args.command == "decode":
            params = _params_from_args(args)
            received = read_word(args.infile, params)
            result = list_decode(params, received)
            _emit_messages(result.messages, params, args.outfile)
        elif args.command == "recover":
            params = _params_from_args(args)
            sets = read_recovery_sets(args.infile, params, args.l)
            result = list_recover(params, sets)
            _emit_messages(result.messages, params, args.outfile)
        elif args.command == "simulate":
            params = _params_from_args(args)
            records = simulate(params, args.channel, args.errors, args.trials, args.seed)
            text = simulate_csv(records)
            if args.outfile:
                with open(args.outfile, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        elif args.command == "bounds":
            text = emit_bound_curves([args.m], [args.s], args.r, args.step)
            if args.outfile:
                with open(args.outfile, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
        elif args.command == "oracle":
            params = _params_from_args(args)
            received = read_word(args.infile, params)
            t = args.t if args.t is not None else pipeline_threshold(params)
            messages = sorted(
                oracle_decode(params, received, t),
                key=lambda f: f.int_coeffs(pad_to=params.k + 1),
            )
            _emit_messages(messages, params, args.outfile)
        else:  # pragma: no cover
            return 64
    except ParameterError as exc:
        sys.stderr.write(f"parameter rejection: {exc}\n")
        return 1
    except (OSError, ShapeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())

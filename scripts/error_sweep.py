#!/usr/bin/env python3
"""Sweep the injected error count across the certified radius and beyond.

For a fixed code, runs seeded trials at e = 0, 1, ..., up to a few symbols
past the certified budget e* = N - t, and reports the success rate and mean
list size per error count.  Past e* the decoder still returns every codeword
with agreement >= t, so success degrades gracefully rather than abruptly.
"""

import argparse

from foldedrs.decoder import _threshold_plan
from foldedrs.frs import FRSParams
from foldedrs.harness import simulate, simulate_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, default=13)
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--s", type=int, default=2)
    ap.add_argument("--r", type=int, default=3)
    ap.add_argument("--channel", choices=["uniform", "burst"], default="uniform")
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--beyond", type=int, default=2,
                    help="how many error counts past e* to probe")
    ap.add_argument("--out", default="error_sweep.csv")
    args = ap.parse_args()

    params = FRSParams(q=args.q, m=args.m, k=args.k, s=args.s, r=args.r)
    _, D, t = _threshold_plan(params)
    e_star = params.N - t
    print(f"n={params.n} N={params.N} D={D} t={t} certified e* = {e_star}")

    all_records = []
    for e in range(0, min(params.N, max(e_star, 0) + args.beyond) + 1):
        records = simulate(params, args.channel, e, args.trials, args.seed + e)
        all_records.extend(records)
        rate = sum(r.success for r in records) / len(records)
        mean_list = sum(r.list_size for r in records) / len(records)
        marker = " <= e*" if e <= e_star else ""
        print(f"e={e}: success {rate:5.1%}  mean list size {mean_list:.2f}{marker}")
    with open(args.out, "w") as fh:
        fh.write(simulate_csv(all_records))
    print(f"wrote {len(all_records)} trial rows to {args.out}")


if __name__ == "__main__":
    main()

"""Benchmark workloads: instances, seeded received words and the correctness gate.

Every word carries e = N - t channel errors, the most the decoder certifies,
so each planted message must come back.  Words are generated from the
workload name and ``--seed`` before any timing starts; the decoder sees only
the words (and decodes them with its default root-finding seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from foldedrs import (
    FRSParams,
    RecoverySets,
    UniPoly,
    agreement_threshold,
    apply_channel,
    choose_D,
    encode,
    folded_agreement,
    list_decode,
    list_recover,
    oracle_decode,
)
from foldedrs.harness import ChannelSpec, pipeline_threshold

ORACLE_LIMIT = 2**20  # oracle_decode enumerates q^(k+1) messages


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "decode" (list_decode) or "recover" (list_recover)
    q: int
    m: int
    k: int
    s: int
    r: int
    channels: tuple[str, ...]  # cycled over the words of a run
    pool: int  # distinct words per run; each is decoded at least once
    l: int = 1  # set size for list recovery

    def params(self) -> FRSParams:
        return FRSParams(q=self.q, m=self.m, k=self.k, s=self.s, r=self.r)

    def threshold(self, params: FRSParams) -> int:
        """The agreement threshold t the library uses for this instance."""
        if self.op == "decode":
            return pipeline_threshold(params)
        # list_recover replaces n0 by l * n0, see its docstring
        n0 = self.l * params.n * (params.m - params.s + 1) // params.m
        return agreement_threshold(choose_D(params.k, n0, params.r, params.s), params.m, params.s, params.r)

    def describe(self, params: FRSParams) -> dict:
        t = self.threshold(params)
        return {
            "name": self.name,
            "call": "list_decode" if self.op == "decode" else "list_recover",
            "q": self.q, "m": self.m, "k": self.k, "s": self.s, "r": self.r, "l": self.l,
            "variant": params.variant, "N": params.N, "t": t, "e": params.N - t,
            "channels": list(self.channels), "pool": self.pool,
        }


# Why each workload is here (shares measured with --trace 1 on a 2-core VM):
# decode-small: ~40 ms decodes where fixed per-call cost is a large share;
#   root finding ~73 %, interpolation (80x91) ~26 %.
# decode-rootfind: the Frobenius chain and low-degree gcd at deg R 125 take
#   ~88 %; interpolation (210x240) ~12 %.
# decode-interp: s = 1 (unfolded Guruswami-Sudan), the 600x612 kernel solve
#   takes ~94 %; root finding at deg R 10 is the opposite balance.
# recover-l2: list recovery with two planted codewords per set: merged
#   points, a 480x506 system (~44 %), the Frobenius chain at deg R 189
#   (~48 %), a set-membership cut, lists of size 2, and the only workload
#   where roots_in_field always splits (deg g = 2, under 1 % of wall).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode-small", "decode", q=13, m=3, k=2, s=2, r=3,
                 channels=("uniform", "burst"), pool=128),
        Workload("decode-rootfind", "decode", q=31, m=4, k=2, s=2, r=3,
                 channels=("uniform",), pool=24),
        Workload("decode-interp", "decode", q=101, m=5, k=8, s=1, r=3,
                 channels=("uniform",), pool=8),
        Workload("recover-l2", "recover", q=31, m=5, k=2, s=2, r=3, l=2,
                 channels=("uniform",), pool=8),
    )
}


@dataclass(frozen=True)
class Case:
    """One received word (or recovery sets) and the messages planted in it."""

    received: object
    planted: tuple[UniPoly, ...]


def _random_message(params: FRSParams, rng: random.Random) -> UniPoly:
    return UniPoly.from_ints(params.field, [rng.randrange(params.q) for _ in range(params.k + 1)])


def make_cases(wl: Workload, params: FRSParams, seed: int) -> list[Case]:
    rng = random.Random(f"{wl.name}/{seed}")
    e = params.N - wl.threshold(params)
    cases = []
    for i in range(wl.pool):
        if wl.op == "decode":
            msg = _random_message(params, rng)
            spec = ChannelSpec(kind=wl.channels[i % len(wl.channels)], e=e)
            cases.append(Case(apply_channel(encode(params, msg), spec, rng, q=params.q), (msg,)))
            continue
        msgs = (_random_message(params, rng), _random_message(params, rng))
        while msgs[1] == msgs[0]:
            msgs = (msgs[0], _random_message(params, rng))
        cws = [encode(params, f) for f in msgs]
        bad = set(rng.sample(range(params.N), e))
        sets = []
        for j in range(params.N):
            planted = S = {cw[j] for cw in cws}
            if j in bad:
                S = set()
                while len(S) < wl.l:
                    tup = tuple(rng.randrange(params.q) for _ in range(params.m))
                    if tup not in planted:
                        S.add(tup)
            sets.append(S)
        cases.append(Case(RecoverySets.from_iterables(sets, wl.l), msgs))
    return cases


def run_case(wl: Workload, params: FRSParams, case: Case):
    if wl.op == "decode":
        return list_decode(params, case.received)
    return list_recover(params, case.received)


def outcome_key(params: FRSParams, result) -> tuple:
    """A hashable, printable summary of one decode: (t, sorted message coefficients)."""
    msgs = sorted(f.int_coeffs(pad_to=params.k + 1) for f in result.messages)
    return (result.t, tuple(msgs))


def gate(wl: Workload, params: FRSParams, case: Case, result) -> list[str]:
    """Reasons the returned list is wrong; empty when it passes.

    Each planted message must be listed, every listed message must reach the
    threshold (symbol agreement, or set membership for list recovery), and
    where the oracle is affordable the list must equal the oracle's exactly.
    """
    problems = []
    t = wl.threshold(params)
    if result.t != t:
        problems.append(f"threshold {result.t} != expected {t}")
    msgs = list(result.messages)
    if len(set(msgs)) != len(msgs):
        problems.append("list holds duplicates")
    for f in case.planted:
        if f not in msgs:
            problems.append(f"planted message {f.int_coeffs(pad_to=params.k + 1)} missing")
    for f in msgs:
        cw = encode(params, f)
        if wl.op == "decode":
            score = folded_agreement(cw, case.received)
        else:
            score = sum(cw[j] in S for j, S in enumerate(case.received.sets))
        if score < t:
            problems.append(f"listed message {f.int_coeffs(pad_to=params.k + 1)} scores {score} < t = {t}")
    if wl.op == "decode" and params.q ** (params.k + 1) <= ORACLE_LIMIT:
        if set(msgs) != oracle_decode(params, case.received, t):
            problems.append("list differs from oracle_decode")
    return problems

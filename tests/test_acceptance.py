"""Acceptance suite: exact property checks, oracle equivalence, and the
finite-parameter claims that are verifiable at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import math
import random

import numpy as np

from foldedrs.decoder import agreement_threshold, decoding_bounds, list_decode, list_recover, suggest_params
from foldedrs.frs import (
    FRSParams,
    RecoverySets,
    encode,
    folded_agreement,
    interpolation_index_set,
    unfold,
)
from foldedrs.galois import ExtField, PrimeField, find_primitive_element, is_irreducible, standard_extension
from foldedrs.harness import ChannelSpec, apply_channel, oracle_decode
from foldedrs.interp import (
    InterpolationProblem,
    ParameterError,
    _derivative_monomials,
    choose_D,
    constraints_per_point,
    interpolate,
)
from foldedrs.poly import (
    MultiPoly,
    UniPoly,
    count_weighted_monomials,
    enumerate_weighted_monomials,
    frobenius_pow_mod,
    hasse_coefficient,
    scale_compose,
    trivariate_monomial_count,
)


def _report(num: int, text: str) -> None:
    print(f"\n[criterion {num:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Frobenius identity: f(gamma X) = f(X)^q mod (X^(q-1) - gamma), exactly
# ---------------------------------------------------------------------------


def test_criterion_01_frobenius_identity():
    rng = random.Random(101)
    checked = 0
    for q in [5, 7, 13, 31]:
        ext = standard_extension(q)
        E = ext.modulus
        field = ext.base
        for _ in range(200):
            deg = rng.randrange(q - 1)
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            f = UniPoly.from_ints(field, coeffs)
            assert frobenius_pow_mod(f, 1, E) == scale_compose(f, ext.gamma)
            checked += 1
    _report(1, f"Frobenius identity exact on {checked} random polynomials, q in {{5,7,13,31}}")


# ---------------------------------------------------------------------------
# 2. X^(q-1) - gamma is irreducible for every tested prime
# ---------------------------------------------------------------------------


def test_criterion_02_binomial_irreducible():
    for q in [5, 7, 11, 13, 31]:
        field = PrimeField(q)
        gamma = find_primitive_element(field)
        assert is_irreducible(ExtField(field, gamma).modulus)
    _report(2, "X^(q-1) - gamma irreducible for q in {5,7,11,13,31}")


# ---------------------------------------------------------------------------
# 3. exact monomial count identity and choose_D feasibility
# ---------------------------------------------------------------------------


def test_criterion_03_monomial_count_identity():
    rng = random.Random(303)
    for _ in range(100):
        k = rng.randint(1, 10)
        D = rng.randint(0, 200)
        expect = trivariate_monomial_count(k, D)
        assert count_weighted_monomials(k, D, 2) == expect
        assert len(enumerate_weighted_monomials(k, D, 2)) == expect
    for _ in range(100):
        k = rng.randint(1, 10)
        n0 = rng.randint(1, 60)
        r = rng.randint(1, 4)
        s = rng.randint(1, 3)
        D = choose_D(k, n0, r, s)
        assert count_weighted_monomials(k, D, s) > n0 * constraints_per_point(r, s)
    _report(3, "enumeration equals closed form on 100 draws; choose_D output always feasible")


# ---------------------------------------------------------------------------
# 4. interpolation postconditions on random instances
# ---------------------------------------------------------------------------


def test_criterion_04_interpolation_postconditions():
    rng = random.Random(404)
    done = 0
    per_s = {1: 0, 2: 0, 3: 0}
    while done < 50:
        q = rng.choice([7, 13])
        s = rng.choice([1, 2, 3])
        r = rng.randint(1, 3)
        k = rng.randint(1, 3)
        n0 = rng.randint(2, 7)
        field = PrimeField(q)
        pts = set()
        while len(pts) < n0:
            pts.add(tuple(rng.randrange(q) for _ in range(s + 1)))
        D = choose_D(k, n0, r, s)
        if D // k >= q:
            continue
        problem = InterpolationProblem(
            field=field, points=tuple(sorted(pts)), r=r, k=k, s=s, D=D
        )
        Q = interpolate(problem)
        assert not Q.is_zero
        assert Q.weighted_degree() <= D
        for pt in problem.points:
            for b in _derivative_monomials(r, s):
                assert hasse_coefficient(Q, pt, b) == field.zero()
        per_s[s] += 1
        done += 1
    assert all(per_s[s] > 0 for s in (1, 2, 3))
    _report(4, f"50 random instances (s counts {per_s}): Q != 0, wdeg <= D, all Hasse shifts vanish")


# ---------------------------------------------------------------------------
# 5. planted-codeword completeness across the parameter grid
# ---------------------------------------------------------------------------


def _pick_k(q: int, m: int, s: int, r: int):
    """Largest k with a positive certified error budget; k = 1 on the q=31,
    s=3 slice where larger k would drag the root-finding degree far past q^2."""
    candidates = [1] if (q == 31 and s == 3) else range(min(q - 2, 30), 0, -1)
    for k in candidates:
        try:
            p = FRSParams(q=q, m=m, k=k, s=s, r=r)
        except ValueError:
            continue
        n0 = len(interpolation_index_set(p))
        try:
            D = choose_D(k, n0, r, s)
        except ParameterError:
            continue
        if D // k >= q:
            continue
        t = agreement_threshold(D, m, s, r)
        if p.N - t >= 1:
            return p, t
    raise AssertionError(f"no feasible k for q={q} m={m} s={s} r={r}")


def test_criterion_05_planted_completeness_grid():
    combos = 0
    trials_per_combo = 50
    for q in [13, 31]:
        for m in [2, 3, 4]:
            for s in [1, 2, 3]:
                if s > m:
                    continue
                for r in [1, 2, 3]:
                    params, t = _pick_k(q, m, s, r)
                    e_star = params.N - t
                    assert e_star >= 1
                    for trial in range(trials_per_combo):
                        kind = "uniform" if trial % 2 == 0 else "burst"
                        rng = random.Random((q, m, s, r, trial).__hash__() & 0x7FFFFFFF)
                        msg = UniPoly.from_ints(
                            params.field, [rng.randrange(q) for _ in range(params.k + 1)]
                        )
                        cw = encode(params, msg)
                        spec = ChannelSpec(kind=kind, e=e_star, seed=0)
                        recv = apply_channel(cw, spec, rng, q=q)
                        assert params.N - folded_agreement(cw, recv) == e_star
                        res = list_decode(params, recv)
                        assert msg in res.messages, (
                            f"planted message lost: q={q} m={m} s={s} r={r} "
                            f"k={params.k} e*={e_star} trial={trial} ({kind})"
                        )
                    combos += 1
    assert combos == 48
    _report(5, f"planted message recovered in 100% of {combos * trials_per_combo} trials "
               f"over {combos} parameter combinations at e* = N - t errors")


# ---------------------------------------------------------------------------
# 6. oracle equivalence on arbitrary random words
# ---------------------------------------------------------------------------


def test_criterion_06_oracle_equivalence():
    params = FRSParams(q=13, m=3, k=2, s=2, r=3)
    rng = random.Random(606)
    for trial in range(25):
        word = tuple(
            tuple(rng.randrange(13) for _ in range(3)) for _ in range(params.N)
        )
        res = list_decode(params, word)
        oracle = oracle_decode(params, word, res.t)
        assert set(res.messages) == oracle, f"trial {trial}: decoder set != oracle set"
    _report(6, "list_decode equals the 13^3-message oracle on 25 arbitrary random words "
               "(q=13, m=3, k=2, s=2, r=3)")


# ---------------------------------------------------------------------------
# 7. shifted (high-rate) variant at the closed-form error bound
# ---------------------------------------------------------------------------


def test_criterion_07_shifted_variant():
    q, m, s, r, k = 31, 4, 2, 3, 2
    params = FRSParams(q=q, m=m, k=k, s=s, r=r, variant="shifted")
    n, N = params.n, params.N
    bound = math.floor(
        (m / (m + 1)) * N * (1 - ((k / n) ** 2 * (1 + 1 / r) * (1 + 2 / r)) ** (1 / 3))
    ) - 1
    assert bound >= 1, "instance must certify at least one error"
    e_test = bound - 1  # errors must stay strictly below the bound
    assert e_test >= 1
    for trial in range(50):
        rng = random.Random(7000 + trial)
        msg = UniPoly.from_ints(params.field, [rng.randrange(q) for _ in range(k + 1)])
        cw = encode(params, msg)
        recv = apply_channel(cw, ChannelSpec(kind="uniform", e=e_test, seed=0), rng, q=q)
        res = list_decode(params, recv)
        assert msg in res.messages, f"shifted variant lost the message in trial {trial}"
    _report(7, f"shifted variant recovered 50/50 planted messages at e = {e_test} "
               f"(closed-form bound {bound}) with q=31, m=4, k=2, r=3")


# ---------------------------------------------------------------------------
# 8. list recovery against a set-membership oracle
# ---------------------------------------------------------------------------


def _membership_oracle(params: FRSParams, sets: RecoverySets, t: int) -> set:
    out = set()
    q, k = params.q, params.k
    for idx in range(q ** (k + 1)):
        coeffs = []
        rem = idx
        for _ in range(k + 1):
            coeffs.append(rem % q)
            rem //= q
        f = UniPoly.from_ints(params.field, coeffs)
        cw = encode(params, f)
        score = sum(1 for j in range(params.N) if cw[j] in sets.sets[j])
        if score >= t:
            out.add(f)
    return out


def test_criterion_08_list_recovery():
    params = FRSParams(q=13, m=3, k=1, s=2, r=2)
    n, N, m, s, r, k, l = params.n, params.N, params.m, params.s, params.r, params.k, 2
    # agreement condition with zeta = 1 (the true symbol is in every set)
    prod = (1 + 1 / r) * (1 + 2 / r)
    condition = ((k / (m - s + 1)) ** s * (n * l / m) * prod) ** (1 / (s + 1)) + 2
    assert N >= condition, "instance must satisfy the list-recovery agreement condition"
    rng = random.Random(808)
    for trial in range(25):
        msg = UniPoly.from_ints(params.field, [rng.randrange(13) for _ in range(k + 1)])
        cw = encode(params, msg)
        sets = RecoverySets.from_iterables(
            [[sym, tuple(rng.randrange(13) for _ in range(m))] for sym in cw], l=l
        )
        res = list_recover(params, sets)
        assert msg in res.messages
        assert set(res.messages) == _membership_oracle(params, sets, res.t)
    # two full codewords planted in every set
    f = UniPoly.from_ints(params.field, [4, 9])
    g = UniPoly.from_ints(params.field, [1, 3])
    sets = RecoverySets.from_iterables(
        [[a, b] for a, b in zip(encode(params, f), encode(params, g))], l=l
    )
    res = list_recover(params, sets)
    assert f in res.messages and g in res.messages
    assert set(res.messages) == _membership_oracle(params, sets, res.t)
    _report(8, "list recovery (q=13, l=2, s=2) matches the set-membership oracle on 25 "
               "trials and returns both planted codewords")


# ---------------------------------------------------------------------------
# 9. closed-form bound claims
# ---------------------------------------------------------------------------


def test_criterion_09_bound_claims():
    for i in range(44, 100):
        R = i / 100
        row = decoding_bounds(R, 4, 2, 10**6)
        assert row.rho_b > row.rho_gs, f"rho_b(4,2) <= rho_gs at R = {R}"
    for i in range(1, 100):
        R = i / 100
        row = decoding_bounds(R, 5, 2, 10**6)
        assert max(row.rho_a, row.rho_b) > row.rho_gs, f"max bound <= rho_gs at R = {R}"
    for R, eps in [(0.5, 0.25), (0.25, 1.0), (0.9, 0.05)]:
        sp = suggest_params(R, eps)
        assert sp.radius >= 1 - R - eps - 1e-9
    _report(9, "rho_b(4,2) beats rho_gs on R in {0.44..0.99}; max(rho_a, rho_b) for m=5 "
               "beats rho_gs on {0.01..0.99}; suggested parameters meet 1 - R - eps")


# ---------------------------------------------------------------------------
# 10. MDS distance of the tiny unfolded code, exhaustive pairwise
# ---------------------------------------------------------------------------


def test_criterion_10_mds_distance():
    params = FRSParams(q=13, m=2, k=2)
    q, n, k = params.q, params.n, params.k
    total = q ** (k + 1)
    digits = np.empty((total, k + 1), dtype=np.int64)
    rem = np.arange(total, dtype=np.int64)
    for j in range(k + 1):
        digits[:, j] = rem % q
        rem //= q
    pts = params.evaluation_points()
    power_table = np.array([[pow(x, j, q) for j in range(k + 1)] for x in pts], dtype=np.int64)
    evals = digits @ power_table.T % q  # (total, n)
    onehot = np.zeros((total, n, q), dtype=np.float32)
    onehot[np.arange(total)[:, None], np.arange(n)[None, :], evals] = 1.0
    flat = onehot.reshape(total, n * q)
    agreements = flat @ flat.T  # pairwise count of equal positions
    off_diag = agreements - np.eye(total, dtype=np.float32) * n
    max_agree = int(off_diag.max())
    assert max_agree <= k, f"two distinct codewords agree on {max_agree} > k positions"
    _report(10, f"all {total} codeword pairs at unfolded distance >= n - k = {n - k} "
                f"(max off-diagonal agreement {max_agree})")

"""End-to-end list decoding, list recovery, and closed-form radius bounds.

The decoding pipeline is: unfold the received word, build the interpolation
point set, pick the weighted-degree bound D, interpolate a vanishing Q
(E = X^(q-1) - gamma does not divide Q: proved, and checked by Q mod E != 0),
recover the candidate messages by X-adic lifting over F_q
(``rootfind.lifted_candidates``; the paper's extension-field root finding,
``rootfind.candidates_from_Q``, is its reference and its fallback), and keep
those whose encoding agrees with the received word on at least t folded
positions.
The agreement threshold t is the smallest integer with t > D / ((m-s+1) r),
computed from the D actually used, which is the tightest threshold the
vanishing argument supports.

For the shifted (high-rate) point set the same threshold applies to
interpolation windows rather than folded symbols: one corrupted folded
symbol spoils at most m+1 of the n-1 windows, so e errors leave at least
n0 - e(m+1) good windows and the pipeline certifies up to
e_max = floor((n0 - t') / (m+1)) errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .frs import (
    FRSParams,
    RecoverySets,
    SHIFTED,
    STANDARD,
    UnsupportedVariantError,
    encode,
    folded_agreement,
    interpolation_index_set,
    interpolation_points,
    unfold,
    validate_recovery_sets,
    validate_word,
)
from .interp import (
    InterpolationProblem,
    ParameterError,
    choose_D,
    degree_bound_formula,
    interpolate_with_report,
)
from .poly import UniPoly
from .rootfind import lifted_candidates_with_report
# unused here, but perfbench's layer_bindings names decoder.candidates_from_Q
# and decoder.strip_E_power, and its Tracer reads every binding (getattr) when
# it is built, on plain runs too: without them every benchmark run fails.
# ROADMAP item 2c removes those bindings, and this import with them
from .rootfind import candidates_from_Q, strip_E_power  # noqa: F401


def agreement_threshold(D: int, m: int, s: int, r: int) -> int:
    """Smallest integer t with t > D / ((m - s + 1) r)."""
    if not 1 <= s <= m or r < 1:
        raise ValueError("need 1 <= s <= m and r >= 1")
    return D // ((m - s + 1) * r) + 1


@dataclass(frozen=True)
class DecodeStats:
    """Diagnostics of one decoding run."""

    D: int
    D_formula: int
    n_points: int
    matrix_rows: int
    matrix_cols: int
    rank: int  # pivots before the first free column; equals free_col
    free_col: int  # the interpolation column given coefficient 1 in Q
    substituted_degree: int
    t: int
    candidates_found: int
    candidates_kept: int
    lift_nodes: int  # polynomials Q^(n) the lift searched (see rootfind.LiftReport)
    full_branches: int  # among them, those with P_n = 0, where every y in F_q branches
    root_step: str  # "lift", or "reference" past rootfind.LIFT_LEVEL_ENTRIES


@dataclass(frozen=True)
class DecodeResult:
    """Messages surviving the agreement cut, the threshold used, and run stats."""

    messages: tuple[UniPoly, ...]
    t: int
    stats: DecodeStats


def _run_pipeline(params: FRSParams, points, n0: int, D: int, t: int, keep) -> DecodeResult:
    problem = InterpolationProblem(
        field=params.field,
        points=tuple(points),
        r=params.r,
        k=params.k,
        s=params.s,
        D=D,
    )
    Q, report = interpolate_with_report(problem)
    found, lift = lifted_candidates_with_report(Q, params)
    kept = tuple(f for f in found if keep(f))
    stats = DecodeStats(
        D=D,
        D_formula=degree_bound_formula(params.k, n0, params.r, params.s),
        n_points=len(points),
        matrix_rows=report.rows,
        matrix_cols=report.cols,
        rank=report.rank,
        free_col=report.pivot_cols,
        substituted_degree=report.substituted_degree,
        t=t,
        candidates_found=len(found),
        candidates_kept=len(kept),
        lift_nodes=lift.nodes,
        full_branches=lift.full_branches,
        root_step=lift.root_step,
    )
    return DecodeResult(messages=kept, t=t, stats=stats)


def shifted_error_budget(params: FRSParams, D: int) -> tuple[int, int]:
    """(t_windows, e_max) for the shifted point set.

    t_windows is the window-level threshold floor(D/r) + 1; e errors leave at
    least n0 - e(m+1) good windows, so up to e_max = floor((n0 - t') / (m+1))
    errors are certified.
    """
    n0 = params.n - 1
    t_windows = D // params.r + 1
    e_max = (n0 - t_windows) // (params.m + 1)
    return t_windows, e_max


def _threshold_plan(params: FRSParams, l: int = 1) -> tuple[int, int, int]:
    """(n0, D, t): the interpolation count, degree bound and agreement threshold.

    n0 counts the interpolation windows, times l for list recovery, where
    each of the l tuples in a set contributes its own windows.  Raises
    ParameterError when the shifted point set cannot certify even the
    error-free case.
    """
    n0 = l * len(interpolation_index_set(params))
    D = choose_D(params.k, n0, params.r, params.s)
    if params.variant == SHIFTED:
        _, e_max = shifted_error_budget(params, D)
        if e_max < 0:
            raise ParameterError(
                "shifted variant cannot certify even the error-free case here"
            )
        return n0, D, params.N - e_max
    return n0, D, agreement_threshold(D, params.m, params.s, params.r)


def list_decode(params: FRSParams, received) -> DecodeResult:
    """All messages whose encoding agrees with the received word on >= t symbols.

    Completeness holds by the vanishing argument: any message with agreement
    at least t satisfies the Q-identity, hence appears among the recovered
    roots; soundness is enforced by re-encoding every candidate.
    """
    received = validate_word(params, received)
    y = unfold(params, received)
    points = interpolation_points(params, y)
    n0, D, t = _threshold_plan(params)

    def keep(f: UniPoly) -> bool:
        return folded_agreement(encode(params, f), received) >= t

    return _run_pipeline(params, points, n0, D, t, keep)


def list_recover(params: FRSParams, sets: RecoverySets) -> DecodeResult:
    """All messages whose codeword symbol lies in the given set at >= t positions.

    Every candidate tuple in every per-position set contributes its m-s+1
    interpolation windows; duplicate points are merged before constraint
    generation.  Feasibility is computed with n0 replaced by n0 * l, and the
    reported D_formula uses that n0 too.  With l = 1 this reduces exactly to
    list decoding.
    """
    if params.variant != STANDARD:
        raise UnsupportedVariantError("list recovery is defined for the standard point set")
    validate_recovery_sets(params, sets)
    pts = params.evaluation_points()
    m, s = params.m, params.s
    seen = set()
    points = []
    for j, S in enumerate(sets.sets):
        for tup in sorted(S):
            for w in range(m - s + 1):
                i = j * m + w
                pt = (pts[i],) + tuple(tup[w : w + s])
                if pt not in seen:
                    seen.add(pt)
                    points.append(pt)
    n0, D, t = _threshold_plan(params, sets.l)

    def keep(f: UniPoly) -> bool:
        cw = encode(params, f)
        return sum(1 for j in range(params.N) if cw[j] in sets.sets[j]) >= t

    return _run_pipeline(params, points, n0, D, t, keep)


# ---------------------------------------------------------------------------
# Closed-form decoding-radius bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsRow:
    """Decoding-radius bounds at one rate; negative values are clamped to 0
    and recorded in ``vacuous``."""

    R: float
    rho_gs: float
    rho_a: float
    rho_b: float
    rho_svar: float
    capacity: float
    vacuous: frozenset[str]


def _clamp(name: str, value: float, vacuous: set[str]) -> float:
    if value < 0.0:
        vacuous.add(name)
        return 0.0
    return value


def decoding_bounds(R: float, m: int, s: int, r: int) -> BoundsRow:
    """Closed-form radius bounds at rate R for folding m, order s, multiplicity r.

    rho_gs = 1 - sqrt(R); rho_a = 1 - (mR/(m-1))^(2/3) (trivariate, standard
    points, m >= 2); rho_b = m/(m+1) (1 - R^(2/3)) (trivariate, shifted
    points); rho_svar = 1 - ((mR/(m-s+1))^s prod_j (1+j/r))^(1/(s+1)).
    """
    if not 0.0 < R < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    if not 1 <= s <= m or r < 1:
        raise ValueError("need 1 <= s <= m and r >= 1")
    vacuous: set[str] = set()
    rho_gs = 1.0 - math.sqrt(R)
    if m >= 2:
        rho_a = _clamp("rho_a", 1.0 - (m * R / (m - 1)) ** (2.0 / 3.0), vacuous)
    else:
        vacuous.add("rho_a")
        rho_a = 0.0
    rho_b = _clamp("rho_b", (m / (m + 1)) * (1.0 - R ** (2.0 / 3.0)), vacuous)
    prod = 1.0
    for j in range(1, s + 1):
        prod *= 1.0 + j / r
    rho_svar = _clamp(
        "rho_svar", 1.0 - ((m * R / (m - s + 1)) ** s * prod) ** (1.0 / (s + 1)), vacuous
    )
    return BoundsRow(
        R=R,
        rho_gs=rho_gs,
        rho_a=rho_a,
        rho_b=rho_b,
        rho_svar=rho_svar,
        capacity=1.0 - R,
        vacuous=frozenset(vacuous),
    )


@dataclass(frozen=True)
class SuggestedParams:
    """Parameter suggestion to decode rate-R codes within eps of capacity."""

    s: int
    delta: float
    m: int
    r: int
    radius: float  # the guaranteed fraction 1 - (1+delta) R^(s/(s+1))


def _ceil_guarded(x: float) -> int:
    """Ceiling that tolerates float noise just above an integer."""
    return math.ceil(x - 1e-9)


def suggest_params(R: float, eps: float) -> SuggestedParams:
    """s = ceil(log(1/R)/log(1+eps)), delta = eps(1-R)/(R(1+eps)),
    m = ceil((s-1)(3+delta)/delta), r = ceil(3s/delta); the implied radius
    1 - (1+delta) R^(s/(s+1)) is at least 1 - R - eps."""
    if not 0.0 < R < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    s = max(1, _ceil_guarded(math.log(1.0 / R) / math.log(1.0 + eps)))
    delta = eps * (1.0 - R) / (R * (1.0 + eps))
    m = _ceil_guarded((s - 1) * (3.0 + delta) / delta) if s > 1 else 1
    r = _ceil_guarded(3.0 * s / delta)
    radius = 1.0 - (1.0 + delta) * R ** (s / (s + 1.0))
    return SuggestedParams(s=s, delta=delta, m=m, r=r, radius=radius)

"""The benchmark's three workloads, as lists of operations.

An operation is one call into pooltest's public API on inputs generated
here from the workload seed, plus a check of its output against
`reference` (or, for trials, against the error rates recorded in
trial_rates.json).  The program sees only the generated inputs.

Workloads (why each was chosen):

exact       big-integer coefficient extraction and permutation-enumeration
            oracles, sizes from n=12 to n=1200; the optimizers and the
            decoder sit idle.
asymptotic  float convex minimization only (margins, exponents, thresholds,
            curves) on a p grid straddling the crossover 2 - 2^((r-1)/r),
            so both the kink optimum and the interior optimum occur.
trials      seeded decoding trials and Monte Carlo gates: RNG, graph
            shuffle and decoder scan; the gates drive the sampler without
            the decoder.

Known failures.  An op whose `known` field is set fails in pooltest 0.1.0
for a documented reason; it counts as failed but does not make the run
incorrect.  Any other failure does.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref
from pooltest import (
    SystemParams,
    TestFunction,
    TypicalSetSpec,
    binary_direct_margin,
    count_function,
    derive_seed,
    emit_curve,
    ensemble_event_probability,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    estimate_noiseless,
    estimate_noisy,
    forward_or,
    general_direct_margin,
    general_ensemble_event_probability,
    noiseless_direct_exponent,
    noisy_direct_exponent,
    noisy_ensemble_event_probability,
    or_function,
    run_noiseless_trials,
    run_noisy_trials,
    sample_graph,
    threshold_pair,
    typical_weight_set,
    validate_event_probability,
    validate_noisy_event_probability,
)

WRONG = "wrong_output"

TRIAL_RATES_PATH = Path(__file__).with_name("trial_rates.json")


@dataclass
class Op:
    """One public call and the check of its result.

    check returns None when the result is right, else a one-line reason.
    counters maps a result to per-layer counts (traced runs only); replay
    re-issues a harness's internal calls directly (traced runs only).
    """

    layer: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known: str | None = None
    counters: Callable[[object], dict] | None = None
    replay: Callable | None = None
    static: dict = field(default_factory=dict)

    def judge(self, result, exc: BaseException | None) -> tuple[str | None, str]:
        """(cause, detail) of a failed call, or (None, "") when it is correct:
        the exception's class name, or WRONG when the check rejects the result."""
        if exc is not None:
            return type(exc).__name__, str(exc)
        try:
            reason = self.check(result)
        except Exception as err:  # a malformed result can break the check itself
            reason = f"check raised {type(err).__name__}: {err}"
        return (None, "") if reason is None else (WRONG, reason)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _exact_equal(expected: Callable[[], Fraction]):
    def check(value) -> str | None:
        want = expected()
        if not isinstance(value, Fraction) or value != want:
            return f"got {value!r}, reference {want}"
        return None

    return check


def _close(expected: Callable[[], float], tol: float):
    def check(value) -> str | None:
        want = expected()
        if not math.isfinite(value) or abs(value - want) > tol:
            return f"got {value!r}, reference {want!r} (tolerance {tol:g})"
        return None

    return check


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

EXACT_PAIRS = ((3, 6), (2, 4))
EXACT_N = (12, 24, 48, 96, 240, 600)
S_FRACS = (0.2, 0.5, 0.8)
Q_EXACT = Fraction(1, 10)
Q_FLOAT = 0.1
# (n, w / n, outcome-weight fractions, known failure); the float path of
# pooltest 0.1.0 raises OverflowError on the last two (see ROADMAP).
FLOAT_CASES = (
    (120, 0.1, (0.25, 0.5), None),
    (240, 0.1, (0.25, 0.5), None),
    (480, 0.1, (0.25, 0.5), None),
    (720, 0.1, (0.25,), None),
    (720, 0.5, (0.25,), "OverflowError"),
    (1200, 0.1, (0.25,), "OverflowError"),
)
ORACLE_SYSTEMS = ((1, 2, 8), (2, 4, 4))  # 8 sockets each: 8! = 40320 wirings


# The seed moves an input weight w by one where that changes it by a few
# percent, and leaves outcome weights s where they are: the work of an
# extraction (a power of the pool enumerator) depends on s, not on w, so the
# seed changes the inputs but hardly the work, and timings vary little from
# seed to seed.
JITTER_MIN = 20
W_SHARE = 0.1  # input weight w = n/10, as in the exact noiseless and general cases


def _weight(rng: random.Random, n: int, share: float) -> int:
    w = round(n * share)
    step = rng.choice((-1, 0, 1))
    return max(1, min(n - 1, w + step if w >= JITTER_MIN else w))


def _outcome_weight(l: int, r: int, n: int, w: int, frac: float) -> int:
    """An s at `frac` of the range where the noiseless probability is nonzero
    for the unjittered weight round(n * W_SHARE) (every firing test holds at
    least one and at most r of the l*w defect sockets), clamped to the range
    of the given w."""
    def span(weight: int) -> tuple[int, int]:
        return -(-l * weight // r), min(l * weight, n * l // r)

    lo, hi = span(round(n * W_SHARE))
    s = lo + round(frac * (hi - lo))
    lo, hi = span(w)
    return max(lo, min(hi, s))


def _count_type(rng: random.Random, l: int, r: int, n: int, w: int) -> tuple[int, ...]:
    """Output type of the exact-count test for a random placement of the
    l*w defect sockets into the m tests (so its probability is nonzero)."""
    m = n * l // r
    loads = [0] * m
    for j in rng.sample([j for j in range(m) for _ in range(r)], l * w):
        loads[j] += 1
    counts = [0] * (r + 1)
    for k in loads:
        counts[k] += 1
    return tuple(counts)


def exact_ops(seed: int) -> list[Op]:
    rng = _rng("exact", seed)
    ops: list[Op] = []

    for l, r in EXACT_PAIRS:
        for n in EXACT_N:
            params = SystemParams(l, r, n)
            w = _weight(rng, n, W_SHARE)
            for frac in S_FRACS:
                s = _outcome_weight(l, r, n, w, frac)
                ops.append(Op(
                    "genfunc.extract.noiseless",
                    f"ensemble_event_probability(l={l}, r={r}, n={n}, w={w}, s={s})",
                    lambda params=params, w=w, s=s: ensemble_event_probability(params, w, s),
                    _exact_equal(lambda a=(l, r, n, w, s): ref.noiseless_event(*a)),
                ))

    for n in (12, 24, 60, 120):
        params = SystemParams(3, 6, n, q=Q_EXACT)
        w = _weight(rng, n, W_SHARE)
        for frac in (0.25, 0.5):
            s = round(frac * params.m)
            ops.append(Op(
                "genfunc.extract.noisy_exact",
                f"noisy_ensemble_event_probability(l=3, r=6, n={n}, w={w}, s={s}, q=1/10)",
                lambda params=params, w=w, s=s: noisy_ensemble_event_probability(params, w, s),
                _exact_equal(lambda a=(3, 6, n, w, s, Q_EXACT): ref.noisy_event(*a)),
            ))

    for n, share, fracs, known in FLOAT_CASES:
        params = SystemParams(3, 6, n, q=Q_FLOAT)
        w = _weight(rng, n, share)
        for frac in fracs:
            s = round(frac * params.m)
            exact = (3, 6, n, w, s, Fraction(Q_FLOAT))

            def check(value, exact=exact) -> str | None:
                want = ref.noisy_event(*exact)
                if not isinstance(value, float) or not ref.close_enough(value, want, ref.FLOAT_REL_TOL):
                    return f"got {value!r}, reference {float(want)!r}"
                return None

            ops.append(Op(
                "genfunc.extract.noisy_float",
                f"noisy_ensemble_event_probability(l=3, r=6, n={n}, w={w}, s={s}, q=0.1)",
                lambda params=params, w=w, s=s: noisy_ensemble_event_probability(params, w, s),
                check,
                known=known,
            ))

    for l, r in EXACT_PAIRS:
        f_or, f_count = or_function(r), count_function(r)
        for n in (24, 48, 96):
            params = SystemParams(l, r, n)
            m = params.m
            w = _weight(rng, n, W_SHARE)
            s = _outcome_weight(l, r, n, w, 0.5)
            ops.append(Op(
                "genfunc.extract.general",
                f"general_ensemble_event_probability(or, l={l}, r={r}, n={n}, w={w}, s={s})",
                lambda params=params, f=f_or, i=(n - w, w), o=(m - s, s):
                    general_ensemble_event_probability(params, f, i, o),
                _exact_equal(lambda a=(l, r, n, w, s): ref.noiseless_event(*a)),
            ))
            counts = _count_type(rng, l, r, n, w)
            ops.append(Op(
                "genfunc.extract.general",
                f"general_ensemble_event_probability(count, l={l}, r={r}, n={n}, w={w}, type={counts})",
                lambda params=params, f=f_count, i=(n - w, w), o=counts:
                    general_ensemble_event_probability(params, f, i, o),
                _exact_equal(lambda a=(l, r, n, w, counts): ref.count_event(*a)),
            ))

    for l, r, n in ORACLE_SYSTEMS:
        params = SystemParams(l, r, n)
        m = params.m
        wirings = math.factorial(n * l)
        w = rng.randint(1, n - 1)
        s = rng.randint(-(-l * w // r), min(l * w, m))
        ops.append(Op(
            "ensemble.oracle.noiseless",
            f"enumeration_fraction_noiseless(l={l}, r={r}, n={n}, w={w}, s={s})",
            lambda params=params, w=w, s=s: enumeration_fraction_noiseless(params, w, s),
            _exact_equal(lambda a=(l, r, n, w, s): ref.noiseless_event(*a)),
            static={"ensemble.oracle.noiseless.wirings": wirings},
        ))
        noisy_params = SystemParams(l, r, n, q=Q_EXACT)
        w = rng.randint(0, n)
        s = rng.randint(0, m)
        ops.append(Op(
            "ensemble.oracle.noisy",
            f"enumeration_fraction_noisy(l={l}, r={r}, n={n}, w={w}, s={s}, q=1/10)",
            lambda params=noisy_params, w=w, s=s: enumeration_fraction_noisy(params, w, s),
            _exact_equal(lambda a=(l, r, n, w, s, Q_EXACT): ref.noisy_event(*a)),
            static={"ensemble.oracle.noisy.wirings": wirings},
        ))
        w = rng.randint(1, n - 1)
        counts = _count_type(rng, l, r, n, w)
        ops.append(Op(
            "ensemble.oracle.general",
            f"enumeration_fraction_general(count, l={l}, r={r}, n={n}, w={w}, type={counts})",
            lambda params=params, f=count_function(r), i=(n - w, w), o=counts:
                enumeration_fraction_general(params, f, i, o),
            _exact_equal(lambda a=(l, r, n, w, counts): ref.count_event(*a)),
            static={"ensemble.oracle.general.wirings": wirings},
        ))
    return ops


# ---------------------------------------------------------------------------
# asymptotic
# ---------------------------------------------------------------------------

PAIRS = ((3, 6), (2, 4), (3, 9), (4, 8))
# Eight points, so that binary margins are the largest class of ops and the
# median op latency falls inside it rather than at its edge.
MARGIN_P = (0.015, 0.055, 0.095, 0.135, 0.175, 0.215, 0.255, 0.295)
MARGIN_JITTER = 0.005
# one point below every pair's crossover, one above all but (2, 4)'s
EXPONENT_P = (0.06, 0.27)
EXPONENT_JITTER = 0.004
NOISE_Q = (0.05, 0.1)
TERNARY_SPLIT = 0.6  # share of the defect mass on symbol 1
# Multi-coordinate general margins stop once a sweep improves by < 1e-8, so
# they are compared with this looser tolerance; a search stalled on the
# kink is off by 6e-5 or more at the grid points used here.
GENERAL_TOL = 1e-7
THRESHOLD_PROBE = 1e-8  # the roots are bisected to 1e-9


def merged_or_function(r: int) -> TestFunction:
    """Ternary-input test that fires when any pooled symbol is nonzero."""
    return TestFunction.from_callable(lambda v: 1 if any(v) else 0, (0, 1, 2), (0, 1), r)


def _jittered(rng: random.Random, points, width: float) -> list[float]:
    return [round(p + rng.uniform(-width, width), 6) for p in points]


def _threshold_check(l: int, r: int):
    def check(pair) -> str | None:
        d = THRESHOLD_PROBE
        lo, hi = pair.p_lower, pair.p_upper
        if not (ref.achievable(l, r, lo - d) <= 0 < ref.achievable(l, r, lo + d)):
            return f"achievable margin has no sign change at p_lower={lo!r}"
        if not (ref.converse(l, r, hi - d) <= 0 < ref.converse(l, r, hi + d)):
            return f"converse margin has no sign change at p_upper={hi!r}"
        return None

    return check


def _curve_check(expected: Callable[[float], float], grid: list[float]):
    def check(rows) -> str | None:
        if len(rows) != len(grid):
            return f"{len(rows)} rows for a grid of {len(grid)}"
        for (x, y), g in zip(rows, grid):
            want = expected(g)
            if x != g or abs(y - want) > ref.FLOAT_TOL:
                return f"row ({x!r}, {y!r}), reference ({g!r}, {want!r})"
        return None

    return check


def _general_counters(margin) -> dict:
    return {
        "genfunc.optimize.general_margin.sweeps": margin.sweeps,
        "genfunc.optimize.general_margin.unconverged": 0 if margin.converged else 1,
    }


def asymptotic_ops(seed: int) -> list[Op]:
    rng = _rng("asymptotic", seed)
    ops: list[Op] = []
    for i, (l, r) in enumerate(PAIRS):
        f_or, f_count, f_tern = or_function(r), count_function(r), merged_or_function(r)
        p_lo, p_hi = _jittered(rng, EXPONENT_P, EXPONENT_JITTER)
        grid = _jittered(rng, MARGIN_P, MARGIN_JITTER)

        for p in (p_lo, p_hi):
            ops.append(Op(
                "genfunc.optimize.noiseless_exponent",
                f"noiseless_direct_exponent(l={l}, r={r}, p={p})",
                lambda a=(l, r, p): noiseless_direct_exponent(*a).value,
                _close(lambda a=(l, r, p): ref.noiseless_margin(*a), ref.FLOAT_TOL),
            ))
        # One noisy exponent per side of the crossover, the noise levels
        # alternating over the pairs so that each (side, q) occurs twice.
        # A noisy exponent costs 150-300 ms; one per side (not both noise
        # levels on both sides) halves a pass, so that a run times each op
        # about ten times (see README, "Noise").
        for p, q in ((p_lo, NOISE_Q[i % 2]), (p_hi, NOISE_Q[(i + 1) % 2])):
            ops.append(Op(
                "genfunc.optimize.noisy_exponent",
                f"noisy_direct_exponent(l={l}, r={r}, p={p}, q={q})",
                lambda a=(l, r, p, q): noisy_direct_exponent(*a).value,
                _close(lambda a=(l, r, p, q): ref.noisy_exponent(*a), ref.FLOAT_TOL),
            ))
        ops.append(Op(
            "genfunc.optimize.noisy_exponent",
            f"noisy_direct_exponent(l={l}, r={r}, p={p_lo}, q=0)",
            lambda a=(l, r, p_lo, 0.0): noisy_direct_exponent(*a).value,
            _close(lambda a=(l, r, p_lo): ref.noiseless_margin(*a), ref.FLOAT_TOL),
        ))

        for p in grid:
            ops.append(Op(
                "genfunc.optimize.binary_margin",
                f"binary_direct_margin(or, l={l}, r={r}, p={p})",
                lambda a=(f_or, l, r, p): binary_direct_margin(*a).value,
                _close(lambda a=(l, r, p): ref.noiseless_margin(*a), ref.FLOAT_TOL),
            ))
            ops.append(Op(
                "genfunc.optimize.binary_margin",
                f"binary_direct_margin(count, l={l}, r={r}, p={p})",
                lambda a=(f_count, l, r, p): binary_direct_margin(*a).value,
                _close(lambda a=(l, r, p): ref.count_margin(*a), ref.FLOAT_TOL),
            ))
        for p in grid[::3]:
            for name, f, expected in (
                ("or", f_or, ref.noiseless_margin),
                ("count", f_count, ref.count_margin),
            ):
                check = _close(lambda e=expected, a=(l, r, p): e(*a), ref.FLOAT_TOL)
                ops.append(Op(
                    "genfunc.optimize.general_margin",
                    f"general_direct_margin({name}, l={l}, r={r}, p={p})",
                    lambda a=(f, l, r, (1 - p, p)): general_direct_margin(*a),
                    lambda m, check=check: check(m.value),
                    counters=_general_counters,
                ))
        for p in (p_lo, p_hi):
            probs = (1 - p, TERNARY_SPLIT * p, (1 - TERNARY_SPLIT) * p)
            check = _close(lambda a=(l, r, probs): ref.merged_or_margin(*a), GENERAL_TOL)
            # In pooltest 0.1.0 the coordinate search stalls on the kink
            # ridge z1 + z2 = z* whenever the optimum sits there (p below
            # the crossover) and reports a value above the objective at
            # that explicit point.
            ops.append(Op(
                "genfunc.optimize.general_margin",
                f"general_direct_margin(merged-or ternary, l={l}, r={r}, probs={probs})",
                lambda a=(f_tern, l, r, probs): general_direct_margin(*a),
                lambda m, check=check: check(m.value),
                known=WRONG if p < ref.crossover(r) else None,
                counters=_general_counters,
            ))
        ops.append(Op(
            "bounds.threshold",
            f"threshold_pair(l={l}, r={r})",
            lambda a=(l, r): threshold_pair(*a),
            _threshold_check(l, r),
        ))

    l, r = rng.choice(PAIRS)
    lo, hi = _jittered(rng, (0.01, 0.3), MARGIN_JITTER)
    p_grid = [lo + (hi - lo) * i / 60 for i in range(61)]
    z_grid = [0.05 + 0.55 * i / 60 for i in range(61)]
    l_grid = [float(k) for k in range(1, 9)]
    p, q = rng.choice(grid), rng.choice(NOISE_Q)
    sigma = round(rng.uniform(l * p / r, l / r), 6)
    for curve, grid_, fixed, expected in (
        ("converse-vs-p", p_grid, {"l": l, "r": r}, lambda g: ref.converse(l, r, g)),
        ("noisy-converse-vs-p", p_grid, {"l": l, "r": r, "q": q},
         lambda g: ref.noisy_converse(l, r, g, q)),
        ("achievable-vs-p", p_grid, {"l": l, "r": r}, lambda g: ref.achievable(l, r, g)),
        ("collision-vs-z", z_grid, {"l": l, "r": r, "p": p, "sigma": sigma},
         lambda g: ref.collision(l, r, p, sigma, g)),
        ("converse-vs-l", l_grid, {"p": p, "ratio": 2},
         lambda g: ref.converse(int(g), 2 * int(g), p)),
    ):
        ops.append(Op(
            "bounds.curve",
            f"emit_curve({curve}, {fixed}, {len(grid_)} points)",
            lambda c=curve, g=grid_, k=fixed: emit_curve(c, g, **k),
            _curve_check(expected, grid_),
        ))
    return ops


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

TRIAL_LR = (3, 6)
TRIAL_N = (18, 24)
NOISELESS_P = (0.1, 0.2)
NOISELESS_EPS = 0.1
NOISY_P = 0.1
NOISY_WINDOWS = (0.1, 0.3)
GRAPH_MODES = ("fixed", "fresh")
NOISELESS_TRIALS = 300
NOISY_TRIALS = 150
RATE_Z = 4.0  # a count must lie within 4 standard errors of its expected rate
# The gate cases of `pooltest verify --suite montecarlo`, as (kind,
# (l, r, n, q), w, s, trials).  The trial counts give the three gates about
# equal cost, above that of every decoding op, so that the top 15% of op
# latencies, where op_p95_ms falls, is one plateau of like ops rather than
# the edge between two unlike ones.
GATE_CASES = (
    ("noiseless", (1, 2, 4, 0.0), 2, 1, 18000),
    ("noiseless", (3, 6, 12, 0.0), 1, 3, 10000),
    ("noisy", (1, 2, 2, 0.25), 1, 1, 10000),
)


def noiseless_key(n: int, p: float, mode: str) -> str:
    return f"noiseless l={TRIAL_LR[0]} r={TRIAL_LR[1]} n={n} p={p} eps={NOISELESS_EPS} {mode} trials={NOISELESS_TRIALS}"


def noisy_key(n: int, q: float, eps: float) -> str:
    return f"noisy l={TRIAL_LR[0]} r={TRIAL_LR[1]} n={n} p={NOISY_P} q={q} eps={eps} fresh trials={NOISY_TRIALS}"


def trial_configs():
    """(key, mode, params, eps, trials, graph_mode) for every decoding config."""
    l, r = TRIAL_LR
    for n in TRIAL_N:
        for p in NOISELESS_P:
            for mode in GRAPH_MODES:
                yield (noiseless_key(n, p, mode), "noiseless", SystemParams(l, r, n, p=p),
                       NOISELESS_EPS, NOISELESS_TRIALS, mode)
    for n in TRIAL_N:
        for q in NOISE_Q:
            for eps in NOISY_WINDOWS:
                yield (noisy_key(n, q, eps), "noisy", SystemParams(l, r, n, p=NOISY_P, q=q),
                       eps, NOISY_TRIALS, "fresh")


def run_config(mode: str, params: SystemParams, eps: float, trials: int, graph_mode: str, master_seed: int):
    if mode == "noiseless":
        return run_noiseless_trials(params, eps, trials, master_seed, graph_mode=graph_mode)
    return run_noisy_trials(params, eps, eps, trials, master_seed, graph_mode=graph_mode)


def rate_z(count: int, trials: int, mean: float, sd: float = 0.0) -> float:
    """Distance, in standard errors, of an event count from a rate.

    Measured on Anscombe's arcsine scale, where a binomial count has
    variance 1/(4 trials) even for rates near 0 or 1 (most error rates here
    exceed 0.85, where the plain normal approximation raises false alarms).
    The variance is scaled up when a recorded spread across master seeds,
    sd, exceeds the binomial one.
    """

    def anscombe(k: float) -> float:
        return math.asin(math.sqrt((k + 0.375) / (trials + 0.75)))

    binomial_var = mean * (1 - mean) / trials
    inflation = max(1.0, sd * sd / binomial_var) if binomial_var > 0 else 1.0
    return abs(anscombe(count) - anscombe(mean * trials)) * 2 * math.sqrt(trials / inflation)


def _report_check(mode: str, params: SystemParams, eps: float, trials: int, master_seed: int,
                  rate: dict | None):
    """Checks a TrialReport cause by cause.

    Source- and noise-atypical counts depend only on the drawn input and
    flips, so they are checked against exact binomial probabilities.  The
    total error rate of fresh-graph runs (rate given) is checked against the
    recorded rate.  A fixed-graph run's ambiguity rate is a property of its one
    graph, and its spread over graphs has a long tail (one bad graph in a
    few hundred), so no standard-error band holds for it; only its
    graph-independent counts are checked.
    """
    p_source = ref.atypical_probability(params.n, params.p, eps)
    p_noise = 0.0
    if mode == "noisy":
        p_noise = (1 - p_source) * ref.atypical_probability(params.m, params.q, eps)

    def check(rep) -> str | None:
        causes = rep.errors_source_atypical + rep.errors_noise_atypical + rep.errors_ambiguous
        if rep.trials != trials or rep.master_seed != master_seed:
            return f"report echoes trials={rep.trials}, seed={rep.master_seed}"
        if rep.errors != causes:
            return f"errors={rep.errors} but causes sum to {causes}"
        if rep.error_rate != rep.errors / trials:
            return f"error_rate={rep.error_rate} != errors/trials"
        tests = [("source-atypical", rep.errors_source_atypical, p_source, 0.0),
                 ("noise-atypical", rep.errors_noise_atypical, p_noise, 0.0)]
        if rate is not None:
            tests.append(("error", rep.errors, rate["mean"], rate["sd"]))
        for what, count, mean, sd in tests:
            z = rate_z(count, trials, mean, sd)
            if z > RATE_Z:
                return f"{what} rate {count / trials:.4f} is {z:.1f} standard errors from {mean:.4f}"
        return None

    return check


def _trial_counters(rep) -> dict:
    return {
        "montecarlo.errors.source_atypical": rep.errors_source_atypical,
        "montecarlo.errors.noise_atypical": rep.errors_noise_atypical,
        "montecarlo.errors.ambiguous": rep.errors_ambiguous,
    }


def _replay_decoding(mode: str, params: SystemParams, eps: float, trials: int, graph_mode: str, master_seed: int):
    """Re-issue the harness's per-trial public calls on the same instances,
    drawn with derive_seed exactly as the harness draws them."""

    def replay(tracer, parent: int) -> dict:
        n, m, p, q = params.n, params.m, params.p, params.q
        spec = TypicalSetSpec(n, p, eps)
        noise_spec = TypicalSetSpec(m, q, eps) if mode == "noisy" else None
        x_weights = typical_weight_set(spec)
        e_weights = typical_weight_set(noise_spec) if noise_spec else {0}
        fixed = None
        if graph_mode == "fixed":
            with tracer.span("ensemble.sample", parent):
                fixed = sample_graph(params, derive_seed(master_seed, "fixed-graph", 0))
        decode = f"estimators.decode.{mode}"
        causes = {"source_atypical": 0, "noise_atypical": 0, "ambiguous": 0}
        for i in range(trials):
            rng = random.Random(derive_seed(master_seed, "trial", i))
            x = tuple(1 if rng.random() < p else 0 for _ in range(n))
            e = tuple(1 if rng.random() < q else 0 for _ in range(m)) if noise_spec else (0,) * m
            graph = fixed
            if graph is None:
                with tracer.span("ensemble.sample", parent):
                    graph = sample_graph(params, derive_seed(master_seed, "graph", i))
            with tracer.span("ensemble.forward", parent):
                clean = forward_or(graph, x)
            y = tuple(a ^ b for a, b in zip(clean, e))
            if sum(x) not in x_weights:
                causes["source_atypical"] += 1
                continue
            if sum(e) not in e_weights:
                causes["noise_atypical"] += 1
                continue
            with tracer.span(decode, parent) as span:
                if noise_spec:
                    est = estimate_noisy(graph, spec, noise_spec, y, cap=2)
                else:
                    est = estimate_noiseless(graph, spec, y, cap=2)
                span["decisions"] = est.decision_count
            if est.failed or est.value != x:
                causes["ambiguous"] += 1
        return causes

    return replay


def _replay_gate(params: SystemParams, trials: int, master_seed: int):
    def replay(tracer, parent: int) -> dict:
        for i in range(trials):
            with tracer.span("ensemble.sample", parent):
                sample_graph(params, derive_seed(master_seed, "graph", i))
        return {}

    return replay


def _gate_check(kind: str, params: SystemParams, w: int, s: int, trials: int):
    def check(result) -> str | None:
        l, r, n = params.l, params.r, params.n
        if kind == "noiseless":
            exact = float(ref.noiseless_event(l, r, n, w, s))
        else:
            exact = float(ref.noisy_event(l, r, n, w, s, Fraction(params.q)))
        if result.trials != trials:
            return f"gate ran {result.trials} trials"
        if abs(result.exact - exact) > 1e-12 * exact:
            return f"gate's exact value {result.exact!r}, reference {exact!r}"
        if not result.passed:
            return f"gate failed: z = {result.z_score:+.2f}"
        return None

    return check


def load_trial_rates() -> dict:
    with open(TRIAL_RATES_PATH, encoding="utf-8") as fh:
        return json.load(fh)["rates"]


def trials_ops(seed: int) -> list[Op]:
    rng = _rng("trials", seed)
    rates = load_trial_rates()
    ops: list[Op] = []
    for key, mode, params, eps, trials, graph_mode in trial_configs():
        master_seed = rng.randrange(1, 2**31)
        ops.append(Op(
            f"montecarlo.run_{mode}",
            f"run_{mode}_trials({key}, seed={master_seed})",
            lambda a=(mode, params, eps, trials, graph_mode, master_seed): run_config(*a),
            _report_check(mode, params, eps, trials, master_seed, rates.get(key)),
            counters=_trial_counters,
            replay=_replay_decoding(mode, params, eps, trials, graph_mode, master_seed),
            static={f"montecarlo.run_{mode}.trials": trials},
        ))
    for kind, (l, r, n, q), w, s, trials in GATE_CASES:
        params = SystemParams(l, r, n, q=q)
        master_seed = rng.randrange(1, 2**31)
        fn = validate_event_probability if kind == "noiseless" else validate_noisy_event_probability
        ops.append(Op(
            "montecarlo.validate",
            f"{fn.__name__}(l={l}, r={r}, n={n}, q={q}, w={w}, s={s}, seed={master_seed})",
            lambda fn=fn, a=(params, w, s, trials, master_seed): fn(*a),
            _gate_check(kind, params, w, s, trials),
            counters=lambda res: {"montecarlo.validate.gate_failed": 0 if res.passed else 1},
            replay=_replay_gate(params, trials, master_seed),
            static={"montecarlo.validate.trials": trials},
        ))
    return ops


OP_LISTS = {"exact": exact_ops, "asymptotic": asymptotic_ops, "trials": trials_ops}


# ---------------------------------------------------------------------------
# CLI subcommands, run as subprocesses in traced runs
# ---------------------------------------------------------------------------


def cli_commands(seed: int, function_path: Path) -> list[tuple[str, list[str]]]:
    """One invocation of each subcommand, its arguments drawn like the
    matching workload's inputs.  Writes the test-function file `general`
    reads."""
    rng = _rng("cli", seed)
    l, r = rng.choice(PAIRS)
    lo, hi = _jittered(rng, (0.01, 0.3), MARGIN_JITTER)
    p = _jittered(rng, EXPONENT_P, EXPONENT_JITTER)[1]
    function_path.write_text(json.dumps(merged_or_function(r).to_json_dict()), encoding="utf-8")
    probs = ",".join(repr(x) for x in (1 - p, TERNARY_SPLIT * p, (1 - TERNARY_SPLIT) * p))
    n = rng.choice(TRIAL_N)
    return [
        ("verify", ["verify", "--suite", "exact"]),
        ("thresholds", ["thresholds", "--pairs"] + [f"{a}:{b}" for a, b in PAIRS]),
        ("bounds", ["bounds", "--curve", "achievable-vs-p", "--l", str(l), "--r", str(r),
                    "--p-min", repr(lo), "--p-max", repr(hi), "--steps", "60"]),
        ("general", ["general", "--function", str(function_path), "--l", str(l), "--r", str(r),
                     "--probs", probs]),
        ("simulate", ["simulate", "--mode", "noiseless", "--l", str(TRIAL_LR[0]),
                      "--r", str(TRIAL_LR[1]), "--n", str(n), "--p", str(NOISELESS_P[0]),
                      "--trials", str(NOISELESS_TRIALS), "--seed", str(rng.randrange(1, 2**31))]),
    ]

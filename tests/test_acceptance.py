"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [acceptance] PASS/FAIL line naming the guarantee
so the whole gate can be read off a plain pytest -s run.  One check is
known to fail and is kept failing on purpose: the small-system paired-seed
error ordering (a12) is inverted because shrinking p empties the typical
input set long before it helps the decoder.  The closed-form margin
reduction (a06) holds only below a degree-dependent crossover weight, so
a06 checks the reduction below the crossover and the strict improvement
over the closed form above it.
"""

import random
import time
from fractions import Fraction

from pooltest import (
    PoolingGraph,
    SystemParams,
    TypicalSetSpec,
    achievable_margin,
    binary_direct_margin,
    collision_exponent,
    converse_margin,
    derive_seed,
    ensemble_event_probability,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    estimate_noisy,
    fixed_point_z,
    forward_or,
    general_converse_bound,
    general_direct_margin,
    general_ensemble_event_probability,
    noiseless_direct_exponent,
    noisy_converse_margin,
    noisy_direct_exponent,
    noisy_ensemble_event_probability,
    or_function,
    run_noiseless_trials,
    run_noisy_trials,
    threshold_lower,
    threshold_upper,
    typical_weight_set,
    validate_event_probability,
    validate_noisy_event_probability,
)

FROZEN_THRESHOLDS = {
    (2, 4): (0.092763, 0.097350),
    (3, 6): (0.110022, 0.110023),
    (4, 8): (0.104629, 0.105999),
    (5, 10): (0.096091, 0.099480),
    (6, 12): (0.087848, 0.093027),
    (2, 8): (0.022022, 0.026824),
    (3, 12): (0.038651, 0.039535),
    (4, 16): (0.041685, 0.041687),
    (5, 20): (0.040693, 0.040978),
    (6, 24): (0.038556, 0.039427),
}


def record(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {verdict}{suffix}")
    assert ok, f"{name}: {detail}"


def test_a01_threshold_table():
    start = time.perf_counter()
    bad = []
    for (l, r), (lo, hi) in sorted(FROZEN_THRESHOLDS.items()):
        got_lo = threshold_lower(l, r)
        got_hi = threshold_upper(l, r)
        if abs(got_lo - lo) > 5e-6 or abs(got_hi - hi) > 5e-6:
            bad.append((l, r, got_lo, got_hi))
    elapsed = time.perf_counter() - start
    record(
        "threshold-table-all-ten-pairs",
        not bad and elapsed < 10.0,
        f"elapsed={elapsed:.2f}s mismatches={bad}",
    )


def test_a02_crossover_root_value():
    root = threshold_upper(3, 6)
    record(
        "converse-root-at-3-6",
        abs(root - 0.110023) <= 5e-6,
        f"root={root:.9f}",
    )


def test_a03_exact_enumeration_oracle():
    start = time.perf_counter()
    bad = []
    for params in (SystemParams(1, 2, 4), SystemParams(1, 2, 2), SystemParams(2, 4, 4)):
        for w in range(params.n + 1):
            for s in range(params.m + 1):
                closed = ensemble_event_probability(params, w, s)
                counted = enumeration_fraction_noiseless(params, w, s)
                if closed != counted:
                    bad.append((params.l, params.r, params.n, w, s))
    elapsed = time.perf_counter() - start
    record(
        "closed-form-equals-enumeration",
        not bad and elapsed < 5.0,
        f"elapsed={elapsed:.2f}s mismatches={bad}",
    )


def test_a04_noisy_exact_oracle():
    bad = []
    for q in (Fraction(1, 4), Fraction(1, 2)):
        params = SystemParams(1, 2, 2, q=q)
        for w in range(3):
            for s in range(2):
                closed = noisy_ensemble_event_probability(params, w, s)
                counted = enumeration_fraction_noisy(params, w, s)
                if abs(closed - counted) > Fraction(1, 10**12):
                    bad.append((str(q), w, s))
    record("noisy-closed-form-equals-enumeration", not bad, f"mismatches={bad}")


def test_a05_general_machinery_consistency():
    bad = []
    for params in (SystemParams(1, 2, 4), SystemParams(1, 2, 2), SystemParams(2, 4, 4)):
        f = or_function(params.r)
        for w in range(params.n + 1):
            for s in range(params.m + 1):
                general = general_ensemble_event_probability(
                    params, f, (params.n - w, w), (params.m - s, s)
                )
                binary = ensemble_event_probability(params, w, s)
                if general != binary:
                    bad.append((params.l, params.r, params.n, w, s))
    worst = 0.0
    for l, r in ((3, 6), (2, 4)):
        f = or_function(r)
        for k in range(1, 50):
            p = k / 100
            gap = abs(general_converse_bound(f, l, r, [1 - p, p]) - converse_margin(l, r, p))
            worst = max(worst, gap)
    record(
        "general-machinery-reduces-to-binary",
        not bad and worst <= 1e-12,
        f"event mismatches={bad} max converse gap={worst:.2e}",
    )


def test_a06_closed_form_margin_reduction():
    # the inner optimum sits at the fixed point z* = 2^(1/r) - 1 only up to the
    # crossover weight 2 - 2^((r-1)/r), where the right derivative of the
    # objective at the kink, l (2 - 2^((r-1)/r) - p), changes sign; below it the
    # optimized margins equal the closed form, past it the optimizer moves to a
    # larger z and beats the closed form, and the general margin must follow
    crossover = {r: 2 - 2 ** ((r - 1) / r) for r in (6, 8, 12)}
    failures = []
    past = 0
    max_reduction_gap = 0.0
    max_bg_gap = 0.0
    best_gain = 0.0
    for l, r in ((3, 6), (4, 8), (3, 12)):
        f = or_function(r)
        z_star = fixed_point_z(r)
        for k in range(1, 21):
            p = k / 100
            lam = achievable_margin(l, r, p)
            bm = binary_direct_margin(f, l, r, p)
            gm = general_direct_margin(f, l, r, [1 - p, p])
            bg_gap = abs(gm.value - bm.value)
            max_bg_gap = max(max_bg_gap, bg_gap)
            if p <= crossover[r]:
                max_reduction_gap = max(
                    max_reduction_gap, abs(bm.value - lam), abs(gm.value - lam)
                )
                ok = (
                    abs(bm.value - lam) <= 1e-9
                    and abs(gm.value - lam) <= 1e-8
                    and abs(bm.z[1] - z_star) <= 1e-5
                )
            else:
                past += 1
                best_gain = max(best_gain, lam - bm.value)
                ok = bm.value < lam - 1e-9 and bm.z[1] > z_star and bg_gap <= 1e-8
            if not ok:
                failures.append((l, r, p, bm.value - lam, gm.value - bm.value))
    detail = (
        f"{past} of 60 points past the crossover; below it max gap to the "
        f"closed form={max_reduction_gap:.2e}; largest gain past it="
        f"{best_gain:.3e}; binary-vs-general max gap={max_bg_gap:.2e}; "
        f"failures={failures}"
    )
    record("margin-closed-form-reduction", not failures, detail)


def test_a07_fixed_point_identities():
    z = fixed_point_z(6)
    values = [
        collision_exponent(3, 6, 0.08, sigma, z)
        for sigma in [k * 0.05 for k in range(11)]
    ]
    spread = max(values) - min(values)
    record("fixed-point-identities", spread <= 1e-12, f"sigma spread={spread:.2e}")


def test_a08_zero_noise_reduction():
    worst_margin = 0.0
    for l, r in ((2, 4), (3, 6), (4, 8), (3, 12)):
        for k in range(2, 21, 2):
            p = k / 100
            worst_margin = max(
                worst_margin,
                abs(noisy_converse_margin(l, r, p, 0.0) - converse_margin(l, r, p)),
            )
    worst_exponent = 0.0
    for l, r, p in ((3, 6, 0.05), (3, 6, 0.08), (3, 6, 0.1), (2, 8, 0.04)):
        clean = noiseless_direct_exponent(l, r, p)
        noisy = noisy_direct_exponent(l, r, p, 0.0)
        worst_exponent = max(worst_exponent, abs(clean.value - noisy.value))
    record(
        "zero-noise-reduction",
        worst_margin <= 1e-12 and worst_exponent <= 1e-12,
        f"margin gap={worst_margin:.2e}, exponent gap={worst_exponent:.2e}",
    )


def test_a09_relaxation_direction():
    bad = []
    for l, r in ((3, 6), (4, 8), (3, 12)):
        for k in range(1, 21):
            p = k / 100
            direct = noiseless_direct_exponent(l, r, p)
            if direct.value > achievable_margin(l, r, p) + 1e-9:
                bad.append((l, r, p, direct.value))
    record("optimized-exponent-below-fixed-point-value", not bad, f"violations={bad}")


def test_a10_monte_carlo_gates():
    start = time.perf_counter()
    checks = [
        validate_event_probability(
            SystemParams(1, 2, 4), 2, 1, trials=100_000, master_seed=41
        ),
        validate_event_probability(
            SystemParams(3, 6, 12), 1, 3, trials=100_000, master_seed=42
        ),
        validate_noisy_event_probability(
            SystemParams(1, 2, 2, q=0.25), 1, 1, trials=100_000, master_seed=43
        ),
    ]
    elapsed = time.perf_counter() - start
    zs = [round(c.z_score, 2) for c in checks]
    record(
        "monte-carlo-event-rate-gates",
        all(c.passed for c in checks) and elapsed < 60.0,
        f"z-scores={zs}, elapsed={elapsed:.1f}s",
    )


def test_a11_estimator_soundness():
    params = SystemParams(3, 6, 18, p=0.05, q=0.1)
    epsilon = 0.1
    master = 2026
    trials = 10_000
    spec = TypicalSetSpec(params.n, params.p, epsilon)
    noise_spec = TypicalSetSpec(params.m, params.q, epsilon)
    x_window = typical_weight_set(spec)
    e_window = typical_weight_set(noise_spec)

    # the run's three streams, each seeded once: x, then the flips of a
    # typical x, then the graph of a trial whose x and flips are typical
    xs, noise, graphs = (
        random.Random(derive_seed(master, label, 0)) for label in ("trial", "noise", "graph")
    )
    source_atypical = noise_atypical = ambiguous = unsound = 0
    for _ in range(trials):
        x = tuple(1 if xs.random() < params.p else 0 for _ in range(params.n))
        if sum(x) not in x_window:
            source_atypical += 1
            continue
        e = tuple(1 if noise.random() < params.q else 0 for _ in range(params.m))
        if sum(e) not in e_window:
            noise_atypical += 1
            continue
        wiring = list(range(params.num_sockets))
        graphs.shuffle(wiring)
        graph = PoolingGraph(params, wiring)
        y = tuple(a ^ b for a, b in zip(forward_or(graph, x), e))
        est = estimate_noisy(graph, spec, noise_spec, y, cap=2)
        if est.failed or est.value != x:
            ambiguous += 1
        if not est.failed:
            flips = sum(a ^ b for a, b in zip(forward_or(graph, est.value), y))
            if flips not in e_window or sum(est.value) not in x_window:
                unsound += 1

    report = run_noisy_trials(params, epsilon, epsilon, trials, master_seed=master)
    counts_match = (
        report.errors_source_atypical == source_atypical
        and report.errors_noise_atypical == noise_atypical
        and report.errors_ambiguous == ambiguous
    )

    clean = SystemParams(3, 6, 18, p=0.05)
    zeroq = SystemParams(3, 6, 18, p=0.05, q=0.0)
    base = run_noiseless_trials(clean, epsilon, 2000, master_seed=master)
    red_a = run_noisy_trials(zeroq, epsilon, epsilon, 2000, master_seed=master)
    red_b = run_noisy_trials(zeroq, epsilon, 0.0, 2000, master_seed=master)
    reductions_match = (
        base.errors == red_a.errors == red_b.errors
        and base.errors_ambiguous == red_a.errors_ambiguous == red_b.errors_ambiguous
    )

    record(
        "estimator-soundness-and-reductions",
        unsound == 0 and counts_match and reductions_match,
        f"unsound={unsound}, counts_match={counts_match}, "
        f"reductions_match={reductions_match}, error_rate={report.error_rate:.4f}",
    )


def test_a12_paired_seed_error_ordering():
    # expected ordering: rarer defects decode more reliably; at n=18 the
    # opposite happens because p=0.02 makes every input atypical (window is
    # empty) so each trial counts as an error
    params_low = SystemParams(3, 6, 18, p=0.02)
    params_high = SystemParams(3, 6, 18, p=0.30)
    low = run_noiseless_trials(params_low, 0.1, 2000, master_seed=12)
    high = run_noiseless_trials(params_high, 0.1, 2000, master_seed=12)
    record(
        "paired-seed-error-ordering",
        low.error_rate < high.error_rate,
        f"rate(p=0.02)={low.error_rate:.4f}, rate(p=0.30)={high.error_rate:.4f}, "
        f"low-p window empty={not typical_weight_set(TypicalSetSpec(18, 0.02, 0.1))}",
    )

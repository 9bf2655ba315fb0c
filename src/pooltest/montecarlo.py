"""Seeded trial harnesses for the decoder and for the exact ensemble formulas.

Every decoding trial draws from its own RNG, seeded by derive_seed(master
seed, stream label, trial index), so its outcome does not depend on which
other trials ran or in what order.  The event-rate gates only count hits,
so each gate seeds one stream per label once and draws every trial from
it.  Each harness is one serial loop.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from .ensemble import SystemParams, forward_or, sample_graph
from .errors import ConfigurationError, InputError
from .estimators import (
    ENUMERATION_LIMIT,
    TypicalSetSpec,
    _check_guard,
    estimate_noiseless,
    estimate_noisy,
    typical_weight_set,
)

Z_GATE = 4.0
CONFIDENCE_FACTOR = 1.96  # two-sided 95% normal quantile


def derive_seed(master_seed: int, label: str, index: int) -> int:
    """Stable per-trial seed; independent draws for distinct (label, index)."""
    data = f"{master_seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class TrialReport:
    """Outcome counts of a batch of decoding trials.

    error_rate and confidence_halfwidth are None when trials == 0 rather
    than propagating a 0/0.  Errors are split by first cause: the drawn
    input fell outside the typicality window, the drawn noise did, or the
    decision set was not the correct singleton."""

    trials: int
    errors: int
    error_rate: float | None
    confidence_halfwidth: float | None
    master_seed: int
    errors_source_atypical: int
    errors_noise_atypical: int
    errors_ambiguous: int
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "confidence_halfwidth": self.confidence_halfwidth,
            "master_seed": self.master_seed,
            "errors_source_atypical": self.errors_source_atypical,
            "errors_noise_atypical": self.errors_noise_atypical,
            "errors_ambiguous": self.errors_ambiguous,
            "config": dict(self.config),
        }


def _finish_report(
    trials: int,
    master_seed: int,
    source_atypical: int,
    noise_atypical: int,
    ambiguous: int,
    config: dict,
) -> TrialReport:
    errors = source_atypical + noise_atypical + ambiguous
    if trials > 0:
        rate = errors / trials
        halfwidth = CONFIDENCE_FACTOR * math.sqrt(rate * (1 - rate) / trials)
    else:
        rate = None
        halfwidth = None
    return TrialReport(
        trials=trials,
        errors=errors,
        error_rate=rate,
        confidence_halfwidth=halfwidth,
        master_seed=master_seed,
        errors_source_atypical=source_atypical,
        errors_noise_atypical=noise_atypical,
        errors_ambiguous=ambiguous,
        config=config,
    )


def _check_mode(graph_mode: str) -> None:
    if graph_mode not in ("fixed", "fresh"):
        raise ConfigurationError(f"graph_mode {graph_mode!r} is not 'fixed' or 'fresh'")


def run_noiseless_trials(
    params: SystemParams,
    epsilon: float,
    trials: int,
    master_seed: int,
    graph_mode: str = "fresh",
    enumeration_limit: int = ENUMERATION_LIMIT,
) -> TrialReport:
    """Decode `trials` random noiseless observations and count failures."""
    _check_mode(graph_mode)
    if trials < 0:
        raise InputError("trials must be nonnegative")
    _check_guard(params.n, enumeration_limit)
    spec = TypicalSetSpec(params.n, params.p, epsilon)
    x_weights = typical_weight_set(spec)
    fixed = (
        sample_graph(params, derive_seed(master_seed, "fixed-graph", 0))
        if graph_mode == "fixed"
        else None
    )
    n, p = params.n, params.p
    source_atypical = ambiguous = 0
    for i in range(trials):
        rng = random.Random(derive_seed(master_seed, "trial", i))
        x = tuple(1 if rng.random() < p else 0 for _ in range(n))
        graph = fixed or sample_graph(params, derive_seed(master_seed, "graph", i))
        y = forward_or(graph, x)
        if sum(x) not in x_weights:
            source_atypical += 1
            continue
        est = estimate_noiseless(graph, spec, y, enumeration_limit, cap=2)
        if est.failed or est.value != x:
            ambiguous += 1
    config = {
        "mode": "noiseless",
        "l": params.l,
        "r": params.r,
        "n": params.n,
        "p": params.p,
        "epsilon": epsilon,
        "trials": trials,
        "master_seed": master_seed,
        "graph_mode": graph_mode,
        "enumeration_limit": enumeration_limit,
    }
    return _finish_report(trials, master_seed, source_atypical, 0, ambiguous, config)


def run_noisy_trials(
    params: SystemParams,
    epsilon_input: float,
    epsilon_noise: float,
    trials: int,
    master_seed: int,
    graph_mode: str = "fresh",
    enumeration_limit: int = ENUMERATION_LIMIT,
) -> TrialReport:
    """Decode `trials` random observations with flipped outcomes and count
    failures.  With q = 0 only the all-zero flip pattern is typical, so the
    run reproduces run_noiseless_trials trial for trial at the same seed."""
    _check_mode(graph_mode)
    if trials < 0:
        raise InputError("trials must be nonnegative")
    _check_guard(params.n, enumeration_limit)
    spec = TypicalSetSpec(params.n, params.p, epsilon_input)
    noise_spec = TypicalSetSpec(params.m, params.q, epsilon_noise)
    x_weights = typical_weight_set(spec)
    e_weights = typical_weight_set(noise_spec)
    fixed = (
        sample_graph(params, derive_seed(master_seed, "fixed-graph", 0))
        if graph_mode == "fixed"
        else None
    )
    n, m, p, q = params.n, params.m, params.p, params.q
    source_atypical = noise_atypical = ambiguous = 0
    for i in range(trials):
        rng = random.Random(derive_seed(master_seed, "trial", i))
        x = tuple(1 if rng.random() < p else 0 for _ in range(n))
        e = tuple(1 if rng.random() < q else 0 for _ in range(m))
        graph = fixed or sample_graph(params, derive_seed(master_seed, "graph", i))
        clean = forward_or(graph, x)
        y = tuple(a ^ b for a, b in zip(clean, e))
        if sum(x) not in x_weights:
            source_atypical += 1
            continue
        if sum(e) not in e_weights:
            noise_atypical += 1
            continue
        est = estimate_noisy(graph, spec, noise_spec, y, enumeration_limit, cap=2)
        if est.failed or est.value != x:
            ambiguous += 1
    config = {
        "mode": "noisy",
        "l": params.l,
        "r": params.r,
        "n": params.n,
        "p": params.p,
        "q": params.q,
        "epsilon_input": epsilon_input,
        "epsilon_noise": epsilon_noise,
        "trials": trials,
        "master_seed": master_seed,
        "graph_mode": graph_mode,
        "enumeration_limit": enumeration_limit,
    }
    return _finish_report(
        trials, master_seed, source_atypical, noise_atypical, ambiguous, config
    )


# ---------------------------------------------------------------------------
# empirical validation of the exact ensemble formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EventRateCheck:
    """Empirical event frequency against its exact ensemble average, gated at
    |z| <= 4 standard errors."""

    empirical: float
    exact: float
    z_score: float
    passed: bool
    trials: int
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "empirical": self.empirical,
            "exact": self.exact,
            "z_score": self.z_score,
            "pass": self.passed,
            "trials": self.trials,
            "config": dict(self.config),
        }


def _gate(
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
    q: float,
    exact: float,
    config: dict,
) -> EventRateCheck:
    """Sample how often a canonical weight-w input fires exactly the first s
    tests, after flipping each outcome at rate q, and gate that frequency
    against its exact ensemble average.

    A trial draws only what the event reads: the right sockets that the w*l
    defect sockets land on, an ordered sample distributed exactly like the
    first w*l entries of a uniform wiring.  All trials draw their sockets
    from one "graph" stream and their flips from one "noise" stream, each
    seeded once per call; q = 0 never reads the noise stream, since no
    flip can fire then."""
    r, m, wl = params.r, params.m, w * params.l
    sockets = range(params.num_sockets)
    graphs = random.Random(derive_seed(master_seed, "graph", 0))
    noise = random.Random(derive_seed(master_seed, "noise", 0))
    target = (1 << s) - 1
    hits = 0
    for _ in range(trials):
        mask = 0
        for k in graphs.sample(sockets, wl):
            mask |= 1 << (k // r)
        if q:
            for j in range(m):
                if noise.random() < q:
                    mask ^= 1 << j
        if mask == target:
            hits += 1
    empirical = hits / trials
    if 0 < exact < 1:
        z = (empirical - exact) / math.sqrt(exact * (1 - exact) / trials)
        passed = abs(z) <= Z_GATE
    else:
        z = 0.0
        passed = empirical == exact
    return EventRateCheck(empirical, exact, z, passed, trials, config)


def validate_event_probability(
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
) -> EventRateCheck:
    """Check the exact noiseless event probability for canonical weight-w
    input and weight-s output against sampling of the ensemble."""
    from .genfunc import ensemble_event_probability

    if trials < 1:
        raise InputError("trials must be positive")
    exact = float(ensemble_event_probability(params, w, s))
    config = {
        "check": "noiseless-event-rate",
        "l": params.l,
        "r": params.r,
        "n": params.n,
        "w": w,
        "s": s,
        "trials": trials,
        "master_seed": master_seed,
    }
    return _gate(params, w, s, trials, master_seed, 0.0, exact, config)


def validate_noisy_event_probability(
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
) -> EventRateCheck:
    """Check the exact noisy event probability against sampling of both the
    ensemble and the flip pattern."""
    from .genfunc import noisy_ensemble_event_probability

    if trials < 1:
        raise InputError("trials must be positive")
    exact = float(noisy_ensemble_event_probability(params, w, s))
    q = float(params.q)
    config = {
        "check": "noisy-event-rate",
        "l": params.l,
        "r": params.r,
        "n": params.n,
        "q": q,
        "w": w,
        "s": s,
        "trials": trials,
        "master_seed": master_seed,
    }
    return _gate(params, w, s, trials, master_seed, q, exact, config)

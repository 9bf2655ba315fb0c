"""Seeded trial harnesses for the decoder and for the exact ensemble formulas.

Every decoding trial draws from its own RNG, seeded by derive_seed(master
seed, stream label, trial index), so its outcome does not depend on which
other trials ran or in what order.  The event-rate gates only count hits,
so each gate seeds one stream per label once and draws every trial from
it.  Each harness is one serial loop.

The graph draws replay random.Random.shuffle (trials) and
random.Random.sample (gates) through the generator's getrandbits, drawing
each index as Random._randbelow does, so the streams and every seeded
report are the ones the stdlib calls give, without their per-call overhead.

Noiseless is the flip rate q = 0: the noiseless trials and gate run the
noisy loop and gate at q = 0, which never draw a flip.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from operator import or_
from typing import Callable

from .bounds import _check_degrees
from .ensemble import SystemParams, _shuffle, _shuffle_steps
from .errors import ConfigurationError, InputError
from .estimators import (
    ENUMERATION_LIMIT,
    TypicalSetSpec,
    _check_guard,
    _scan_or_consistent,
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


def _mask_sampler(params: SystemParams) -> Callable[[int], list[int]]:
    """masks(seed): the object masks of sample_graph(params, seed), mask i
    having bit j set when object i feeds test j.  The shuffle moves each
    left socket's test bit 1 << (k // r) in place of the socket index k,
    so object i's mask is the OR of entries i*l .. i*l + l - 1 of the
    shuffled list, and no PoolingGraph is built."""
    l = params.l
    test_bits = [1 << (k // params.r) for k in range(params.num_sockets)]
    steps = _shuffle_steps(len(test_bits))

    def masks(seed: int) -> list[int]:
        wiring = test_bits[:]
        _shuffle(random.Random(seed).getrandbits, wiring, steps)
        objects = wiring[::l]
        for t in range(1, l):
            objects = list(map(or_, objects, wiring[t::l]))
        return objects

    return masks


def _run_trials(
    mode: str,
    params: SystemParams,
    q: float,
    epsilon_input: float,
    epsilon_noise: float,
    trials: int,
    master_seed: int,
    graph_mode: str,
    enumeration_limit: int,
    settings: dict,
) -> TrialReport:
    """Decode `trials` random observations with outcomes flipped at rate q
    and count failures by first cause.  Each trial's stream draws x, then
    the flips, and only when q != 0; `settings` holds the mode's own config
    keys, which follow p.

    Each graph's object masks are drawn once (once per run for a fixed
    graph): a trial ORs its defects' masks into y, XORs each flip in as it
    is drawn, and runs the decoder's scan capped at two supports."""
    if graph_mode not in ("fixed", "fresh"):
        raise ConfigurationError(f"graph_mode {graph_mode!r} is not 'fixed' or 'fresh'")
    if trials < 0:
        raise InputError("trials must be nonnegative")
    _check_degrees(params.l, params.r)
    _check_guard(params.n, enumeration_limit)
    x_weights = typical_weight_set(TypicalSetSpec(params.n, params.p, epsilon_input))
    e_weights = typical_weight_set(TypicalSetSpec(params.m, q, epsilon_noise))
    graph_masks = _mask_sampler(params)
    fixed = (
        graph_masks(derive_seed(master_seed, "fixed-graph", 0))
        if graph_mode == "fixed"
        else None
    )
    n, m, p = params.n, params.m, params.p
    source_atypical = noise_atypical = ambiguous = 0
    for i in range(trials):
        rng = random.Random(derive_seed(master_seed, "trial", i))
        support = tuple(k for k in range(n) if rng.random() < p)
        masks = fixed or graph_masks(derive_seed(master_seed, "graph", i))
        y = 0
        for k in support:
            y |= masks[k]
        flips = 0
        if q:
            for j in range(m):
                if rng.random() < q:
                    y ^= 1 << j
                    flips += 1
        if len(support) not in x_weights:
            source_atypical += 1
            continue
        if flips not in e_weights:
            noise_atypical += 1
            continue
        if _scan_or_consistent(masks, y, e_weights, x_weights, 2) != [support]:
            ambiguous += 1
    errors = source_atypical + noise_atypical + ambiguous
    rate = halfwidth = None
    if trials > 0:
        rate = errors / trials
        halfwidth = CONFIDENCE_FACTOR * math.sqrt(rate * (1 - rate) / trials)
    config = {
        "mode": mode,
        "l": params.l,
        "r": params.r,
        "n": params.n,
        "p": params.p,
        **settings,
        "trials": trials,
        "master_seed": master_seed,
        "graph_mode": graph_mode,
        "enumeration_limit": enumeration_limit,
    }
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


def run_noiseless_trials(
    params: SystemParams,
    epsilon: float,
    trials: int,
    master_seed: int,
    graph_mode: str = "fresh",
    enumeration_limit: int = ENUMERATION_LIMIT,
) -> TrialReport:
    """Decode `trials` random noiseless observations and count failures:
    the noisy harness at q = 0, whatever params.q says."""
    return _run_trials(
        "noiseless", params, 0.0, epsilon, 0.0, trials, master_seed, graph_mode,
        enumeration_limit, {"epsilon": epsilon},
    )


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
    settings = {"q": params.q, "epsilon_input": epsilon_input, "epsilon_noise": epsilon_noise}
    return _run_trials(
        "noisy", params, params.q, epsilon_input, epsilon_noise, trials, master_seed,
        graph_mode, enumeration_limit, settings,
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


def _sample_replay(n: int, k: int) -> Callable:
    """draw(getrandbits, values): values[j] for each position j, in order,
    that random.Random.sample(range(n), k) picks on the generator that owns
    getrandbits, leaving that generator in the same state.  Like the stdlib,
    it takes the pool branch when an n-list is smaller than a k-set and the
    set branch otherwise, and draws each index as Random._randbelow does:
    random bits of the bound's length, redrawn until below the bound."""
    setsize = 21  # the stdlib's crossover: a small set's size less an empty list's
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        steps = [(n - i, (n - i).bit_length()) for i in range(k)]

        def draw(getrandbits, values):
            pool = values[:]
            chosen = []
            for size, bits in steps:
                j = getrandbits(bits)
                while j >= size:
                    j = getrandbits(bits)
                chosen.append(pool[j])
                pool[j] = pool[size - 1]
            return chosen
    else:
        bits = n.bit_length()

        def draw(getrandbits, values):
            selected = set()
            chosen = []
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                selected.add(j)
                chosen.append(values[j])
            return chosen

    return draw


def _gate(
    check: str,
    probability,
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
    settings: dict,
) -> EventRateCheck:
    """Sample how often a canonical weight-w input fires exactly the first s
    tests, after flipping each outcome at rate settings.get("q", 0), and
    gate that frequency against its exact ensemble average
    probability(params, w, s).  `settings` holds the check's own config
    keys, which follow n.

    A trial draws only what the event reads: the right sockets that the w*l
    defect sockets land on, an ordered sample distributed exactly like the
    first w*l entries of a uniform wiring, drawn as
    random.Random.sample(range(n*l), w*l) would draw it (_sample_replay).
    All trials draw their sockets from one "graph" stream and their flips
    from one "noise" stream, each seeded once per call; q = 0 never reads
    the noise stream, since no flip can fire then."""
    if trials < 1:
        raise InputError("trials must be positive")
    _check_degrees(params.l, params.r)
    exact = float(probability(params, w, s))
    q = settings.get("q", 0.0)
    m, nl = params.m, params.num_sockets
    test_bits = [1 << (k // params.r) for k in range(nl)]
    draw = _sample_replay(nl, w * params.l)
    getrandbits = random.Random(derive_seed(master_seed, "graph", 0)).getrandbits
    noise = random.Random(derive_seed(master_seed, "noise", 0))
    target = (1 << s) - 1
    hits = 0
    for _ in range(trials):
        mask = 0
        for bit in draw(getrandbits, test_bits):
            mask |= bit
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
    config = {
        "check": check,
        "l": params.l,
        "r": params.r,
        "n": params.n,
        **settings,
        "w": w,
        "s": s,
        "trials": trials,
        "master_seed": master_seed,
    }
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

    return _gate(
        "noiseless-event-rate", ensemble_event_probability, params, w, s, trials,
        master_seed, {},
    )


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

    return _gate(
        "noisy-event-rate", noisy_ensemble_event_probability, params, w, s, trials,
        master_seed, {"q": float(params.q)},
    )

"""Seeded trial harnesses for the decoder and for the exact ensemble formulas.

Every decoding trial draws from its own RNG stream, seeded by
derive_seed(master seed, stream label, trial index), so its outcome does
not depend on which other trials ran or in what order.  A trial whose x or
flips fall outside their typicality windows is an error whatever the
graph, so a graph is drawn only for a trial that passed both checks; each
graph has its own seed, so skipping one moves no other draw.  A run keeps
one generator for the trials and one for the graphs and reseeds it for
each stream: Random.seed(int) resets the whole Mersenne Twister state, so
every stream is the one random.Random(seed) gives, without building a
generator per trial.  The event-rate gates only count hits, so each gate
seeds one stream per label once and draws every trial from it, the
sockets of a block of trials in one call.  Each harness is one serial loop.

The graph draws replay random.Random.shuffle through the generator's
getrandbits, drawing each index as Random._randbelow does, so a trial's
stream and its seeded report are the ones the stdlib call gives, without
its per-call overhead.  A gate runs only the first w*l steps of that
shuffle: they fix the last w*l entries of the list, a uniform ordered
sample of its sockets (Knuth, TAOCP vol. 2, sec. 3.4.2, Algorithm P).

A decoding trial fails when the decision set holds a typical input
besides x, itself always a member.  Such a second member is most often one
object away from x: a hidden non-defective added, a masked defective
dropped, or one swapped for another (Aldridge, Baldassini and Johnson,
IEEE Trans. IT 2014).  So those supports are tried first, and the
decoder's scan, capped at two supports, runs only when none of them is a
member or when they outnumber the scan's node limit.

Noiseless is the flip rate q = 0: the noiseless trials and gate run the
noisy loop and gate at q = 0, which never draw a flip.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Callable

from .ensemble import (
    SystemParams,
    _object_masks,
    _partial_shuffles,
    _shuffle,
    _shuffle_steps,
    _test_bits,
)
from .errors import InputError
from .estimators import (
    TypicalSetSpec,
    _check_guard,
    _has_other_member,
    typical_weight_set,
)
from .genfunc import noisy_ensemble_event_probability

Z_GATE = 4.0
GATE_BLOCK = 1 << 14  # gate trials whose masks are held at once
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
        return asdict(self)


def _mask_sampler(params: SystemParams) -> Callable[[int], list[int]]:
    """masks(seed): the object masks of sample_graph(params, seed), mask i
    having bit j set when object i feeds test j.  The shuffle moves each
    right socket's test bit in place of the socket index, so the shuffled
    list holds the left sockets' test bits, and no PoolingGraph is built.
    One generator, reseeded for each graph, draws them all."""
    l = params.l
    test_bits = _test_bits(params)
    steps = _shuffle_steps(len(test_bits))
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits

    def masks(seed: int) -> list[int]:
        reseed(seed)
        wiring = test_bits[:]
        _shuffle(getrandbits, wiring, steps)
        return _object_masks(wiring, l)

    return masks


def _run_trials(
    mode: str,
    params: SystemParams,
    epsilon_input: float,
    epsilon_noise: float,
    trials: int,
    master_seed: int,
    graph_mode: str,
    settings: dict,
) -> TrialReport:
    """Decode `trials` random observations with outcomes flipped at rate
    params.q, read once as a float, and count failures by first cause.  So
    a Fraction q draws the flips of its float.  `settings` holds the mode's
    own config keys, which follow p.

    A trial draws only what its first failing check reads: x from its own
    stream; then, when x is typical and q != 0, the flips from the same
    stream; and only when both are typical, its graph's object masks (a
    fixed graph's are drawn once per run).  Skipping the flips or the graph
    moves no other draw: the flips are the last draws of the trial's
    stream, and each graph has its own seed.  The trial ORs its defects'
    masks into y, XORs the flip mask into that, and counts an error when
    the decision set holds another member: one object from x, else found by
    the decoder's scan capped at two supports."""
    if graph_mode not in ("fixed", "fresh"):
        raise InputError(f"graph_mode {graph_mode!r} is not 'fixed' or 'fresh'")
    if trials < 0:
        raise InputError("trials must be nonnegative")
    n, m, p, q = params.n, params.m, params.p, float(params.q)
    # an n past the float range is a usage error, not a guard refusal
    x_spec = TypicalSetSpec(n, p, epsilon_input)
    _check_guard(params)
    x_weights = typical_weight_set(x_spec)
    e_weights = typical_weight_set(TypicalSetSpec(m, q, epsilon_noise))
    graph_masks = _mask_sampler(params)
    fixed = (
        graph_masks(derive_seed(master_seed, "fixed-graph", 0))
        if graph_mode == "fixed"
        else None
    )
    test_bits = [1 << j for j in range(m)]
    rng = random.Random()
    reseed, draw = rng.seed, rng.random
    source_atypical = noise_atypical = ambiguous = 0
    for i in range(trials):
        reseed(derive_seed(master_seed, "trial", i))
        support = [k for k in range(n) if draw() < p]
        if len(support) not in x_weights:
            source_atypical += 1
            continue
        flip_mask = 0
        if q:
            for bit in test_bits:
                if draw() < q:
                    flip_mask |= bit
        if flip_mask.bit_count() not in e_weights:
            noise_atypical += 1
            continue
        masks = fixed or graph_masks(derive_seed(master_seed, "graph", i))
        y = 0
        for k in support:
            y |= masks[k]
        # the flips act on the OR outcome, so they go in after every mask
        y ^= flip_mask
        if _has_other_member(masks, y, e_weights, x_weights, support):
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
) -> TrialReport:
    """Decode `trials` random noiseless observations and count failures:
    the noisy harness at q = 0, whatever params.q says."""
    return _run_trials(
        "noiseless", replace(params, q=0), epsilon, 0.0, trials, master_seed, graph_mode,
        {"epsilon": epsilon},
    )


def run_noisy_trials(
    params: SystemParams,
    epsilon_input: float,
    epsilon_noise: float,
    trials: int,
    master_seed: int,
    graph_mode: str = "fresh",
) -> TrialReport:
    """Decode `trials` random observations with flipped outcomes and count
    failures.  With q = 0 only the all-zero flip pattern is typical, so the
    run reproduces run_noiseless_trials trial for trial at the same seed."""
    settings = {"q": float(params.q), "epsilon_input": epsilon_input, "epsilon_noise": epsilon_noise}
    return _run_trials(
        "noisy", params, epsilon_input, epsilon_noise, trials, master_seed, graph_mode,
        settings,
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
    check: str,
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
    settings: dict,
) -> EventRateCheck:
    """Sample how often a canonical weight-w input fires exactly the first s
    tests, after flipping each outcome at rate params.q, and gate that
    frequency against its exact ensemble average
    noisy_ensemble_event_probability(params, w, s).  `settings` holds the
    check's own config keys, which follow n.

    A trial draws only what the event reads: the tests that the w*l
    defect sockets land on.  It runs the first w*l steps of the trials'
    shuffle on one list of test bits, kept across trials, and ORs the w*l
    entries they fix, an ordered sample distributed exactly like the first
    w*l entries of a uniform wiring whatever order the list starts in.  All
    trials draw their sockets from one "graph" stream and their flips from
    one "noise" stream, each seeded once per call.  The sockets of a block
    of up to GATE_BLOCK trials are drawn in one _partial_shuffles call, and
    then the block's flips, trial by trial in test order: the streams are
    separate, so this moves no draw.  q = 0 never reads the noise stream,
    since no flip can fire then."""
    if trials < 1:
        raise InputError("trials must be positive")
    exact = float(noisy_ensemble_event_probability(params, w, s))
    q = float(params.q)
    m, nl, wl = params.m, params.num_sockets, w * params.l
    wiring = _test_bits(params)
    steps = _shuffle_steps(nl)[:wl]
    getrandbits = random.Random(derive_seed(master_seed, "graph", 0)).getrandbits
    noise = random.Random(derive_seed(master_seed, "noise", 0)).random
    test_bits = [1 << j for j in range(m)]
    target = (1 << s) - 1
    hits = 0
    for start in range(0, trials, GATE_BLOCK):
        rounds = min(GATE_BLOCK, trials - start)
        if wl < nl:
            masks = _partial_shuffles(getrandbits, wiring, steps, rounds)
        else:
            # the steps fix every entry but the first; the sample is then the
            # whole list, which lights every test whatever the wiring
            masks = [(1 << m) - 1] * rounds
        if q:
            for t, mask in enumerate(masks):
                for bit in test_bits:
                    if noise() < q:
                        mask ^= bit
                masks[t] = mask
        hits += masks.count(target)
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
    return _gate(
        "noiseless-event-rate", replace(params, q=0), w, s, trials, master_seed, {}
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
    return _gate(
        "noisy-event-rate", params, w, s, trials, master_seed, {"q": float(params.q)}
    )

"""Brute-force references that the tests check the package against.

None of these is part of pooltest.  Each is the direct form of something
the package computes by a faster route: every wiring of the ensemble,
every input of the decoder, the exponent's inner infimum one sigma at a
time, the decoding trials from the stdlib's own RNG calls, a gate's
trials drawn one at a time.  The tests compare the two at toy
sizes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator, Sequence

from pooltest import (
    GuardError,
    InputError,
    PoolingGraph,
    SystemParams,
    TestFunction,
    TypicalSetSpec,
    forward_or,
    typical_weight_set,
)
from pooltest.ensemble import (
    _check_arity,
    _shuffle,
    _shuffle_steps,
    _test_bits,
)
from pooltest.estimators import _check_guard, _scan_or_consistent
from pooltest.genfunc import (
    _check_exponent_args,
    _log_terms,
    _minimax_1d,
    noisy_ensemble_event_probability,
    or_pool_poly,
)
from pooltest.montecarlo import (
    CONFIDENCE_FACTOR,
    Z_GATE,
    EventRateCheck,
    TrialReport,
    derive_seed,
)


def weight_vector(n: int, w: int) -> tuple[int, ...]:
    """The canonical 0/1 vector of length n and weight w (ones first)."""
    return (1,) * w + (0,) * (n - w)


def compositions_recursive(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: each first part in turn, then the rest recursively."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions_recursive(total - first, parts - 1):
            yield (first,) + rest


def type_vector_representative(alphabet: Sequence, counts: Sequence[int]) -> tuple:
    """The canonical vector with the given symbol counts, in alphabet order."""
    if len(counts) != len(alphabet):
        raise InputError("counts length must match alphabet size")
    out: list = []
    for sym, c in zip(alphabet, counts):
        if c < 0:
            raise InputError("counts must be nonnegative")
        out.extend([sym] * c)
    return tuple(out)


# ---------------------------------------------------------------------------
# the ensemble, wiring by wiring
# ---------------------------------------------------------------------------

# at most 10! = 3628800 wirings per walk
ENUMERATION_SOCKET_LIMIT = 10


def enumerate_ensemble(params: SystemParams) -> Iterator[PoolingGraph]:
    """Yield every wiring exactly once, in lexicographic order.

    Refuses systems with more than ENUMERATION_SOCKET_LIMIT sockets; the
    count is (n*l)! and grows out of reach immediately after that.
    """
    nl = params.num_sockets
    if nl > ENUMERATION_SOCKET_LIMIT:
        raise GuardError(
            f"enumeration over {nl}! wirings refused (limit {ENUMERATION_SOCKET_LIMIT} sockets)"
        )
    for perm in itertools.permutations(range(nl)):
        yield PoolingGraph(params, perm)


def object_tests(graph: PoolingGraph) -> list[tuple[int, ...]]:
    """For each object, the tests it feeds (repeats kept for parallel edges)."""
    l, r = graph.params.l, graph.params.r
    return [
        tuple(graph.wiring[k] // r for k in range(i * l, (i + 1) * l))
        for i in range(graph.params.n)
    ]


def test_pools(graph: PoolingGraph) -> list[list[int]]:
    """For each test, the objects pooled into it (repeats kept)."""
    l, r = graph.params.l, graph.params.r
    pools: list[list[int]] = [[] for _ in range(graph.params.m)]
    for k, rk in enumerate(graph.wiring):
        pools[rk // r].append(k // l)
    return pools


test_pools.__test__ = False  # a helper, not a pytest test


def value_for_type(f: TestFunction, counts: Sequence[int]):
    """The output symbol f gives a pool with these symbol counts."""
    return f.output_alphabet[f.table[tuple(counts)]]


def forward_general(graph: PoolingGraph, f: TestFunction, x: Sequence) -> tuple:
    """Outcome of every pooled test under an arbitrary symmetric test function."""
    params = graph.params
    _check_arity(f, params.r)
    if len(x) != params.n:
        raise InputError(f"x has length {len(x)}, expected n={params.n}")
    idx = {a: i for i, a in enumerate(f.input_alphabet)}
    try:
        xi = [idx[v] for v in x]
    except KeyError as e:
        raise InputError(f"symbol {e.args[0]!r} not in input alphabet") from None
    l, r = params.l, params.r
    u = f.num_inputs
    counts = [[0] * u for _ in range(params.m)]
    for k, rk in enumerate(graph.wiring):
        counts[rk // r][xi[k // l]] += 1
    return tuple(value_for_type(f, c) for c in counts)


def threshold_function(r: int, threshold: int) -> TestFunction:
    """Fires iff at least `threshold` pooled objects are defective."""
    table = {(r - w, w): (1 if w >= threshold else 0) for w in range(r + 1)}
    return TestFunction((0, 1), (0, 1), r, table)


def parity_function(r: int) -> TestFunction:
    """Reports the parity of the number of defective objects in the pool."""
    table = {(r - w, w): w % 2 for w in range(r + 1)}
    return TestFunction((0, 1), (0, 1), r, table)


# ---------------------------------------------------------------------------
# the decoder, input by input
# ---------------------------------------------------------------------------


def brute_force_decision_set_noiseless(
    graph: PoolingGraph, spec: TypicalSetSpec, y: Sequence[int]
) -> list[tuple[int, ...]]:
    """Scan all 2^n inputs with no weight pruning: the typical ones whose
    OR outcome is y."""
    params = graph.params
    if params.n > 20:
        raise GuardError(f"brute-force decoding over n={params.n} objects refused (limit 20)")
    y = tuple(y)
    weights = typical_weight_set(spec)
    members = []
    for bits in range(2**params.n):
        x = tuple((bits >> i) & 1 for i in range(params.n))
        if sum(x) in weights and forward_or(graph, x) == y:
            members.append(x)
    return members


def brute_force_scan(
    masks: list[int], target: int, flips: frozenset[int], weights: frozenset[int]
) -> list[tuple[int, ...]]:
    """Every support whose weight lies in `weights` and whose union of masks
    differs from `target` in a number of tests that lies in `flips`, in
    tuple order, which is the pre-order of a depth-first scan."""
    members = []
    for support in itertools.chain.from_iterable(
        itertools.combinations(range(len(masks)), k) for k in sorted(weights)
    ):
        union = 0
        for i in support:
            union |= masks[i]
        if (union ^ target).bit_count() in flips:
            members.append(support)
    return sorted(members)


# ---------------------------------------------------------------------------
# the inner infimum of the noiseless direct exponent, one sigma at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Infimum:
    """Result of a 1-D infimum: `bounded` is False when the objective is
    unbounded below, in which case `value` is -inf and must not be compared
    against finite results without checking the flag."""

    value: float
    z: float | None
    bounded: bool


def exponent_infimum(sigma: float, l: int, r: int, p: float) -> Infimum:
    """inf over z > 0 of sigma*log2((1+z)^r - 1) - l*p*log2(z).

    Unbounded below (flagged sentinel) whenever sigma falls outside
    [l*p/r, l*p]; in particular at sigma = 0 for any p > 0.  At either end
    of that window the slope in u = log2 z levels off toward a boundary and
    the infimum is the limit there.
    """
    _check_exponent_args(l, r, p)
    if not 0 <= sigma <= l / r:
        raise InputError(f"sigma={sigma} outside [0, l/r]")
    lp = l * p
    # slopes in u: sigma - lp as z -> 0, sigma*r - lp as z -> inf
    if sigma > lp or sigma * r < lp:
        return Infimum(-math.inf, None, False)
    if sigma == lp:
        return Infimum(sigma * math.log2(r), None, True)
    if sigma * r == lp:
        return Infimum(0.0, None, True)
    u_star, val, *_ = _minimax_1d([_log_terms(or_pool_poly(r))], sigma, lp)
    return Infimum(val, 2.0**u_star, True)


# ---------------------------------------------------------------------------
# the trial harness, rebuilt from the stdlib's calls
# ---------------------------------------------------------------------------


def stdlib_run_trials(
    mode: str,
    params: SystemParams,
    epsilon_input: float,
    epsilon_noise: float,
    trials: int,
    master_seed: int,
    graph_mode: str,
    settings: dict | None = None,
) -> TrialReport:
    """montecarlo._run_trials from the stdlib's own calls: one
    random.Random per stream label, seeded once; x drawn by random() from
    "trial"; the flips of a typical x by random() from "noise", one per
    test, never at q = 0; and the graph of a trial whose x and flips are
    typical by Random.shuffle of a fresh list(range(n*l)) on "graph" (on
    "fixed-graph", once, for a fixed graph).  Each object's mask is the OR
    of the tests object_tests gives it, and the decoder's scan alone decides
    the trial.  The same streams, so the same report."""
    if graph_mode not in ("fixed", "fresh"):
        raise InputError(f"graph_mode {graph_mode!r} is not 'fixed' or 'fresh'")
    if trials < 0:
        raise InputError("trials must be nonnegative")
    n, m, p, q = params.n, params.m, params.p, float(params.q)
    x_spec = TypicalSetSpec(n, p, epsilon_input)
    _check_guard(params)
    x_weights = typical_weight_set(x_spec)
    e_weights = typical_weight_set(TypicalSetSpec(m, q, epsilon_noise))
    xs, noise, graphs, fixed_graph = (
        random.Random(derive_seed(master_seed, label, 0))
        for label in ("trial", "noise", "graph", "fixed-graph")
    )

    def object_masks(rng: random.Random) -> list[int]:
        wiring = list(range(params.num_sockets))
        rng.shuffle(wiring)
        graph = PoolingGraph(params, wiring)
        return [reduce(or_, (1 << j for j in tests)) for tests in object_tests(graph)]

    fixed = object_masks(fixed_graph) if graph_mode == "fixed" else None
    source_atypical = noise_atypical = ambiguous = 0
    for _ in range(trials):
        support = tuple(k for k in range(n) if xs.random() < p)
        if len(support) not in x_weights:
            source_atypical += 1
            continue
        flips = [j for j in range(m) if noise.random() < q] if q else []
        if len(flips) not in e_weights:
            noise_atypical += 1
            continue
        masks = fixed or object_masks(graphs)
        y = 0
        for k in support:
            y |= masks[k]
        for j in flips:
            y ^= 1 << j
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
        **(settings or {}),
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


# ---------------------------------------------------------------------------
# the event-rate gate, one trial at a time
# ---------------------------------------------------------------------------


def loop_gate(
    check: str,
    params: SystemParams,
    w: int,
    s: int,
    trials: int,
    master_seed: int,
    settings: dict,
) -> EventRateCheck:
    """montecarlo._gate as it was before a gate drew its trials' sockets in
    one call: each trial runs the first w*l shuffle steps, ORs the last w*l
    entries of the list and then draws its flips.  The same streams, so the
    same check."""
    if trials < 1:
        raise InputError("trials must be positive")
    exact = float(noisy_ensemble_event_probability(params, w, s))
    q = float(params.q)
    m, nl, wl = params.m, params.num_sockets, w * params.l
    wiring = _test_bits(params)
    steps = _shuffle_steps(nl)[:wl]
    getrandbits = random.Random(derive_seed(master_seed, "graph", 0)).getrandbits
    noise = random.Random(derive_seed(master_seed, "noise", 0))
    target = (1 << s) - 1
    hits = 0
    for _ in range(trials):
        _shuffle(getrandbits, wiring, steps)
        mask = 0
        for bit in wiring[nl - wl:]:
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

"""Typicality-based estimators, implemented as executable definitions.

The decoder observes the m test outcomes and searches the typical set of
inputs for those consistent with them; it answers only when exactly one
input survives.  Everything is exhaustive enumeration over a weight
window, so each scan is budgeted, but the OR structure lets the scan prune
and stop early once ambiguity is certain.

The prune is a flip budget.  A test outside y that a partial support lights
can only be explained by a flip, and it stays lit as objects are added, so
a support lighting more such tests than the largest typical flip count has
no accepted extension and is dropped with its subtree.

Noiseless decoding is the noisy decoder at flip rate q = 0: only the
all-zero flip pattern is typical, so the window is {0} and the budget is 0,
which is COMP: no object wired into a clear test is tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import binary_entropy
from .ensemble import PoolingGraph, SystemParams, _object_masks, _test_bits
from .errors import GuardError, InputError

DEFAULT_EPSILON = 0.1
# typical_weight_set walks every weight 0..n, about 0.7 s at this n
WEIGHT_WALK_LIMIT = 10**6
# n*l*m: the decoder holds one test bit per right socket, each up to m bits
# wide and about m/2 on average, so this is about 128 MB of them
TEST_BITS_LIMIT = 2**31
# supports one decoder scan may try, about 2-4 s of scanning
SCAN_NODE_LIMIT = 2**22


@dataclass(frozen=True)
class TypicalSetSpec:
    """Membership window for i.i.d. Bernoulli(p) sequences of length n:
    a sequence is typical when its per-symbol information rate sits within
    epsilon bits of the source entropy."""

    n: int
    p: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("n must be positive")
        try:
            float(self.n)
        except OverflowError:
            raise InputError("n must lie within the float range") from None
        if not 0 <= self.p <= 1:
            raise InputError(f"p={self.p} outside [0, 1]")
        if not self.epsilon >= 0:  # also rejects NaN
            raise InputError(f"epsilon={self.epsilon} must be nonnegative")

    @property
    def entropy(self) -> float:
        return binary_entropy(self.p)


def weight_rate(spec: TypicalSetSpec, w: int) -> float:
    """-(1/n) log2 Pr(x) for any weight-w vector; +inf for impossible weights."""
    if not 0 <= w <= spec.n:
        raise InputError(f"weight {w} outside [0, {spec.n}]")
    p = spec.p
    if p == 0:
        return 0.0 if w == 0 else math.inf
    if p == 1:
        return 0.0 if w == spec.n else math.inf
    return (-w * math.log2(p) - (spec.n - w) * math.log2(1 - p)) / spec.n


def typical_weight_set(spec: TypicalSetSpec) -> frozenset[int]:
    """All weights whose sequences are typical, h - epsilon <= rate <= h + epsilon
    with h the source entropy (contiguous; possibly empty).  Walks every
    weight, so n above WEIGHT_WALK_LIMIT is refused."""
    if spec.n > WEIGHT_WALK_LIMIT:
        raise GuardError(
            f"typical-set walk over the weights 0..{spec.n} refused (limit n={WEIGHT_WALK_LIMIT})"
        )
    h = spec.entropy
    return frozenset(
        w
        for w in range(spec.n + 1)
        if h - spec.epsilon <= weight_rate(spec, w) <= h + spec.epsilon
    )


@dataclass(frozen=True)
class Estimate:
    """Estimator output: the recovered vector, or None for the failure symbol.

    decision_count is the number of consistent typical inputs the scan saw;
    when a scan cap was set it stops at the cap, so a value equal to the cap
    means "at least this many"."""

    value: tuple[int, ...] | None
    decision_count: int

    @property
    def failed(self) -> bool:
        return self.value is None


def _check_guard(params: SystemParams) -> None:
    """Refuse a system whose test bits would not fit in memory, before any
    of them is built."""
    bits = params.n * params.l * params.m
    if bits > TEST_BITS_LIMIT:
        raise GuardError(
            f"decoding with n*l*m = {bits} socket test bits refused "
            f"(limit {TEST_BITS_LIMIT})"
        )


def _vector_mask(bits: Sequence[int]) -> int:
    mask = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise InputError("observation must be a 0/1 vector")
        if b:
            mask |= 1 << j
    return mask


def _support_to_vector(support: tuple[int, ...], n: int) -> tuple[int, ...]:
    x = [0] * n
    for i in support:
        x[i] = 1
    return tuple(x)


def _scan_or_consistent(
    masks: list[int],
    target: int,
    flips: frozenset[int],
    weights: frozenset[int],
    cap: int | None,
) -> list[tuple[int, ...]]:
    """Depth-first scan over supports, collecting in pre-order those whose
    weight is typical and whose union-of-pools mask differs from `target`
    in a number of tests that lies in the noise window `flips`.

    A support that lights more than max(flips) tests outside `target` is
    pruned together with everything below it, since that count only grows
    along a branch.  At budget 0 the per-object filter already enforces the
    bound, so the scan skips the per-node check.

    The scan backtracks iteratively (Knuth, TAOCP 7.2.2), so its depth is
    not bounded by the interpreter's stack.  It counts the supports it
    tries and refuses with GuardError once they pass SCAN_NODE_LIMIT."""
    found: list[tuple[int, ...]] = []
    if not weights or not flips:
        return found
    budget = max(flips)
    outside = ~target
    candidates = [
        i for i in range(len(masks)) if (masks[i] & outside).bit_count() <= budget
    ]
    candidate_masks = [masks[i] for i in candidates]
    c = len(candidates)
    w_max = max(weights)
    path: list[int] = []  # candidate positions of the support being visited
    unions = [0]  # unions[d]: union mask of the first d objects on the path
    nxt = tried = 0  # nxt: position of the next candidate to try below it
    while True:
        depth = len(path)
        if depth in weights and (unions[-1] ^ target).bit_count() in flips:
            found.append(tuple(candidates[j] for j in path))
            if cap is not None and len(found) >= cap:
                return found
        if depth == w_max:
            nxt = c
        # the next support in pre-order adds the first unpruned candidate
        # from nxt on, after backing up past every support that has none
        while True:
            parent = unions[-1]
            while nxt < c:
                child = parent | candidate_masks[nxt]
                if not budget or (child & outside).bit_count() <= budget:
                    break
                nxt += 1
            if nxt < c:
                break
            if not path:
                return found
            nxt = path.pop() + 1
            unions.pop()
        tried += 1
        if tried > SCAN_NODE_LIMIT:
            raise GuardError(
                f"decoder scan over {c} candidate objects refused "
                f"(limit {SCAN_NODE_LIMIT} supports)"
            )
        path.append(nxt)
        unions.append(child)
        nxt += 1


def decision_set_noiseless(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    y: Sequence[int],
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """All typical inputs whose noiseless OR outcome equals y, as vectors:
    the noisy decision set at flip rate 0, whose noise window is {0}."""
    noise_spec = TypicalSetSpec(graph.params.m, 0.0, 0.0)
    return decision_set_noisy(graph, spec, noise_spec, y, cap)


def decision_set_noisy(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    noise_spec: TypicalSetSpec,
    y: Sequence[int],
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """All typical inputs x such that the flip pattern y xor F_G(x) is itself
    a typical noise vector; with `cap`, at least 1, only the first cap of
    them in scan order."""
    params = graph.params
    if spec.n != params.n:
        raise InputError("typicality window length differs from the system size")
    if noise_spec.n != params.m:
        raise InputError("noise window length differs from the test count")
    if len(y) != params.m:
        raise InputError(f"y has length {len(y)}, expected m={params.m}")
    _check_cap(cap, 1)
    _check_guard(params)
    bits = _test_bits(params)
    supports = _scan_or_consistent(
        _object_masks([bits[k] for k in graph.wiring], params.l),
        _vector_mask(y),
        typical_weight_set(noise_spec),
        typical_weight_set(spec),
        cap,
    )
    return [_support_to_vector(s, params.n) for s in supports]


def _check_cap(cap: int | None, least: int) -> None:
    if cap is not None and cap < least:
        raise InputError(f"cap={cap} must be at least {least}")


def _to_estimate(members: list[tuple[int, ...]]) -> Estimate:
    if len(members) == 1:
        return Estimate(members[0], 1)
    return Estimate(None, len(members))


def estimate_noiseless(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    y: Sequence[int],
    cap: int | None = None,
) -> Estimate:
    """The unique typical input consistent with y, or failure.

    `cap` bounds the scan; 2 is enough to decide success and is what the
    trial harness uses.  A smaller cap is refused: a scan stopped at one
    member cannot tell whether it is the only one.  With the default (no
    cap) decision_count is |D(y)|.
    """
    _check_cap(cap, 2)
    return _to_estimate(decision_set_noiseless(graph, spec, y, cap))


def estimate_noisy(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    noise_spec: TypicalSetSpec,
    y: Sequence[int],
    cap: int | None = None,
) -> Estimate:
    """The unique typical input explaining y through a typical flip pattern,
    or failure; `cap` as for estimate_noiseless."""
    _check_cap(cap, 2)
    return _to_estimate(decision_set_noisy(graph, spec, noise_spec, y, cap))

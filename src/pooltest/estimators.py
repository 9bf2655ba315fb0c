"""Typicality-based estimators, implemented as executable definitions.

The decoder observes the m test outcomes and searches the typical set of
inputs for those consistent with them; it answers only when exactly one
input survives.  Everything is exhaustive enumeration over a weight
window, so n is guarded, but the OR structure lets the scan prune and stop
early once ambiguity is certain.

The prune is a flip budget.  A test outside y that a partial support lights
can only be explained by a flip, and it stays lit as objects are added, so
a support lighting more such tests than the largest typical flip count has
no accepted extension and is dropped with its subtree.  Noiseless decoding
is budget 0, which is COMP: no object wired into a clear test is tried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bounds import binary_entropy
from .ensemble import PoolingGraph, forward_or
from .errors import EmptyTypicalSetError, GuardError, InputError

DEFAULT_EPSILON = 0.1
ENUMERATION_LIMIT = 24


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
    """All weights whose sequences are typical (contiguous; possibly empty)."""
    h = spec.entropy
    return frozenset(
        w
        for w in range(spec.n + 1)
        if h - spec.epsilon <= weight_rate(spec, w) <= h + spec.epsilon
    )


def typical_weights(spec: TypicalSetSpec) -> tuple[int, int]:
    """Smallest and largest typical weight.  Raises when no weight qualifies,
    which genuinely happens for small n and tight epsilon."""
    weights = typical_weight_set(spec)
    if not weights:
        raise EmptyTypicalSetError(
            f"no weight in [0, {spec.n}] is typical for p={spec.p}, eps={spec.epsilon}"
        )
    return min(weights), max(weights)


def is_typical(spec: TypicalSetSpec, x: Sequence[int]) -> bool:
    if len(x) != spec.n:
        raise InputError(f"x has length {len(x)}, expected {spec.n}")
    h = spec.entropy
    return abs(weight_rate(spec, sum(x)) - h) <= spec.epsilon


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


def _check_guard(n: int, limit: int) -> None:
    if n > limit:
        raise GuardError(
            f"exhaustive decoding over n={n} objects refused (limit {limit})"
        )


def _object_masks(graph: PoolingGraph) -> list[int]:
    l, r = graph.params.l, graph.params.r
    masks = []
    for i in range(graph.params.n):
        mask = 0
        for k in range(i * l, (i + 1) * l):
            mask |= 1 << (graph.wiring[k] // r)
        masks.append(mask)
    return masks


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
    budget: int,
    weights: frozenset[int],
    accept,
    cap: int | None,
) -> list[tuple[int, ...]]:
    """Depth-first scan over supports, collecting those whose weight is
    typical and whose union-of-pools mask is accepted.

    A support that lights more than `budget` tests outside `target` is
    pruned together with everything below it, since that count only grows
    along a branch.  At budget 0 the per-object filter already enforces the
    bound, so the scan skips the per-node check."""
    found: list[tuple[int, ...]] = []
    if not weights:
        return found
    outside = ~target
    candidates = [
        i for i in range(len(masks)) if (masks[i] & outside).bit_count() <= budget
    ]
    w_max = max(weights)
    chosen: list[int] = []

    def rec(start: int, mask: int) -> bool:
        depth = len(chosen)
        if depth in weights and accept(mask):
            found.append(tuple(chosen))
            if cap is not None and len(found) >= cap:
                return True
        if depth == w_max:
            return False
        for idx in range(start, len(candidates)):
            child = mask | masks[candidates[idx]]
            if budget and (child & outside).bit_count() > budget:
                continue
            chosen.append(candidates[idx])
            if rec(idx + 1, child):
                return True
            chosen.pop()
        return False

    rec(0, 0)
    return found


def decision_set_noiseless(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    y: Sequence[int],
    enumeration_limit: int = ENUMERATION_LIMIT,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """All typical inputs whose noiseless OR outcome equals y, as vectors."""
    params = graph.params
    if spec.n != params.n:
        raise InputError("typicality window length differs from the system size")
    if len(y) != params.m:
        raise InputError(f"y has length {len(y)}, expected m={params.m}")
    _check_guard(params.n, enumeration_limit)
    weights = typical_weight_set(spec)
    masks = _object_masks(graph)
    target = _vector_mask(y)
    # no flips: an object wired into any clear test is never defective
    supports = _scan_or_consistent(
        masks, target, 0, weights, lambda mask: mask == target, cap
    )
    return [_support_to_vector(s, params.n) for s in supports]


def decision_set_noisy(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    noise_spec: TypicalSetSpec,
    y: Sequence[int],
    enumeration_limit: int = ENUMERATION_LIMIT,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """All typical inputs x such that the flip pattern y xor F_G(x) is itself
    a typical noise vector."""
    params = graph.params
    if spec.n != params.n:
        raise InputError("typicality window length differs from the system size")
    if noise_spec.n != params.m:
        raise InputError("noise window length differs from the test count")
    if len(y) != params.m:
        raise InputError(f"y has length {len(y)}, expected m={params.m}")
    _check_guard(params.n, enumeration_limit)
    weights = typical_weight_set(spec)
    noise_weights = typical_weight_set(noise_spec)
    masks = _object_masks(graph)
    target = _vector_mask(y)
    if not noise_weights:
        return []

    def accept(mask: int) -> bool:
        return (mask ^ target).bit_count() in noise_weights

    # a wrongly lit test needs a flip, so at most max(noise window) of them
    supports = _scan_or_consistent(
        masks, target, max(noise_weights), weights, accept, cap
    )
    return [_support_to_vector(s, params.n) for s in supports]


def _to_estimate(members: list[tuple[int, ...]]) -> Estimate:
    if len(members) == 1:
        return Estimate(members[0], 1)
    return Estimate(None, len(members))


def estimate_noiseless(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    y: Sequence[int],
    enumeration_limit: int = ENUMERATION_LIMIT,
    cap: int | None = None,
) -> Estimate:
    """The unique typical input consistent with y, or failure.

    `cap` bounds the scan; 2 is enough to decide success and is what the
    trial harness uses.  With the default (no cap) decision_count is |D(y)|.
    """
    return _to_estimate(decision_set_noiseless(graph, spec, y, enumeration_limit, cap))


def estimate_noisy(
    graph: PoolingGraph,
    spec: TypicalSetSpec,
    noise_spec: TypicalSetSpec,
    y: Sequence[int],
    enumeration_limit: int = ENUMERATION_LIMIT,
    cap: int | None = None,
) -> Estimate:
    """The unique typical input explaining y through a typical flip pattern,
    or failure."""
    return _to_estimate(
        decision_set_noisy(graph, spec, noise_spec, y, enumeration_limit, cap)
    )


def brute_force_decision_set_noiseless(
    graph: PoolingGraph, spec: TypicalSetSpec, y: Sequence[int]
) -> list[tuple[int, ...]]:
    """Reference implementation: scan all 2^n inputs with no weight pruning.
    Only for cross-checking the pruned scan in tests."""
    params = graph.params
    _check_guard(params.n, 20)
    y = tuple(y)
    members = []
    for bits in range(2**params.n):
        x = tuple((bits >> i) & 1 for i in range(params.n))
        if is_typical(spec, x) and forward_or(graph, x) == y:
            members.append(x)
    return members

"""Closed-form converse and achievability margins, and the thresholds they imply.

Everything here is a scalar function of the degree pair (l, r) and the
source/noise probabilities.  The converse margin is positive exactly when
reliable recovery is impossible at compression rate l/r; the achievable
margin is negative exactly when a typicality decoder succeeds with
vanishing error.  Their roots in p bracket the critical defect density
from above and below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigurationError, InputError, NoThresholdError

THRESHOLD_SEARCH_MAX = 0.5
THRESHOLD_SCAN_STEP = 1e-3
THRESHOLD_TOL = 1e-9


def binary_entropy(p: float) -> float:
    """h(p) in bits, with 0*log(0) = 0."""
    if not 0 <= p <= 1:
        raise InputError(f"p={p} outside [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def entropy(probs: Sequence[float]) -> float:
    """Entropy in bits of a finite distribution, with 0*log(0) = 0."""
    total = 0.0
    for p in probs:
        if not 0 <= p <= 1:
            raise InputError(f"probability {p} outside [0, 1]")
        if p > 0:
            total -= p * math.log2(p)
    if abs(sum(probs) - 1) > 1e-9:
        raise InputError("probabilities must sum to 1")
    return total


def _check_degrees(l: int, r: int) -> None:
    if l < 1 or r < 1:
        raise ConfigurationError("degrees l and r must be positive integers")


def _check_flip_rate(q: float) -> None:
    if not 0 <= q <= 1:  # also rejects NaN
        raise InputError(f"q={q} outside [0, 1]")


def converse_margin(l: int, r: int, p: float) -> float:
    """Source entropy in excess of the per-object information capacity of
    noiseless OR tests: h(p) - (l/r) h((1-p)^r).  Positive means any
    estimator fails with probability bounded away from zero."""
    _check_degrees(l, r)
    return binary_entropy(p) - (l / r) * binary_entropy((1 - p) ** r)


def noisy_converse_margin(l: int, r: int, p: float, q: float) -> float:
    """Converse margin when each test outcome is flipped with probability q."""
    _check_degrees(l, r)
    _check_flip_rate(q)
    clear = (1 - p) ** r
    flipped = clear * (1 - q) + (1 - clear) * q
    return (
        binary_entropy(p)
        + (l / r) * binary_entropy(q)
        - (l / r) * binary_entropy(flipped)
    )


def fixed_point_z(r: int) -> float:
    """The argument 2^(1/r) - 1 at which a size-r OR pool's weight enumerator
    (1+z)^r - 1 equals one, removing all weight dependence from the exponent."""
    _check_degrees(1, r)
    return 2 ** (1 / r) - 1


def achievable_margin(l: int, r: int, p: float) -> float:
    """-(l-1) h(p) - l p log2(2^(1/r) - 1).  Negative means the typicality
    decoder's error probability vanishes as n grows."""
    _check_degrees(l, r)
    return -(l - 1) * binary_entropy(p) - l * p * math.log2(fixed_point_z(r))


def noisy_achievable_margin(l: int, r: int, p: float, q: float) -> float:
    """Achievable margin with test outcomes flipped at rate q."""
    _check_flip_rate(q)
    return achievable_margin(l, r, p) + (l / r) * binary_entropy(q)


def collision_exponent(l: int, r: int, p: float, sigma: float, z: float) -> float:
    """Growth rate (bits per object) of the expected number of confusable
    typical inputs, before optimizing the generating variable z, for outcome
    weight fraction sigma = s/n.

    The pool enumerator is evaluated as expm1(r log1p(z)) so the fixed
    point stays sigma-independent to machine precision.
    """
    _check_degrees(l, r)
    if not z > 0:
        raise InputError(f"z={z} must be positive")
    if not 0 <= sigma <= l / r:
        raise InputError(f"sigma={sigma} outside [0, l/r]")
    pool = math.expm1(r * math.log1p(z))
    return (
        -(l - 1) * binary_entropy(p)
        + sigma * math.log2(pool)
        - l * p * math.log2(z)
    )


def noisy_collision_factor(r: int, q: float, sigma: float, z: float) -> float:
    """Per-test factor of the noisy confusion count: the firing-pool and
    quiet-pool enumerators mixed at rate q, weighted sigma and 1 - sigma.
    Equals 1 at z = fixed_point_z(r) for every sigma and q."""
    _check_degrees(1, r)
    if not z > 0:
        raise InputError(f"z={z} must be positive")
    _check_flip_rate(q)
    if not 0 <= sigma <= 1:
        raise InputError(f"sigma={sigma} outside [0, 1]")
    pool = math.expm1(r * math.log1p(z))
    fire = pool * (1 - q) + q
    quiet = pool * q + (1 - q)
    return fire**sigma * quiet ** (1 - sigma)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def _bisect_crossing(fn, lo: float, hi: float, tol: float) -> float:
    """Shrink [lo, hi] with fn(lo) <= 0 < fn(hi) down to width tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _first_crossing(fn, what: str, tol: float) -> float:
    lo = THRESHOLD_TOL
    if fn(lo) > 0:
        raise NoThresholdError(f"{what} is already positive at p={lo}")
    p = THRESHOLD_SCAN_STEP
    while p <= THRESHOLD_SEARCH_MAX + 1e-15:
        if fn(p) > 0:
            return _bisect_crossing(fn, lo, p, tol)
        lo = p
        p += THRESHOLD_SCAN_STEP
    raise NoThresholdError(
        f"{what} has no sign change on ({THRESHOLD_TOL}, {THRESHOLD_SEARCH_MAX}]"
    )


def threshold_upper(l: int, r: int, tol: float = THRESHOLD_TOL) -> float:
    """Smallest p at which the converse margin turns positive: recovery is
    impossible above it."""
    _check_degrees(l, r)
    return _first_crossing(lambda p: converse_margin(l, r, p), "converse margin", tol)


def threshold_lower(l: int, r: int, tol: float = THRESHOLD_TOL) -> float:
    """Root of the achievable margin: the decoder provably succeeds below it."""
    _check_degrees(l, r)
    return _first_crossing(lambda p: achievable_margin(l, r, p), "achievable margin", tol)


@dataclass(frozen=True)
class ThresholdPair:
    """Lower (achievability) and upper (converse) critical densities for (l, r)."""

    l: int
    r: int
    p_lower: float
    p_upper: float

    def to_json_dict(self) -> dict:
        return {"l": self.l, "r": self.r, "p_lower": self.p_lower, "p_upper": self.p_upper}


def threshold_pair(l: int, r: int, tol: float = THRESHOLD_TOL) -> ThresholdPair:
    return ThresholdPair(l, r, threshold_lower(l, r, tol), threshold_upper(l, r, tol))


# ---------------------------------------------------------------------------
# curve emission
# ---------------------------------------------------------------------------

CURVE_IDS = (
    "converse-vs-l",
    "converse-vs-p",
    "noisy-converse-vs-p",
    "achievable-vs-p",
    "collision-vs-z",
)


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """steps+1 evenly spaced points including both endpoints."""
    if steps < 1:
        raise InputError("steps must be >= 1")
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


def emit_curve(curve: str, grid: Iterable[float], **fixed) -> list[tuple[float, float]]:
    """Evaluate one named bound curve on a grid of abscissa values.

    converse-vs-l      needs p, optional ratio (r = ratio*l, default 2)
    converse-vs-p      needs l, r
    noisy-converse-vs-p needs l, r, q
    achievable-vs-p    needs l, r
    collision-vs-z     needs l, r, p, sigma
    """

    def need(*keys):
        for key in keys:
            if fixed.get(key) is None:
                raise InputError(f"curve {curve!r} needs parameter {key!r}")

    rows: list[tuple[float, float]] = []
    if curve == "converse-vs-l":
        need("p")
        ratio = 2 if fixed.get("ratio") is None else int(fixed["ratio"])
        if ratio < 1:
            raise InputError(f"ratio={ratio} must be a positive integer")
        for g in grid:
            if not float(g).is_integer():
                raise InputError(f"degree l={g} is not an integer")
            l = int(g)
            rows.append((l, converse_margin(l, ratio * l, fixed["p"])))
    elif curve == "converse-vs-p":
        need("l", "r")
        for g in grid:
            rows.append((g, converse_margin(fixed["l"], fixed["r"], g)))
    elif curve == "noisy-converse-vs-p":
        need("l", "r", "q")
        for g in grid:
            rows.append((g, noisy_converse_margin(fixed["l"], fixed["r"], g, fixed["q"])))
    elif curve == "achievable-vs-p":
        need("l", "r")
        for g in grid:
            rows.append((g, achievable_margin(fixed["l"], fixed["r"], g)))
    elif curve == "collision-vs-z":
        need("l", "r", "p", "sigma")
        for g in grid:
            rows.append(
                (g, collision_exponent(fixed["l"], fixed["r"], fixed["p"], fixed["sigma"], g))
            )
    else:
        raise InputError(f"unknown curve {curve!r}; choose from {', '.join(CURVE_IDS)}")
    return rows

"""Closed-form converse and achievability margins, and the thresholds they imply.

Everything here is a scalar function of the degree pair (l, r) and the
source/noise probabilities.  The converse margin is positive exactly when
reliable recovery is impossible at compression rate l/r.  The achievable
margin is negative exactly when the expected number of typical inputs
consistent with the outcome y vanishes, each input counted as if it were
drawn independently of the true x.  That count leaves out the inputs that
overlap x, so a negative margin does not make the typicality decoder's
error vanish: with fewer tests than objects the error of any nonadaptive
scheme stays bounded away from zero at constant p (Aldridge, IEEE Trans.
IT 65(4), 2019), and at (3, 6) with p = 0.03 or 0.05 the decision set is
less often unique as n grows.  The converse margin's root in p is the
upper threshold.  The lower one is the root of the achievable margin
optimized over z, which is the closed form up to the crossover
2 - 2^((r-1)/r) and lies strictly below it past the crossover.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .errors import InputError

THRESHOLD_SEARCH_MAX = 0.5
THRESHOLD_SCAN_STEP = 1e-3
THRESHOLD_TOL = 1e-9

_LN2 = math.log(2)
_LN_FLOAT_MAX = math.log(sys.float_info.max)  # expm1 overflows past this argument


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
        raise InputError("degrees l and r must be positive integers")
    try:
        float(l), float(r)
    except OverflowError:
        raise InputError("degrees l and r must lie within the float range") from None
    if 2 ** (1 / r) == 1:
        raise InputError("r is so large that the fixed point 2^(1/r) - 1 rounds to 0")


def _check_flip_rate(q: float) -> None:
    if not 0 <= q <= 1:  # also rejects NaN
        raise InputError(f"q={q} outside [0, 1]")


def converse_margin(l: int, r: int, p: float) -> float:
    """Source entropy in excess of the per-object information capacity of
    noiseless OR tests: h(p) - (l/r) h((1-p)^r).  Positive means any
    estimator fails with probability bounded away from zero.  It is the
    noisy margin at q = 0."""
    return noisy_converse_margin(l, r, p, 0.0)


def noisy_converse_margin(l: int, r: int, p: float, q: float) -> float:
    """Converse margin when each test outcome is flipped with probability q."""
    _check_degrees(l, r)
    _check_flip_rate(q)
    return _converse(l, r, p, q)


def _converse(l: int, r: int, p: float, q: float) -> float:
    """noisy_converse_margin without the checks of l, r and q."""
    source = binary_entropy(p)
    clear = (1 - p) ** r
    flipped = clear * (1 - q) + (1 - clear) * q
    return (
        source
        + (l / r) * binary_entropy(q)
        - (l / r) * binary_entropy(flipped)
    )


def fixed_point_z(r: int) -> float:
    """The argument 2^(1/r) - 1 at which a size-r OR pool's weight enumerator
    (1+z)^r - 1 equals one, removing all weight dependence from the exponent."""
    _check_degrees(1, r)
    return 2 ** (1 / r) - 1


def achievable_margin(l: int, r: int, p: float) -> float:
    """-(l-1) h(p) - l p log2(2^(1/r) - 1).  Negative means the expected
    number of typical inputs consistent with y, each counted as if drawn
    independently of the true x, vanishes as n grows; inputs overlapping x
    are not covered, so the decoder's error need not vanish (Aldridge,
    IEEE Trans. IT 65(4), 2019)."""
    _check_degrees(l, r)
    return _achievable(l, r, p)


def _achievable(l: int, r: int, p: float) -> float:
    """achievable_margin without the check of l and r."""
    return -(l - 1) * binary_entropy(p) - l * p * math.log2(2 ** (1 / r) - 1)


def collision_exponent(l: int, r: int, p: float, sigma: float, z: float) -> float:
    """Growth rate (bits per object) of the expected number of confusable
    typical inputs, before optimizing the generating variable z, for outcome
    weight fraction sigma = s/n.

    The pool enumerator is evaluated as expm1(r log1p(z)) so the fixed
    point stays sigma-independent to machine precision; past the float
    range its log2 is taken as x/ln 2 + log2(-expm1(-x)), x = r log1p(z).
    """
    _check_degrees(l, r)
    if not 0 < z < math.inf:
        raise InputError(f"z={z} must be positive and finite")
    if not 0 <= sigma <= l / r:
        raise InputError(f"sigma={sigma} outside [0, l/r]")
    return _collision(l, r, p, sigma, z)


def _collision(l: int, r: int, p: float, sigma: float, z: float) -> float:
    """collision_exponent without the checks of its arguments."""
    x = r * math.log1p(z)
    if x < _LN_FLOAT_MAX:
        log_pool = math.log2(math.expm1(x))
    else:
        log_pool = x / _LN2 + math.log2(-math.expm1(-x))
    return (
        -(l - 1) * binary_entropy(p)
        + sigma * log_pool
        - l * p * math.log2(z)
    )


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def _bisect_crossing(fn, lo: float, hi: float) -> float:
    """Shrink [lo, hi] with fn(lo) <= 0 < fn(hi) down to width THRESHOLD_TOL."""
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _first_crossing(fn, what: str) -> float:
    lo = THRESHOLD_TOL
    if fn(lo) > 0:
        raise InputError(f"{what} is already positive at p={lo}")
    p = THRESHOLD_SCAN_STEP
    while p <= THRESHOLD_SEARCH_MAX + 1e-15:
        if fn(p) > 0:
            return _bisect_crossing(fn, lo, p)
        lo = p
        p += THRESHOLD_SCAN_STEP
    raise InputError(f"{what} has no sign change on ({THRESHOLD_TOL}, {THRESHOLD_SEARCH_MAX}]")


def threshold_upper(l: int, r: int) -> float:
    """Smallest p at which the converse margin turns positive: recovery is
    impossible above it."""
    _check_degrees(l, r)
    return _first_crossing(lambda p: _converse(l, r, p, 0.0), "converse margin")


def _optimized_margin(l: int, r: int, p: float) -> float:
    """The noiseless direct margin min over z of -(l-1) h(p)
    + (l/r) max(0, log2((1+z)^r - 1)) - l p log2 z, the value of
    genfunc.noiseless_direct_exponent.  Up to the crossover 2 - 2^((r-1)/r)
    the minimizer is the kink 2^(1/r) - 1 and the margin is the closed form
    achievable_margin.  Past it the minimizer lies past the kink, where the
    slope in ln z vanishes: z / ((1+z) (1 - (1+z)^-r)) = p.  Its left side
    rises from the crossover at the kink toward 1, and exceeds 1/2 at
    z = 1, so that equation is bisected in ln z, and the margin is the
    collision exponent at sigma = l/r there, strictly below the closed
    form.  No binomial is formed, so any r within the float range is fine.
    (l, r) is not checked here: threshold_lower checks it once per scan."""
    if p <= -2 * math.expm1(-_LN2 / r):
        return _achievable(l, r, p)
    lo, hi = math.log(2 ** (1 / r) - 1), 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        z = math.exp(mid)
        if z / ((1 + z) * -math.expm1(-r * math.log1p(z))) > p:
            hi = mid
        else:
            lo = mid
    return _collision(l, r, p, l / r, math.exp(0.5 * (lo + hi)))


def threshold_lower(l: int, r: int) -> float:
    """Root of the optimized direct margin (_optimized_margin).  Below it
    the expected number of typical inputs consistent with y vanishes,
    counting each as if drawn independently of the true x; the decoder's
    error need not vanish there, since inputs overlapping x are not covered
    (see the module docstring).  A root at or below the crossover is the
    closed form's; past it the closed form's root is too small."""
    _check_degrees(l, r)
    return _first_crossing(lambda p: _optimized_margin(l, r, p), "achievable margin")


@dataclass(frozen=True)
class ThresholdPair:
    """Lower (achievability) and upper (converse) critical densities for (l, r)."""

    l: int
    r: int
    p_lower: float
    p_upper: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def threshold_pair(l: int, r: int) -> ThresholdPair:
    return ThresholdPair(l, r, threshold_lower(l, r), threshold_upper(l, r))


# ---------------------------------------------------------------------------
# curve emission
# ---------------------------------------------------------------------------


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """steps+1 evenly spaced points including both endpoints."""
    if steps < 1:
        raise InputError("steps must be >= 1")
    return [lo + (hi - lo) * i / steps for i in range(steps + 1)]


def _converse_vs_l(grid, p, ratio=None, **_):
    ratio = 2 if ratio is None else ratio
    try:
        integral = float(ratio).is_integer()
    except OverflowError:
        raise InputError("ratio must lie within the float range") from None
    if not integral or ratio < 1:
        raise InputError(f"ratio={ratio} must be a positive integer")
    ratio = int(ratio)
    rows = []
    for g in grid:
        if not float(g).is_integer():
            raise InputError(f"degree l={g} is not an integer")
        l = int(g)
        rows.append((l, converse_margin(l, ratio * l, p)))
    return rows


# curve id -> (abscissa, ordinate, required parameters, rows from a grid)
CURVES = {
    "converse-vs-l": ("l", "converse_margin", ("p",), _converse_vs_l),
    "converse-vs-p": (
        "p", "converse_margin", ("l", "r"),
        lambda grid, l, r, **_: [(g, converse_margin(l, r, g)) for g in grid],
    ),
    "noisy-converse-vs-p": (
        "p", "noisy_converse_margin", ("l", "r", "q"),
        lambda grid, l, r, q, **_: [(g, noisy_converse_margin(l, r, g, q)) for g in grid],
    ),
    "achievable-vs-p": (
        "p", "achievable_margin", ("l", "r"),
        lambda grid, l, r, **_: [(g, achievable_margin(l, r, g)) for g in grid],
    ),
    "collision-vs-z": (
        "z", "collision_exponent", ("l", "r", "p", "sigma"),
        lambda grid, l, r, p, sigma, **_: [
            (g, collision_exponent(l, r, p, sigma, g)) for g in grid
        ],
    ),
}


def emit_curve(curve: str, grid: Iterable[float], **fixed) -> list[tuple[float, float]]:
    """Evaluate one named bound curve of CURVES on a grid of abscissa
    values; converse-vs-l also takes ratio = r/l (default 2)."""
    if curve not in CURVES:
        raise InputError(f"unknown curve {curve!r}; choose from {', '.join(CURVES)}")
    _, _, required, rows = CURVES[curve]
    for key in required:
        if fixed.get(key) is None:
            raise InputError(f"curve {curve!r} needs parameter {key!r}")
    return rows(grid, **fixed)

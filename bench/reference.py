"""Reference values for the benchmark's output checks.

Nothing here imports pooltest: every value is computed from a closed form
or an identity, with the benchmark's own code, so a check compares the
program against an independent derivation rather than against itself.

Exact quantities (event probabilities over the random wiring) are
Fractions.  Asymptotic quantities (margins, exponents, curves) are floats;
they are compared within FLOAT_TOL.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

# Absolute tolerance for margins, exponents, thresholds and curve values.
# The program's golden-section searches stop at a 1e-10 bracket in log2(z),
# and the exponents' sigma-grid and 1-D margin paths are measured to differ
# by at most 2e-12; both sit far inside 1e-9.  A wrong optimum is caught:
# the fixed-point kink value reported past the crossover, or a coordinate
# search stalled on the kink, is off by 6e-5 or more on this grid.
FLOAT_TOL = 1e-9

# Relative tolerance for float-q noisy event probabilities against the exact
# rational value of the same q.  The float path multiplies polynomials with
# nonnegative coefficients, so its relative error stays near m * 2**-53
# (about 1e-13 at m = 600); a wrong coefficient is off by far more.
FLOAT_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# exact event probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def noiseless_event(l: int, r: int, n: int, w: int, s: int) -> Fraction:
    """[z^{lw}]((1+z)^r - 1)^s / C(nl, lw) as the alternating binomial sum
    sum_j (-1)^{s-j} C(s, j) C(rj, lw)."""
    lw = l * w
    numer = sum((-1) ** (s - j) * math.comb(s, j) * math.comb(r * j, lw) for j in range(s + 1))
    return Fraction(numer, math.comb(n * l, lw))


@lru_cache(maxsize=None)
def noisy_event(l: int, r: int, n: int, w: int, s: int, q: Fraction) -> Fraction:
    """Same event with outcomes flipped at rate q (any exact rational).

    With y = (1+z)^r the firing and quiet test enumerators are
    fire = (1-q) y - (1-2q) and quiet = q y + (1-2q), so the coefficient is
    sum_t c_t C(rt, lw) with c_t = [y^t] fire^s quiet^(m-s): a double
    binomial sum, evaluated here in integers over the common denominator
    D^m where q = N/D.
    """
    q = Fraction(q)
    m = n * l // r
    lw = l * w
    big_n, big_d = q.numerator, q.denominator
    a, b, c = big_d - big_n, big_d - 2 * big_n, big_n
    # fire^s, scaled by D^s: sum_i C(s, i) a^i (-b)^(s-i) y^i
    coeffs = [math.comb(s, i) * a**i * (-b) ** (s - i) for i in range(s + 1)]
    # times quiet^(m-s), scaled by D^(m-s): one linear factor (c y + b) at a time
    for _ in range(m - s):
        nxt = [0] * (len(coeffs) + 1)
        for t, ct in enumerate(coeffs):
            if ct:
                nxt[t] += b * ct
                nxt[t + 1] += c * ct
        coeffs = nxt
    numer = sum(ct * math.comb(r * t, lw) for t, ct in enumerate(coeffs) if ct)
    return Fraction(numer, big_d**m * math.comb(n * l, lw))


def count_event(l: int, r: int, n: int, w: int, output_counts: tuple[int, ...]) -> Fraction:
    """Exact-count test function: every pool with k defects has exactly one
    arrangement type, so the probability is the closed product
    prod_k C(r, k)^{s_k} / C(nl, lw) when sum_k k s_k = lw, else 0."""
    lw = l * w
    if sum(k * s_k for k, s_k in enumerate(output_counts)) != lw:
        return Fraction(0)
    numer = 1
    for k, s_k in enumerate(output_counts):
        numer *= math.comb(r, k) ** s_k
    return Fraction(numer, math.comb(n * l, lw))


def close_enough(value, exact: Fraction, rel_tol: float) -> bool:
    """|value - exact| <= rel_tol * |exact|, evaluated in exact arithmetic so
    that values below the float range compare correctly."""
    return abs(Fraction(value) - exact) <= Fraction(rel_tol) * abs(exact)


# ---------------------------------------------------------------------------
# asymptotic margins and exponents
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def crossover(r: int) -> float:
    """Largest p whose noiseless optimum sits at the fixed point z* = 2^(1/r) - 1."""
    return 2 - 2 ** ((r - 1) / r)


def _log2_pool(r: int, z: float) -> float:
    return math.log2(math.expm1(r * math.log1p(z)))


def noiseless_margin(l: int, r: int, p: float) -> float:
    """-(l-1) h(p) + inf_z [(l/r) max(0, log2((1+z)^r - 1)) - l p log2 z].

    This is the optimized OR-test margin and, by the minimax theorem, also
    the noiseless direct exponent.  Up to the crossover the infimum sits at
    the kink z*; past it, at the stationary point z > z* of
    z (1+z)^(r-1) / ((1+z)^r - 1) = p, found by bisection on log2 z.
    """
    z_star = 2 ** (1 / r) - 1
    if p <= crossover(r):
        return -(l - 1) * h2(p) - l * p * math.log2(z_star)

    def slope(z: float) -> float:
        return z * (1 + z) ** (r - 1) / math.expm1(r * math.log1p(z)) - p

    lo, hi = math.log2(z_star), math.log2(z_star) + 1
    while slope(2**hi) < 0:
        lo, hi = hi, hi + 1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if slope(2**mid) < 0:
            lo = mid
        else:
            hi = mid
    z = 2 ** (0.5 * (lo + hi))
    return -(l - 1) * h2(p) + (l / r) * _log2_pool(r, z) - l * p * math.log2(z)


def _golden_min(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    phi = (math.sqrt(5) - 1) / 2
    c, d = hi - phi * (hi - lo), lo + phi * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > tol and lo < c < d < hi:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - phi * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + phi * (hi - lo)
            fd = fn(d)
    return min(fc, fd, fn(0.5 * (lo + hi)))


def noisy_exponent(l: int, r: int, p: float, q: float) -> float:
    """-(l-1) h(p) + (l/r) h(q) + inf_u [Q + max(0, (l/r)(F - Q)) - l p u],
    with F, Q the log2 firing and quiet enumerators (1-q) P + q and
    q P + (1-q) at z = 2^u, P = (1+z)^r - 1.  The bracketed term is the
    maximum over the outcome-weight fraction sigma in [0, l/r] of the
    sigma-weighted objective, so this is the sigma-maximized exponent in one
    convex 1-D minimization, solved by golden section on a wide bracket."""

    def objective(u: float) -> float:
        pool = math.expm1(r * math.log1p(2.0**u))
        fire = math.log2(pool * (1 - q) + q)
        quiet = math.log2(pool * q + (1 - q))
        return quiet + max(0.0, (l / r) * (fire - quiet)) - l * p * u

    u_star = math.log2(2 ** (1 / r) - 1)
    inner = _golden_min(objective, u_star - 40, u_star + 40)
    return -(l - 1) * h2(p) + (l / r) * h2(q) + inner


def count_margin(l: int, r: int, p: float) -> float:
    """Margin of the exact-count test function: the inner infimum of the
    piecewise-linear max_k [log2 C(r, k) + k u] - r p u is the concave
    envelope of k -> log2 C(r, k) at k = r p, i.e. linear interpolation
    (binomial coefficients are log-concave)."""
    k = r * p
    k0 = min(int(math.floor(k)), r - 1)
    frac = k - k0
    lc0, lc1 = math.log2(math.comb(r, k0)), math.log2(math.comb(r, k0 + 1))
    return -(l - 1) * h2(p) + (l / r) * (lc0 + frac * (lc1 - lc0))


def merged_or_margin(l: int, r: int, probs: tuple[float, float, float]) -> float:
    """Margin of the ternary test that fires when any pooled symbol is
    nonzero.  The enumerators depend on z1 + z2 only, so the infimum over
    the split puts z_i in proportion to p_i, and the margin is the binary
    OR margin at p = p1 + p2 plus p h(p1 / p)."""
    p = probs[1] + probs[2]
    return noiseless_margin(l, r, p) + p * h2(probs[1] / p)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def converse(l: int, r: int, p: float) -> float:
    return h2(p) - (l / r) * h2((1 - p) ** r)


def noisy_converse(l: int, r: int, p: float, q: float) -> float:
    clear = (1 - p) ** r
    return h2(p) + (l / r) * h2(q) - (l / r) * h2(clear * (1 - q) + (1 - clear) * q)


def achievable(l: int, r: int, p: float) -> float:
    return -(l - 1) * h2(p) - l * p * math.log2(2 ** (1 / r) - 1)


def collision(l: int, r: int, p: float, sigma: float, z: float) -> float:
    return -(l - 1) * h2(p) + sigma * _log2_pool(r, z) - l * p * math.log2(z)


# ---------------------------------------------------------------------------
# typicality
# ---------------------------------------------------------------------------


def typical_weights(n: int, p: float, eps: float) -> set[int]:
    """Weights w whose sequences' information rate -(1/n) log2 Pr(x) lies
    within eps of h(p), for 0 < p < 1 (same expressions as the definition,
    so that boundary weights round the same way)."""
    h = h2(p)
    return {
        w for w in range(n + 1)
        if h - eps <= (-w * math.log2(p) - (n - w) * math.log2(1 - p)) / n <= h + eps
    }


def atypical_probability(n: int, p: float, eps: float) -> float:
    """Probability that an i.i.d. Bernoulli(p) sequence of length n is not typical."""
    inside = typical_weights(n, p, eps)
    return sum(math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(n + 1) if w not in inside)

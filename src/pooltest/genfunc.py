"""Generating-function arithmetic for ensemble-average event probabilities,
and the optimized exponents that decide when decoding succeeds.

The probability that a fixed input/output pair is consistent over a random
wiring reduces to one coefficient of a product of per-test enumerator
polynomials, divided by a count of socket arrangements.  Enumerators are
plain data: coefficient tuples indexed by degree, or {type: multiplicity}
dicts.  For binary inputs that coefficient comes from powers truncated at
the target degree, by the power-series power recurrence over exact
integers, with the common factor of the non-constant coefficients taken
out of each step; a noise rate q = P/Q enters as the integer polynomials
Q*fire and Q*quiet.  For a general alphabet, every type enumerator is
homogeneous of degree r, so symbol 0's exponent is implied and dropped;
each output's enumerator is raised to its count by squaring, and every
product drops the monomials past a target exponent in any symbol (the box
l*counts), which cannot reach the target coefficient.  Results are exact
Fractions, or that exact value rounded once to a float when q is a float.
A power a^e is stable when its truncation, after the z^order split, stops
by z^(e+1): its recurrence weights are then all nonnegative.  When neither
power is stable, the exact numerator comes without either power: the
product is a polynomial in Y = (1+z)^r whose coefficients follow a
three-term recurrence, and the numerator, their sum weighted by binomials,
is taken backward by the transposed recurrence (Clenshaw), so that every
step multiplies a big integer by a small one; one int/int division rounds
it.  Otherwise the float is certified without forming the exact
numerator, a sum of products of thousands-of-bits integers, by the first
of three routes that decides it.
Bounds: certified floor and ceiling mantissas of 2 * _ROUND_BITS bits stand
in for a stable power's exact coefficients.  Exact factors: an unstable
power enters as its exact coefficients.  The leading bits of every factor
bound the sum from both sides, and when both bounds round to one float so
does the exact value (Ziv's rounding test).  Exact sum: otherwise both
powers are formed exactly and the sum is rounded.

Every direct-part margin minimizes one shape over u = log2(z): a pointwise
max of weighted log-enumerators, each a log-sum-exp and hence convex, minus
a linear term.  With one free coordinate that is a bracketed Newton
iteration on the active piece, which lands on a crossing of two pieces by
the Newton step on their difference (_minimax_1d); with more, a primal-dual
interior-point iteration on the epigraph form (_minimax_interior_point),
which certifies its value by a duality gap.  Before either runs, a general
margin merges every two input symbols its test cannot tell apart: then
each enumerator depends only on z_i + z_j, the optimal split is
z_i : z_j = p_i : p_j, and the margin is the merged alphabet's plus
P h(p_i / P) for the merged mass P.  So a test that sees only whether a
symbol is nonzero is solved in 1-D whatever its alphabet.  The direct
exponents maximize such an infimum over an outcome-weight fraction sigma; the
objective is affine in sigma, so by minimax each exponent is one 1-D
minimization of the max over the two endpoint weights, started at the
branches' crossing at the fixed point z* = 2^(1/r) - 1, which is kept when
nothing lower is found.  Margins and exponents alike come back as a
GeneralMargin.  The noiseless exponent is the noisy one at flip rate q = 0,
where fire is the pool and quiet is 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .bounds import _check_degrees, binary_entropy, entropy, fixed_point_z
from .ensemble import SystemParams, TestFunction, _check_arity, _check_event, _check_types
from .errors import InputError

_LN2 = math.log(2)

GAP_TOL = 1e-12            # duality gap, in bits, at which interior point stops
TIE_TOL = 1e-14            # value gap, in bits, at which 1-D pieces tie
MAX_NEWTON_STEPS = 100
_ROUND_BITS = 96           # leading bits of each factor in the float-q rounding test


# ---------------------------------------------------------------------------
# enumerators: coefficient tuples indexed by degree, or {type: multiplicity}
# ---------------------------------------------------------------------------


def or_pool_poly(r: int) -> tuple[int, ...]:
    """(1+z)^r - 1: weight enumerator of inputs that fire a size-r OR pool."""
    if r < 1:
        raise InputError("r must be positive")
    return (0, *(math.comb(r, j) for j in range(1, r + 1)))


def multinomial(total: int, parts: Sequence[int]) -> int:
    if sum(parts) != total:
        raise InputError(f"multinomial parts {parts} do not sum to {total}")
    out = 1
    remaining = total
    for c in parts:
        out *= math.comb(remaining, c)
        remaining -= c
    return out


def type_enumerator(f: TestFunction, k: int) -> dict[tuple[int, ...], int]:
    """Multivariate enumerator of the input types a test maps to output k,
    each type weighted by its number of orderings."""
    if not 0 <= k < f.num_outputs:
        raise InputError(f"output index {k} outside [0, {f.num_outputs})")
    return {t: multinomial(f.arity, t) for t, out in f.table.items() if out == k}


def weight_enumerator(f: TestFunction, k: int) -> tuple[int, ...]:
    """Univariate enumerator, by defect count, of the binary inputs a test
    maps to output k."""
    if f.num_inputs != 2:
        raise InputError("weight enumerators need a binary input alphabet")
    r = f.arity
    coeffs = [0] * (r + 1)
    for t, out in f.table.items():
        if out == k:
            coeffs[t[1]] = math.comb(r, t[1])
    return tuple(coeffs)


def _source_entropy(f: TestFunction, probs: Sequence[float]) -> float:
    """Entropy of probs; InputError unless it is a distribution over f's
    input symbols."""
    if len(probs) != f.num_inputs:
        raise InputError(f"got {len(probs)} probabilities for {f.num_inputs} input symbols")
    return entropy(probs)


def outcome_distribution(f: TestFunction, probs: Sequence[float]) -> list[float]:
    """Probability of each test outcome when the r pooled symbols are drawn
    independently from probs: each output's type enumerator at z = probs.
    A multiplicity past the float range, as C(r, r/2) is from r = 1030,
    enters its term in the log domain, from math.log of the integer."""
    _source_entropy(f, probs)
    dist = []
    for k in range(f.num_outputs):
        total = 0
        for t, c in type_enumerator(f, k).items():
            try:
                for e, z in zip(t, probs):
                    c = c * z**e
            except OverflowError:
                # the first product converts c, so c is still the integer;
                # the term is a probability, so exp can only underflow
                powers = [(e, z) for e, z in zip(t, probs) if e]
                if all(z for _, z in powers):
                    c = math.exp(math.log(c) + sum(e * math.log(z) for e, z in powers))
                else:
                    c = 0.0
            total = total + c
        dist.append(total)
    return dist


# ---------------------------------------------------------------------------
# exact ensemble-average event probabilities
# ---------------------------------------------------------------------------


def _power_shape(coeffs: Sequence[int], e: int, top: int) -> tuple[int, Sequence[int], int]:
    """(order, a, size) with coeffs = z^order a(z), a[0] and a[-1] nonzero:
    [z^0 .. z^top] of coeffs^e is order*e zeros, the first `size`
    coefficients of a^e, then zeros.  size stops at the degree of a^e, and
    is <= 0 when z^top lies below z^(order*e)."""
    order, end = 0, len(coeffs)
    while not coeffs[order]:
        order += 1
    while not coeffs[end - 1]:
        end -= 1
    return order, coeffs[order:end], min(top + 1 - order * e, (end - 1 - order) * e + 1)


def _truncated_power(coeffs: Sequence[int], e: int, top: int) -> list[int]:
    """Coefficients [z^0 .. z^top] of the integer polynomial `coeffs` raised to
    the power e, by the power-series power recurrence (J.C.P. Miller; Knuth,
    TAOCP vol. 2, 4.7): b_0 = a_0^e and
    k a_0 b_k = sum_{j=1}^{min(k, deg)} ((e+1) j - k) a_j b_{k-j}.
    The lowest-order factor z^o is split off first so that a_0 != 0; every
    b_k is an integer, so the division by k a_0 is exact.  The common factor
    g of a_1 .. a_deg is taken out of the sum, so each term multiplies b_{k-j}
    by a small integer and each b_k costs one more multiply by g."""
    order, a, size = _power_shape(coeffs, e, top)
    if size <= 0:
        return [0] * (top + 1)
    a0, deg, e1 = a[0], len(a) - 1, e + 1
    g = math.gcd(*a[1:])
    if g > 1:
        a = [a0, *(c // g for c in a[1:])]
    b = [a0**e]
    for k in range(1, size):
        acc = 0
        for j in range(1, min(k, deg) + 1):
            acc += (e1 * j - k) * a[j] * b[k - j]
        if g > 1:
            acc *= g
        b.append(acc // (k * a0))
    return [0] * (order * e) + b + [0] * (top + 1 - order * e - size)


def _trim(lo: int, hi: int, x: int) -> tuple[int, int, int]:
    """lo * 2^x <= v <= hi * 2^x cut to 2 * _ROUND_BITS bits: lo rounded
    down and hi up."""
    cut = max(hi.bit_length() - 2 * _ROUND_BITS, 0)
    return lo >> cut, -(-hi >> cut), x + cut


def _power_bounds(coeffs: Sequence[int], e: int, top: int) -> list[tuple[int, int, int]] | None:
    """Certified bounds on _truncated_power(coeffs, e, top) for nonnegative
    coeffs: each coefficient as (lo, hi, x) with lo * 2^x <= b_k <= hi * 2^x,
    lo and hi of about 2 * _ROUND_BITS bits.  None unless the power is
    stable: its recurrence stops by k = e + 1.

    There every weight (e+1) j - k is nonnegative, so b_k is monotone in
    b_{k-1} .. b_{k-deg}: their floors, summed in units of 2^cut and divided
    rounding down, bound it from below, and their ceilings, rounding up, from
    above.  Each step widens the bounds by a few units in their last place,
    so after thousands of steps they still agree far beyond the _ROUND_BITS
    leading bits that _round_from_bounds keeps."""
    order, a, size = _power_shape(coeffs, e, top)
    if size > e + 2:
        return None
    zero = (0, 0, 0)
    if size <= 0:
        return [zero] * (top + 1)
    a0, deg, e1 = a[0], len(a) - 1, e + 1
    # b_0 = a_0^e by squaring, trimmed after every product
    power, base, n = (1, 1, 0), _trim(a0, a0, 0), e
    while n:
        if n & 1:
            power = _trim(power[0] * base[0], power[1] * base[1], power[2] + base[2])
        n >>= 1
        if n:
            base = _trim(base[0] * base[0], base[1] * base[1], 2 * base[2])
    b = [power]
    for k in range(1, size):
        terms = []
        for j in range(1, min(k, deg) + 1):
            c = (e1 * j - k) * a[j]
            lo, hi, x = b[k - j]
            if c and hi:
                terms.append((c * lo, c * hi, x))
        if not terms:
            b.append(zero)
            continue
        # cut lies 2 * _ROUND_BITS bits below the largest term over the divisor
        div = k * a0
        peak = max(hi.bit_length() + x for _, hi, x in terms)
        cut = peak - div.bit_length() - 2 * _ROUND_BITS
        acc_lo = acc_hi = 0
        for lo, hi, x in terms:
            if x >= cut:
                acc_lo += lo << (x - cut)
                acc_hi += hi << (x - cut)
            else:
                acc_lo += lo >> (cut - x)
                acc_hi -= -hi >> (cut - x)
        b.append((acc_lo // div, -(-acc_hi // div), cut))
    return [zero] * (order * e) + b + [zero] * (top + 1 - order * e - size)


def ensemble_event_probability(params: SystemParams, w: int, s: int) -> Fraction:
    """Probability, over a uniform wiring, that the noiseless OR outcome of a
    fixed weight-w input equals a fixed weight-s output vector.  Exact:
    [z^{lw}] ((1+z)^r - 1)^s / C(nl, lw)."""
    _check_event(params, w, s)
    lw = params.l * w
    numer = _truncated_power(or_pool_poly(params.r), s, lw)[lw]
    return Fraction(numer, math.comb(params.num_sockets, lw))


def _dot_reversed(fired: list[int], quieted: list[int]) -> int:
    """sum_k fired[k] quieted[-1 - k]: the top coefficient of the product of
    two powers truncated at the same degree, exactly."""
    return sum(a * b for a, b in zip(fired, reversed(quieted)))


def _noisy_numerator(keep: int, flip: int, r: int, m: int, s: int, lw: int) -> int:
    """[z^lw] fire^s quiet^(m-s) for the enumerators of _fire_quiet, exactly,
    without forming either power.  With Y = (1+z)^r, a = keep, b = flip and
    d = a - b, fire = a Y - d and quiet = b Y + d, so the product is
    sum_t d^(m-t) e_t Y^t with e_t = [Y^t] (a Y - 1)^s (b Y + 1)^(m-s).  That
    polynomial P solves (ab Y^2 + (a-b) Y - 1) P' = (m ab Y + s a - (m-s) b) P,
    so e_t follows a three-term recurrence (the holonomic-sequence method of
    Petkovsek, Wilf and Zeilberger, A = B, 1996), which f_t = t! e_t takes
    with integer coefficients: f_{-1} = 0, f_0 = (-1)^s and
    f_{t+1} = B_t f_t + t A_t f_{t-1}, B_t = (a-b) t - s a + (m-s) b and
    A_t = ab (t-1-m).  [z^lw] Y^t = C(rt, lw), so m! times the numerator is
    sum_t X_t f_t with X_t = d^(m-t) C(rt, lw) m!/t!.  That sum is taken
    backward, by the transposed recurrence (C. W. Clenshaw, A note on the
    summation of Chebyshev series, MTAC 9, 1955):
    y_t = X_t + B_t y_{t+1} + (t+1) A_{t+1} y_{t+2} from t = m down to 0,
    and the sum is (-1)^s y_0.  X_t steps to X_{t-1} by the factor
    d t C(r(t-1), lw) / C(rt, lw), r small factors on each side, and is 0
    once r(t-1) < lw.  So every step multiplies or divides a big integer by
    a small one, and every division, the last by m! included, is exact.
    d = 0 (q = 1/2) and d < 0 (q > 1/2) need no special case."""
    ab, d, lin = keep * flip, keep - flip, (m - s) * flip - s * keep
    x, y, y_next = math.comb(r * m, lw), 0, 0
    for t in range(m, -1, -1):
        y, y_next = x + (d * t + lin) * y + (t + 1) * ab * (t - m) * y_next, y
        if t:
            # every factor of the divisor is positive; the dividend's is 0 once r(t-1) < lw
            rt = r * t
            x = x * (d * t * math.prod(range(rt + 1 - r - lw, rt + 1 - lw))) // math.prod(
                range(rt + 1 - r, rt + 1)
            )
    numer = y // math.factorial(m)
    return -numer if s % 2 else numer


def _round_from_bounds(fired: list[tuple], quieted: list[tuple], denom: int) -> float | None:
    """The float nearest sum_k fired[k] quieted[-1 - k] / denom, from factor
    bounds (lo, hi, x), lo * 2^x <= factor <= hi * 2^x (an exact factor v is
    (v, v, 0)), or None when they cannot decide it (Ziv's rounding test).

    Every term is a nonnegative product.  In units of 2^cut, cut lying
    2 * _ROUND_BITS bits below the largest term, the lower bounds cut to
    their leading _ROUND_BITS bits with each product floored bound the
    numerator from below, and the upper bounds cut rounding up with each
    product rounded up bound it from above.  int / int rounds correctly and
    rounding is monotone, so when both bounds round to one float the exact
    quotient rounds to it too."""
    terms = [(a, b) for a, b in zip(fired, reversed(quieted)) if a[1] and b[1]]
    if not terms:
        return None
    peak = max(a[1].bit_length() + a[2] + b[1].bit_length() + b[2] for a, b in terms)
    cut = peak - 2 * _ROUND_BITS
    if cut <= 0:
        return None
    lo = hi = 0
    for (a_lo, a_hi, a_x), (b_lo, b_hi, b_x) in terms:
        sa = max(a_hi.bit_length() - _ROUND_BITS, 0)
        sb = max(b_hi.bit_length() - _ROUND_BITS, 0)
        floor = (a_lo >> sa) * (b_lo >> sb)
        ceil = (-(-a_hi >> sa)) * (-(-b_hi >> sb))
        shift = a_x + sa + b_x + sb - cut
        if shift >= 0:
            lo += floor << shift
            hi += ceil << shift
        else:
            lo += floor >> -shift
            hi -= -ceil >> -shift
    low = (lo << cut) / denom
    return low if low == (hi << cut) / denom else None


def _fire_quiet(r: int, flip, keep) -> tuple[list, list]:
    """Enumerators of a size-r OR pool's inputs seen as a firing and as a
    quiet test when the outcome is flipped at weight `flip` and kept at
    weight `keep`: fire = keep*pool + flip and quiet = flip*pool + keep."""
    pool = or_pool_poly(r)
    fire = [c * keep for c in pool]
    quiet = [c * flip for c in pool]
    fire[0] += flip
    quiet[0] += keep
    return fire, quiet


def _fire_quiet_log_terms(r: int, q: float) -> tuple[list, list]:
    """_log_terms of the float _fire_quiet(r, q, 1 - q), each term's log2
    formed as log2 C(r, j) plus log2(1 - q) or log2 q, so that no binomial
    is converted to a float: C(r, r/2) leaves the float range near r = 1030."""
    log_pool, c = [], 1
    for j in range(1, r + 1):
        c = c * (r - j + 1) // j  # C(r, j), exactly
        log_pool.append((j, math.log2(c)))
    log_keep = math.log2(1.0 - q)
    fire = [(j, lc + log_keep) for j, lc in log_pool]
    quiet = [(0, log_keep)]
    if q > 0:
        log_flip = math.log2(q)
        fire.insert(0, (0, log_flip))
        quiet += [(j, lc + log_flip) for j, lc in log_pool]
    return fire, quiet


def noisy_ensemble_event_probability(params: SystemParams, w: int, s: int):
    """Same event with every test outcome flipped independently with
    probability q: [z^{lw}] fire^s quiet^(m-s) / C(nl, lw), with
    fire = (1-q) pool + q and quiet = q pool + (1-q).  A Fraction q gives the
    exact Fraction.  Any other q is taken as the exact rational it stores
    (Fraction(q); for a float, its binary value), and the exact result is
    rounded once to the nearest float.  When neither power is stable
    (_power_bounds: after the z^order split the truncation stops by z^(e+1)
    of the e-th power), the exact numerator comes from the recurrence of
    _noisy_numerator, without either power, and int / int rounds it.
    Otherwise _round_from_bounds decides it from certified bounds on each
    stable power and from the other power exact; when they cannot, both
    powers are formed exactly and the exact sum _dot_reversed is rounded.
    A Fraction q always takes the two exact powers: it is the reference the
    float routes are checked against."""
    _check_event(params, w, s)
    q = Fraction(params.q)
    big_p, big_q = q.numerator, q.denominator
    # fire and quiet scaled by the denominator Q, so both have integer coefficients
    fire, quiet = _fire_quiet(params.r, big_p, big_q - big_p)
    lw = params.l * w
    powers = ((fire, s), (quiet, params.m - s))
    denom = big_q**params.m * math.comb(params.num_sockets, lw)
    exact = isinstance(params.q, Fraction)
    if not exact:
        bounds = [_power_bounds(c, e, lw) for c, e in powers]
        if bounds == [None, None]:
            return _noisy_numerator(big_q - big_p, big_p, params.r, params.m, s, lw) / denom
        # certified bounds of each stable power, the exact power otherwise
        factors = [
            bound or [(v, v, 0) for v in _truncated_power(c, e, lw)]
            for bound, (c, e) in zip(bounds, powers)
        ]
        rounded = _round_from_bounds(*factors, denom)
        if rounded is not None:
            return rounded
    numer = _dot_reversed(*(_truncated_power(c, e, lw) for c, e in powers))
    return Fraction(numer, denom) if exact else numer / denom


def general_ensemble_event_probability(
    params: SystemParams,
    f: TestFunction,
    input_counts: Sequence[int],
    output_counts: Sequence[int],
) -> Fraction:
    """Probability, over a uniform wiring, that the outcome of a fixed input
    of the given type equals a fixed output of the given type.  Exact."""
    _check_types(params, f, input_counts, output_counts)
    corner = [params.l * w for w in input_counts]
    # every type has r symbols and the outputs total m, so symbol 0's
    # exponent is implied by the others: drop it from each monomial
    enums = [{t[1:]: c for t, c in type_enumerator(f, k).items()} for k in range(f.num_outputs)]
    numer = _box_power_product(enums, output_counts, tuple(corner[1:]))
    return Fraction(numer, multinomial(params.num_sockets, corner))


def _box_power_product(enums: list[dict], powers: Sequence[int], box: tuple[int, ...]) -> int:
    """Coefficient at the corner `box` of prod_k enums[k]^powers[k], the
    powers by squaring.  Exponents only grow and coefficients are
    nonnegative, so every product may drop the monomials outside the box."""

    def mul(a: dict, b: dict) -> dict:
        out: dict = {}
        for ta, ca in a.items():
            for tb, cb in b.items():
                t = tuple(map(operator.add, ta, tb))
                if all(map(operator.le, t, box)):
                    out[t] = out.get(t, 0) + ca * cb
        return out

    prod = {(0,) * len(box): 1}
    for base, e in zip(enums, powers):
        while e:
            if e & 1:
                prod = mul(prod, base)
            e >>= 1
            if e:
                base = mul(base, base)
    return prod.get(box, 0)


def general_converse_bound(
    f: TestFunction, l: int, r: int, probs: Sequence[float]
) -> float:
    """Asymptotic converse margin for an arbitrary symmetric test function:
    source entropy minus the per-object entropy of a single test outcome.
    Positive means reliable recovery is impossible."""
    _check_degrees(l, r)
    _check_arity(f, r)
    dist = outcome_distribution(f, probs)
    value = entropy(probs)
    for a_k in dist:
        if a_k > 0:
            value += (l / r) * a_k * math.log2(a_k)
    return value


# ---------------------------------------------------------------------------
# convex log-domain minimization
# ---------------------------------------------------------------------------


def _log_terms(coeffs: Sequence[float]) -> list[tuple[int, float]]:
    return [(j, math.log2(c)) for j, c in enumerate(coeffs) if c > 0]


def _lse_mean(piece: tuple[list[float], list[Sequence[int]]], u: Sequence[float]):
    """log2 of a multivariate poly(2^u) from its terms' log2 coefficients
    and one exponent column per coordinate, with its gradient in u: the
    mean of the exponent vectors under weights proportional to the terms.
    Also returns those weights and their total, from which _lse_covariance
    forms the Hessian.  Ratios of like-sized sums, so they stay accurate at
    any u, unlike differences of the value, whose linear parts cancel
    catastrophically far out."""
    logs, columns = piece
    dots = [0.0] * len(logs)
    for column, u_i in zip(columns, u):
        dots = [d + t * u_i for d, t in zip(dots, column)]
    vals = list(map(operator.add, logs, dots))
    best = max(vals)
    weights = [math.exp(_LN2 * (v - best)) for v in vals]
    total = sum(weights)
    mean = [sum(map(operator.mul, weights, column)) / total for column in columns]
    return best + math.log2(total), mean, weights, total


def _lse_covariance(columns: list[Sequence[int]], mean: list[float], weights: list[float], total: float):
    """The Hessian in u of _lse_mean's log2 poly(2^u), from its mean,
    weights and total there: ln 2 times the covariance of the exponent
    vectors under those weights."""
    devs = [[t - m for t in column] for column, m in zip(columns, mean)]
    weighted = [list(map(operator.mul, weights, dev)) for dev in devs]
    return [[_LN2 * sum(map(operator.mul, wd, dev)) / total for dev in devs] for wd in weighted]


def _lse_1d(terms: list[tuple[int, float]], u: float) -> tuple[float, float, float]:
    """The one-coordinate case of _lse_mean and _lse_covariance, from
    (exponent, log2 coefficient) terms: log2 poly(2^u), its slope and its
    curvature in u.  A single term is affine in u, in closed form: its
    weight and total are 1, so the sum's log2(1) = 0.0 is the only thing
    added (which turns -0.0 into 0.0), and the curvature is 0."""
    if len(terms) == 1:
        [(j, lg)] = terms
        return lg + j * u + 0.0, float(j), 0.0
    vals = [lg + j * u for j, lg in terms]
    best = max(vals)
    total = first = second = 0.0
    for (j, _), v in zip(terms, vals):
        w = math.exp(_LN2 * (v - best))
        total += w
        first += w * j
        second += w * j * j
    mean = first / total
    return best + math.log2(total), mean, _LN2 * max(second / total - mean * mean, 0.0)


def _pieces_1d(enums: list, weight: float, lp: float, shift: float, u: float) -> list:
    """(value, slope, curvature) at u of every piece weight*L_k + shift*L_0 - lp*u."""
    moments = [_lse_1d(terms, u) for terms in enums]
    v0, s0, c0 = moments[0]
    return [
        (weight * v + shift * v0 - lp * u, weight * s + shift * s0 - lp, weight * c + shift * c0)
        for v, s, c in moments
    ]


def _minimax_1d(
    enums: list, weight: float, lp: float, shift: float = 0.0, kink: float | None = None
) -> tuple[float, float, int, bool]:
    """inf over real u of max_k (weight*L_k + shift*L_0) - lp*u, with
    L_k = log2 A_k(2^u) for A_k = enums[k] in _log_terms form; returns
    (u*, value, steps, converged), steps counting the points evaluated.

    A bracketed Newton iteration on a max of smooth convex pieces
    (safeguarded Newton, Nocedal & Wright, Numerical Optimization, 2006).
    Each step evaluates every piece's value, slope and curvature at one
    point; pieces that tie with the max are active.  The point becomes the
    bracket's left end when the steepest active slope is negative, its right
    end when the shallowest is positive, and the minimizer when the two
    straddle 0: every line through it then bounds the max from below, so the
    value is the infimum up to the tie tolerance.  When different pieces are
    active at the two ends, the next point is the Newton step on their
    difference, which lands on their crossing (on pieces linear in u, as
    monomials are, only this step moves); otherwise, or when that leaves
    the bracket, the Newton step of the active piece, which stops the
    iteration once it would lower the value by at most TIE_TOL.  Bisection
    comes last, and a side not yet bracketed is probed by doubling.  The
    iteration starts at `kink` when one is given, and the kink is kept as
    u* unless a later point is strictly lower.  converged is False when
    MAX_NEWTON_STEPS ran out.
    """
    lo = hi = None  # (u, active piece) at the bracket ends
    u = 0.0 if kink is None else kink
    best_u, best = u, math.inf
    converged = True
    for steps in range(1, MAX_NEWTON_STEPS + 1):
        pieces = _pieces_1d(enums, weight, lp, shift, u)
        top, top_slope, _ = max(pieces)
        if top < best:
            best_u, best = u, top
        # a piece ties with the top one when within TIE_TOL of it, or when
        # rounding could hide their crossing: within TIE_TOL * max(1, |u|)
        scale = TIE_TOL * max(1.0, abs(u))
        active = [
            (s, c, k) for k, (v, s, c) in enumerate(pieces)
            if top - v <= TIE_TOL + abs(s - top_slope) * scale
        ]
        slope, curv, k = max(active)
        if slope < 0:
            lo = (u, k)
        else:
            slope, curv, k = min(active)
            if slope <= 0:
                break  # the active slopes straddle 0
            hi = (u, k)
        a = -math.inf if lo is None else lo[0]
        b = math.inf if hi is None else hi[0]
        step = math.nan
        if lo and hi and lo[1] != hi[1]:
            (va, sa, _), (vb, sb, _) = pieces[lo[1]], pieces[hi[1]]
            if sa != sb:
                step = (vb - va) / (sa - sb)
        if not a < u + step < b:
            step = -slope / curv if curv > 0 else -math.copysign(math.inf, slope)
            if abs(slope * step) <= TIE_TOL:
                break
        if u + step == u:
            break  # rounding stops the step
        if a < u + step < b:
            u += step
        elif lo and hi:
            u = 0.5 * (a + b)
        else:
            u += math.copysign(max(1.0, abs(u)), -slope)
    else:
        converged = False
    return best_u, best, steps, converged


def _solve_linear(matrix: list[list[float]], rhs: list[float]) -> list[float] | None:
    """Gaussian elimination without pivoting, which is stable for the
    symmetric positive definite Newton matrices solved here; None when a
    pivot is not positive (the matrix is singular)."""
    n = len(rhs)
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        if not rows[c][c] > 0:
            return None
        for row in rows[c + 1:]:
            factor = row[c] / rows[c][c]
            row[c:] = [x - factor * y for x, y in zip(row[c:], rows[c][c:])]
    x = [0.0] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - sum(map(operator.mul, rows[i][i + 1:], x[i + 1:]))) / rows[i][i]
    return x


def _minimax_interior_point(pieces: list, ratio: float, lp: list[float], u: list[float]):
    """Minimize max_k g_k(u), g_k = ratio*log2 A_k(2^u) - lp.u with A_k in
    _lse_mean form, from the start u; returns (u*, value, steps, gap,
    converged).  Primal-dual interior-point method (Boyd & Vandenberghe,
    Convex Optimization, 2004, 11.7) on the epigraph form: minimize t over
    x = (u, t) subject to f_k = g_k - t < 0, with multipliers lam_k.  Each
    Newton step solves one (d+1)x(d+1) system, the multiplier step
    eliminated, and backtracks by 1.5 until every f_k < 0, every lam_k > 0
    and the residual norm falls.  The surrogate gap sum_k lam_k (t - g_k)
    bounds value - infimum once the dual residual vanishes; converged means
    both are at most GAP_TOL.

    Each step aims at the centre tau = K/(sigma*gap) of the K pieces.  After
    a step that backtracking left whole, sigma = min(0.1, sqrt(gap)) and the
    step may go max(0.99, 1 - gap) of the way to the multipliers' boundary,
    so the gap falls superlinearly once the iterate has converged (Nocedal &
    Wright, Numerical Optimization, 2006, 14.2; S. J. Wright, Primal-Dual
    Interior-Point Methods, SIAM, 1997).  Otherwise, or when no step at the
    smaller sigma reduces the residual, sigma = 0.1 and the fraction 0.99.

    f_k is linear in t, so its gradient in t is -1 and its Hessian is zero
    in t's row and column: only the d free coordinates u are carried, and
    a Hessian is formed only where a Newton step starts, not at the points
    that backtracking rejects."""
    d = len(u)

    def state(x):
        # per piece: g_k, the gradient of f_k in u, and what _lse_covariance
        # forms its Hessian from
        out = []
        linear = sum(map(operator.mul, lp, x))
        for piece in pieces:
            value, mean, weights, total = _lse_mean(piece, x[:-1])
            grad = [ratio * m - c for m, c in zip(mean, lp)]
            out.append((ratio * value - linear, grad, (piece[1], mean, weights, total)))
        return out

    def dual_residual(lam, g):
        # the gradient of the Lagrangian in x
        dual = [sum(l_k * a[i] for l_k, (_, a, _) in zip(lam, g)) for i in range(d)]
        return dual + [1.0 - sum(lam)]

    def centrality(x, lam, g, tau):
        return [l_k * (x[-1] - v) - 1.0 / tau for l_k, (v, _, _) in zip(lam, g)]

    g = state(u + [0.0])
    x = u + [max(v for v, _, _ in g) + 0.3]
    lam = [1.0 / len(pieces)] * len(pieces)
    dual = dual_residual(lam, g)
    whole = False
    for steps in range(MAX_NEWTON_STEPS + 1):
        slack = [x[-1] - v for v, _, _ in g]
        gap = sum(map(operator.mul, lam, slack))
        converged = gap <= GAP_TOL and math.hypot(*dual) <= GAP_TOL
        if converged or steps == MAX_NEWTON_STEPS:
            break
        # sum_k lam_k (H_k + a_k a_k^T / s_k) dx = -e_t - sum_k a_k / (tau s_k),
        # with a_k's t entry -1 and H_k's t row and column zero
        terms = [
            (l_k, s_k, a, [[ratio * h for h in row] for row in _lse_covariance(*moments)])
            for l_k, s_k, (_, a, moments) in zip(lam, slack, g)
        ]
        t_col = [sum(l_k * (-a[i] / s_k) for l_k, s_k, a, _ in terms) for i in range(d)]
        matrix = [
            [sum(l_k * (h[i][j] + a[i] * a[j] / s_k) for l_k, s_k, a, h in terms) for j in range(d)]
            + [t_col[i]]
            for i in range(d)
        ]
        matrix.append(t_col + [sum(l_k * (1.0 / s_k) for l_k, s_k in zip(lam, slack))])
        for sigma in (math.sqrt(gap), 0.1) if whole and gap < 0.01 else (0.1,):
            tau = len(pieces) / (sigma * gap)
            cent = centrality(x, lam, g, tau)
            rhs = [-sum(a[i] / (tau * s_k) for s_k, (_, a, _) in zip(slack, g)) for i in range(d)]
            rhs.append(sum(1.0 / (tau * s_k) for s_k in slack) - 1.0)
            dx = _solve_linear(matrix, rhs)
            if dx is None:
                continue  # singular at every sigma, so the loop's else stops
            dlam = [
                (l_k * (sum(map(operator.mul, a, dx)) - dx[-1]) - c_k) / s_k
                for l_k, c_k, s_k, (_, a, _) in zip(lam, cent, slack, g)
            ]
            fraction = max(0.99, 1 - gap) if sigma < 0.1 else 0.99
            step = fraction * min([1.0] + [-l_k / dl for l_k, dl in zip(lam, dlam) if dl < 0])
            norm = math.hypot(*dual, *cent)
            for tries in range(52):  # 1.5^-52 is about 2^-30
                x_new = [a + step * b for a, b in zip(x, dx)]
                lam_new = [a + step * b for a, b in zip(lam, dlam)]
                g_new = state(x_new)
                if all(v < x_new[-1] for v, _, _ in g_new):
                    dual_new = dual_residual(lam_new, g_new)
                    cent_new = centrality(x_new, lam_new, g_new, tau)
                    if math.hypot(*dual_new, *cent_new) <= (1 - 0.01 * step) * norm:
                        break
                step /= 1.5
            else:
                continue  # no step reduces the residual at this sigma
            break
        else:
            break  # none at sigma = 0.1 either: rounding has stalled it
        x, lam, g, dual = x_new, lam_new, g_new, dual_new
        whole = tries == 0
    return x[:-1], max(v for v, _, _ in g), steps, gap, converged


def _check_exponent_args(l: int, r: int, p: float) -> None:
    _check_degrees(l, r)
    if not 0 < p < 1:
        raise InputError(f"p={p} must lie strictly inside (0, 1)")


def noiseless_direct_exponent(l: int, r: int, p: float) -> GeneralMargin:
    """Worst-case growth rate of the expected number of confusable typical
    inputs under noiseless OR tests; negative means decoding succeeds.
    This is the noisy exponent at flip rate q = 0."""
    return noisy_direct_exponent(l, r, p, 0.0)


def noisy_direct_exponent(l: int, r: int, p: float, q: float) -> GeneralMargin:
    """Direct-part exponent with test outcomes flipped at rate q:
    -(l-1) h(p) + (l/r) h(q) plus the max over sigma in [0, l/r] of
    inf over z > 0 of sigma*log2 fire(z) + (1-sigma)*log2 quiet(z) - l*p*log2 z,
    where a firing test is seen through fire = (1-q)*pool + q and a quiet
    one through quiet = q*pool + (1-q).

    The objective is affine in sigma and convex in u = log2 z, so by Sion's
    minimax theorem the max and inf swap, and the max over sigma sits at an
    endpoint: the value is inf over u of max(Q, (1 - l/r) Q + (l/r) F)
    - l*p*u, with F, Q the log2 fire and quiet enumerators at z = 2^u.
    fire - quiet is a multiple of pool - 1, so the branches cross at the
    kink z* = 2^(1/r) - 1, where the 1-D iteration starts.  The result is a
    binary-alphabet GeneralMargin whose z = (1, z) holds the minimizer.
    """
    _check_exponent_args(l, r, p)
    if not 0 <= q < 1:
        raise InputError(f"q={q} outside [0, 1)")
    fire_terms, quiet_terms = _fire_quiet_log_terms(r, q)
    base = -(l - 1) * binary_entropy(p) + (l / r) * binary_entropy(q)
    ratio, lp = l / r, l * p
    # quiet has a nonzero constant term, so the objective rises as z -> 0;
    # as z -> inf the steepest branch governs it, through each top nonzero
    # term (at q = 0 quiet is the constant 1)
    (dq, lq), (df, lf) = quiet_terms[-1], fire_terms[-1]
    slope, limit = max((dq + s * (df - dq) - lp, lq + s * (lf - lq)) for s in (0.0, ratio))
    if slope < 0:
        raise InputError("the exponent is unbounded for every outcome weight")
    if slope == 0:
        # convex and leveling off: the infimum is the limit at z -> inf
        return GeneralMargin(base + limit, (1.0, math.inf), 0, True, None)
    u_star, val, steps, converged = _minimax_1d(
        [quiet_terms, fire_terms], ratio, lp, 1.0 - ratio, math.log2(fixed_point_z(r))
    )
    return GeneralMargin(base + val, (1.0, 2.0**u_star), steps, converged, None)


# ---------------------------------------------------------------------------
# margins for arbitrary symmetric test functions
# ---------------------------------------------------------------------------


def binary_direct_margin(f: TestFunction, l: int, r: int, p: float) -> GeneralMargin:
    """Direct-part margin for a binary-input symmetric test function:
    -(l-1) h(p) + inf over z>0 of [(l/r) max_k log2 B_k(z) - l p log2 z],
    where B_k enumerates by weight the pool contents producing output k:
    general_direct_margin at probs (1 - p, p), with p = 0 or 1 refused."""
    _check_exponent_args(l, r, p)
    return general_direct_margin(f, l, r, (1 - p, p))


@dataclass(frozen=True)
class GeneralMargin:
    """Direct-part margin or exponent over a u-ary alphabet, with optimizer
    diagnostics.  `z` is the minimizer with z_1 pinned to 1.  The solver
    runs on the alphabet left after merging the symbols the test cannot
    tell apart, and each merged coordinate is split back in proportion to
    the symbols' probabilities.  `sweeps` is the solver's Newton step
    count: interior-point steps, or the points the 1-D iteration of a binary
    alphabet, merged or not, evaluated.  `gap` is the interior-point
    iteration's surrogate duality gap, which bounds how far `value` sits
    above the infimum (None when the alphabet is or merges down to binary).
    `converged` is False when the iteration stopped at MAX_NEWTON_STEPS, or
    before its gap reached GAP_TOL.  A direct exponent is binary: z is
    (1, z*) and gap None; when its infimum is the limit z -> inf, z is
    (1, inf), sweeps 0 and converged True."""

    value: float
    z: tuple[float, ...]
    sweeps: int
    converged: bool
    gap: float | None


def _mergeable(table: dict, i: int, j: int) -> bool:
    """Whether a test cannot tell input symbols i and j apart: moving one
    pooled symbol from j to i never changes its output."""
    for t, k in table.items():
        if t[j]:
            moved = list(t)
            moved[i] += 1
            moved[j] -= 1
            if table[tuple(moved)] != k:
                return False
    return True


def _merge_symbols(f: TestFunction, probs: Sequence[float]):
    """(f', masses, groups, split): f with the first pair of input symbols
    i < j that it cannot tell apart merged into i, again while more than two
    symbols remain.  Each A_k then depends only on z_i + z_j (multinomial
    theorem), and at the optimal split z_i : z_j = p_i : p_j the margin
    gains P h(p_i / P), P = p_i + p_j (chain rule for H): `split` sums
    those.  f' has input symbol g of probability masses[g] for the symbols
    groups[g] of f merged into it, symbol 0 always in group 0."""
    masses, groups, split = list(probs), [[i] for i in range(len(probs))], 0.0
    while len(masses) > 2:
        pair = next(
            (pair for pair in itertools.combinations(range(len(masses)), 2)
             if _mergeable(f.table, *pair)),
            None,
        )
        if pair is None:
            break
        i, j = pair
        mass = masses[i] + masses[j]
        split += mass * binary_entropy(masses[i] / mass)
        masses[i] = mass
        del masses[j]
        groups[i] += groups.pop(j)
        table = {t[:j] + t[j + 1:]: k for t, k in f.table.items() if not t[j]}
        alphabet = f.input_alphabet[:j] + f.input_alphabet[j + 1:]
        f = TestFunction(alphabet, f.output_alphabet, f.arity, table)
    return f, masses, groups, split


def general_direct_margin(
    f: TestFunction, l: int, r: int, probs: Sequence[float]
) -> GeneralMargin:
    """Direct-part margin for an arbitrary symmetric test function over a
    finite input alphabet with symbol distribution probs.

    The inner objective (l/r) max_k log2 A_k(z) - l sum_i p_i log2 z_i is a
    max of convex functions of u_i = log2 z_i and scale invariant, so z_1 is
    pinned to 1.  Symbols the test cannot tell apart are merged first
    (_merge_symbols), which is exact; the merged alphabet is solved by
    _unmerged_margin, and each merged coordinate Z of mass P is reported
    as z_i = Z p_i / P, rescaled so that z_1 = 1.  A value or z past the
    float range is refused with InputError.
    """
    _check_degrees(l, r)
    _check_arity(f, r)
    _source_entropy(f, probs)
    if 0 in probs:
        raise InputError("a symbol probability is 0; drop the symbol first")
    if len(probs) == 2:
        return _unmerged_margin(f, l, r, probs)  # a binary alphabet never merges
    merged, masses, groups, split = _merge_symbols(f, probs)
    margin = _unmerged_margin(merged, l, r, masses)
    if merged is not f:
        scale = probs[0] / masses[0]
        z = [0.0] * len(probs)
        for z_g, mass, group in zip(margin.z, masses, groups):
            for i in group:
                z[i] = z_g * (probs[i] / mass) / scale
        margin = replace(margin, value=margin.value + split, z=tuple(z))
    if not (math.isfinite(margin.value) and all(map(math.isfinite, margin.z))):
        raise InputError(f"probs {tuple(probs)} put the margin's z past the float range")
    return margin


def _unmerged_margin(
    f: TestFunction, l: int, r: int, probs: Sequence[float]
) -> GeneralMargin:
    """general_direct_margin without the merge or the float-range refusal,
    on checked arguments.  A binary alphabet leaves one coordinate, for the
    1-D bracketed Newton iteration _minimax_1d; larger ones go to a
    primal-dual interior-point iteration, which does not stall where
    enumerators tie.  A coordinate of z past the float range is inf.
    """
    base = -(l - 1) * entropy(probs)
    if len(probs) == 2:
        enums = [_log_terms(weight_enumerator(f, k)) for k in range(f.num_outputs)]
        u_star, val, steps, converged = _minimax_1d(
            [terms for terms in enums if terms], l / r, l * probs[1]
        )
        return GeneralMargin(base + val, (1.0, 2.0**u_star), steps, converged, None)
    # per nonempty output, over its types in sorted order: the log2
    # multiplicities, and one exponent column per free symbol
    pieces = []
    for k in range(f.num_outputs):
        terms = type_enumerator(f, k)
        if terms:
            rows = sorted((t[1:], math.log2(c)) for t, c in terms.items())
            pieces.append(([lg for _, lg in rows], list(zip(*(t for t, _ in rows)))))
    # start at z_i = p_i / p_1, the minimizer of the smooth majorant made by
    # summing every enumerator: sum_k A_k(z) = (z_1 + ... + z_u)^r
    u, val, steps, gap, converged = _minimax_interior_point(
        pieces, l / r, [l * p_i for p_i in probs[1:]], [math.log2(p / probs[0]) for p in probs[1:]]
    )
    # 2.0**u overflows from u = 1024, and a NaN fails the test too
    z = (2.0**u_i if u_i < 1024 else math.inf for u_i in u)
    return GeneralMargin(base + val, (1.0, *z), steps, converged, gap)

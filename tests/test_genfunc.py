import math
import random
import struct
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from brute_force import exponent_infimum, finite_n_margin, threshold_function
from pooltest import TestFunction as PoolFunction
from pooltest import genfunc
from pooltest.bounds import _optimized_margin
from pooltest import (
    GeneralMargin,
    InputError,
    SystemParams,
    achievable_margin,
    binary_direct_margin,
    binary_entropy,
    converse_margin,
    count_function,
    ensemble_event_probability,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    entropy,
    fixed_point_z,
    general_converse_bound,
    general_direct_margin,
    general_ensemble_event_probability,
    noiseless_direct_exponent,
    noisy_direct_exponent,
    noisy_ensemble_event_probability,
    or_function,
    or_pool_poly,
    outcome_distribution,
    type_enumerator,
    weight_enumerator,
)
from pooltest.ensemble import compositions
from pooltest.genfunc import multinomial


# (l, r) pairs of the 1-D solver's sweeps, on both sides of every crossover
PAIRS = ((3, 6), (2, 4), (3, 9), (4, 8), (3, 12), (2, 8), (2, 3), (1, 2))


def ternary_max(r=2):
    """Ternary test whose output is the largest pooled symbol: no two of its
    input symbols can be merged."""
    return PoolFunction.from_callable(lambda vals: max(vals), (0, 1, 2), (0, 1, 2), r)


def merged_or(r):
    """Ternary-input test that fires when any pooled symbol is nonzero."""
    return PoolFunction.from_callable(lambda vals: int(any(vals)), (0, 1, 2), (0, 1), r)


def pair_or(r):
    """4-symbol test over pairs (x_i, x'_i), coded as x + 2x': its output,
    coded the same way, is the pair of OR outcomes over x and over x'."""
    return PoolFunction.from_callable(
        lambda vals: int(any(v & 1 for v in vals)) + 2 * int(any(v & 2 for v in vals)),
        (0, 1, 2, 3), (0, 1, 2, 3), r,
    )


def or_margin_closed_form(l, r, p):
    """Optimized OR margin: the fixed-point bound up to the crossover
    2 - 2^((r-1)/r); past it, the objective at the stationary point z > z*
    of z (1+z)^(r-1) / ((1+z)^r - 1) = p, bisected on log2 z."""
    if p <= 2 - 2 ** ((r - 1) / r):
        return achievable_margin(l, r, p)
    lo, hi = math.log2(fixed_point_z(r)), 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        z = 2**mid
        if z * (1 + z) ** (r - 1) / ((1 + z) ** r - 1) < p:
            lo = mid
        else:
            hi = mid
    z = 2 ** (0.5 * (lo + hi))
    pool = (1 + z) ** r - 1
    return -(l - 1) * binary_entropy(p) + (l / r) * math.log2(pool) - l * p * math.log2(z)


# the degree pairs of the benchmark's merged-OR margins
MERGED_PAIRS = ((3, 6), (2, 4), (3, 9), (4, 8))


def merged_or_probs(r):
    """The split defect mass 0.6 / 0.4 on both sides of the OR crossover."""
    crossover = 2 - 2 ** ((r - 1) / r)
    return [(1 - p, 0.6 * p, 0.4 * p) for p in (0.5 * crossover, crossover + 0.05)]


def random_ternary_cases(seed, count):
    """(f, l, r, probs) with a random table over 3 input symbols, r = 2-3,
    2-3 outputs, integer symbol weights 1-20 and l = 1-3."""
    rnd = random.Random(seed)
    for _ in range(count):
        r, outputs = rnd.randint(2, 3), rnd.randint(2, 3)
        table = {t: rnd.randrange(outputs) for t in compositions(r, 3)}
        f = PoolFunction((0, 1, 2), tuple(range(outputs)), r, table)
        weights = [rnd.randint(1, 20) for _ in range(3)]
        yield f, rnd.randint(1, 3), r, tuple(w / sum(weights) for w in weights)


def evaluate(enumerator, z):
    """A {type: multiplicity} enumerator at the point z."""
    return sum(c * math.prod(zi**e for zi, e in zip(z, t)) for t, c in enumerator.items())


def margin_objective(enumerators, l, r, probs, u):
    """The general direct-margin objective at z = (1, 2^u_1, 2^u_2, ...)."""
    z = (1.0, *(2.0**x for x in u))
    values = [evaluate(a, z) for a in enumerators]
    top = max(math.log2(v) for v in values if v > 0)
    linear = sum(p * x for p, x in zip(probs[1:], u))
    return -(l - 1) * entropy(probs) + (l / r) * top - l * linear


class TestPolynomial:
    def test_or_pool_poly(self):
        # (1+z)^r - 1: binomial coefficients with the constant removed
        assert or_pool_poly(3) == (0, 3, 3, 1)
        assert or_pool_poly(1) == (0, 1)
        assert or_pool_poly(6)[6] == 1
        assert or_pool_poly(6)[1] == 6
        assert or_pool_poly(6)[0] == 0
        with pytest.raises(InputError, match="^r must be positive$"):
            or_pool_poly(0)

    def test_multinomial(self):
        assert multinomial(4, [2, 2]) == 6
        assert multinomial(6, [1, 2, 3]) == 60
        assert multinomial(0, []) == 1
        with pytest.raises(InputError):
            multinomial(4, [2, 3])


class TestEventProbabilityOracles:
    """Closed-form values checked against full enumeration of every wiring."""

    def test_quarter_system_hand_value(self):
        assert ensemble_event_probability(SystemParams(1, 2, 4), 2, 1) == Fraction(1, 6)

    def test_degenerate_weights(self):
        params = SystemParams(3, 6, 12)
        assert ensemble_event_probability(params, 0, 0) == 1
        assert ensemble_event_probability(params, 0, 3) == 0
        assert ensemble_event_probability(params, 12, 6) == 1

    def test_large_system_hand_value(self):
        assert ensemble_event_probability(SystemParams(3, 6, 12), 2, 2) == Fraction(
            461, 973896
        )

    @pytest.mark.parametrize("params", [SystemParams(1, 2, 4), SystemParams(1, 2, 2)])
    def test_matches_enumeration_everywhere(self, params):
        for w in range(params.n + 1):
            for s in range(params.m + 1):
                assert ensemble_event_probability(params, w, s) == (
                    enumeration_fraction_noiseless(params, w, s)
                ), (w, s)

    def test_matches_enumeration_spot_checks(self):
        params = SystemParams(2, 4, 4)
        for w, s in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert ensemble_event_probability(params, w, s) == (
                enumeration_fraction_noiseless(params, w, s)
            )

    @pytest.mark.parametrize(
        "params,weights,noisy_weights",
        [
            (SystemParams(2, 4, 8), range(9), range(9)),
            (SystemParams(1, 2, 16), range(17), range(17)),
            (SystemParams(3, 6, 12), range(13), range(13)),
            (SystemParams(3, 6, 24), range(4), range(4)),
            (SystemParams(3, 6, 48), (4, 8, 12), (4, 8, 12)),
        ],
        ids=["2-4-8", "1-2-16", "3-6-12", "3-6-24", "3-6-48"],
    )
    def test_oracles_past_the_wiring_ceiling(self, params, weights, noisy_weights):
        # 16 to 144 sockets, beyond a walk over every wiring
        noisy = SystemParams(params.l, params.r, params.n, q=Fraction(1, 10))
        for s in range(params.m + 1):
            for w in weights:
                assert enumeration_fraction_noiseless(params, w, s) == (
                    ensemble_event_probability(params, w, s)
                ), (w, s)
            for w in noisy_weights:
                assert enumeration_fraction_noisy(noisy, w, s) == (
                    noisy_ensemble_event_probability(noisy, w, s)
                ), (w, s)

    def test_normalization_over_outcomes(self):
        for params in (SystemParams(3, 6, 12), SystemParams(2, 4, 4)):
            for w in range(params.n + 1):
                total = sum(
                    math.comb(params.m, s) * ensemble_event_probability(params, w, s)
                    for s in range(params.m + 1)
                )
                assert total == 1, w

    def test_event_bounds_validated(self):
        params = SystemParams(1, 2, 4)
        with pytest.raises(InputError):
            ensemble_event_probability(params, 5, 1)
        with pytest.raises(InputError):
            ensemble_event_probability(params, 1, 3)


class TestNoisyEventProbability:
    def test_hand_values_single_test(self):
        params = SystemParams(1, 2, 2, q=Fraction(1, 4))
        assert noisy_ensemble_event_probability(params, 0, 1) == Fraction(1, 4)
        assert noisy_ensemble_event_probability(params, 1, 1) == Fraction(3, 4)

    @pytest.mark.parametrize("q", [Fraction(1, 4), Fraction(1, 2)])
    def test_matches_noisy_enumeration(self, q):
        params = SystemParams(1, 2, 2, q=q)
        for w in range(3):
            for s in range(2):
                assert noisy_ensemble_event_probability(params, w, s) == (
                    enumeration_fraction_noisy(params, w, s)
                ), (q, w, s)

    def test_zero_noise_reduces_exactly(self):
        clean = SystemParams(3, 6, 12)
        noisy = SystemParams(3, 6, 12, q=Fraction(0))
        for w in range(13):
            for s in range(7):
                assert noisy_ensemble_event_probability(
                    noisy, w, s
                ) == ensemble_event_probability(clean, w, s)

    def test_full_noise_complements_outcomes(self):
        clean = SystemParams(3, 6, 12)
        flipped = SystemParams(3, 6, 12, q=Fraction(1))
        for w in range(13):
            for s in range(7):
                assert noisy_ensemble_event_probability(
                    flipped, w, s
                ) == ensemble_event_probability(clean, w, 6 - s)

    def test_half_noise_erases_the_graph(self):
        params = SystemParams(1, 2, 2, q=Fraction(1, 2))
        for w in range(3):
            assert noisy_ensemble_event_probability(params, w, 1) == Fraction(1, 2)

    def test_normalization(self):
        params = SystemParams(3, 6, 12, q=Fraction(1, 10))
        for w in (0, 1, 5, 12):
            total = sum(
                math.comb(6, s) * noisy_ensemble_event_probability(params, w, s)
                for s in range(7)
            )
            assert total == 1

    def test_float_q_is_close_to_exact(self):
        exact = noisy_ensemble_event_probability(
            SystemParams(3, 6, 12, q=Fraction(1, 10)), 2, 3
        )
        approx = noisy_ensemble_event_probability(SystemParams(3, 6, 12, q=0.1), 2, 3)
        assert isinstance(approx, float)
        assert approx == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("n, w, s", [(720, 360, 90), (1200, 120, 150)])
    def test_float_q_rounds_the_exact_value_once(self, monkeypatch, n, w, s):
        # at these sizes a double-precision product of the full powers overflows;
        # neither case forms the exact sum of power products: (720, 360, 90)
        # has no stable power and takes the recurrence in (1+z)^r, and at
        # (1200, 120, 150) the leading-bit bounds decide the float
        exact = noisy_ensemble_event_probability(
            SystemParams(3, 6, n, q=Fraction(0.1)), w, s
        )

        def refuse(fired, quieted):
            raise AssertionError("exact numerator formed")

        monkeypatch.setattr(genfunc, "_dot_reversed", refuse)
        approx = noisy_ensemble_event_probability(SystemParams(3, 6, n, q=0.1), w, s)
        assert isinstance(approx, float)
        assert math.isfinite(approx)
        assert approx == float(exact)

    @staticmethod
    def _float_q_grid():
        rng = random.Random(20131)
        for l, r in ((3, 6), (2, 4)):
            for n in range(60, 241, 36):
                m = n * l // r
                for w in (1, n // 10, n // 4, n // 2):
                    for s in (0, m // 8, m // 3, m - 1):
                        yield SystemParams(l, r, n, q=rng.random()), w, s

    def test_float_q_is_the_rounded_exact_value_on_a_grid(self):
        for params, w, s in self._float_q_grid():
            exact = noisy_ensemble_event_probability(
                SystemParams(params.l, params.r, params.n, q=Fraction(params.q)), w, s
            )
            assert noisy_ensemble_event_probability(params, w, s) == float(exact), (
                params, w, s,
            )

    @staticmethod
    def _has_stable_power(params, w, s):
        q = Fraction(params.q)
        fire, quiet = genfunc._fire_quiet(params.r, q.numerator, q.denominator - q.numerator)
        lw = params.l * w
        return any(
            genfunc._power_bounds(c, e, lw) is not None
            for c, e in ((fire, s), (quiet, params.m - s))
        )

    def test_undecided_bounds_fall_back_to_the_exact_numerator(self, monkeypatch):
        # with fewer leading bits than a float carries, no bound pair can
        # decide; points without a stable power never reach the bounds
        exact_values = [
            float(noisy_ensemble_event_probability(
                SystemParams(params.l, params.r, params.n, q=Fraction(params.q)), w, s
            ))
            for params, w, s in self._float_q_grid()
        ]
        stable = sum(self._has_stable_power(*point) for point in self._float_q_grid())
        fallbacks = []
        dot = genfunc._dot_reversed

        def counted(fired, quieted):
            fallbacks.append(1)
            return dot(fired, quieted)

        monkeypatch.setattr(genfunc, "_ROUND_BITS", 20)
        monkeypatch.setattr(genfunc, "_dot_reversed", counted)
        values = [
            noisy_ensemble_event_probability(params, w, s)
            for params, w, s in self._float_q_grid()
        ]
        assert values == exact_values
        assert len(fallbacks) == stable
        assert (stable, len(values)) == (126, 192)  # both routes are on the grid

    @staticmethod
    def _powers_formed(monkeypatch):
        # the exponents e of every exact truncated power formed
        formed = []
        power = genfunc._truncated_power

        def recorded(coeffs, e, top):
            formed.append(e)
            return power(coeffs, e, top)

        monkeypatch.setattr(genfunc, "_truncated_power", recorded)
        return formed

    @pytest.mark.parametrize("n, w, s", [(1200, 121, 150), (720, 72, 90)])
    def test_stable_quiet_power_is_bounded_not_formed(self, monkeypatch, n, w, s):
        # l*w <= (m - s) + 1: quiet's recurrence stays where every weight is
        # nonnegative, so its certified bounds decide the float
        exact = noisy_ensemble_event_probability(SystemParams(3, 6, n, q=Fraction(0.1)), w, s)
        formed = self._powers_formed(monkeypatch)
        value = noisy_ensemble_event_probability(SystemParams(3, 6, n, q=0.1), w, s)
        assert value == float(exact)
        assert formed == [s]  # fire's power is exact, quiet's (m - s) is not formed

    def test_unstable_powers_take_the_exact_route(self, monkeypatch):
        # l*w = 1083 passes both (m - s) + 1 = 271 and s + 1 = 91: the exact
        # numerator comes from the recurrence in (1+z)^r, with no power formed
        # and no rounding test
        n, w, s = 720, 361, 90
        exact = noisy_ensemble_event_probability(SystemParams(3, 6, n, q=Fraction(0.1)), w, s)
        formed = self._powers_formed(monkeypatch)

        def refuse(*args):
            raise AssertionError("rounding test run")

        monkeypatch.setattr(genfunc, "_round_from_bounds", refuse)
        value = noisy_ensemble_event_probability(SystemParams(3, 6, n, q=0.1), w, s)
        assert value == float(exact)
        assert formed == []

    @pytest.mark.parametrize("n, w, s", [(12, 2, 3), (720, 360, 90), (1200, 120, 150)])
    def test_default_float_q_is_the_rounded_noiseless_value(self, n, w, s):
        value = noisy_ensemble_event_probability(SystemParams(3, 6, n), w, s)
        assert isinstance(value, float)
        assert value == float(ensemble_event_probability(SystemParams(3, 6, n), w, s))


def _schoolbook_power(coeffs, e, top):
    out = [1] + [0] * top
    for _ in range(e):
        out = [sum(out[k - j] * c for j, c in enumerate(coeffs) if j <= k) for k in range(top + 1)]
    return out


# flip rates at the edges of the float range and around 1/2
EDGE_Q = (0.0, 5e-324, 1e-300, 1e-3, 0.5 - 2**-53, 0.5, 0.5 + 2**-53, 1 - 1e-16, 1.0)


class TestTruncatedPowers:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_power_is_the_schoolbook_power(self, data):
        # zeros at either end, common factors and truncations past the degree
        coeffs = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=5), label="coeffs")
        coeffs = [0] * data.draw(st.integers(0, 2)) + [data.draw(st.integers(1, 40))] + coeffs
        scale = data.draw(st.sampled_from((1, 2, 6, 2**70 + 1)), label="scale")
        coeffs = [c * scale for c in coeffs]
        e, top = data.draw(st.integers(0, 12), label="e"), data.draw(st.integers(0, 40), label="top")
        assert genfunc._truncated_power(coeffs, e, top) == _schoolbook_power(coeffs, e, top)

    @staticmethod
    def _check_bounds(coeffs, e, top):
        bounds = genfunc._power_bounds(coeffs, e, top)
        exact = genfunc._truncated_power(coeffs, e, top)
        assert len(bounds) == len(exact) == top + 1
        for k, ((lo, hi, x), v) in enumerate(zip(bounds, exact)):
            lo_v, hi_v = (lo << x, hi << x) if x >= 0 else (lo, hi)
            v_x = v if x >= 0 else v << -x
            assert lo_v <= v_x <= hi_v, k
            # far narrower than the _ROUND_BITS leading bits the rounding keeps
            assert hi - lo <= hi >> (genfunc._ROUND_BITS + 32), k

    @staticmethod
    def _stable_top(coeffs, e):
        # the recurrence stops by z^(e+1) of a^e, after the z^order split
        # (order 1 for fire at q = 0)
        return next(j for j, c in enumerate(coeffs) if c) * e + e + 1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bounds_contain_every_coefficient_of_a_stable_power(self, data):
        r = data.draw(st.integers(1, 9), label="r")
        q = data.draw(st.sampled_from(EDGE_Q) | st.floats(0, 1), label="q")
        big_p, big_q = Fraction(q).numerator, Fraction(q).denominator
        coeffs = data.draw(st.sampled_from(genfunc._fire_quiet(r, big_p, big_q - big_p)))
        e = data.draw(st.integers(0, 150), label="e")
        top = data.draw(st.integers(0, self._stable_top(coeffs, e)), label="top")
        self._check_bounds(coeffs, e, top)

    @pytest.mark.parametrize("q", EDGE_Q)
    @pytest.mark.parametrize("e", [1, 2, 45])
    def test_bounds_at_the_edge_of_the_stable_range(self, q, e):
        # at k = e + 1 the weight of b_{k-1} is 0, so the largest earlier
        # coefficient need not lead the sum
        big_p, big_q = Fraction(q).numerator, Fraction(q).denominator
        for coeffs in genfunc._fire_quiet(6, big_p, big_q - big_p):
            self._check_bounds(coeffs, e, self._stable_top(coeffs, e))

    @pytest.mark.parametrize("q", EDGE_Q)
    def test_bounds_refuse_a_truncation_past_the_stable_range(self, q):
        big_p, big_q = Fraction(q).numerator, Fraction(q).denominator
        for coeffs in genfunc._fire_quiet(6, big_p, big_q - big_p):
            order = next(j for j, c in enumerate(coeffs) if c)
            deg = max(j for j, c in enumerate(coeffs) if c) - order
            e = 20
            stable = order * e + min(e + 1, deg * e)
            assert genfunc._power_bounds(coeffs, e, stable) is not None
            assert (genfunc._power_bounds(coeffs, e, stable + 1) is None) == (deg * e > e + 1)


class TestNoisyNumerator:
    """_noisy_numerator against the product of the two truncated powers."""

    @staticmethod
    def _check(l, r, n, q, w, s):
        big_p, big_q = Fraction(q).numerator, Fraction(q).denominator
        fire, quiet = genfunc._fire_quiet(r, big_p, big_q - big_p)
        m, lw = n * l // r, l * w
        expected = genfunc._dot_reversed(
            genfunc._truncated_power(fire, s, lw), genfunc._truncated_power(quiet, m - s, lw)
        )
        assert genfunc._noisy_numerator(big_q - big_p, big_p, r, m, s, lw) == expected, (
            l, r, n, q, w, s,
        )

    @pytest.mark.parametrize("q", EDGE_Q)
    @pytest.mark.parametrize("l, r, n", [(3, 6, 12), (4, 2, 4), (1, 1, 5), (2, 3, 6)])
    def test_every_event_of_a_small_system(self, l, r, n, q):
        # l > r and r = 1 included; every w in [0, n] and s in [0, m]
        for w in range(n + 1):
            for s in range(n * l // r + 1):
                self._check(l, r, n, q, w, s)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_is_the_product_of_the_powers(self, data):
        l, r = data.draw(st.integers(1, 6), label="l"), data.draw(st.integers(1, 8), label="r")
        g = math.gcd(l, r)
        k = data.draw(st.integers(1, 60 * g // r + 1), label="k")
        n, m = r // g * k, l // g * k
        q = data.draw(st.sampled_from(EDGE_Q) | st.floats(0, 1), label="q")
        w = data.draw(st.sampled_from((0, n)) | st.integers(0, n), label="w")
        s = data.draw(st.sampled_from((0, m)) | st.integers(0, m), label="s")
        self._check(l, r, n, q, w, s)

    @pytest.mark.parametrize("n, w, s, q", [
        (720, 359, 90, 0.1),
        (720, 360, 90, 0.1),
        (240, 120, 30, 0.5),            # d = 0
        (240, 120, 30, 0.9),            # d < 0
        (240, 120, 30, 1 - 1e-16),
    ])
    def test_large_event_where_neither_power_is_stable(self, n, w, s, q):
        # the float-q route takes the recurrence here; C(rt, lw) runs to
        # thousands of bits at n = 720
        big_p, big_q = Fraction(q).numerator, Fraction(q).denominator
        fire, quiet = genfunc._fire_quiet(6, big_p, big_q - big_p)
        assert genfunc._power_bounds(fire, s, 3 * w) is None
        assert genfunc._power_bounds(quiet, n // 2 - s, 3 * w) is None
        self._check(3, 6, n, q, w, s)

    def test_large_event_is_the_exact_value_rounded_once(self):
        rounded = noisy_ensemble_event_probability(SystemParams(3, 6, 720, q=0.1), 359, 90)
        exact = noisy_ensemble_event_probability(SystemParams(3, 6, 720, q=Fraction(0.1)), 359, 90)
        assert rounded == float(exact)


class TestGeneralEventProbability:
    def test_reduces_to_binary_or(self):
        params = SystemParams(2, 4, 4)
        f = or_function(4)
        for w in range(5):
            for s in range(params.m + 1):
                assert general_ensemble_event_probability(
                    params, f, (4 - w, w), (params.m - s, s)
                ) == ensemble_event_probability(params, w, s)

    def test_ternary_max_matches_enumeration(self):
        params = SystemParams(1, 2, 2)
        f = ternary_max()
        input_types = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        output_types = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for ic in input_types:
            for oc in output_types:
                assert general_ensemble_event_probability(
                    params, f, ic, oc
                ) == enumeration_fraction_general(params, f, ic, oc), (ic, oc)

    @pytest.mark.parametrize("l,r,n", [(1, 3, 6), (2, 2, 3)])
    def test_four_symbol_pair_or_matches_enumeration(self, l, r, n):
        # every input type, including those with empty symbols and with
        # symbol 0 (whose exponent the extraction leaves implied) empty
        params, f = SystemParams(l, r, n), pair_or(r)
        hits_without_symbol_0 = 0
        for ic in compositions(n, 4):
            for oc in compositions(params.m, 4):
                value = general_ensemble_event_probability(params, f, ic, oc)
                assert value == enumeration_fraction_general(params, f, ic, oc), (ic, oc)
                hits_without_symbol_0 += ic[0] == 0 and value > 0
        assert hits_without_symbol_0 > 0

    @pytest.mark.parametrize(
        "params,f,input_counts,outputs",
        [
            pytest.param(
                SystemParams(3, 6, 12), count_function(6), (12 - w, w), list(compositions(6, 7)),
                id=f"3-6-12-count-w{w}",
            )
            for w in (2, 6)
        ]
        + [
            pytest.param(
                SystemParams(3, 6, 24), merged_or(6), (20, 3, 1), [(12 - s, s) for s in range(13)],
                id="3-6-24-merged-or",
            ),
            pytest.param(
                SystemParams(3, 6, 48), merged_or(6), (42, 4, 2), [(12, 12)],
                id="3-6-48-merged-or",
            ),
            # x of weight 4 and x' with one object removed and one added:
            # both tests fire, or one fires for x only and one for x' only
            pytest.param(
                SystemParams(3, 6, 48), pair_or(6), (43, 1, 1, 3),
                [(21, 0, 0, 3), (12, 0, 0, 12), (16, 1, 1, 6)],
                id="3-6-48-pair-or",
            ),
        ],
    )
    def test_oracle_past_the_wiring_ceiling(self, params, f, input_counts, outputs):
        # 36 to 144 sockets, beyond a walk over every wiring
        for oc in outputs:
            assert enumeration_fraction_general(params, f, input_counts, oc) == (
                general_ensemble_event_probability(params, f, input_counts, oc)
            ), oc

    def test_negative_counts_rejected(self):
        params = SystemParams(1, 2, 4)
        with pytest.raises(InputError, match="nonnegative"):
            general_ensemble_event_probability(params, or_function(2), (4, 0), (3, -1))
        with pytest.raises(InputError, match="nonnegative"):
            general_ensemble_event_probability(params, or_function(2), (5, -1), (1, 1))

    def test_normalization_over_output_types(self):
        params = SystemParams(1, 2, 4)
        f = ternary_max()
        total = Fraction(0)
        for s0 in range(3):
            for s1 in range(3 - s0):
                oc = (s0, s1, 2 - s0 - s1)
                total += multinomial(2, oc) * general_ensemble_event_probability(
                    params, f, (1, 2, 1), oc
                )
        assert total == 1

    def test_count_sums_validated(self):
        params = SystemParams(1, 2, 4)
        with pytest.raises(InputError):
            general_ensemble_event_probability(params, or_function(2), (1, 1), (1, 1))
        with pytest.raises(InputError):
            general_ensemble_event_probability(params, or_function(2), (2, 2), (1, 2))


class TestTypeEnumerators:
    def test_or_enumerators_recover_pool_polynomial(self):
        f = or_function(6)
        quiet = weight_enumerator(f, 0)
        fire = weight_enumerator(f, 1)
        assert quiet == (1, 0, 0, 0, 0, 0, 0)
        assert fire == or_pool_poly(6)

    def test_or_type_enumerator_collapses_to_weight(self):
        f = or_function(4)
        te = type_enumerator(f, 1)
        we = weight_enumerator(f, 1)
        # substituting z0 = 1 leaves a univariate enumerator in z1
        for k in range(5):
            assert te.get((4 - k, k), 0) == we[k]

    def test_enumerators_partition_all_types(self):
        f = ternary_max()
        total = {}
        for k in range(3):
            for counts, coeff in type_enumerator(f, k).items():
                total[counts] = total.get(counts, 0) + coeff
        for counts, coeff in total.items():
            assert coeff == multinomial(2, counts)
        assert sum(total.values()) == 3**2

    def test_threshold_enumerator_counts_heavy_pools(self):
        f = threshold_function(4, 2)
        fire = weight_enumerator(f, 1)
        assert fire[0] == 0
        assert fire[1] == 0
        assert fire[2] == math.comb(4, 2)
        assert fire[4] == 1

    def test_envelope_identity_for_or(self):
        # the firing-pool enumerator evaluated at z matches the closed form
        fire = weight_enumerator(or_function(6), 1)
        for z in (0.05, 0.1, 0.2, 0.4, 0.8):
            value = sum(c * z**j for j, c in enumerate(fire))
            assert abs(value - ((1 + z) ** 6 - 1)) <= 1e-12

    def test_enumerator_arguments_are_checked(self):
        for k in (-1, 2):
            with pytest.raises(InputError, match=rf"^output index {k} outside \[0, 2\)$"):
                type_enumerator(or_function(4), k)
        with pytest.raises(InputError, match="^weight enumerators need a binary input alphabet$"):
            weight_enumerator(ternary_max(), 0)

    def test_outcome_distribution_evaluates_each_enumerator(self):
        # each output's types at z = probs; the outputs partition every type
        f, probs = ternary_max(), (0.5, 0.3, 0.2)
        dist = outcome_distribution(f, probs)
        expected = [evaluate(type_enumerator(f, k), probs) for k in range(3)]
        assert dist == pytest.approx(expected, abs=1e-15)
        assert dist[0] == pytest.approx(0.5**2, abs=1e-15)
        assert sum(dist) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InputError):
            outcome_distribution(f, (0.5, 0.5))
        with pytest.raises(InputError):
            outcome_distribution(f, (0.5, 0.6, 0.2))

    def test_outcome_distribution_past_the_float_range_of_its_multiplicities(self):
        # C(1031, 515) is past the float range: such terms are formed in the
        # log domain, and the rest exactly as below it
        f = or_function(1031)
        dist = outcome_distribution(f, (0.5, 0.5))
        assert dist[0] == 0.5**1031
        assert dist[1] == pytest.approx(1.0, abs=1e-12)
        assert outcome_distribution(f, (0.3, 0.7)) == [0.0, pytest.approx(1.0, abs=1e-12)]
        # a zero probability zeroes every term that pools its symbol
        assert outcome_distribution(f, (1.0, 0.0)) == [1.0, 0.0]


class TestGeneralConverse:
    def test_or_function_recovers_binary_converse(self):
        for l, r, p in ((3, 6, 0.08), (2, 4, 0.05)):
            a = general_converse_bound(or_function(r), l, r, [1 - p, p])
            assert abs(a - converse_margin(l, r, p)) <= 1e-12

    def test_arity_past_the_float_range_of_its_multiplicities(self):
        a = general_converse_bound(or_function(1031), 3, 1031, (0.5, 0.5))
        assert abs(a - converse_margin(3, 1031, 0.5)) <= 1e-12

    def test_constant_function_gives_source_entropy(self):
        const = PoolFunction((0, 1), (0,), 2, {(2, 0): 0, (1, 1): 0, (0, 2): 0})
        assert general_converse_bound(const, 2, 2, [0.9, 0.1]) == pytest.approx(
            binary_entropy(0.1), abs=1e-14
        )

    def test_probability_vector_validated(self):
        with pytest.raises(InputError):
            general_converse_bound(or_function(2), 1, 2, [0.7, 0.7])
        with pytest.raises(InputError):
            general_converse_bound(or_function(2), 1, 2, [1.0])


class TestExponentInfimum:
    def test_unbounded_outside_weight_window(self):
        # finite only for sigma between l*p/r and l*p
        assert not exponent_infimum(0.5, 3, 6, 0.08).bounded
        assert not exponent_infimum(0.01, 3, 6, 0.08).bounded
        assert not exponent_infimum(0.0, 3, 6, 0.08).bounded

    def test_boundary_values_are_finite(self):
        lp = 3 * 0.08
        top = exponent_infimum(lp, 3, 6, 0.08)
        bottom = exponent_infimum(lp / 6, 3, 6, 0.08)
        assert top.bounded and bottom.bounded
        assert top.value == pytest.approx(lp * math.log2(6), abs=1e-12)
        assert bottom.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "sigma,l,r,p",
        [(0.1, 3, 6, 0.05), (0.18, 3, 6, 0.08), (0.05, 2, 8, 0.04)],
    )
    def test_matches_dense_grid_scan(self, sigma, l, r, p):
        def objective(z):
            return sigma * math.log2((1 + z) ** r - 1) - l * p * math.log2(z)

        inf = exponent_infimum(sigma, l, r, p)
        assert inf.bounded
        lo, hi = math.log2(inf.z) - 2.0, math.log2(inf.z) + 2.0
        steps = 1_000_000
        grid_best = min(
            objective(2 ** (lo + (hi - lo) * i / steps)) for i in range(steps + 1)
        )
        assert abs(inf.value - grid_best) <= 1e-8
        assert inf.value <= grid_best + 1e-12

    def test_is_a_lower_bound_at_every_z(self):
        l, r, p = 3, 6, 0.08
        for sigma in (0.1, 0.15, 0.2):
            inf = exponent_infimum(sigma, l, r, p)
            for z in (0.05, 0.1, fixed_point_z(r), 0.3, 1.0):
                value = sigma * math.log2((1 + z) ** r - 1) - l * p * math.log2(z)
                assert inf.value <= value + 1e-12


# (l, r, p, q) -> exponent value, bit for bit; q = None is
# noiseless_direct_exponent.  The noiseless values sit on both sides of the
# crossover 2 - 2^((r-1)/r) and at l > r; (4, 2, 0.5, 0.1) is the z -> inf
# limit; the noisy ones are the benchmark's points.
PINNED_EXPONENTS = {
    (3, 6, 0.06, None): -0.10956303065486406,
    (3, 6, 0.08, None): -0.07725597019909425,
    (3, 6, 0.27, None): 0.6835367267055221,
    (4, 8, 0.06, None): -0.15053912542901926,
    (4, 8, 0.27, None): 0.7702043131654785,
    (3, 2, 2 / 3, None): 0.5408520829727554,
    (3, 2, 0.8, None): 0.6125697019072778,
    (4, 2, 0.5, 0.1): 0.9559130951758248,
    (3, 6, 0.06, 0.05): 0.03363544790311401,
    (3, 6, 0.06, 0.1): 0.12493476613977678,
    (3, 6, 0.27, 0.05): 0.8524609619602832,
    (3, 6, 0.27, 0.1): 0.9562473642579072,
    (2, 4, 0.06, 0.05): 0.10398896984037465,
    (2, 4, 0.06, 0.1): 0.19506069691676492,
    (2, 4, 0.27, 0.05): 0.5987931893157306,
    (2, 4, 0.27, 0.1): 0.6900925075523934,
    (3, 9, 0.06, 0.05): 0.09627608433032431,
    (3, 9, 0.06, 0.1): 0.15714229648809913,
    (3, 9, 0.27, 0.05): 1.100635823237061,
    (3, 9, 0.27, 0.1): 1.2380253685624352,
    (4, 8, 0.06, 0.05): -0.007340646871041079,
    (4, 8, 0.06, 0.1): 0.0839586713656213,
    (4, 8, 0.27, 0.05): 1.0307384224505873,
    (4, 8, 0.27, 0.1): 1.1761470177642597,
}


class TestDirectExponent:
    @pytest.mark.parametrize("args,value", PINNED_EXPONENTS.items(), ids=repr)
    def test_values_are_pinned(self, args, value):
        # bit for bit: the q = 0 values must not move while the noisy
        # objective is reworked, and the noisy ones only with that rework
        l, r, p, q = args
        direct = noiseless_direct_exponent(l, r, p) if q is None else noisy_direct_exponent(*args)
        assert direct.value == value

    @pytest.mark.parametrize(
        "p,value,z", [(2 / 3, 0.540852082972755, 1.0), (0.8, 0.6125697019072782, 3.0)]
    )
    def test_noiseless_quiet_enumerator_has_degree_zero(self, p, value, z):
        # at q = 0 quiet is the constant 1, so with l > r the z -> inf slope
        # is l (1 - p) > 0, not r - l p <= 0 as a degree-r quiet would give
        direct = noiseless_direct_exponent(3, 2, p)
        assert direct.value == pytest.approx(value, abs=1e-12)
        assert direct.z[1] == pytest.approx(z, rel=1e-6)

    def test_below_relaxed_bound(self):
        # maximizing over sigma after the inner infimum can only fall below
        # the single-evaluation bound at the fixed point
        for l, r, p in ((3, 6, 0.05), (3, 6, 0.08), (2, 8, 0.04)):
            direct = noiseless_direct_exponent(l, r, p)
            assert direct.value <= achievable_margin(l, r, p) + 1e-9

    def test_noisy_zero_noise_is_identical(self):
        for p in (0.05, 0.1):
            a = noiseless_direct_exponent(3, 6, p)
            b = noisy_direct_exponent(3, 6, p, 0.0)
            assert abs(a.value - b.value) <= 1e-12

    def test_noisy_below_relaxed_bound(self):
        l, r, p, q = 3, 6, 0.05, 0.01
        direct = noisy_direct_exponent(l, r, p, q)
        assert direct.value <= achievable_margin(l, r, p) + (l / r) * binary_entropy(q) + 1e-9

    def test_reports_the_solver_steps(self):
        # the 1-D Newton iteration's evaluated points; the z -> inf limit
        # (slope r - l*p = 0 at l = 4, r = 2, p = 1/2) is a closed form
        for direct in (noiseless_direct_exponent(3, 6, 0.08), noisy_direct_exponent(3, 6, 0.27, 0.1)):
            assert direct.converged is True
            assert 1 <= direct.sweeps <= 20
        limit = noisy_direct_exponent(4, 2, 0.5, 0.1)
        assert limit.z[1] == math.inf
        assert (limit.sweeps, limit.converged) == (0, True)

    def test_recoverable_regime_is_negative(self):
        assert noiseless_direct_exponent(3, 6, 0.05).value < 0
        assert noisy_direct_exponent(3, 6, 0.05, 0.01).value < 0

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 1e-3, 0.1])
    def test_equals_closed_form_below_crossover(self, p):
        # the optimum sits at the fixed point however narrow the weight window
        direct = noiseless_direct_exponent(3, 6, p)
        assert abs(direct.value - achievable_margin(3, 6, p)) <= 1e-12

    @pytest.mark.parametrize("p", [0.06, 0.27])
    def test_minimax_saddle_point(self, p):
        # max over sigma of the inner infimum: no sigma in the window does better
        l, r = 3, 6
        lp, base = l * p, -(l - 1) * binary_entropy(p)
        direct = noiseless_direct_exponent(l, r, p)
        lo, hi = lp / r, min(lp, l / r)
        for i in range(20):
            sigma = lo + (hi - lo) * i / 19
            inf = exponent_infimum(sigma, l, r, p)
            assert direct.value >= base + inf.value - 1e-12

    @pytest.mark.parametrize("l,r,p,q", [(3, 6, 0.27, 0.1), (3, 6, 0.06, 0.05)])
    def test_noisy_matches_dense_scan_of_collapsed_objective(self, l, r, p, q):
        def objective(u):
            pool = (1 + 2**u) ** r - 1
            fire = math.log2(pool * (1 - q) + q)
            quiet = math.log2(pool * q + (1 - q))
            return quiet + max(0.0, (l / r) * (fire - quiet)) - l * p * u

        direct = noisy_direct_exponent(l, r, p, q)
        base = -(l - 1) * binary_entropy(p) + (l / r) * binary_entropy(q)
        lo, hi = math.log2(direct.z[1]) - 2.0, math.log2(direct.z[1]) + 2.0
        steps = 100_000
        grid_best = base + min(
            objective(lo + (hi - lo) * i / steps) for i in range(steps + 1)
        )
        assert abs(direct.value - grid_best) <= 1e-9
        assert direct.value <= grid_best + 1e-12

    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_optimum_at_kink_only_below_crossover(self, q):
        below = noisy_direct_exponent(3, 6, 0.06, q)
        assert below.z[1] == pytest.approx(fixed_point_z(6), rel=1e-15)
        past = noisy_direct_exponent(3, 6, 0.27, q)
        assert past.z[1] > fixed_point_z(6)

    def test_noisy_zero_noise_is_identical_past_crossover(self):
        a = noiseless_direct_exponent(3, 6, 0.27)
        b = noisy_direct_exponent(3, 6, 0.27, 0.0)
        assert a.z[1] > fixed_point_z(6)
        assert abs(a.value - b.value) <= 1e-12

    def test_level_boundary_gives_the_limit(self):
        # r = l*p: both branches level off as z -> inf, so the infimum is the
        # limit of the sigma = l/r branch, log2(q * ((1-q)/q)^(l/r))
        d = noisy_direct_exponent(4, 2, 0.5, 0.1)
        limit = -3 + 2 * binary_entropy(0.1) + math.log2(0.1 * 9**2)
        assert d.z == (1.0, math.inf) and d.gap is None
        assert d.value == pytest.approx(limit, abs=1e-12)

    @staticmethod
    def float_route_terms(r, q):
        # the log-terms as they were formed: through the float enumerators,
        # whose binomials overflow from r near 1030
        return tuple(genfunc._log_terms(c) for c in genfunc._fire_quiet(r, q, 1.0 - q))

    @settings(max_examples=200, deadline=None)
    @given(
        l=st.integers(min_value=1, max_value=60),
        r=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.001, max_value=0.6),
        q=st.just(0.0) | st.floats(min_value=1e-6, max_value=0.49),
    )
    def test_log_terms_agree_with_the_float_route(self, l, r, p, q):
        fire, quiet = genfunc._fire_quiet_log_terms(r, q)
        for got, expected in zip((fire, quiet), self.float_route_terms(r, q)):
            assert [j for j, _ in got] == [j for j, _ in expected]
            assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(got, expected))
        try:
            direct = noisy_direct_exponent(l, r, p, q)
        except InputError:
            direct = None
        with mock.patch.object(genfunc, "_fire_quiet_log_terms", self.float_route_terms):
            try:
                reference = noisy_direct_exponent(l, r, p, q)
            except InputError:
                reference = None
        assert (direct is None) == (reference is None)
        if direct is not None:
            assert direct.value == pytest.approx(reference.value, abs=1e-12)

    @pytest.mark.parametrize("l,r", [(3, 1100), (3, 3000), (3000, 3000)])
    def test_finite_past_the_float_range_of_the_binomials(self, l, r):
        # C(r, r/2) is past the float range here, and the q = 0 value has a
        # closed form in bounds that forms no binomial
        with pytest.raises(OverflowError):
            float(math.comb(r, r // 2))
        for p in (0.0003, 0.01, 0.2):
            direct = noiseless_direct_exponent(l, r, p)
            assert direct.value == pytest.approx(_optimized_margin(l, r, p), abs=1e-12)
        assert math.isfinite(noisy_direct_exponent(l, r, 0.01, 0.1).value)

    def test_unbounded_for_every_weight_raises(self):
        # r < l*p: every branch falls without bound as z -> inf
        with pytest.raises(InputError):
            noisy_direct_exponent(6, 3, 0.6, 0.1)

    def test_certain_flips_are_refused(self):
        # at q = 1 every outcome is flipped, and the exponent's h(q) argument is gone
        with pytest.raises(InputError, match=r"^q=1.0 outside \[0, 1\)$"):
            noisy_direct_exponent(3, 6, 0.05, 1.0)


class TestBinaryDirectMargin:
    def test_equals_closed_form_at_small_p(self):
        # at low weight the optimizing argument sits at the fixed point and
        # the margin collapses to the closed-form bound
        f6 = or_function(6)
        for p in (0.02, 0.08, 0.14, 0.2):
            m = binary_direct_margin(f6, 3, 6, p)
            assert abs(m.value - achievable_margin(3, 6, p)) <= 1e-9
            assert m.z[1] == pytest.approx(fixed_point_z(6), abs=1e-5)

    @pytest.mark.parametrize("l,r", PAIRS)
    def test_or_margin_is_the_closed_form_below_the_crossover(self, l, r):
        # the minimum is the kink z*, where the two pieces cross; the Newton
        # step on their difference lands on it, so the optimized margin is
        # the closed form up to rounding, on every p of a 0.001 grid
        f = or_function(r)
        crossover = 2 - 2 ** ((r - 1) / r)
        for i in range(1, math.ceil(1000 * crossover)):
            p = i / 1000
            closed = achievable_margin(l, r, p)
            assert abs(binary_direct_margin(f, l, r, p).value - closed) <= 1e-12
            assert abs(general_direct_margin(f, l, r, (1 - p, p)).value - closed) <= 1e-12

    def test_reports_the_solver_steps(self):
        margin = binary_direct_margin(count_function(6), 3, 6, 0.2)
        assert margin.converged is True and 1 <= margin.sweeps <= 20
        assert margin.gap is None

    def test_is_the_general_margin_at_probs_1_minus_p_p(self):
        # one result type: the binary margin is the general one, field for field
        for r in (2, 6):
            for f in (or_function(r), count_function(r), threshold_function(r, 2)):
                for l in (1, 3):
                    for i in range(1, 20):
                        p = i / 20
                        assert binary_direct_margin(f, l, r, p) == general_direct_margin(
                            f, l, r, (1 - p, p)
                        )

    def test_improves_on_closed_form_at_large_p(self):
        # past the crossover weight the interior optimum beats the fixed point
        m = binary_direct_margin(or_function(8), 4, 8, 0.2)
        assert m.value < achievable_margin(4, 8, 0.2) - 1e-9

    def test_constant_function_is_uninformative(self):
        const = PoolFunction((0, 1), (0,), 2, {(2, 0): 0, (1, 1): 0, (0, 2): 0})
        m = binary_direct_margin(const, 2, 2, 0.1)
        assert m.value == pytest.approx(binary_entropy(0.1), abs=1e-12)

    # (l, r, n, w) of the finite-n witnesses: every exact probability fits a toy size
    WITNESSES = ((2, 4, 24, 5), (1, 2, 12, 3), (2, 3, 18, 4), (3, 6, 12, 2))

    @pytest.mark.parametrize("l,r,n,w", WITNESSES)
    def test_count_margin_is_its_finite_n_counterpart(self, l, r, n, w):
        # a count test's output type fixes its enumerator's monomial, so the
        # exact expected count of inputs giving the likeliest type and the
        # margin at p = w/n differ only in the rates of the binomials
        f = count_function(r)
        f_n, delta_n = finite_n_margin(f, l, r, n, w)
        margin = binary_direct_margin(f, l, r, w / n).value
        assert abs(f_n - (margin + delta_n)) <= 1e-12

    @pytest.mark.parametrize("l,r,n,w", WITNESSES)
    def test_or_margin_bounds_its_finite_n_counterpart(self, l, r, n, w):
        # an OR enumerator is a sum of monomials, so the margin only bounds
        # the exact count, here with 0.06 to 0.14 bits to spare
        f = or_function(r)
        f_n, delta_n = finite_n_margin(f, l, r, n, w)
        margin = binary_direct_margin(f, l, r, w / n).value
        assert 0.05 <= margin + delta_n - f_n <= 0.15

    def test_probability_validated(self):
        with pytest.raises(InputError):
            binary_direct_margin(or_function(6), 3, 6, 0.0)
        with pytest.raises(InputError):
            binary_direct_margin(or_function(6), 3, 6, 1.0)


class TestMinimax1D:
    """The bracketed Newton iteration behind every binary margin and both
    direct exponents."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # points evaluated by each solver call, bracketing included
        counts = []
        pieces, solver = genfunc._pieces_1d, genfunc._minimax_1d

        def counting_pieces(*args):
            counts[-1] += 1
            return pieces(*args)

        def counting_solver(*args):
            counts.append(0)
            return solver(*args)

        monkeypatch.setattr(genfunc, "_pieces_1d", counting_pieces)
        monkeypatch.setattr(genfunc, "_minimax_1d", counting_solver)
        return counts

    def test_evaluation_budget(self, evaluations):
        for l, r in PAIRS:
            for i in range(30):
                p = 0.005 + 0.01 * i
                binary_direct_margin(or_function(r), l, r, p)
                binary_direct_margin(count_function(r), l, r, p)
                for q in (0, 0.01, 0.05, 0.1, 0.2):
                    noisy_direct_exponent(l, r, p, q)
        assert len(evaluations) == len(PAIRS) * 30 * 7
        assert max(evaluations) <= 20

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_value_is_below_the_objective_everywhere(self, data):
        r = data.draw(st.integers(1, 8), label="r")
        outputs = data.draw(st.integers(1, 4), label="outputs")
        table = {t: data.draw(st.integers(0, outputs - 1)) for t in compositions(r, 2)}
        f = PoolFunction((0, 1), tuple(range(outputs)), r, table)
        l = data.draw(st.integers(1, 4), label="l")
        p = data.draw(st.floats(0.001, 0.999), label="p")
        probs = (1 - p, p)
        bm = binary_direct_margin(f, l, r, p)
        gm = general_direct_margin(f, l, r, probs)
        enumerators = [type_enumerator(f, k) for k in range(outputs)]
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        for _ in range(400):
            objective = margin_objective(enumerators, l, r, probs, (rnd.uniform(-30, 10),))
            assert bm.value <= objective + 1e-12
            assert gm.value <= objective + 1e-12


    @settings(max_examples=300, deadline=None)
    @given(
        j=st.integers(0, 10**4),
        lg=st.floats(-1e300, 1e300),
        u=st.floats(-1e300, 1e300),
    )
    @example(j=0, lg=-0.0, u=-1.0)  # -0.0, which the loop's + log2(1) turns into 0.0
    def test_one_term_closed_form_is_the_loop_bit_for_bit(self, j, lg, u):
        # a term of log2 coefficient -inf has weight exp(-inf) = 0.0, which
        # adds exactly 0.0 to every sum of the general loop, so the two-term
        # list runs the loop on the one term's numbers (|lg + j u| < 2e304)
        closed = genfunc._lse_1d([(j, lg)], u)
        loop = genfunc._lse_1d([(j, lg), (j, -math.inf)], u)
        assert struct.pack("<3d", *closed) == struct.pack("<3d", *loop)

    def test_step_cap_gives_up(self):
        # one linear piece falling without bound: every step only doubles u
        *_, steps, converged = genfunc._minimax_1d([[(0, 0.0)]], 1.0, 1.0)
        assert (steps, converged) == (genfunc.MAX_NEWTON_STEPS, False)

    def test_solve_linear_refuses_a_zero_pivot(self):
        assert genfunc._solve_linear([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]) is None


class TestGeneralDirectMargin:
    def test_matches_binary_for_or(self):
        for l, r, p in ((3, 6, 0.08), (2, 4, 0.05)):
            gm = general_direct_margin(or_function(r), l, r, [1 - p, p])
            bm = binary_direct_margin(or_function(r), l, r, p)
            assert gm.converged
            assert abs(gm.value - bm.value) <= 1e-12

    def test_threshold_function_converges(self):
        gm = general_direct_margin(threshold_function(4, 2), 2, 4, [0.9, 0.1])
        assert gm.converged
        assert gm.sweeps <= 200

    def test_ternary_function_converges(self):
        gm = general_direct_margin(ternary_max(), 1, 2, [0.8, 0.15, 0.05])
        assert gm.converged
        # one argument per output symbol, the first pinned to 1
        assert len(gm.z) == 3
        assert gm.z[0] == 1.0

    def test_ternary_max_is_below_a_dense_scan(self):
        # the two pieces tie along a ridge through the optimum, where a
        # coordinate search stalls near 0.393; the minimum is 0.27341
        f, l, r, probs = ternary_max(), 1, 2, (0.8, 0.15, 0.05)
        gm = general_direct_margin(f, l, r, probs)
        assert gm.gap <= genfunc.GAP_TOL
        enumerators = [type_enumerator(f, k) for k in range(f.num_outputs)]
        steps = 240
        grid = [-4 + 6 * i / steps for i in range(steps + 1)]
        scan = min(margin_objective(enumerators, l, r, probs, (a, b)) for a in grid for b in grid)
        assert gm.value <= scan + 1e-12

    @pytest.mark.parametrize("l,r", MERGED_PAIRS)
    def test_merged_or_matches_closed_form(self, l, r):
        # the test sees only the merged mass m = p1 + p2, and the split of m
        # adds m h(p1 / m); below the crossover the optimum lies on the ridge
        # z1 + z2 = z*, past it off the ridge
        for probs in merged_or_probs(r):
            mass = probs[1] + probs[2]
            split = mass * binary_entropy(probs[1] / mass)
            expected = or_margin_closed_form(l, r, mass) + split
            for gm in (general_direct_margin(merged_or(r), l, r, probs),
                       genfunc._unmerged_margin(merged_or(r), l, r, probs)):
                assert gm.converged
                assert abs(gm.value - expected) <= 1e-10
            assert gm.gap <= genfunc.GAP_TOL

    def test_merged_or_margins_are_pinned(self):
        # every field of the interior point's solve, recorded before it
        # stopped forming Hessians at the points backtracking rejects: that
        # change must not move a bit, and regrouping its float sums would
        margins = [
            genfunc._unmerged_margin(merged_or(r), l, r, probs)
            for l, r in MERGED_PAIRS
            for probs in merged_or_probs(r)
        ]
        assert margins == [
            GeneralMargin(0.10313114196350215, (1.0, 0.0734772289856238, 0.048984819323749186),
                          6, True, 5.040412531798211e-13),
            GeneralMargin(0.9381941396028886, (1.0, 0.14578128247529287, 0.09718752165019522),
                          10, True, 5.137685884475402e-13),
            GeneralMargin(0.28664244561696983, (1.0, 0.1135242690016326, 0.07568284600108843),
                          6, True, 5.043743200872086e-13),
            GeneralMargin(1.1310102271077163, (1.0, 0.2047600774074277, 0.13650671827161848),
                          9, True, 2.127755562157597e-13),
            GeneralMargin(0.11977183209580389, (1.0, 0.048035843335383695, 0.03202389555692246),
                          6, True, 5.039302308773586e-13),
            GeneralMargin(0.8204941242002712, (1.0, 0.10959916094214325, 0.07306610729476225),
                          8, True, 6.086473502692608e-15),
            GeneralMargin(-0.006766383333612236, (1.0, 0.054304639599154596, 0.036203093066103066),
                          6, True, 5.040412531798211e-13),
            GeneralMargin(0.8185947045254136, (1.0, 0.11847817860890095, 0.07898545240593395),
                          8, True, 2.3187151431824052e-14),
        ]

    def test_hessians_only_where_a_newton_step_starts(self, monkeypatch):
        # each merged-OR case has 2 pieces, so a Newton step forms 2
        # covariances; the 150 value-and-mean evaluations are the 75 points
        # (8 starts, 59 accepted, 8 rejected by backtracking) times 2 pieces,
        # as many as when every point also formed its Hessians
        counts = {"mean": 0, "cov": 0}
        mean, cov = genfunc._lse_mean, genfunc._lse_covariance

        def counting_mean(*args):
            counts["mean"] += 1
            return mean(*args)

        def counting_cov(*args):
            counts["cov"] += 1
            return cov(*args)

        monkeypatch.setattr(genfunc, "_lse_mean", counting_mean)
        monkeypatch.setattr(genfunc, "_lse_covariance", counting_cov)
        for l, r in MERGED_PAIRS:
            for probs in merged_or_probs(r):
                before = counts["cov"]
                gm = genfunc._unmerged_margin(merged_or(r), l, r, probs)
                assert counts["cov"] - before == 2 * gm.sweeps, (l, r, probs)
        assert counts["mean"] == 150

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_value_is_below_the_objective_everywhere(self, data):
        symbols = data.draw(st.integers(3, 4), label="symbols")
        r = data.draw(st.integers(2, 3), label="r")
        outputs = data.draw(st.integers(2, 3), label="outputs")
        table = {t: data.draw(st.integers(0, outputs - 1)) for t in compositions(r, symbols)}
        f = PoolFunction(tuple(range(symbols)), tuple(range(outputs)), r, table)
        weights = data.draw(st.lists(st.integers(1, 20), min_size=symbols, max_size=symbols))
        probs = tuple(w / sum(weights) for w in weights)
        l = data.draw(st.integers(1, 3), label="l")
        gm = general_direct_margin(f, l, r, probs)
        assert len(gm.z) == symbols
        enumerators = [type_enumerator(f, k) for k in range(outputs)]
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        for _ in range(400):
            u = [rnd.uniform(-5, 2) for _ in range(symbols - 1)]
            assert gm.value <= margin_objective(enumerators, l, r, probs, u) + 1e-12

    def test_newton_step_totals(self):
        # Pins the superlinear tail of the interior point's centering.  With
        # sigma fixed at 0.1, t started 1 above the top piece and backtracking
        # by 2, these totals were 121 and 3,396.  Both are the interior
        # point's own: general_direct_margin merges merged-OR, and 31 of the
        # 200 random tables, down to the 1-D iteration.
        merged = sum(
            genfunc._unmerged_margin(merged_or(r), l, r, probs).sweeps
            for l, r in ((3, 6), (2, 4), (3, 9), (4, 8))
            for probs in merged_or_probs(r)
        )
        assert merged <= 59
        sample = sum(
            genfunc._unmerged_margin(*case).sweeps for case in random_ternary_cases(23, 200)
        )
        assert sample <= 1952

    def test_vertex_without_strict_complementarity(self):
        # All three pieces tie at the optimum z = (1, 1/2, (sqrt 12 - 3)/2),
        # where 1 = 2 z1 = z1^2 + z2^2 + 2 z2 + 2 z1 z2, but one multiplier
        # tends to 0 there, so the iteration converges only linearly and
        # stops short of GAP_TOL; its value must still sit within its gap
        # of the optimum, and `converged` must say whether it got there.
        def output(vals):
            pool = sorted(vals)
            return 0 if pool == [0, 0] else 1 if pool == [0, 1] else 2

        f, l, r = PoolFunction.from_callable(output, (0, 1, 2), (0, 1, 2), 2), 3, 2
        probs = (0.3125, 0.40625, 0.28125)
        gm = general_direct_margin(f, l, r, probs)
        enumerators = [type_enumerator(f, k) for k in range(f.num_outputs)]
        tie = (-1.0, math.log2((math.sqrt(12) - 3) / 2))
        excess = gm.value - margin_objective(enumerators, l, r, probs, tie)
        assert -1e-12 <= excess <= gm.gap + 1e-12
        assert gm.gap <= genfunc.GAP_TOL or not gm.converged

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected_before_solving(self, monkeypatch, bad):
        def no_solver(*args):
            raise AssertionError("solver reached before the probabilities were checked")

        monkeypatch.setattr(genfunc, "_minimax_1d", no_solver)
        monkeypatch.setattr(genfunc, "_minimax_interior_point", no_solver)
        with pytest.raises(InputError):
            general_direct_margin(ternary_max(), 1, 2, [0.5, bad, 0.5])
        with pytest.raises(InputError):
            general_direct_margin(or_function(2), 1, 2, [bad, 0.5])

    def test_zero_probability_asks_for_a_smaller_alphabet(self):
        with pytest.raises(InputError, match="^a symbol probability is 0; drop the symbol first$"):
            general_direct_margin(ternary_max(), 1, 2, [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("probs", [(1e-300, 0.5, 0.5), (5e-324, 0.3, 0.7)])
    def test_margin_past_the_float_range_is_refused(self, probs):
        # z is reported with z_1 pinned to 1, and a tiny p_1 sends the other
        # coordinates past the float range
        with pytest.raises(InputError, match=r"put the margin's z past the float range$"):
            general_direct_margin(ternary_max(6), 3, 6, probs)
        # a fourth symbol that the test cannot tell from the third merges
        # into it, and the refusal still names the caller's probabilities
        wide = PoolFunction.from_callable(
            lambda vals: min(max(vals), 2), (0, 1, 2, 3), (0, 1, 2), 6
        )
        split = (*probs[:2], probs[2] / 2, probs[2] / 2)
        with pytest.raises(InputError, match=rf"^probs \({split[0]}, {split[1]}, {split[2]}, "):
            general_direct_margin(wide, 3, 6, split)

    def test_split_back_z_past_the_float_range_is_refused(self):
        # symbols 0 and 1 merge, and splitting their coordinate back puts
        # z_1 at p_1 / p_2 times the others: past the float range at 5e-324
        fires_on_2 = PoolFunction.from_callable(lambda vals: int(2 in vals), (0, 1, 2), (0, 1), 6)
        assert general_direct_margin(fires_on_2, 3, 6, (1e-300, 0.5, 0.5)).z[1] == pytest.approx(5e299)
        with pytest.raises(InputError, match=r"^probs \(5e-324, 0.5, 0.5\) put the margin's z past"):
            general_direct_margin(fires_on_2, 3, 6, (5e-324, 0.5, 0.5))

    @pytest.mark.parametrize("probs", [(1e-20, 0.5, 0.5), (1e-300, 0.5, 0.5), (5e-324, 0.3, 0.7)])
    def test_merged_or_at_a_tiny_first_probability_is_finite(self, probs):
        # the interior point diverges there; the 1-D iteration on the merged
        # alphabet does not, and z_2 : z_3 = p_2 : p_3
        gm = general_direct_margin(merged_or(6), 3, 6, probs)
        assert math.isfinite(gm.value) and gm.converged
        assert gm.z[0] == 1.0 and all(map(math.isfinite, gm.z))
        assert gm.z[1] / gm.z[2] == pytest.approx(probs[1] / probs[2], rel=1e-12)

    def test_merged_or_reports_no_gap(self):
        # both nonzero symbols fire a test alike, so the alphabet merges down
        # to two symbols and the 1-D iteration reports its points
        for l, r in MERGED_PAIRS:
            for probs in merged_or_probs(r):
                gm = general_direct_margin(merged_or(r), l, r, probs)
                assert gm.gap is None and gm.converged and 1 <= gm.sweeps <= 20
                assert gm.z[0] == 1.0 and len(gm.z) == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_merged_value_is_the_unmerged_infimum(self, data):
        # a random table on a smaller alphabet, read through a map of the
        # symbols onto it that sends at least two symbols to one
        symbols = data.draw(st.integers(3, 4), label="symbols")
        smaller = data.draw(st.integers(2, symbols - 1), label="smaller")
        image = data.draw(st.permutations(
            list(range(smaller)) + data.draw(st.lists(
                st.integers(0, smaller - 1), min_size=symbols - smaller, max_size=symbols - smaller
            ))
        ), label="image")
        r = data.draw(st.integers(2, 3), label="r")
        outputs = data.draw(st.integers(2, 3), label="outputs")
        inner = {t: data.draw(st.integers(0, outputs - 1)) for t in compositions(r, smaller)}
        table = {
            t: inner[tuple(sum(c for c, g in zip(t, image) if g == h) for h in range(smaller))]
            for t in compositions(r, symbols)
        }
        f = PoolFunction(tuple(range(symbols)), tuple(range(outputs)), r, table)
        weights = data.draw(st.lists(st.integers(1, 20), min_size=symbols, max_size=symbols))
        probs = tuple(w / sum(weights) for w in weights)
        l = data.draw(st.integers(1, 3), label="l")
        gm = general_direct_margin(f, l, r, probs)
        un = genfunc._unmerged_margin(f, l, r, probs)
        # the interior point's value sits at most its gap above the infimum
        assert un.value - un.gap - 1e-12 <= gm.value <= un.value + 1e-12
        assert len(gm.z) == symbols and gm.z[0] == 1.0
        enumerators = [type_enumerator(f, k) for k in range(outputs)]
        u = [math.log2(z) for z in gm.z[1:]]
        assert abs(margin_objective(enumerators, l, r, probs, u) - gm.value) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_unmergeable_function_is_solved_unmerged(self, data):
        symbols = data.draw(st.integers(3, 4), label="symbols")
        r = data.draw(st.integers(2, 3), label="r")
        outputs = data.draw(st.integers(2, 3), label="outputs")
        table = {t: data.draw(st.integers(0, outputs - 1)) for t in compositions(r, symbols)}

        def told_apart(i, j):
            # some two types alike but for i and j's split differ in output
            seen = {}
            for t, k in table.items():
                rest = tuple(c for h, c in enumerate(t) if h not in (i, j)) + (t[i] + t[j],)
                if seen.setdefault(rest, k) != k:
                    return True
            return False

        assume(all(told_apart(i, j) for j in range(symbols) for i in range(j)))
        f = PoolFunction(tuple(range(symbols)), tuple(range(outputs)), r, table)
        weights = data.draw(st.lists(st.integers(1, 20), min_size=symbols, max_size=symbols))
        probs = tuple(w / sum(weights) for w in weights)
        l = data.draw(st.integers(1, 3), label="l")
        assert general_direct_margin(f, l, r, probs) == genfunc._unmerged_margin(f, l, r, probs)

    def test_count_function_is_fully_informative(self):
        # the count output determines the pool type, so confusion carries no
        # entropy beyond the source and the margin drops well below the OR one
        gm = general_direct_margin(count_function(4), 2, 4, [0.9, 0.1])
        bm = binary_direct_margin(or_function(4), 2, 4, 0.1)
        assert gm.value < bm.value + 1e-12

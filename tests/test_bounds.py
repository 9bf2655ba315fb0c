import json
import math
import re
import sys

import pytest

from brute_force import scan_threshold_lower, scan_threshold_upper
from pooltest import (
    InputError,
    achievable_margin,
    binary_entropy,
    collision_exponent,
    converse_margin,
    emit_curve,
    entropy,
    fixed_point_z,
    noiseless_direct_exponent,
    noisy_converse_margin,
    threshold_lower,
    threshold_pair,
    threshold_upper,
)
from pooltest import bounds
from pooltest.bounds import CURVES, _optimized_margin, linspace

# thresholds below were frozen from an independent high-precision run and
# cross-checked by bisection against the margin sign changes
FROZEN_THRESHOLDS = {
    (2, 4): (0.092763, 0.097350),
    (3, 6): (0.110022, 0.110023),
    (4, 8): (0.104629, 0.105999),
    (5, 10): (0.096091, 0.099480),
    (6, 12): (0.087848, 0.093027),
    (2, 8): (0.022022, 0.026824),
    (3, 12): (0.038651, 0.039535),
    (4, 16): (0.041685, 0.041687),
    (5, 20): (0.040693, 0.040978),
    (6, 24): (0.038556, 0.039427),
}


class TestEntropy:
    def test_binary_entropy_known_values(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.25) == pytest.approx(
            -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75), abs=1e-15
        )

    def test_binary_entropy_symmetry(self):
        for k in range(1, 50):
            p = k / 100
            assert abs(binary_entropy(p) - binary_entropy(1 - p)) <= 1e-14

    def test_binary_entropy_domain(self):
        with pytest.raises(InputError):
            binary_entropy(-0.01)
        with pytest.raises(InputError):
            binary_entropy(1.01)

    def test_entropy_general(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-14)
        assert entropy([0.3, 0.7]) == pytest.approx(binary_entropy(0.3), abs=1e-15)

    def test_entropy_rejects_bad_distributions(self):
        with pytest.raises(InputError):
            entropy([0.5, 0.6])
        with pytest.raises(InputError):
            entropy([-0.1, 1.1])


class TestConverseMargin:
    def test_matches_direct_formula(self):
        l, r, p = 3, 6, 0.08
        expected = binary_entropy(p) - (l / r) * binary_entropy((1 - p) ** r)
        assert converse_margin(l, r, p) == pytest.approx(expected, abs=1e-15)

    def test_sign_change_brackets_threshold(self):
        lo, hi = FROZEN_THRESHOLDS[(3, 6)]
        assert converse_margin(3, 6, hi - 5e-6) < 0
        assert converse_margin(3, 6, hi + 5e-6) > 0

    def test_noiseless_limit_of_noisy(self):
        # the noiseless margin is the noisy one at q = 0, bit for bit
        grid = [0.0, 1e-300, 1e-9, *(i / 64 for i in range(1, 64)), 1 - 1e-9, 1.0]
        for l in range(1, 5):
            for r in range(1, 9):
                for p in grid:
                    assert converse_margin(l, r, p) == noisy_converse_margin(l, r, p, 0.0)

    def test_noise_shrinks_the_negative_region(self):
        # extra channel noise can only make recovery harder
        p = 0.09
        assert noisy_converse_margin(2, 4, p, 0.05) > converse_margin(2, 4, p)

    @pytest.mark.parametrize("p", [1e308, -1e308, math.inf])
    def test_noisy_converse_checks_p_before_powering_it(self, p):
        with pytest.raises(InputError, match="^" + re.escape(f"p={p} outside [0, 1]") + "$"):
            noisy_converse_margin(3, 6, p, 0.1)

    @pytest.mark.parametrize("margin", [noisy_converse_margin])
    @pytest.mark.parametrize("q", [1.5, -0.1, math.nan])
    def test_noisy_margins_name_q_when_it_is_out_of_range(self, margin, q):
        with pytest.raises(InputError, match=rf"^q={q} outside \[0, 1\]$"):
            margin(3, 6, 0.05, q)


class TestAchievableMargin:
    def test_fixed_point_solves_pool_equation(self):
        for r in (2, 4, 6, 12):
            z = fixed_point_z(r)
            assert (1 + z) ** r - 1 == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        l, r, p = 3, 6, 0.08
        z = fixed_point_z(r)
        expected = -(l - 1) * binary_entropy(p) - l * p * math.log2(z)
        assert achievable_margin(l, r, p) == pytest.approx(expected, abs=1e-13)

    def test_midpoint_convexity_in_p(self):
        for k in range(1, 48):
            a, b = k / 100, (k + 2) / 100
            mid = achievable_margin(3, 6, (a + b) / 2)
            chord = (achievable_margin(3, 6, a) + achievable_margin(3, 6, b)) / 2
            assert mid <= chord + 1e-10


class TestCollisionExponent:
    def test_sigma_spread_vanishes_at_fixed_point(self):
        l, r, p = 3, 6, 0.08
        z = fixed_point_z(r)
        values = [collision_exponent(l, r, p, s, z) for s in (0.0, 0.1, 0.25, 0.4, 0.5)]
        assert max(values) - min(values) <= 1e-12

    def test_equals_achievable_margin_at_fixed_point(self):
        for l, r, p in ((3, 6, 0.08), (2, 4, 0.05), (4, 8, 0.1)):
            z = fixed_point_z(r)
            assert collision_exponent(l, r, p, 0.5, z) == pytest.approx(
                achievable_margin(l, r, p), abs=1e-12
            )

    def test_rejects_nonpositive_z(self):
        with pytest.raises(InputError):
            collision_exponent(3, 6, 0.08, 0.5, 0.0)

    def test_rejects_nan_z(self):
        with pytest.raises(InputError):
            collision_exponent(3, 6, 0.08, 0.5, math.nan)

    def test_rejects_infinite_z(self):
        with pytest.raises(InputError, match=r"^z=inf must be positive and finite$"):
            collision_exponent(3, 6, 0.08, 0.5, math.inf)

    @pytest.mark.parametrize("z", [1e100, 1e200, 1e308])
    def test_huge_z_has_the_pure_power_slope(self, z):
        # log2((1+z)^r - 1) = r log2(z) + O(1/z) once (1+z)^r leaves the float range
        l, r, p, sigma = 3, 6, 0.1, 0.3
        value = collision_exponent(l, r, p, sigma, z)
        expected = -(l - 1) * binary_entropy(p) + (sigma * r - l * p) * math.log2(z)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_continuous_where_the_pool_leaves_the_float_range(self):
        r = 6
        edge = math.expm1(math.log(sys.float_info.max) / r)
        below, above = (collision_exponent(3, r, 0.1, 0.3, edge * f) for f in (1 - 1e-9, 1 + 1e-9))
        assert below == pytest.approx(above, rel=1e-8)


def _bisect(fn, lo: float, hi: float, steps: int = 80) -> float:
    """The sign change of fn on [lo, hi], fn(lo) <= 0 < fn(hi)."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def optimized_margin_past_crossover(l: int, r: int, p: float) -> float:
    """The noiseless direct margin, min over z of -(l-1) h(p)
    + (l/r) max(0, log2((1+z)^r - 1)) - l p log2 z, for p past the crossover
    2 - 2^((r-1)/r).  Its minimizer lies past the kink 2^(1/r) - 1 and
    solves z (1+z)^(r-1) / ((1+z)^r - 1) = p, whose left side rises from
    the crossover there to 1, past 1/2 by z = 1; that equation is bisected
    in log z."""
    def slope(u: float) -> float:
        z = math.exp(u)
        a = math.log1p(z)
        return z * math.exp((r - 1) * a) / math.expm1(r * a) - p

    u = _bisect(slope, math.log(2 ** (1 / r) - 1), 0.0)
    z = math.exp(u)
    pool = math.expm1(r * math.log1p(z))
    return -(l - 1) * binary_entropy(p) + (l / r) * math.log2(pool) - l * p * math.log2(z)


class TestThresholds:
    @pytest.mark.parametrize("l, r", [(10, 10), (20, 40), (30, 30)])
    def test_lower_is_the_optimized_root_past_the_crossover(self, l, r):
        # the closed form's root lies past the crossover here, where the
        # optimized margin lies strictly below it
        crossover = 2 - 2 ** ((r - 1) / r)
        closed = _bisect(lambda p: achievable_margin(l, r, p), 1e-6, 0.5)
        assert closed > crossover
        margin = lambda p: optimized_margin_past_crossover(l, r, p)
        root = _bisect(margin, crossover, threshold_upper(l, r))
        lo = threshold_lower(l, r)
        assert lo == pytest.approx(root, abs=1e-7)
        assert lo > closed + 1e-5
        assert margin(lo - 1e-6) <= 0 < margin(lo + 1e-6)
        # and it is the sign change of the exponent's own optimizer
        exponent = lambda p: noiseless_direct_exponent(l, r, p).value
        assert exponent(lo - 1e-6) <= 0 < exponent(lo + 1e-6)

    def test_optimized_margin_is_the_direct_exponent(self):
        for l, r in ((1, 2), (3, 6), (4, 8), (10, 10), (30, 30), (60, 20), (5, 1), (6, 100)):
            crossover = 2 - 2 ** ((r - 1) / r)
            for p in (0.01, 0.1, 0.3, 0.4, 0.49, 0.6, 0.75, 0.9, 0.99,
                      crossover - 1e-6, crossover + 1e-6):
                if 0 < p < 1:
                    assert _optimized_margin(l, r, p) == pytest.approx(
                        noiseless_direct_exponent(l, r, p).value, abs=1e-12
                    ), (l, r, p)

    def test_lower_stays_below_upper_past_the_crossover(self):
        # a sparse cut of 2 <= l <= r <= 60, where the closed form's root lies
        # past the crossover for most pairs with l >= 10, and degrees far
        # past the binomials the exponent's optimizer forms
        for l in range(2, 61, 6):
            for r in range(l, 61, 6):
                assert threshold_lower(l, r) <= threshold_upper(l, r), (l, r)
        pair = threshold_pair(10**5, 10**5)
        assert 0 < pair.p_lower <= pair.p_upper

    @pytest.mark.parametrize("pair,frozen", sorted(FROZEN_THRESHOLDS.items()))
    def test_frozen_values(self, pair, frozen):
        l, r = pair
        lo, hi = frozen
        assert threshold_lower(l, r) == pytest.approx(lo, abs=5e-6)
        assert threshold_upper(l, r) == pytest.approx(hi, abs=5e-6)

    def test_ordering(self):
        for (l, r), _ in sorted(FROZEN_THRESHOLDS.items()):
            assert threshold_lower(l, r) <= threshold_upper(l, r) + 1e-9

    def test_pair_bundles_both(self):
        pair = threshold_pair(3, 6)
        assert pair.l == 3 and pair.r == 6
        assert pair.p_lower == pytest.approx(threshold_lower(3, 6), abs=1e-12)
        assert pair.p_upper == pytest.approx(threshold_upper(3, 6), abs=1e-12)

    def test_search_finds_the_scans_roots_and_refusals(self):
        # the galloping search returns the root of the point-by-point scan
        # of the same grid, bit for bit, whenever the margin changes sign at
        # most once there; a sparse cut of the degrees, refusals included
        def outcome(search, l, r):
            try:
                return search(l, r)
            except InputError as ex:
                return str(ex)

        pairs = [(l, r) for l in range(3, 61, 3) for r in range(l, 61, 3)]
        pairs += [(1, r) for r in range(1, 61, 3)]
        pairs += [(5, 1), (7, 2), (30, 3), (60, 20), (10**5, 10**5)]
        refusals = 0
        for l, r in pairs:
            for search, scan in ((threshold_lower, scan_threshold_lower),
                                 (threshold_upper, scan_threshold_upper)):
                found = outcome(search, l, r)
                assert found == outcome(scan, l, r), (l, r, search.__name__)
                refusals += isinstance(found, str)
        assert refusals == 46

    def test_search_evaluates_each_margin_a_few_dozen_times(self, monkeypatch):
        # the scan evaluates each margin 132 times at (3, 6): 111 grid
        # points, the check at THRESHOLD_TOL and 20 bisection steps
        counts = {"converse": 0, "optimized": 0}

        def counted(name, fn):
            def margin(*args):
                counts[name] += 1
                return fn(*args)
            return margin

        monkeypatch.setattr(bounds, "_converse", counted("converse", bounds._converse))
        monkeypatch.setattr(
            bounds, "_optimized_margin", counted("optimized", bounds._optimized_margin)
        )
        threshold_pair(3, 6)
        assert 0 < counts["converse"] <= 34 and 0 < counts["optimized"] <= 34

    def test_each_threshold_checks_its_degrees_once(self, monkeypatch):
        # the search and bisection evaluate the margins dozens of times on
        # the one (l, r) that was checked up front
        calls = []
        check = bounds._check_degrees
        monkeypatch.setattr(bounds, "_check_degrees", lambda *a: calls.append(a) or check(*a))
        threshold_pair(3, 6)
        assert calls == [(3, 6), (3, 6)]

    def test_unit_ratio_has_no_root(self):
        # a single-object-per-test design recovers everything; the converse
        # margin never crosses zero
        with pytest.raises(InputError, match=r"^converse margin is already positive at p=1e-09$"):
            threshold_upper(1, 2)

    def test_odd_ratio_is_fine(self):
        pair = threshold_pair(3, 5)
        assert 0 < pair.p_lower <= pair.p_upper < 0.5

    def test_json_dict(self):
        data = threshold_pair(3, 6).to_json_dict()
        assert data["l"] == 3 and data["r"] == 6
        assert data["p_lower"] == pytest.approx(0.110022, abs=5e-6)
        assert data["p_upper"] == pytest.approx(0.110023, abs=5e-6)
        json.dumps(data)


class TestCurves:
    def test_linspace_endpoints_and_count(self):
        grid = linspace(0.0, 1.0, 4)
        assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert linspace(2.0, 2.0, 3) == [2.0, 2.0, 2.0, 2.0]
        with pytest.raises(InputError):
            linspace(0.0, 1.0, 0)

    def test_curve_ids_cover_five_families(self):
        assert len(CURVES) == 5
        assert "converse-vs-p" in CURVES
        assert "collision-vs-z" in CURVES

    def test_converse_curve_rows(self):
        rows = emit_curve("converse-vs-p", linspace(0.01, 0.2, 19), l=3, r=6)
        assert len(rows) == 20
        x, y = rows[0]
        assert x == pytest.approx(0.01)
        assert y == pytest.approx(converse_margin(3, 6, 0.01), abs=1e-15)

    def test_degree_sweep_casts_to_int(self):
        rows = emit_curve("converse-vs-l", [2.0, 3.0, 4.0], p=0.05)
        assert [x for x, _ in rows] == [2, 3, 4]
        assert rows[1][1] == pytest.approx(converse_margin(3, 6, 0.05), abs=1e-15)

    def test_degree_sweep_accepts_integral_floats_from_one(self):
        rows = emit_curve("converse-vs-l", [1.0, 2.0], p=0.05, ratio=2)
        assert [x for x, _ in rows] == [1, 2]
        assert all(type(x) is int for x, _ in rows)

    @pytest.mark.parametrize("grid", [[1.5], [2.0, 2.375], [math.nan], [math.inf]])
    def test_degree_sweep_rejects_non_integral_degree(self, grid):
        with pytest.raises(InputError, match="not an integer"):
            emit_curve("converse-vs-l", grid, p=0.05)

    @pytest.mark.parametrize("ratio", [0, -1, 2.5, math.nan, math.inf])
    def test_degree_sweep_rejects_nonpositive_ratio(self, ratio):
        with pytest.raises(InputError, match="must be a positive integer"):
            emit_curve("converse-vs-l", [2.0, 3.0], p=0.05, ratio=ratio)

    def test_collision_curve_needs_sigma(self):
        rows = emit_curve(
            "collision-vs-z", linspace(0.05, 0.3, 10), l=3, r=6, p=0.08, sigma=0.5
        )
        assert len(rows) == 11
        assert rows[0][1] == pytest.approx(
            collision_exponent(3, 6, 0.08, 0.5, 0.05), abs=1e-15
        )

    def test_unknown_curve_rejected(self):
        with pytest.raises(InputError):
            emit_curve("margin-vs-q", [0.1], l=3, r=6)

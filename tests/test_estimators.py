import itertools
import math
import random
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import brute_force_decision_set_noiseless, brute_force_scan, weight_vector
from pooltest import (
    Estimate,
    GuardError,
    InputError,
    SystemParams,
    TypicalSetSpec,
    decision_set_noiseless,
    decision_set_noisy,
    estimate_noiseless,
    estimate_noisy,
    forward_or,
    sample_graph,
    typical_weight_set,
)
from pooltest import PoolingGraph, estimators
from pooltest.estimators import (
    WEIGHT_WALK_LIMIT,
    _check_guard,
    _has_other_member,
    _scan_or_consistent,
    weight_rate,
)

# the smallest (3, 6) system past the decoder's n*l*m guard
LARGE_N = 37838


def large_graph():
    params = SystemParams(3, 6, LARGE_N)
    return PoolingGraph(params, range(params.num_sockets))


class TestWeightRate:
    def test_formula(self):
        spec = TypicalSetSpec(12, 0.1, 0.3)
        for w in range(13):
            expected = -(
                w * math.log2(0.1) + (12 - w) * math.log2(0.9)
            ) / 12
            assert weight_rate(spec, w) == pytest.approx(expected, abs=1e-14)

    def test_degenerate_sources(self):
        spec0 = TypicalSetSpec(8, 0.0, 0.1)
        assert weight_rate(spec0, 0) == 0.0
        assert weight_rate(spec0, 1) == math.inf
        spec1 = TypicalSetSpec(8, 1.0, 0.1)
        assert weight_rate(spec1, 8) == 0.0
        assert weight_rate(spec1, 7) == math.inf

    def test_weight_range_validated(self):
        spec = TypicalSetSpec(8, 0.1, 0.1)
        with pytest.raises(InputError):
            weight_rate(spec, -1)
        with pytest.raises(InputError):
            weight_rate(spec, 9)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            TypicalSetSpec(8, 1.2, 0.1)
        with pytest.raises(InputError):
            TypicalSetSpec(8, 0.1, -0.1)
        with pytest.raises(InputError):
            TypicalSetSpec(0, 0.1, 0.1)

    def test_n_past_the_float_range_rejected(self):
        # the weight rates divide by n as a float, which would overflow
        with pytest.raises(InputError):
            TypicalSetSpec(10**400, 0.1, 0.1)

    def test_nan_epsilon_rejected(self):
        # NaN fails every comparison, so "epsilon < 0" alone let it through
        with pytest.raises(InputError):
            TypicalSetSpec(8, 0.1, math.nan)

    def test_zero_epsilon_allowed(self):
        spec = TypicalSetSpec(9, 0.0, 0.0)
        assert typical_weight_set(spec) == frozenset({0})


class TestTypicalSet:
    def test_fair_source_accepts_everything(self):
        # at p = 1/2 every vector has rate exactly 1 = h(1/2)
        spec = TypicalSetSpec(12, 0.5, 0.1)
        assert typical_weight_set(spec) == frozenset(range(13))

    def test_deterministic_sources(self):
        assert typical_weight_set(TypicalSetSpec(8, 0.0, 0.1)) == frozenset({0})
        assert typical_weight_set(TypicalSetSpec(8, 1.0, 0.1)) == frozenset({8})

    def test_hand_window(self):
        assert sorted(typical_weight_set(TypicalSetSpec(18, 0.05, 0.1))) == [1]
        assert sorted(typical_weight_set(TypicalSetSpec(12, 0.1, 0.3))) == [1, 2]

    def test_window_is_contiguous(self):
        for n, p, eps in ((12, 0.1, 0.3), (20, 0.2, 0.15), (30, 0.3, 0.05)):
            weights = sorted(typical_weight_set(TypicalSetSpec(n, p, eps)))
            if weights:
                assert weights == list(range(weights[0], weights[-1] + 1))

    def test_window_grows_with_epsilon(self):
        small = typical_weight_set(TypicalSetSpec(20, 0.1, 0.05))
        large = typical_weight_set(TypicalSetSpec(20, 0.1, 0.3))
        assert small <= large

    def test_empty_window(self):
        assert typical_weight_set(TypicalSetSpec(18, 0.02, 0.1)) == frozenset()

    def test_walk_past_its_limit_is_refused(self):
        # the walk visits every weight 0..n, so a huge n is a guard refusal
        # (GuardError, exit 3), not a walk that runs for minutes
        with pytest.raises(GuardError, match="limit n=1000000"):
            typical_weight_set(TypicalSetSpec(WEIGHT_WALK_LIMIT + 1, 0.1, 0.1))


class TestDecisionSetNoiseless:
    def test_matches_brute_force_on_random_inputs(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        rng = random.Random(404)
        for trial in range(200):
            graph = sample_graph(params, rng.randrange(1 << 30))
            x = tuple(1 if rng.random() < 0.15 else 0 for _ in range(12))
            y = forward_or(graph, x)
            fast = decision_set_noiseless(graph, spec, y)
            slow = brute_force_decision_set_noiseless(graph, spec, y)
            assert sorted(fast) == sorted(slow), trial

    def test_arbitrary_outcome_vectors(self):
        # outcomes that no typical input produces must give the empty set
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        rng = random.Random(11)
        for trial in range(100):
            graph = sample_graph(params, rng.randrange(1 << 30))
            y = tuple(rng.randint(0, 1) for _ in range(6))
            fast = decision_set_noiseless(graph, spec, y)
            slow = brute_force_decision_set_noiseless(graph, spec, y)
            assert sorted(fast) == sorted(slow), trial

    def test_empty_typicality_window_gives_empty_set(self):
        graph = sample_graph(SystemParams(3, 6, 18), 1)
        spec = TypicalSetSpec(18, 0.02, 0.1)
        assert decision_set_noiseless(graph, spec, (0,) * 9) == []

    def test_members_reproduce_the_outcome(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        graph = sample_graph(params, 77)
        y = forward_or(graph, weight_vector(12, 2))
        for x in decision_set_noiseless(graph, spec, y):
            assert forward_or(graph, x) == y
            assert sum(x) in typical_weight_set(spec)

    def test_cap_truncates_search(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.5, 0.1)
        graph = sample_graph(params, 3)
        y = forward_or(graph, weight_vector(12, 4))
        capped = decision_set_noiseless(graph, spec, y, cap=2)
        assert len(capped) == 2

    def test_guard_on_large_systems(self, monkeypatch):
        # n*l*m = 3 * 37838 * 18919 passes 2^31 by 87,718; nothing is built
        monkeypatch.setattr(estimators, "_test_bits", None)
        graph = large_graph()
        spec = TypicalSetSpec(LARGE_N, 0.1, 0.3)
        with pytest.raises(GuardError, match=r"^decoding with n\*l\*m = 2147571366 socket test bits refused \(limit 2147483648\)$"):
            decision_set_noiseless(graph, spec, (0,) * graph.params.m)

    def test_guard_respects_custom_limit(self, monkeypatch):
        graph = sample_graph(SystemParams(3, 6, 12), 1)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        y = forward_or(graph, weight_vector(12, 1))
        # n*l*m = 12 * 3 * 6
        monkeypatch.setattr(estimators, "TEST_BITS_LIMIT", 215)
        with pytest.raises(GuardError):
            decision_set_noiseless(graph, spec, y)
        monkeypatch.setattr(estimators, "TEST_BITS_LIMIT", 216)
        assert decision_set_noiseless(graph, spec, y)

    def test_guard_boundary(self):
        # the largest even n (r = 6 must divide 3n) with n*l*m <= 2^31 passes
        assert 3 * 37836 * 18918 <= 2**31 < 3 * LARGE_N * (LARGE_N // 2)
        _check_guard(SystemParams(3, 6, 37836))
        with pytest.raises(GuardError):
            _check_guard(SystemParams(3, 6, LARGE_N))

    def test_thirty_objects_decode(self):
        # no cap on n: the scan's budget, not the system size, bounds the work
        graph = sample_graph(SystemParams(3, 6, 30), 1)
        spec = TypicalSetSpec(30, 0.1, 0.3)
        x = weight_vector(30, 3)
        assert x in decision_set_noiseless(graph, spec, forward_or(graph, x))


class TestScanNodeLimit:
    # five objects, each alone in its own test, all tests lit: every subset
    # of the five is a node, 2^5 - 1 of them below the root
    MASKS = [1 << i for i in range(5)]
    TARGET = 0b11111

    @pytest.fixture
    def limit(self, monkeypatch):
        monkeypatch.setattr(estimators, "SCAN_NODE_LIMIT", 16)

    def test_scan_past_the_limit_is_refused(self, limit):
        with pytest.raises(GuardError, match=r"^decoder scan over 5 candidate objects refused \(limit 16 supports\)$"):
            _scan_or_consistent(self.MASKS, self.TARGET, frozenset({0}), frozenset(range(6)), None)

    def test_scan_that_cannot_pass_the_limit_is_not_refused(self, limit):
        # 5 + 10 = 15 supports of weight 1 or 2 below the root
        found = _scan_or_consistent(self.MASKS, self.TARGET, frozenset({3}), frozenset({0, 1, 2}), None)
        assert len(found) == 10

    def test_counted_scan_that_stops_early_is_not_refused(self, limit):
        # the first full-depth support lights every test, and the cap stops there
        found = _scan_or_consistent(self.MASKS, self.TARGET, frozenset({0}), frozenset(range(6)), 1)
        assert found == [(0, 1, 2, 3, 4)]

    def test_counting_leaves_the_result_alone(self, monkeypatch):
        args = (self.MASKS, self.TARGET, frozenset({2, 3}), frozenset(range(6)), None)
        free = _scan_or_consistent(*args)
        # 31 supports below the root: exactly at the limit
        monkeypatch.setattr(estimators, "SCAN_NODE_LIMIT", 31)
        assert _scan_or_consistent(*args) == free
        assert len(free) == 20

    def test_deep_branch_needs_no_stack(self):
        # the first support of weight 1500 lies 1500 levels down its branch
        found = _scan_or_consistent([0] * 2000, 0, frozenset({0}), frozenset({1500}), 1)
        assert found == [tuple(range(1500))]

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=12),
        m=st.integers(min_value=1, max_value=10),
        cap=st.none() | st.integers(min_value=1, max_value=6),
    )
    def test_scan_lists_the_windowed_supports_in_pre_order(self, data, n, m, cap):
        # the cap keeps a prefix of the full list, and the trial harness
        # reads its order: it compares a cap-2 scan with [support]
        masks = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=n, max_size=n))
        target = data.draw(st.integers(0, 2**m - 1))
        flips = data.draw(st.frozensets(st.integers(0, m), max_size=3))
        weights = data.draw(st.frozensets(st.integers(0, n), max_size=4))
        expected = brute_force_scan(masks, target, flips, weights)
        found = _scan_or_consistent(masks, target, flips, weights, cap)
        assert found == expected[:cap]


def _verdict(decide):
    """decide()'s value, or the message of the GuardError it raises."""
    try:
        return decide()
    except GuardError as refusal:
        return str(refusal)


class TestOtherMember:
    """The trial harness's pre-check against the cap-2 scan it stands in for:
    the same verdict wherever the scan completes; where the scan refuses,
    the same refusal or a second member one object away."""

    @staticmethod
    def scan_verdict(masks, target, flips, weights, support):
        return _verdict(
            lambda: _scan_or_consistent(masks, target, flips, weights, 2) != [tuple(support)]
        )

    @staticmethod
    def verdict(masks, target, flips, weights, support):
        return _verdict(lambda: _has_other_member(masks, target, flips, weights, support))

    @settings(max_examples=400, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=0, max_value=12),
        m=st.integers(min_value=1, max_value=10),
        limit=st.none() | st.integers(min_value=1, max_value=64),
    )
    def test_matches_the_capped_scan(self, data, n, m, limit):
        # a window pair in which the drawn support is a member, as in a trial
        # that reaches the decoder: its weight and its flip count are typical
        masks = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=n, max_size=n))
        support = sorted(data.draw(st.sets(st.integers(0, n - 1))) if n else [])
        flip_mask = data.draw(st.integers(0, 2**m - 1))
        target = reduce(or_, (masks[k] for k in support), 0) ^ flip_mask
        flips = frozenset({flip_mask.bit_count()}) | data.draw(st.frozensets(st.integers(0, m), max_size=2))
        weights = frozenset({len(support)}) | data.draw(st.frozensets(st.integers(0, n), max_size=3))
        args = (masks, target, flips, weights, support)
        with pytest.MonkeyPatch.context() as patch:
            if limit is not None:
                patch.setattr(estimators, "SCAN_NODE_LIMIT", limit)
            verdict, scan_verdict = self.verdict(*args), self.scan_verdict(*args)
        if isinstance(scan_verdict, bool) or verdict is not True:
            assert verdict == scan_verdict
        else:
            assert brute_force_scan(masks, target, flips, weights) != [tuple(support)]

    # six tests, each lit by one of objects 1..6; object 0 lights none, so
    # x = {1..6} plus object 0 is a member one object away from x
    MASKS = [0] + [1 << i for i in range(6)]
    TARGET = 0b111111
    SUPPORT = [1, 2, 3, 4, 5, 6]

    def test_member_one_object_away_settles_a_trial_the_scan_refuses(self, monkeypatch):
        # the second member in pre-order is x itself, after all 2^6 supports
        # holding object 0, so the scan refuses at 40 supports; the pre-check
        # tries 13 neighbours and finds {0..6} among them
        monkeypatch.setattr(estimators, "SCAN_NODE_LIMIT", 40)
        args = (self.MASKS, self.TARGET, frozenset({0}), frozenset({6, 7}), self.SUPPORT)
        assert _has_other_member(*args)
        with pytest.raises(GuardError, match=r"^decoder scan over 7 candidate objects refused \(limit 40 supports\)$"):
            _scan_or_consistent(*args[:4], 2)

    def test_member_two_objects_away_is_found_by_the_scan(self, monkeypatch):
        # x = {0, 1} and {2, 3} each light all four tests, and no support one
        # object from x of weight 2 does
        masks = [0b0011, 0b1100, 0b0101, 0b1010]
        calls = []
        scan = estimators._scan
        monkeypatch.setattr(estimators, "_scan", lambda *a: calls.append(a) or scan(*a))
        assert _has_other_member(masks, 0b1111, frozenset({0}), frozenset({2}), [0, 1])
        assert not _has_other_member(masks[:2], 0b1111, frozenset({0}), frozenset({2}), [0, 1])
        assert len(calls) == 2

    def test_member_one_object_away_needs_no_scan(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(estimators, "_scan", no_scan)
        flips = frozenset({0})
        # add: object 0 joins x = {1..6}
        assert _has_other_member(self.MASKS, self.TARGET, flips, frozenset({6, 7}), self.SUPPORT)
        # drop: x = {0..6} without object 0 still lights every test
        assert _has_other_member(self.MASKS, self.TARGET, flips, frozenset({6, 7}), list(range(7)))
        # swap: object 7 lights test 0 as object 1 does
        masks = self.MASKS + [1]
        assert _has_other_member(masks, self.TARGET, flips, frozenset({6}), self.SUPPORT)

    @pytest.mark.parametrize("c, w", [(7, 6), (5, 2), (30, 2), (3, 1), (4, 0)])
    def test_neighbours_are_tried_only_within_the_node_limit(self, monkeypatch, c, w):
        # c - w objects light no test and w light one test each; x is the w,
        # and adding any of the others gives a member
        masks = [0] * (c - w) + [1 << i for i in range(w)]
        args = (masks, (1 << w) - 1, frozenset({0}), frozenset({w, w + 1}), list(range(c - w, c)))
        neighbours = (w + 1) * (c - w) + w
        scans = []
        scan = estimators._scan
        monkeypatch.setattr(estimators, "_scan", lambda *a: scans.append(a) or scan(*a))
        monkeypatch.setattr(estimators, "SCAN_NODE_LIMIT", neighbours)
        assert _has_other_member(*args)
        assert not scans
        monkeypatch.setattr(estimators, "SCAN_NODE_LIMIT", neighbours - 1)
        verdict = _verdict(lambda: _has_other_member(*args))
        assert len(scans) == 1
        assert verdict == self.scan_verdict(*args)


class TestDecisionSetNoisy:
    @staticmethod
    def brute_force(graph, spec, noise_spec, y):
        n = spec.n
        window, noise_window = typical_weight_set(spec), typical_weight_set(noise_spec)
        out = []
        for bits in itertools.product((0, 1), repeat=n):
            if sum(bits) not in window:
                continue
            clean = forward_or(graph, bits)
            flips = sum(a != b for a, b in zip(clean, y))
            if flips in noise_window:
                out.append(bits)
        return out

    def test_matches_brute_force(self):
        params = SystemParams(3, 6, 12, q=0.1)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        noise_spec = TypicalSetSpec(6, 0.1, 0.4)
        rng = random.Random(902)
        for trial in range(60):
            graph = sample_graph(params, rng.randrange(1 << 30))
            y = tuple(rng.randint(0, 1) for _ in range(6))
            fast = decision_set_noisy(graph, spec, noise_spec, y)
            slow = self.brute_force(graph, spec, noise_spec, y)
            assert sorted(fast) == sorted(slow), trial

    def test_lengths_and_symbols_are_checked(self):
        graph = sample_graph(SystemParams(3, 6, 12, q=0.1), 5)
        spec, noise_spec, y = TypicalSetSpec(12, 0.1), TypicalSetSpec(6, 0.1), (0,) * 6
        cases = [
            (TypicalSetSpec(11, 0.1), noise_spec, y,
             "typicality window length differs from the system size"),
            (spec, TypicalSetSpec(7, 0.1), y, "noise window length differs from the test count"),
            (spec, noise_spec, (0,) * 5, "y has length 5, expected m=6"),
            (spec, noise_spec, (0, 0, 2, 0, 0, 0), "observation must be a 0/1 vector"),
        ]
        for s, ns, obs, message in cases:
            with pytest.raises(InputError, match=f"^{message}$"):
                decision_set_noisy(graph, s, ns, obs)

    # noise windows over m = 6 tests, by flip budget max(window)
    NOISE_WINDOWS = {
        "budget 0": ((0.0, 0.0), {0}),
        "budget 1": ((0.02, 1.0), {0, 1}),
        "budget 1, no zero": ((0.1, 0.3), {1}),
        "budget 2": ((0.2, 0.3), {1, 2}),
        "budget 3": ((0.2, 0.8), {0, 1, 2, 3}),
        "empty": ((0.02, 0.0), set()),
    }

    @pytest.mark.parametrize("window", sorted(NOISE_WINDOWS))
    @pytest.mark.parametrize("l, r", [(3, 6), (2, 4)])
    def test_matches_brute_force_for_every_flip_budget(self, l, r, window):
        (q, eps), expected_window = self.NOISE_WINDOWS[window]
        params = SystemParams(l, r, 12)
        spec = TypicalSetSpec(12, 0.2, 0.3)
        noise_spec = TypicalSetSpec(params.m, q, eps)
        noise_window = typical_weight_set(noise_spec)
        assert noise_window == expected_window
        inputs = [
            tuple(1 if i in support else 0 for i in range(12))
            for w in sorted(typical_weight_set(spec))
            for support in itertools.combinations(range(12), w)
        ]
        rng = random.Random(f"{l}:{r}:{window}")
        for trial in range(12):
            graph = sample_graph(params, rng.randrange(1 << 30))
            clean = {x: forward_or(graph, x) for x in inputs}
            x = rng.choice(inputs)
            flipped = tuple(b ^ (rng.random() < 0.2) for b in clean[x])
            random_y = tuple(rng.randint(0, 1) for _ in range(params.m))
            for y in (flipped, random_y):
                slow = {
                    member
                    for member, out in clean.items()
                    if sum(a != b for a, b in zip(out, y)) in noise_window
                }
                full = decision_set_noisy(graph, spec, noise_spec, y)
                assert set(full) == slow and len(full) == len(slow), (trial, y)
                for k in (1, 2, 5):
                    capped = decision_set_noisy(graph, spec, noise_spec, y, cap=k)
                    assert capped == full[:k], (trial, y, k)

    def test_zero_noise_window_reduces_to_noiseless(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        noise_spec = TypicalSetSpec(6, 0.0, 0.0)
        rng = random.Random(31)
        for trial in range(40):
            graph = sample_graph(params, rng.randrange(1 << 30))
            x = tuple(1 if rng.random() < 0.15 else 0 for _ in range(12))
            y = forward_or(graph, x)
            noisy = decision_set_noisy(graph, spec, noise_spec, y)
            clean = decision_set_noiseless(graph, spec, y)
            assert sorted(noisy) == sorted(clean), trial


class TestEstimate:
    def test_unique_candidate_is_returned(self):
        params = SystemParams(3, 6, 18)
        spec = TypicalSetSpec(18, 0.05, 0.1)
        graph = sample_graph(params, 0)
        x = weight_vector(18, 1)
        est = estimate_noiseless(graph, spec, forward_or(graph, x))
        assert est.value == x
        assert est.decision_count == 1
        assert not est.failed

    def test_ambiguity_fails(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        graph = sample_graph(params, 5)
        y = forward_or(graph, weight_vector(12, 1))
        est = estimate_noiseless(graph, spec, y)
        assert est.failed
        assert est.value is None
        assert est.decision_count >= 2

    def test_empty_window_fails_with_zero_count(self):
        graph = sample_graph(SystemParams(3, 6, 18), 1)
        spec = TypicalSetSpec(18, 0.02, 0.1)
        est = estimate_noiseless(graph, spec, (0,) * 9)
        assert est.failed
        assert est.decision_count == 0

    def test_cap_preserves_the_verdict(self):
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        rng = random.Random(17)
        for trial in range(100):
            graph = sample_graph(params, rng.randrange(1 << 30))
            x = tuple(1 if rng.random() < 0.12 else 0 for _ in range(12))
            y = forward_or(graph, x)
            full = estimate_noiseless(graph, spec, y)
            capped = estimate_noiseless(graph, spec, y, cap=2)
            assert capped.failed == full.failed, trial
            assert capped.value == full.value, trial

    def test_cap_below_two_is_refused(self):
        # a scan stopped at one member cannot tell it is the only one: here
        # |D(y)| = 86 and the first member is not x, which a cap of 1 once
        # returned as the unique answer
        params = SystemParams(3, 6, 12)
        spec = TypicalSetSpec(12, 0.5, 0.1)
        noise_spec = TypicalSetSpec(params.m, 0.0, 0.0)
        graph = sample_graph(params, 3)
        x = weight_vector(12, 4)
        y = forward_or(graph, x)
        assert decision_set_noiseless(graph, spec, y, cap=1) != [x]
        for cap in (0, 1):
            with pytest.raises(InputError, match=f"^cap={cap} must be at least 2$"):
                estimate_noiseless(graph, spec, y, cap=cap)
            with pytest.raises(InputError, match=f"^cap={cap} must be at least 2$"):
                estimate_noisy(graph, spec, noise_spec, y, cap=cap)
        with pytest.raises(InputError, match="^cap=0 must be at least 1$"):
            decision_set_noiseless(graph, spec, y, cap=0)
        with pytest.raises(InputError, match="^cap=0 must be at least 1$"):
            decision_set_noisy(graph, spec, noise_spec, y, cap=0)
        assert estimate_noiseless(graph, spec, y, cap=2) == Estimate(None, 2)

    def test_noisy_estimate_recovers_with_clean_channel(self):
        params = SystemParams(3, 6, 18, q=0.1)
        spec = TypicalSetSpec(18, 0.05, 0.1)
        noise_spec = TypicalSetSpec(9, 0.1, 0.6)
        graph = sample_graph(params, 0)
        x = weight_vector(18, 1)
        est = estimate_noisy(graph, spec, noise_spec, forward_or(graph, x))
        assert 0 in typical_weight_set(noise_spec)
        assert est.decision_count >= 1

    def test_estimate_guard(self):
        graph = large_graph()
        spec = TypicalSetSpec(LARGE_N, 0.1, 0.3)
        with pytest.raises(GuardError, match="socket test bits refused"):
            estimate_noiseless(graph, spec, (0,) * graph.params.m)

import itertools
import math
import random

import pytest

from brute_force import brute_force_decision_set_noiseless, weight_vector
from pooltest import (
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
from pooltest.estimators import WEIGHT_WALK_LIMIT, weight_rate


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

    def test_guard_on_large_systems(self):
        graph = sample_graph(SystemParams(3, 6, 30), 1)
        spec = TypicalSetSpec(30, 0.1, 0.3)
        with pytest.raises(GuardError):
            decision_set_noiseless(graph, spec, (0,) * 15)

    def test_guard_respects_custom_limit(self):
        graph = sample_graph(SystemParams(3, 6, 12), 1)
        spec = TypicalSetSpec(12, 0.1, 0.3)
        y = forward_or(graph, weight_vector(12, 1))
        with pytest.raises(GuardError):
            decision_set_noiseless(graph, spec, y, enumeration_limit=10)
        assert decision_set_noiseless(graph, spec, y, enumeration_limit=12)


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
        graph = sample_graph(SystemParams(3, 6, 30), 1)
        spec = TypicalSetSpec(30, 0.1, 0.3)
        with pytest.raises(GuardError):
            estimate_noiseless(graph, spec, (0,) * 15)

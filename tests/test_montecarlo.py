import random
from fractions import Fraction

import pytest

from pooltest import (
    ConfigurationError,
    InputError,
    SystemParams,
    TypicalSetSpec,
    derive_seed,
    ensemble_event_probability,
    estimate_noiseless,
    forward_or,
    run_noiseless_trials,
    run_noisy_trials,
    sample_graph,
    typical_weight_set,
    validate_event_probability,
    validate_noisy_event_probability,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(12, "trial", 3) == derive_seed(12, "trial", 3)

    def test_distinct_across_labels_and_indices(self):
        seeds = {
            derive_seed(master, label, index)
            for master in (0, 1, 99)
            for label in ("trial", "graph", "noise")
            for index in range(200)
        }
        assert len(seeds) == 3 * 3 * 200

    def test_independent_of_call_order(self):
        forward = [derive_seed(7, "trial", i) for i in range(50)]
        backward = [derive_seed(7, "trial", i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))


class TestTrialHarness:
    def test_report_is_reproducible(self):
        params = SystemParams(3, 6, 18, p=0.05)
        a = run_noiseless_trials(params, 0.1, 400, master_seed=5)
        b = run_noiseless_trials(params, 0.1, 400, master_seed=5)
        assert a == b
        c = run_noiseless_trials(params, 0.1, 400, master_seed=6)
        assert a != c

    def test_error_breakdown_sums(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 500, master_seed=2)
        assert report.errors == (
            report.errors_source_atypical
            + report.errors_noise_atypical
            + report.errors_ambiguous
        )
        assert report.errors_noise_atypical == 0
        assert report.trials == 500
        assert report.error_rate == report.errors / 500

    def test_atypical_count_matches_replay(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 500, master_seed=2)
        window = typical_weight_set(TypicalSetSpec(18, 0.05, 0.1))
        atypical = 0
        for i in range(500):
            rng = random.Random(derive_seed(2, "trial", i))
            x = tuple(1 if rng.random() < 0.05 else 0 for _ in range(18))
            if sum(x) not in window:
                atypical += 1
        assert report.errors_source_atypical == atypical

    def test_ambiguous_count_matches_replay(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 300, master_seed=4)
        spec = TypicalSetSpec(18, 0.05, 0.1)
        window = typical_weight_set(spec)
        ambiguous = 0
        for i in range(300):
            rng = random.Random(derive_seed(4, "trial", i))
            x = tuple(1 if rng.random() < 0.05 else 0 for _ in range(18))
            graph = sample_graph(params, derive_seed(4, "graph", i))
            if sum(x) not in window:
                continue
            est = estimate_noiseless(graph, spec, forward_or(graph, x), cap=2)
            if est.failed or est.value != x:
                ambiguous += 1
        assert report.errors_ambiguous == ambiguous

    def test_fixed_graph_mode(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(
            params, 0.1, 200, master_seed=3, graph_mode="fixed"
        )
        assert report.config["graph_mode"] == "fixed"
        assert report == run_noiseless_trials(
            params, 0.1, 200, master_seed=3, graph_mode="fixed"
        )

    def test_unknown_graph_mode_rejected(self):
        params = SystemParams(3, 6, 18, p=0.05)
        with pytest.raises(ConfigurationError):
            run_noiseless_trials(params, 0.1, 10, master_seed=1, graph_mode="both")

    def test_zero_trials_report(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 0, master_seed=1)
        assert report.trials == 0
        assert report.error_rate is None
        assert report.confidence_halfwidth is None

    def test_json_dict_round_trips_through_config(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 100, master_seed=8)
        data = report.to_json_dict()
        assert data["trials"] == 100
        assert data["master_seed"] == 8
        assert data["config"]["n"] == 18
        assert 0.0 <= data["error_rate"] <= 1.0

    def test_noisy_zero_noise_matches_noiseless_counts(self):
        clean = SystemParams(3, 6, 18, p=0.05)
        noisy = SystemParams(3, 6, 18, p=0.05, q=0.0)
        a = run_noiseless_trials(clean, 0.1, 400, master_seed=12)
        b = run_noisy_trials(noisy, 0.1, 0.1, 400, master_seed=12)
        assert a.errors == b.errors
        assert a.errors_source_atypical == b.errors_source_atypical
        assert a.errors_ambiguous == b.errors_ambiguous

    def test_noisy_zero_width_noise_window_matches_too(self):
        clean = SystemParams(3, 6, 18, p=0.05)
        noisy = SystemParams(3, 6, 18, p=0.05, q=0.0)
        a = run_noiseless_trials(clean, 0.1, 400, master_seed=12)
        b = run_noisy_trials(noisy, 0.1, 0.0, 400, master_seed=12)
        assert a.errors == b.errors

    def test_noisy_error_sources_are_tracked(self):
        params = SystemParams(3, 6, 18, p=0.05, q=0.1)
        report = run_noisy_trials(params, 0.1, 0.1, 400, master_seed=21)
        assert report.errors == (
            report.errors_source_atypical
            + report.errors_noise_atypical
            + report.errors_ambiguous
        )
        assert report.trials == 400


class TestEventRateValidators:
    def test_known_quarter_rate(self):
        params = SystemParams(1, 2, 4)
        check = validate_event_probability(params, 2, 1, trials=3000, master_seed=7)
        assert check.exact == pytest.approx(1 / 6, abs=1e-15)
        assert check.passed
        assert abs(check.z_score) <= 4.0

    def test_three_socket_rate(self):
        params = SystemParams(3, 6, 12)
        check = validate_event_probability(params, 1, 3, trials=3000, master_seed=1)
        assert check.exact == pytest.approx(float(Fraction(216, 7140)), abs=1e-15)
        assert check.passed

    def test_degenerate_event_requires_equality(self):
        # every wiring sends a full-weight input to all-firing tests
        params = SystemParams(1, 2, 2)
        check = validate_event_probability(params, 2, 1, trials=500, master_seed=3)
        assert check.exact == 1.0
        assert check.empirical == 1.0
        assert check.z_score == 0.0
        assert check.passed

    def test_noisy_rate(self):
        params = SystemParams(1, 2, 2, q=0.25)
        check = validate_noisy_event_probability(
            params, 1, 1, trials=3000, master_seed=5
        )
        assert check.exact == pytest.approx(0.75, abs=1e-15)
        assert check.passed

    def test_reproducible_and_parallel_stable(self):
        params = SystemParams(1, 2, 4)
        a = validate_event_probability(params, 2, 1, trials=1000, master_seed=9)
        b = validate_event_probability(params, 2, 1, trials=1000, master_seed=9)
        assert a == b

    @staticmethod
    def replay_hits(params, w, s, trials, seed):
        """Hit count of a gate rebuilt from its two seeded streams, each
        seeded once and read by every trial in turn: the sockets the w*l
        defect sockets land on, and the flip pattern."""
        graphs = random.Random(derive_seed(seed, "graph", 0))
        noise = random.Random(derive_seed(seed, "noise", 0))
        hits = 0
        for _ in range(trials):
            sockets = graphs.sample(range(params.n * params.l), w * params.l)
            fired = {k // params.r for k in sockets}
            if params.q:
                fired ^= {j for j in range(params.m) if noise.random() < params.q}
            if fired == set(range(s)):
                hits += 1
        return hits

    @pytest.mark.parametrize(
        "params, w, s",
        [
            (SystemParams(3, 6, 12), 1, 3),
            (SystemParams(2, 4, 8), 2, 3),
            (SystemParams(1, 2, 4, q=0.25), 2, 1),
            (SystemParams(2, 4, 6, q=0.1), 1, 2),
        ],
    )
    def test_hit_count_matches_replay(self, params, w, s):
        validate = validate_noisy_event_probability if params.q else validate_event_probability
        check = validate(params, w, s, trials=2000, master_seed=18)
        assert check.empirical == self.replay_hits(params, w, s, 2000, 18) / 2000

    def test_noisy_gate_at_zero_noise_matches_noiseless(self):
        clean = validate_event_probability(
            SystemParams(3, 6, 12), 1, 3, trials=3000, master_seed=23
        )
        noisy = validate_noisy_event_probability(
            SystemParams(3, 6, 12, q=0.0), 1, 3, trials=3000, master_seed=23
        )
        assert noisy.empirical == clean.empirical

    def test_json_dict(self):
        params = SystemParams(1, 2, 4)
        check = validate_event_probability(params, 2, 1, trials=200, master_seed=2)
        data = check.to_json_dict()
        assert set(data) >= {"empirical", "exact", "z_score", "pass", "trials"}
        assert data["pass"] is True

    def test_empirical_tracks_exact(self):
        # sanity on the estimator itself, not just the gate
        params = SystemParams(1, 2, 4)
        check = validate_event_probability(params, 2, 1, trials=20000, master_seed=13)
        assert check.empirical == pytest.approx(1 / 6, abs=0.02)

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pooltest.montecarlo
from brute_force import loop_gate, object_tests, stdlib_run_trials
from pooltest import (
    GuardError,
    InputError,
    PoolingGraph,
    SystemParams,
    TypicalSetSpec,
    derive_seed,
    ensemble_event_probability,
    estimate_noiseless,
    forward_or,
    run_noiseless_trials,
    run_noisy_trials,
    typical_weight_set,
    validate_event_probability,
    validate_noisy_event_probability,
)
from pooltest import estimators
from pooltest.ensemble import _object_masks, _partial_shuffles, _shuffle, _shuffle_steps, _test_bits
from pooltest.estimators import _scan_or_consistent
from pooltest.montecarlo import _mask_sampler


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
        # x is the only draw from the run's "trial" stream
        rng = random.Random(derive_seed(2, "trial", 0))
        atypical = 0
        for _ in range(500):
            x = tuple(1 if rng.random() < 0.05 else 0 for _ in range(18))
            if sum(x) not in window:
                atypical += 1
        assert report.errors_source_atypical == atypical

    def test_ambiguous_count_matches_replay(self):
        params = SystemParams(3, 6, 18, p=0.05)
        report = run_noiseless_trials(params, 0.1, 300, master_seed=4)
        spec = TypicalSetSpec(18, 0.05, 0.1)
        window = typical_weight_set(spec)
        # a typical x takes the next shuffle of the run's "graph" stream
        rng = random.Random(derive_seed(4, "trial", 0))
        graphs = random.Random(derive_seed(4, "graph", 0))
        ambiguous = 0
        for _ in range(300):
            x = tuple(1 if rng.random() < 0.05 else 0 for _ in range(18))
            if sum(x) not in window:
                continue
            wiring = list(range(params.num_sockets))
            graphs.shuffle(wiring)
            graph = PoolingGraph(params, wiring)
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

    @pytest.mark.parametrize("run", [
        lambda params: run_noiseless_trials(params, 0.1, 3, master_seed=1),
        lambda params: run_noisy_trials(params, 0.1, 0.1, 3, master_seed=1),
        lambda params: validate_event_probability(params, 1, 1, 3, master_seed=1),
        lambda params: validate_noisy_event_probability(params, 1, 1, 3, master_seed=1),
    ], ids=["noiseless-trials", "noisy-trials", "noiseless-gate", "noisy-gate"])
    def test_degrees_past_the_float_range_are_refused(self, run):
        with pytest.raises(InputError, match="within the float range"):
            run(SystemParams(10**400, 6, 12, p=0.1, q=0.1))

    def test_unknown_graph_mode_rejected(self):
        params = SystemParams(3, 6, 18, p=0.05)
        with pytest.raises(InputError, match="^graph_mode 'both' is not 'fixed' or 'fresh'$"):
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

    def test_fraction_q_reports_like_its_float(self):
        # the loop reads q once as a float: an exact q draws the same flips
        # and its report stays plain JSON
        reports = [
            run_noisy_trials(SystemParams(3, 6, 18, p=0.1, q=q), 0.1, 0.1, 300, master_seed=4)
            for q in (Fraction(1, 10), 0.1)
        ]
        exact, rounded = (json.dumps(report.to_json_dict()) for report in reports)
        assert exact == rounded
        assert reports[1].errors_noise_atypical > 0

    def test_noisy_error_sources_are_tracked(self):
        params = SystemParams(3, 6, 18, p=0.05, q=0.1)
        report = run_noisy_trials(params, 0.1, 0.1, 400, master_seed=21)
        assert report.errors == (
            report.errors_source_atypical
            + report.errors_noise_atypical
            + report.errors_ambiguous
        )
        assert report.trials == 400


class TestStdlibReference:
    """The harness against brute_force.stdlib_run_trials, the loop rebuilt
    from the stdlib's RNG calls on the run's streams, with object masks
    read off each graph and the decoder's scan alone deciding each trial."""

    @settings(max_examples=80, deadline=None)
    @given(
        # l >= r makes a flip land on a lit test often, which is where the
        # order of OR and XOR shows
        system=st.sampled_from(
            [(1, 2, 4), (2, 4, 6), (2, 3, 9), (3, 6, 12), (1, 1, 6), (4, 2, 5), (3, 1, 4), (3, 2, 6)]
        ),
        p=st.floats(min_value=0.02, max_value=0.5),
        q=st.just(0.0) | st.floats(min_value=0.01, max_value=0.3),
        epsilon_input=st.floats(min_value=0.05, max_value=0.6),
        epsilon_noise=st.floats(min_value=0.0, max_value=0.6),
        graph_mode=st.sampled_from(["fresh", "fixed"]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(
        system=(3, 2, 6), p=0.15, q=0.1, epsilon_input=0.3, epsilon_noise=0.3,
        graph_mode="fresh", seed=1,
    )
    def test_reports_equal_the_stdlib_loop(
        self, system, p, q, epsilon_input, epsilon_noise, graph_mode, seed
    ):
        params = SystemParams(*system, p=p, q=q)
        trials = 40
        assert run_noiseless_trials(
            params, epsilon_input, trials, seed, graph_mode
        ) == stdlib_run_trials(
            "noiseless", replace(params, q=0), epsilon_input, 0.0, trials, seed, graph_mode,
            settings={"epsilon": epsilon_input},
        )
        noisy_settings = {"q": q, "epsilon_input": epsilon_input, "epsilon_noise": epsilon_noise}
        assert run_noisy_trials(
            params, epsilon_input, epsilon_noise, trials, seed, graph_mode
        ) == stdlib_run_trials(
            "noisy", params, epsilon_input, epsilon_noise, trials, seed, graph_mode,
            settings=noisy_settings,
        )


def _trial_shaped_runs():
    """(runner, args) for the benchmark's decoding configs at (3, 6, 18/24)."""
    for n in (18, 24):
        for p in (0.1, 0.2):
            for mode in ("fixed", "fresh"):
                yield run_noiseless_trials, (SystemParams(3, 6, n, p=p), 0.1, 300, 1, mode)
        for q in (0.05, 0.1):
            for eps in (0.1, 0.3):
                yield run_noisy_trials, (SystemParams(3, 6, n, p=0.1, q=q), eps, eps, 150, 1)


class TestConfusablePreCheck:
    """The trial loop decides each trial from the supports one object from
    x before it scans; its reports are those of the scan alone."""

    @staticmethod
    def scan_only(masks, y, flips, weights, support):
        return _scan_or_consistent(masks, y, flips, weights, 2) != [tuple(support)]

    @staticmethod
    def report_or_refusal(runner, args):
        try:
            return runner(*args)
        except GuardError as refusal:
            return str(refusal)

    @pytest.mark.parametrize("runner, args", list(_trial_shaped_runs()))
    def test_reports_equal_the_scan_alone(self, monkeypatch, runner, args):
        report = runner(*args)
        # at a small node limit some scans refuse: a run the scan alone
        # completes gives the same report, and a run that completes with the
        # pre-check gives the report of the scan at the full limit
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "SCAN_NODE_LIMIT", 64)
            small = self.report_or_refusal(runner, args)
            patch.setattr(pooltest.montecarlo, "_has_other_member", self.scan_only)
            small_scan_only = self.report_or_refusal(runner, args)
        monkeypatch.setattr(pooltest.montecarlo, "_has_other_member", self.scan_only)
        assert report == runner(*args)
        if not isinstance(small_scan_only, str):
            assert small == small_scan_only
        if not isinstance(small, str):
            assert small == report

    @pytest.mark.parametrize("runner, args, decoded, scanned", [
        (run_noiseless_trials, (SystemParams(3, 6, 24, p=0.1), 0.1, 300, 1), 139, 47),
        (run_noisy_trials, (SystemParams(3, 6, 24, p=0.1, q=0.05), 0.3, 0.3, 150, 1), 115, 4),
        # a trial here has a scan past SCAN_NODE_LIMIT; a neighbour settles it
        (run_noisy_trials, (SystemParams(3, 6, 144, p=0.05, q=0.05), 0.1, 0.1, 20, 1), 14, 0),
        # every decoded trial here has a member one object from x
        (run_noisy_trials, (SystemParams(3, 6, 96, p=0.05, q=0.05), 0.1, 0.1, 200, 1), 65, 0),
    ])
    def test_most_trials_need_no_scan(self, monkeypatch, runner, args, decoded, scanned):
        counts = {"decoded": 0, "scanned": 0}
        decide, scan = pooltest.montecarlo._has_other_member, estimators._scan

        def counting_decide(*a):
            counts["decoded"] += 1
            return decide(*a)

        def counting_scan(*a):
            counts["scanned"] += 1
            return scan(*a)

        monkeypatch.setattr(pooltest.montecarlo, "_has_other_member", counting_decide)
        monkeypatch.setattr(estimators, "_scan", counting_scan)
        runner(*args)
        assert counts == {"decoded": decoded, "scanned": scanned}


class TestStreams:
    """A decoding run seeds each of its streams once and draws every trial
    from them in turn; a trial takes a graph only once its x and its flips
    are typical."""

    @staticmethod
    def _recorded_labels(monkeypatch) -> list[tuple[str, int]]:
        labels = []
        true = pooltest.montecarlo.derive_seed

        def recording(master_seed, label, index):
            labels.append((label, index))
            return true(master_seed, label, index)

        monkeypatch.setattr(pooltest.montecarlo, "derive_seed", recording)
        return labels

    @pytest.mark.parametrize("graph_mode", ["fresh", "fixed"])
    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_each_stream_is_seeded_once(self, monkeypatch, q, graph_mode):
        params = SystemParams(3, 6, 18, p=0.1, q=q)
        labels = self._recorded_labels(monkeypatch)
        run_noisy_trials(params, 0.2, 0.2, 300, master_seed=2, graph_mode=graph_mode)
        expected = [("trial", 0), ("noise", 0), ("graph", 0)]
        if graph_mode == "fixed":
            expected.append(("fixed-graph", 0))
        assert sorted(labels) == sorted(expected)

    @pytest.mark.parametrize("graph_mode", ["fresh", "fixed"])
    @pytest.mark.parametrize("q", [0.0, 0.1])
    def test_graph_is_shuffled_once_per_typical_trial(self, monkeypatch, q, graph_mode):
        params = SystemParams(3, 6, 18, p=0.1, q=q)
        shuffles = []
        shuffle = pooltest.montecarlo._shuffle

        def counting(*args):
            shuffles.append(args)
            return shuffle(*args)

        monkeypatch.setattr(pooltest.montecarlo, "_shuffle", counting)
        report = run_noisy_trials(params, 0.2, 0.2, 300, master_seed=2, graph_mode=graph_mode)
        x_window = typical_weight_set(TypicalSetSpec(18, 0.1, 0.2))
        e_window = typical_weight_set(TypicalSetSpec(9, q, 0.2))
        xs = random.Random(derive_seed(2, "trial", 0))
        noise = random.Random(derive_seed(2, "noise", 0))
        typical = 0
        for _ in range(300):
            if sum(xs.random() < 0.1 for _ in range(18)) not in x_window:
                continue
            if q and sum(noise.random() < q for _ in range(9)) not in e_window:
                continue
            typical += 1
        assert typical and report.errors_source_atypical > 0
        assert (report.errors_noise_atypical > 0) == (q > 0)
        assert len(shuffles) == (1 if graph_mode == "fixed" else typical)


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

    def test_noiseless_gate_reads_the_noiseless_formula(self):
        # the gate runs the noisy formula at q = 0, whatever params.q says,
        # and gets the noiseless value rounded once
        for params in (SystemParams(1, 2, 4), SystemParams(3, 6, 12, q=0.3)):
            for w in range(params.n + 1):
                for s in range(params.m + 1):
                    check = validate_event_probability(params, w, s, 1, master_seed=1)
                    assert check.exact == float(ensemble_event_probability(params, w, s))

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
        defect sockets land on, the last w*l entries of one socket list
        after the first w*l steps of a Fisher-Yates shuffle, and the flip
        pattern."""
        graphs = random.Random(derive_seed(seed, "graph", 0))
        noise = random.Random(derive_seed(seed, "noise", 0))
        nl, wl = params.n * params.l, w * params.l
        sockets = list(range(nl))
        hits = 0
        for _ in range(trials):
            for i in range(nl - 1, 0, -1)[:wl]:
                j = graphs._randbelow(i + 1)
                sockets[i], sockets[j] = sockets[j], sockets[i]
            fired = {k // params.r for k in sockets[nl - wl:]}
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
            (SystemParams(2, 4, 8), 0, 0),
            (SystemParams(1, 2, 4), 4, 2),
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


class TestLoopGateReference:
    """The gates draw a block of trials' sockets in one _partial_shuffles
    call and then the block's flips; brute_force.loop_gate, the gate as it
    was, draws each trial's sockets and flips in turn.  The two streams are
    separate, so every check must be equal, field for field."""

    @settings(max_examples=60, deadline=None)
    @given(
        system=st.sampled_from(
            [(1, 2, 2), (1, 2, 4), (2, 4, 6), (2, 3, 9), (3, 6, 12), (1, 1, 4), (4, 2, 3), (3, 1, 2), (3, 2, 4)]
        ),
        q=st.just(0.0) | st.floats(min_value=0.01, max_value=0.5),
        trials=st.integers(min_value=1, max_value=40),
        block=st.sampled_from([pooltest.montecarlo.GATE_BLOCK, 1, 7]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(system=(1, 2, 4), q=0.25, trials=20, block=7, seed=18)
    def test_checks_equal_the_loop(self, system, q, trials, block, seed):
        params = SystemParams(*system, q=q)
        with mock.patch.object(pooltest.montecarlo, "GATE_BLOCK", block):
            for w in range(params.n + 1):
                for s in range(params.m + 1):
                    clean = validate_event_probability(params, w, s, trials, seed)
                    noisy = validate_noisy_event_probability(params, w, s, trials, seed)
                    assert clean == loop_gate(
                        "noiseless-event-rate", replace(params, q=0), w, s, trials, seed, {}
                    ), (w, s)
                    assert noisy == loop_gate(
                        "noisy-event-rate", params, w, s, trials, seed, {"q": q}
                    ), (w, s)


class TestStdlibReplay:
    """The graph draws replay random.Random.shuffle through getrandbits, so
    that seeded reports keep the stdlib's streams.  If a Python release
    changes how it draws, these fail."""

    def test_shuffle_matches_stdlib(self):
        for length in range(1, 81):
            steps = _shuffle_steps(length)
            for seed in range(50):
                expected, rng = list(range(length)), random.Random(seed)
                rng.shuffle(expected)
                got, replay = list(range(length)), random.Random(seed)
                _shuffle(replay.getrandbits, got, steps)
                assert got == expected
                assert replay.getrandbits(64) == rng.getrandbits(64)

    @pytest.mark.parametrize("l, r, n", [(1, 2, 4), (3, 6, 12), (2, 4, 18), (4, 8, 10), (2, 3, 9)])
    def test_trial_masks_are_the_sampled_graphs(self, l, r, n):
        # the trials' masks and the decoder's fold of a graph's wiring, both
        # against the tests each object feeds by brute_force.object_tests
        params = SystemParams(l, r, n)
        masks = _mask_sampler(params, random.Random(derive_seed(31, "graph", 0)).getrandbits)
        replay = random.Random(derive_seed(31, "graph", 0))
        bits = _test_bits(params)
        for _ in range(20):
            # each call is the next shuffle of a fresh list(range(n*l))
            wiring = list(range(params.num_sockets))
            replay.shuffle(wiring)
            graph = PoolingGraph(params, wiring)
            expected = [reduce(or_, (1 << j for j in tests)) for tests in object_tests(graph)]
            assert masks() == expected
            assert _object_masks([bits[k] for k in graph.wiring], l) == expected


class TestPartialShuffle:
    """The gates run the first k steps of _shuffle and read the last k
    entries.  Fed every sequence of accepted indices, each after a rejected
    draw where one exists, those k steps must give every ordered k-sample
    of the list exactly once, from any starting arrangement.  The gates run
    them through _partial_shuffles, which must draw and swap as _shuffle
    does and OR the entries each round fixes."""

    @staticmethod
    def scripted(indices, steps):
        draws = []
        for j, (i, bits) in zip(indices, steps):
            if i + 1 < 1 << bits:
                draws.append((bits, (1 << bits) - 1))  # rejected: above i
            draws.append((bits, j))
        draws.reverse()

        def getrandbits(bits):
            expected_bits, value = draws.pop()
            assert bits == expected_bits
            return value

        return getrandbits, draws

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_ordered_sample_comes_from_one_index_sequence(self, n):
        for k in range(n + 1):
            steps = _shuffle_steps(n)[:k]
            expected = set(itertools.permutations(range(n), k))
            for start in itertools.permutations(range(n)):
                samples = []
                for indices in itertools.product(*(range(i + 1) for i, _ in steps)):
                    getrandbits, left = self.scripted(indices, steps)
                    x = list(start)
                    _shuffle(getrandbits, x, steps)
                    assert not left
                    assert sorted(x) == list(range(n))
                    samples.append(tuple(x[n - k:]))
                assert len(samples) == len(set(samples)) == len(expected)
                assert set(samples) == expected

    @pytest.mark.parametrize("rounds", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rounds_or_the_entries_each_round_fixes(self, n, rounds):
        # _partial_shuffles against `rounds` calls of _shuffle on one list,
        # fed the same scripted draws; distinct bits make each OR name the
        # entries it took
        rng = random.Random(10 * n + rounds)
        for k in range(n):
            steps = _shuffle_steps(n)[:k]
            sequences = list(itertools.product(*(range(i + 1) for i, _ in steps)))
            for _ in range(40):
                script = [rng.choice(sequences) for _ in range(rounds)]
                start = [1 << v for v in rng.sample(range(n), n)]
                expected, x = [], list(start)
                for indices in script:
                    getrandbits, left = self.scripted(indices, steps)
                    _shuffle(getrandbits, x, steps)
                    assert not left
                    expected.append(reduce(or_, x[n - k:], 0))
                getrandbits, left = self.scripted(sum(script, ()), steps * rounds)
                got = list(start)
                assert _partial_shuffles(getrandbits, got, steps, rounds) == expected
                assert not left
                assert got == x


class TestPinnedOutput:
    """Seeded reports pinned to recorded values, key order included, so that
    any change to the trial or gate streams shows up here.  A deliberate
    stream change must re-record these values and say so."""

    @staticmethod
    def assert_pinned(result, expected):
        assert json.dumps(result.to_json_dict()) == json.dumps(expected)

    def test_noiseless_fixed_graph_run(self):
        report = run_noiseless_trials(
            SystemParams(2, 4, 12, p=0.1), 0.2, 60, master_seed=2024, graph_mode="fixed"
        )
        self.assert_pinned(report, {
            "trials": 60, "errors": 50, "error_rate": 0.8333333333333334,
            "confidence_halfwidth": 0.09430054396763886, "master_seed": 2024,
            "errors_source_atypical": 41, "errors_noise_atypical": 0, "errors_ambiguous": 9,
            "config": {
                "mode": "noiseless", "l": 2, "r": 4, "n": 12, "p": 0.1, "epsilon": 0.2,
                "trials": 60, "master_seed": 2024, "graph_mode": "fixed",
            },
        })

    def test_noisy_run(self):
        report = run_noisy_trials(
            SystemParams(2, 4, 12, p=0.15, q=0.05), 0.3, 0.3, 60, master_seed=2024
        )
        self.assert_pinned(report, {
            "trials": 60, "errors": 51, "error_rate": 0.85,
            "confidence_halfwidth": 0.0903515356814703, "master_seed": 2024,
            "errors_source_atypical": 17, "errors_noise_atypical": 12, "errors_ambiguous": 22,
            "config": {
                "mode": "noisy", "l": 2, "r": 4, "n": 12, "p": 0.15, "q": 0.05,
                "epsilon_input": 0.3, "epsilon_noise": 0.3, "trials": 60,
                "master_seed": 2024, "graph_mode": "fresh",
            },
        })

    def test_noisy_gate(self):
        check = validate_noisy_event_probability(
            SystemParams(1, 2, 2, q=0.25), 1, 1, trials=2000, master_seed=2024
        )
        self.assert_pinned(check, {
            "empirical": 0.7495, "exact": 0.75, "z_score": -0.051639777949426535,
            "pass": True, "trials": 2000,
            "config": {
                "check": "noisy-event-rate", "l": 1, "r": 2, "n": 2, "q": 0.25,
                "w": 1, "s": 1, "trials": 2000, "master_seed": 2024,
            },
        })

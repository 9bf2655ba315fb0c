import itertools
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import pooltest.ensemble as ensemble_module
from brute_force import (
    compositions_recursive,
    enumerate_ensemble,
    forward_general,
    object_tests,
    parity_function,
    test_pools,
    threshold_function,
    type_vector_representative,
    value_for_type,
    weight_vector,
)
from pooltest import TestFunction as PoolFunction
from pooltest import (
    GuardError,
    InputError,
    PoolingGraph,
    SystemParams,
    count_function,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    forward_or,
    general_ensemble_event_probability,
    noisy_ensemble_event_probability,
    or_function,
    sample_graph,
)
from pooltest.ensemble import compositions


class TestSystemParams:
    def test_test_count(self):
        assert SystemParams(3, 6, 12).m == 6
        assert SystemParams(1, 2, 4).m == 2
        assert SystemParams(2, 4, 4).num_sockets == 8

    def test_divisibility_enforced(self):
        with pytest.raises(InputError, match=r"^r=5 must divide n\*l=36 "):
            SystemParams(3, 5, 12)

    def test_probability_ranges(self):
        with pytest.raises(InputError, match=r"^p=1.5 outside \[0, 1\]$"):
            SystemParams(3, 6, 12, p=1.5)
        with pytest.raises(InputError, match=r"^q=-0.1 outside \[0, 1\]$"):
            SystemParams(3, 6, 12, q=-0.1)

    def test_positive_sizes(self):
        with pytest.raises(InputError, match="^degrees l and r must be positive integers$"):
            SystemParams(0, 2, 4)
        with pytest.raises(InputError, match="^n must be a positive integer$"):
            SystemParams(1, 2, 0)


class TestPoolingGraph:
    def test_identity_wiring_pools(self):
        params = SystemParams(1, 2, 4)
        graph = PoolingGraph(params, range(4))
        # object i owns socket i; test j owns sockets 2j, 2j+1
        assert test_pools(graph) == [[0, 1], [2, 3]]
        assert object_tests(graph) == [(0,), (0,), (1,), (1,)]

    def test_wiring_must_be_permutation(self):
        params = SystemParams(1, 2, 4)
        with pytest.raises(InputError):
            PoolingGraph(params, [0, 0, 1, 2])
        with pytest.raises(InputError):
            PoolingGraph(params, [0, 1, 2])

    def test_parallel_edges_allowed(self):
        # both sockets of object 0 land in test 0: a repeated pool entry
        params = SystemParams(2, 4, 4)
        wiring = [0, 1, 2, 3, 4, 5, 6, 7]
        graph = PoolingGraph(params, wiring)
        assert test_pools(graph)[0] == [0, 0, 1, 1]

    def test_equality_and_hash(self):
        params = SystemParams(1, 2, 4)
        a = PoolingGraph(params, [0, 1, 2, 3])
        b = PoolingGraph(params, [0, 1, 2, 3])
        c = PoolingGraph(params, [1, 0, 2, 3])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestSampling:
    def test_seed_determinism(self):
        params = SystemParams(3, 6, 12)
        assert sample_graph(params, 7) == sample_graph(params, 7)
        assert sample_graph(params, 7) != sample_graph(params, 8)

    def test_sampled_wiring_is_permutation(self):
        params = SystemParams(3, 6, 12)
        graph = sample_graph(params, 123)
        assert sorted(graph.wiring) == list(range(36))

    def test_two_socket_system_hits_both_wirings(self):
        params = SystemParams(1, 2, 2)
        seen = {sample_graph(params, seed).wiring for seed in range(40)}
        assert seen == {(0, 1), (1, 0)}


class TestEnumeration:
    def test_counts_all_wirings_once(self):
        params = SystemParams(1, 2, 4)
        wirings = [g.wiring for g in enumerate_ensemble(params)]
        assert len(wirings) == math.factorial(4)
        assert len(set(wirings)) == math.factorial(4)

    def test_guard_refuses_large_systems(self):
        params = SystemParams(3, 6, 12)
        with pytest.raises(GuardError):
            next(enumerate_ensemble(params))

    def test_sampling_is_uniform_over_tiny_ensemble(self):
        # 3! = 6 wirings; a fair sampler puts each near 1/6
        params = SystemParams(1, 3, 3)
        counts = {}
        trials = 3000
        for seed in range(trials):
            wiring = sample_graph(params, seed).wiring
            counts[wiring] = counts.get(wiring, 0) + 1
        assert len(counts) == 6
        for hits in counts.values():
            assert abs(hits / trials - 1 / 6) < 0.05


class TestForwardOr:
    def test_hand_worked_outcome(self):
        # objects 0..3, tests 0..1 under identity wiring; only object 2 defective
        params = SystemParams(1, 2, 4)
        graph = PoolingGraph(params, [0, 1, 2, 3])
        assert forward_or(graph, (0, 0, 1, 0)) == (0, 1)
        assert forward_or(graph, (1, 0, 1, 0)) == (1, 1)
        assert forward_or(graph, (0, 0, 0, 0)) == (0, 0)

    def test_every_defective_pool_fires(self):
        params = SystemParams(3, 6, 12)
        graph = sample_graph(params, 5)
        x = weight_vector(12, 3)
        y = forward_or(graph, x)
        pools = test_pools(graph)
        for j, pool in enumerate(pools):
            assert y[j] == (1 if any(x[i] for i in pool) else 0)

    def test_input_validation(self):
        params = SystemParams(1, 2, 4)
        graph = PoolingGraph(params, [0, 1, 2, 3])
        with pytest.raises(InputError):
            forward_or(graph, (0, 1))
        with pytest.raises(InputError):
            forward_or(graph, (0, 1, 2, 0))


class TestPoolFunction:
    def test_or_function_table(self):
        f = or_function(3)
        assert value_for_type(f, (3, 0)) == 0
        assert value_for_type(f, (2, 1)) == 1
        assert value_for_type(f, (0, 3)) == 1

    def test_threshold_and_count_and_parity(self):
        t2 = threshold_function(4, 2)
        assert value_for_type(t2, (3, 1)) == 0
        assert value_for_type(t2, (2, 2)) == 1
        cnt = count_function(3)
        assert cnt.output_alphabet == (0, 1, 2, 3)
        assert value_for_type(cnt, (1, 2)) == 2
        par = parity_function(3)
        assert value_for_type(par, (2, 1)) == 1
        assert value_for_type(par, (1, 2)) == 0

    def test_totality_is_enforced(self):
        with pytest.raises(InputError, match=r"^table is missing type \(0, 2\)$"):
            PoolFunction((0, 1), (0, 1), 2, {(2, 0): 0, (1, 1): 1})

    def test_output_range_is_enforced(self):
        with pytest.raises(InputError, match=r"^table entry 1: output index 2 outside \[0, 2\)$"):
            PoolFunction((0, 1), (0, 1), 1, {(1, 0): 0, (0, 1): 2})

    def test_missing_type_is_found_without_walking_every_type(self, monkeypatch):
        # arity 1000 has C(1002, 2) = 501,501 three-symbol types; the table
        # check names the first one missing after walking only up to it
        real, walked = ensemble_module.compositions, []

        def counting(total, parts):
            for t in real(total, parts):
                walked.append(t)
                yield t

        monkeypatch.setattr(ensemble_module, "compositions", counting)
        with pytest.raises(InputError, match=r"^table is missing type \(0, 0, 1000\)$"):
            PoolFunction((0, 1, 2), (0,), 1000, {(1000, 0, 0): 0})
        assert walked == [(0, 0, 1000)]

    def test_types_are_checked_by_length_sum_and_sign(self):
        for t in ((1, 1, 0), (2,), (3, 0), (3, -1), (1.0, 1.0)):
            with pytest.raises(InputError, match=r"^table entry 0: type "):
                PoolFunction((0, 1), (0, 1), 2, {t: 0})

    @pytest.mark.parametrize("inputs, outputs, arity, message", [
        ((0, 0), (0, 1), 1, "input alphabet symbols must be distinct"),
        ((0, 1), (1, 1), 1, "output alphabet symbols must be distinct"),
        ((0, 1), (0, 1), 0, "arity must be positive"),
    ])
    def test_alphabets_and_arity_are_checked(self, inputs, outputs, arity, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            PoolFunction(inputs, outputs, arity, {(arity, 0): 0})

    def test_from_callable_refuses_a_foreign_output(self):
        with pytest.raises(InputError, match="^fn returned 5, not in output alphabet$"):
            PoolFunction.from_callable(lambda vals: 5, (0, 1), (0, 1), 2)

    def test_from_callable_matches_table(self):
        f = PoolFunction.from_callable(lambda vals: int(any(vals)), (0, 1), (0, 1), 3)
        assert f.table == or_function(3).table

    def test_json_roundtrip(self):
        f = threshold_function(4, 2)
        again = PoolFunction.from_json_dict(f.to_json_dict())
        assert again == f

    def test_json_rejects_missing_and_duplicate(self):
        data = or_function(2).to_json_dict()
        del data["arity"]
        with pytest.raises(InputError, match="^test function file is missing key 'arity'$"):
            PoolFunction.from_json_dict(data)
        data = or_function(2).to_json_dict()
        data["table"].append(dict(data["table"][0]))
        with pytest.raises(InputError, match="^table contains a duplicate type$"):
            PoolFunction.from_json_dict(data)


class TestForwardGeneral:
    def test_reduces_to_or(self):
        params = SystemParams(2, 4, 4)
        f = or_function(4)
        for seed in range(10):
            graph = sample_graph(params, seed)
            for w in range(5):
                x = weight_vector(4, w)
                assert forward_general(graph, f, x) == forward_or(graph, x)

    def test_count_function_counts(self):
        params = SystemParams(1, 4, 4)
        graph = PoolingGraph(params, [0, 1, 2, 3])
        f = count_function(4)
        assert forward_general(graph, f, (1, 0, 1, 1)) == (3,)

    def test_rejects_foreign_symbol(self):
        params = SystemParams(1, 2, 2)
        graph = PoolingGraph(params, [0, 1])
        with pytest.raises(InputError):
            forward_general(graph, or_function(2), (0, 7))


class TestCompositions:
    def test_small_enumeration(self):
        assert set(compositions(3, 2)) == {(0, 3), (1, 2), (2, 1), (3, 0)}

    def test_lexicographic_order_of_the_recursive_walk(self):
        for total in range(9):
            for parts in range(1, 7):
                assert list(compositions(total, parts)) == list(
                    compositions_recursive(total, parts)
                ), (total, parts)

    def test_wide_alphabets_do_not_recurse(self):
        # one part per symbol: 1200 parts would pass Python's recursion limit
        walk = compositions(6, 1200)
        assert next(walk) == (0,) * 1199 + (6,)
        assert next(walk) == (0,) * 1198 + (1, 5)
        assert sum(1 for _ in compositions(1, 1200)) == 1200

    def test_count_is_stars_and_bars(self):
        assert sum(1 for _ in compositions(6, 3)) == math.comb(8, 2)

    def test_all_sum_to_total(self):
        assert all(sum(c) == 5 for c in compositions(5, 4))

    def test_representative_spells_out_the_counts(self):
        assert type_vector_representative(("a", "b"), (2, 1)) == ("a", "a", "b")


class TestEnumerationFractions:
    def test_hand_counted_quarter_system(self):
        # 4 sockets, identity-like pairing: exactly 4 of the 24 wirings send
        # both defective objects into the same pool
        assert enumeration_fraction_noiseless(SystemParams(1, 2, 4), 2, 1) == Fraction(1, 6)

    def test_zero_weight_edge_cases(self):
        params = SystemParams(1, 2, 4)
        assert enumeration_fraction_noiseless(params, 0, 0) == 1
        assert enumeration_fraction_noiseless(params, 0, 1) == 0

    def test_representative_choice_is_irrelevant(self):
        # the ensemble average may not depend on which weight-2 vector is used
        params = SystemParams(1, 2, 4)
        f = or_function(2)
        x_variants = set(itertools.permutations((1, 1, 0, 0)))
        baseline = enumeration_fraction_noiseless(params, 2, 1)
        y = weight_vector(params.m, 1)
        for x in x_variants:
            hits = sum(1 for g in enumerate_ensemble(params) if forward_or(g, x) == y)
            assert Fraction(hits, math.factorial(4)) == baseline

    def test_general_fraction_validates_counts(self):
        params = SystemParams(1, 2, 4)
        with pytest.raises(InputError):
            enumeration_fraction_general(params, or_function(2), (1, 1), (1, 1))

    def test_output_that_no_type_gives_is_zero_without_a_walk(self):
        # every type gives output 0, so no wiring gives the one test of
        # output 1; walking the seven output-0 tests first ran out of budget
        params = SystemParams(1, 2, 16)
        constant = PoolFunction((0, 1, 2), (0, 1), 2, {t: 0 for t in compositions(2, 3)})
        assert enumeration_fraction_general(params, constant, (4, 4, 8), (7, 1)) == 0
        assert general_ensemble_event_probability(params, constant, (4, 4, 8), (7, 1)) == 0

    def test_every_wiring_giving_y_is_counted_within_budget(self):
        # every type gives output 0, so every wiring gives the all-0 outcome;
        # a walk that kept each path ran out of budget before it had counted them
        params = SystemParams(2, 2, 8)
        constant = PoolFunction((0, 1, 2), (0, 1), 2, {t: 0 for t in compositions(2, 3)})
        assert enumeration_fraction_general(params, constant, (2, 2, 4), (8, 0)) == 1


# Every system with at most 7 sockets, and four 8-socket systems, among them
# the two of the exact benchmark.  A brute-force pass over 8! wirings costs
# about a second per system, so the other 8-socket systems are left out, and
# of the general cases only (2,4,4) under count_function runs at 8 sockets.
CROSS_CHECK_SYSTEMS = [
    (l, r, nl // l)
    for nl in range(1, 8)
    for l in range(1, nl + 1)
    for r in range(1, nl + 1)
    if nl % l == 0 and nl % r == 0
] + [(1, 2, 8), (2, 4, 4), (1, 4, 8), (2, 2, 4)]


def _ternary_max():
    # the ternary max test of tests/test_genfunc.py
    return PoolFunction.from_callable(lambda vals: max(vals), (0, 1, 2), (0, 1, 2), 2)


def _wiring_outcomes(params, forward, inputs):
    """For each input, how many of the (nl)! wirings give each outcome."""
    tallies = [Counter() for _ in inputs]
    for graph in enumerate_ensemble(params):
        for tally, x in zip(tallies, inputs):
            tally[forward(graph, x)] += 1
    return tallies


class TestOraclesAgainstBruteForce:
    """The per-test oracles equal a count over every wiring."""

    @pytest.mark.parametrize("l,r,n", CROSS_CHECK_SYSTEMS)
    def test_binary_oracles(self, l, r, n):
        params = SystemParams(l, r, n)
        m, total = params.m, math.factorial(params.num_sockets)
        inputs = [weight_vector(n, w) for w in range(n + 1)]
        for w, tally in enumerate(_wiring_outcomes(params, forward_or, inputs)):
            for s in range(m + 1):
                y = weight_vector(m, s)
                assert enumeration_fraction_noiseless(params, w, s) == Fraction(
                    tally[y], total
                ), (w, s)
                for q in (Fraction(1, 10), Fraction(1, 2)):
                    expected = Fraction(0)
                    for out, count in tally.items():
                        flips = sum(a != b for a, b in zip(out, y))
                        expected += count * q**flips * (1 - q) ** (m - flips)
                    noisy = SystemParams(l, r, n, q=q)
                    assert enumeration_fraction_noisy(noisy, w, s) == expected / total, (
                        w,
                        s,
                        q,
                    )

    @pytest.mark.parametrize(
        "l,r,n,f",
        [
            pytest.param(l, r, n, count_function(r), id=f"{l}-{r}-{n}-count")
            for l, r, n in CROSS_CHECK_SYSTEMS
            if l * n < 8 or (l, r, n) == (2, 4, 4)
        ]
        + [
            pytest.param(l, r, n, _ternary_max(), id=f"{l}-{r}-{n}-ternary-max")
            for l, r, n in CROSS_CHECK_SYSTEMS
            if r == 2 and l * n < 8
        ],
    )
    def test_general_oracle(self, l, r, n, f):
        params = SystemParams(l, r, n)
        total = math.factorial(params.num_sockets)
        input_types = list(compositions(n, f.num_inputs))
        inputs = [type_vector_representative(f.input_alphabet, ic) for ic in input_types]
        tallies = _wiring_outcomes(params, lambda g, x: forward_general(g, f, x), inputs)
        for ic, tally in zip(input_types, tallies):
            for oc in compositions(params.m, f.num_outputs):
                y = type_vector_representative(f.output_alphabet, oc)
                assert enumeration_fraction_general(params, f, ic, oc) == Fraction(
                    tally[y], total
                ), (ic, oc)


SMALL = SystemParams(1, 2, 4)
SMALL_NOISY = SystemParams(1, 2, 4, q=Fraction(1, 10))


class TestOracleRefusals:
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: enumeration_fraction_noiseless(SMALL, -1, 0), id="noiseless-w-low"),
            pytest.param(lambda: enumeration_fraction_noiseless(SMALL, 5, 0), id="noiseless-w-high"),
            pytest.param(lambda: enumeration_fraction_noiseless(SMALL, 1, -1), id="noiseless-s-low"),
            pytest.param(lambda: enumeration_fraction_noiseless(SMALL, 1, 3), id="noiseless-s-high"),
            pytest.param(lambda: enumeration_fraction_noisy(SMALL_NOISY, -1, 0), id="noisy-w-low"),
            pytest.param(lambda: enumeration_fraction_noisy(SMALL_NOISY, 5, 0), id="noisy-w-high"),
            pytest.param(lambda: enumeration_fraction_noisy(SMALL_NOISY, 1, -1), id="noisy-s-low"),
            pytest.param(lambda: enumeration_fraction_noisy(SMALL_NOISY, 1, 3), id="noisy-s-high"),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(2), (4,), (1, 1)),
                id="general-input-too-short",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(2), (2, 2, 0), (1, 1)),
                id="general-input-too-long",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(2), (2, 2), (2,)),
                id="general-output-too-short",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, count_function(2), (2, 2), (1, 1)),
                id="general-output-wrong-length",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(2), (5, -1), (1, 1)),
                id="general-input-negative",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(2), (2, 2), (3, -1)),
                id="general-output-negative",
            ),
            pytest.param(
                lambda: enumeration_fraction_general(SMALL, or_function(4), (2, 2), (1, 1)),
                id="general-arity-not-r",
            ),
        ],
    )
    def test_invalid_input_raises_input_error(self, call):
        with pytest.raises(InputError):
            call()

    def test_over_budget_walk_is_refused_on_its_nodes(self):
        # OR at (3,6,960), w=160, s=240 keeps thousands of counts-left states
        # per test, and so does noisy with float q=0.1 at (3,6,480), w=48, s=60,
        # whose every test weighs both outcomes;
        # the sum mod 4 at (3,12,48) reads a table of 455 types at every test;
        # at r = 5000 to 2^30 the types' multinomials run to hundreds or
        # thousands of 64-bit words, and forming them all takes seconds to minutes
        mod4 = PoolFunction.from_callable(lambda v: sum(v) % 4, (0, 1, 2, 3), (0, 1, 2, 3), 12)
        calls = [
            (480, lambda: enumeration_fraction_noiseless(SystemParams(3, 6, 960), 160, 240)),
            (240, lambda: enumeration_fraction_noisy(SystemParams(3, 6, 480, q=0.1), 48, 60)),
            (12, lambda: enumeration_fraction_general(
                SystemParams(3, 12, 48), mod4, (12, 12, 12, 12), (3, 3, 3, 3)
            )),
            (2, lambda: enumeration_fraction_noiseless(SystemParams(1, 5000, 10000), 5000, 2)),
            (2, lambda: enumeration_fraction_noiseless(SystemParams(1, 20000, 40000), 20000, 2)),
            (1, lambda: enumeration_fraction_noiseless(SystemParams(1, 2**30, 2**30), 2**16, 1)),
        ]
        limit = ensemble_module.ORACLE_NODE_LIMIT
        for case, (m, call) in enumerate(calls):
            start = time.perf_counter()
            with pytest.raises(
                GuardError, match=rf"^oracle walk over {m} tests refused \(limit {limit} nodes\)$"
            ):
                call()
            assert time.perf_counter() - start < 10, case

    def test_reduction_charge_and_pass_share_one_budget(self, monkeypatch):
        # float q=0.1 is P/2^55, so reducing over Q^200 is charged 25 nodes before
        # the pass, whose 1,197 nodes bring the call to 1,222
        params = SystemParams(1, 2, 400, q=0.1)
        monkeypatch.setattr(ensemble_module, "ORACLE_NODE_LIMIT", 1221)
        refusal = r"^oracle walk over 200 tests refused \(limit 1221 nodes\)$"
        with pytest.raises(GuardError, match=refusal):
            enumeration_fraction_noisy(params, 2, 2)
        monkeypatch.setattr(ensemble_module, "ORACLE_NODE_LIMIT", 1222)
        exact = noisy_ensemble_event_probability(SystemParams(1, 2, 400, q=Fraction(0.1)), 2, 2)
        assert enumeration_fraction_noisy(params, 2, 2) == exact

    def test_type_table_is_refused_as_it_is_read(self):
        # 2^20 + 1 types of 2^21 sockets: the first one read is over budget,
        # so none of the others is built
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match=r"^oracle walk over 1 tests refused"):
                enumeration_fraction_noiseless(SystemParams(1, 2**21, 2**21), 2**20, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_result_reduced_over_a_huge_power_of_q_is_refused(self):
        # 10^5 tests, one node each, but the result would be reduced over
        # Q^m = 2^5,500,000 for q = 0.1, one gcd of about half a minute
        start = time.perf_counter()
        with pytest.raises(GuardError, match=r"^oracle walk over 100000 tests refused"):
            enumeration_fraction_noisy(SystemParams(1, 2, 200000, q=0.1), 0, 50000)
        assert time.perf_counter() - start < 10

    def test_pass_stops_once_no_state_is_left(self):
        # every object is defective, so no type of the first test gives y = 0,
        # and the other 5e8 - 1 tests are not visited
        start = time.perf_counter()
        assert enumeration_fraction_noiseless(SystemParams(1, 2, 10**9), 10**9, 0) == 0
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("q", [0, Fraction(1, 10)], ids=["noiseless", "noisy"])
    def test_walk_over_many_tests_builds_nothing_per_test(self, q):
        # 5e8 tests: nothing of size m is built before the pass, which does not
        # recurse, and it is refused once its node budget is spent
        params = SystemParams(1, 2, 10**9, q=q)
        oracle = enumeration_fraction_noisy if q else enumeration_fraction_noiseless
        start = time.perf_counter()
        with pytest.raises(GuardError, match=r"^oracle walk over 500000000 tests refused"):
            oracle(params, 1, 1)
        assert time.perf_counter() - start < 10

import math
import time
from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pooltest import (
    GuardError,
    SystemParams,
    TypicalSetSpec,
    binary_entropy,
    converse_margin,
    derive_seed,
    ensemble_event_probability,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    forward_or,
    general_ensemble_event_probability,
    noisy_converse_margin,
    noisy_ensemble_event_probability,
    or_pool_poly,
    sample_graph,
    typical_weight_set,
)
from pooltest import TestFunction as PoolFunction
from pooltest.ensemble import compositions
from pooltest.estimators import weight_rate

SMALL_PARAMS = st.sampled_from(
    [SystemParams(1, 2, 4), SystemParams(2, 4, 4), SystemParams(3, 6, 12)]
)


@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_entropy_symmetric(p):
    assert abs(binary_entropy(p) - binary_entropy(1 - p)) <= 1e-12


@given(st.floats(min_value=0.01, max_value=0.49), st.floats(min_value=0.0, max_value=0.5))
def test_noise_never_helps_the_converse(p, q):
    assert noisy_converse_margin(3, 6, p, q) >= converse_margin(3, 6, p) - 1e-12


@given(SMALL_PARAMS, st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_event_probabilities_normalize(params, w):
    w = w % (params.n + 1)
    total = sum(
        math.comb(params.m, s) * ensemble_event_probability(params, w, s)
        for s in range(params.m + 1)
    )
    assert total == Fraction(1)


# every system with at most 36 sockets (n*l <= 36 and r | n*l)
SOCKET_LIMITED_PARAMS = st.sampled_from([
    SystemParams(l, r, n)
    for l in range(1, 5)
    for n in range(1, 36 // l + 1)
    for r in range(1, n * l + 1)
    if (n * l) % r == 0
])
NOISE_RATES = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


def dense_product(a, b):
    """Untruncated product of two coefficient tuples indexed by degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def dense_powers(a, top):
    """[a^0, a^1, ..., a^top], each by one more dense product."""
    powers = [(1,)]
    for _ in range(top):
        powers.append(dense_product(powers[-1], a))
    return powers


def coeff(poly, k):
    return poly[k] if k < len(poly) else 0


@given(SOCKET_LIMITED_PARAMS)
@settings(max_examples=50, deadline=None)
def test_noiseless_extraction_matches_dense_power(params):
    l, pool = params.l, or_pool_poly(params.r)
    for s, power in enumerate(dense_powers(pool, params.m)):
        for w in range(params.n + 1):
            expected = Fraction(coeff(power, l * w), math.comb(params.num_sockets, l * w))
            assert ensemble_event_probability(params, w, s) == expected, (params, w, s)


@given(SOCKET_LIMITED_PARAMS, NOISE_RATES)
@settings(max_examples=50, deadline=None)
def test_noisy_extraction_matches_dense_product(params, q):
    l, m, pool = params.l, params.m, or_pool_poly(params.r)
    exact = replace(params, q=q)
    # a float q is the exact binary rational it stores, rounded once at the end
    rounded, stored = replace(params, q=float(q)), replace(params, q=Fraction(float(q)))
    fire = (pool[0] * (1 - q) + q, *(c * (1 - q) for c in pool[1:]))
    quiet = (pool[0] * q + (1 - q), *(c * q for c in pool[1:]))
    fires, quiets = dense_powers(fire, m), dense_powers(quiet, m)
    for s in range(m + 1):
        product = dense_product(fires[s], quiets[m - s])
        for w in range(params.n + 1):
            expected = Fraction(coeff(product, l * w)) / math.comb(params.num_sockets, l * w)
            assert noisy_ensemble_event_probability(exact, w, s) == expected, (q, params, w, s)
            assert noisy_ensemble_event_probability(rounded, w, s) == float(
                noisy_ensemble_event_probability(stored, w, s)
            ), (q, params, w, s)


# systems just past a walk over every wiring: 12 to 16 sockets, r = 2 to 4
PAST_THE_WIRING_CEILING = st.sampled_from([
    SystemParams(l, r, nl // l)
    for nl in range(12, 17)
    for l in range(1, 4)
    for r in range(2, 5)
    if nl % l == 0 and nl % r == 0
])


@given(PAST_THE_WIRING_CEILING, st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_matches_extraction_for_random_ternary_tests(params, data):
    # a random table over 3 input symbols, every output type of one input type
    types = list(compositions(params.r, 3))
    outputs = data.draw(st.integers(2, 3), label="outputs")
    values = data.draw(
        st.lists(st.integers(0, outputs - 1), min_size=len(types), max_size=len(types)),
        label="table",
    )
    f = PoolFunction((0, 1, 2), tuple(range(outputs)), params.r, dict(zip(types, values)))
    ic = data.draw(st.sampled_from(list(compositions(params.n, 3))), label="input counts")
    for oc in compositions(params.m, outputs):
        assert enumeration_fraction_general(params, f, ic, oc) == (
            general_ensemble_event_probability(params, f, ic, oc)
        ), (params, ic, oc)


@st.composite
def binary_events(draw):
    """A well-typed binary event anywhere in range: l and r up to 2^30, n up
    to 10^9 with r | n*l, q exact or a float up to 1 - 1e-16, w and s in range."""
    l, r = draw(st.integers(1, 2**30), label="l"), draw(st.integers(1, 2**30), label="r")
    step = r // math.gcd(r, l)  # n*l/r is whole iff step divides n
    assume(step <= 10**9)
    n = step * draw(st.integers(1, 10**9 // step), label="n / step")
    q = draw(st.sampled_from([0, Fraction(1, 10), 0.1, 1 - 1e-16]), label="q")
    params = SystemParams(l, r, n, q=q)
    return params, draw(st.integers(0, n), label="w"), draw(st.integers(0, params.m), label="s")


@given(binary_events())
@example((SystemParams(1, 1, 6000, q=0.1), 3000, 3000))
@settings(max_examples=30, deadline=None)
def test_binary_oracles_answer_or_refuse_in_time(event):
    # an exact fraction in [0, 1], or the node budget's refusal, within 10 s
    params, w, s = event
    oracle = enumeration_fraction_noisy if params.q else enumeration_fraction_noiseless
    start = time.perf_counter()
    try:
        value = oracle(params, w, s)
    except GuardError:
        pass
    else:
        assert isinstance(value, Fraction) and 0 <= value <= 1, value
    assert time.perf_counter() - start < 10, (params, w, s)


@given(
    st.integers(min_value=0, max_value=2**30),
    st.lists(st.booleans(), min_size=12, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_or_outcomes_are_monotone(seed, flags):
    # turning one more object defective can only turn tests on, never off
    params = SystemParams(3, 6, 12)
    graph = sample_graph(params, seed)
    x = tuple(int(b) for b in flags)
    y = forward_or(graph, x)
    for i in range(12):
        if x[i] == 0:
            bumped = x[:i] + (1,) + x[i + 1 :]
            y2 = forward_or(graph, bumped)
            assert all(a <= b for a, b in zip(y, y2))
            break


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_typical_window_is_contiguous(n, p, eps):
    weights = sorted(typical_weight_set(TypicalSetSpec(n, p, eps)))
    assert weights == list(range(weights[0], weights[-1] + 1)) if weights else True


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_weight_rate_is_monotone_toward_the_likely_side(n, p):
    # rate grows as the empirical weight moves away from the mean n*p
    spec = TypicalSetSpec(n, p, 0.1)
    rates = [weight_rate(spec, w) for w in range(n + 1)]
    pivot = min(range(n + 1), key=lambda w: rates[w])
    assert all(rates[w] >= rates[w + 1] - 1e-12 for w in range(pivot))
    assert all(rates[w] <= rates[w + 1] + 1e-12 for w in range(pivot, n))


@given(
    st.integers(min_value=0, max_value=2**60),
    st.sampled_from(["trial", "graph", "noise", "fixed-graph"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_derived_seeds_are_stable_and_bounded(master, label, index):
    a = derive_seed(master, label, index)
    assert a == derive_seed(master, label, index)
    assert 0 <= a < 2**64

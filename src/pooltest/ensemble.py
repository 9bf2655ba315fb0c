"""Sparse regular pooling graphs and the tests they induce.

A system places n objects on the left, m = n*l/r pooled tests on the
right, and wires them through sockets: object i owns left sockets
[i*l, (i+1)*l), test j owns right sockets [j*r, (j+1)*r), and a graph
is a bijection from left sockets onto right sockets.  Drawing that
bijection uniformly at random defines the ensemble; parallel edges are
allowed and contribute multiplicity.

Besides sampling and the OR forward map, this module computes exact
event fractions over the whole ensemble at toy sizes, which the rest of
the package uses as ground truth.  The event oracles do not walk the
wirings themselves: the outcome of a fixed input depends only on which
right sockets each symbol's left sockets land on, and every such
arrangement is hit by the same number of wirings.  So they walk the
C(nl, wl) images of the defect sockets (binary inputs) or the
multinomial arrangements of the symbol classes (general alphabets), and
give the same exact fractions as a walk over all (nl)! wirings.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import Callable, Iterator, Mapping, Sequence

from .bounds import _check_degrees
from .errors import GuardError, InputError

# The event oracles walk at most 10! = 3628800 socket arrangements per call,
# the number of wirings of a 10-socket system.
ENUMERATION_SOCKET_LIMIT = 10
_ARRANGEMENT_BUDGET = math.factorial(ENUMERATION_SOCKET_LIMIT)


@dataclass(frozen=True)
class SystemParams:
    """Degrees, sizes and source/noise probabilities of one test system.

    l: tests per object, r: objects per test (with multiplicity),
    n: number of objects, p: prior defect probability per object,
    q: probability that a test outcome is flipped.
    """

    l: int
    r: int
    n: int
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self) -> None:
        _check_degrees(self.l, self.r)
        if self.n < 1:
            raise InputError("n must be a positive integer")
        if (self.n * self.l) % self.r != 0:
            raise InputError(
                f"r={self.r} must divide n*l={self.n * self.l} to give a whole number of tests"
            )
        if not 0 <= self.p <= 1:
            raise InputError(f"p={self.p} outside [0, 1]")
        if not 0 <= self.q <= 1:
            raise InputError(f"q={self.q} outside [0, 1]")

    @property
    def m(self) -> int:
        """Number of pooled tests."""
        return (self.n * self.l) // self.r

    @property
    def num_sockets(self) -> int:
        return self.n * self.l


@dataclass(frozen=True)
class PoolingGraph:
    """A wired system: wiring[k] is the right socket fed by left socket k."""

    params: SystemParams
    wiring: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wiring", tuple(self.wiring))
        nl = self.params.num_sockets
        if len(self.wiring) != nl or sorted(self.wiring) != list(range(nl)):
            raise InputError("wiring must be a permutation of range(n*l)")


def _shuffle_steps(length: int) -> tuple[tuple[int, int], ...]:
    """The (i, bits) steps that _shuffle takes on a list of this length."""
    return tuple((i, (i + 1).bit_length()) for i in range(length - 1, 0, -1))


def _shuffle(getrandbits: Callable[[int], int], x: list, steps) -> None:
    """Shuffle x in place exactly as random.Random.shuffle does on the
    generator that owns getrandbits: each swap index j is drawn the way
    Random._randbelow(i + 1) draws it, as `bits` random bits redrawn while
    j > i, so the generator's stream and the permutation are the same.
    The first k steps alone fix the last k entries, a uniform ordered
    k-sample of x whatever order x starts in; _partial_shuffles runs such
    partial shuffles many times in one call."""
    for i, bits in steps:
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _partial_shuffles(getrandbits: Callable[[int], int], x: list, steps, rounds: int) -> list[int]:
    """Run the _shuffle steps `rounds` times on x, which carries over from
    one round to the next, and return for each round the OR of the entries
    its steps fixed: step i fixes entry i, so x[i] after its swap.  Draws
    and swaps are those of `rounds` calls of _shuffle."""
    out = []
    for _ in range(rounds):
        mask = 0
        for i, bits in steps:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            fixed = x[j]
            x[j] = x[i]
            x[i] = fixed
            mask |= fixed
        out.append(mask)
    return out


def _test_bits(params: SystemParams) -> list[int]:
    """The test bit 1 << (k // r) of every right socket k: bit j is test j."""
    r = params.r
    return [1 << (k // r) for k in range(params.num_sockets)]


def _object_masks(bits: list[int], l: int) -> list[int]:
    """Fold the test bits of the left sockets, in socket order, into object
    masks: mask i is the OR of bits[i*l : (i+1)*l], the tests object i feeds."""
    objects = bits[::l]
    for t in range(1, l):
        objects = list(map(or_, objects, bits[t::l]))
    return objects


def sample_graph(params: SystemParams, seed: int) -> PoolingGraph:
    """Draw a uniformly random graph; the same seed always gives the same
    wiring, the permutation random.Random(seed).shuffle makes of
    range(n*l), replayed through getrandbits by _shuffle."""
    wiring = list(range(params.num_sockets))
    _shuffle(random.Random(seed).getrandbits, wiring, _shuffle_steps(len(wiring)))
    return PoolingGraph(params, wiring)


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def forward_or(graph: PoolingGraph, x: Sequence[int]) -> tuple[int, ...]:
    """Noiseless outcome of every pooled OR test for defect indicator vector x."""
    params = graph.params
    if len(x) != params.n:
        raise InputError(f"x has length {len(x)}, expected n={params.n}")
    for v in x:
        if v not in (0, 1):
            raise InputError("x must be a 0/1 vector")
    l, r = params.l, params.r
    y = [0] * params.m
    for k, rk in enumerate(graph.wiring):
        if x[k // l]:
            y[rk // r] = 1
    return tuple(y)


@dataclass(frozen=True)
class TestFunction:
    """A symmetric per-test map, tabulated by input type.

    The value of a test depends only on how many pooled inputs carry
    each alphabet symbol, so the table keys are type-count tuples over
    the input alphabet and the values index into the output alphabet.
    """

    input_alphabet: tuple
    output_alphabet: tuple
    arity: int
    table: Mapping[tuple[int, ...], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "input_alphabet", tuple(self.input_alphabet))
        object.__setattr__(self, "output_alphabet", tuple(self.output_alphabet))
        object.__setattr__(self, "table", dict(self.table))
        if len(set(self.input_alphabet)) != len(self.input_alphabet):
            raise InputError("input alphabet symbols must be distinct")
        if len(set(self.output_alphabet)) != len(self.output_alphabet):
            raise InputError("output alphabet symbols must be distinct")
        if self.arity < 1:
            raise InputError("arity must be positive")
        u, v = len(self.input_alphabet), len(self.output_alphabet)
        if u == 0:
            raise InputError("input alphabet must not be empty")
        for i, (t, k) in enumerate(self.table.items()):
            if (
                len(t) != u
                or not all(map(_is_int, t))
                or sum(t) != self.arity
                or min(t) < 0
            ):
                raise InputError(
                    f"table entry {i}: type {t} is not a length-{u} type of arity {self.arity}"
                )
            if not 0 <= k < v:
                raise InputError(f"table entry {i}: output index {k} outside [0, {v})")
        # the keys are now distinct types of this arity, so the table is total
        # iff it holds as many as there are; only a short one is walked, and
        # only up to its first missing type in compositions order
        if len(self.table) != math.comb(self.arity + u - 1, u - 1):
            missing = next(t for t in compositions(self.arity, u) if t not in self.table)
            raise InputError(f"table is missing type {missing}")

    @property
    def num_inputs(self) -> int:
        return len(self.input_alphabet)

    @property
    def num_outputs(self) -> int:
        return len(self.output_alphabet)

    @classmethod
    def from_callable(
        cls,
        fn: Callable[[tuple], object],
        input_alphabet: Sequence,
        output_alphabet: Sequence,
        arity: int,
    ) -> "TestFunction":
        """Tabulate fn, which receives a sorted tuple of the pooled symbols."""
        input_alphabet = tuple(input_alphabet)
        out_index = {b: k for k, b in enumerate(output_alphabet)}
        table = {}
        for counts in compositions(arity, len(input_alphabet)):
            values = []
            for sym, c in zip(input_alphabet, counts):
                values.extend([sym] * c)
            b = fn(tuple(values))
            if b not in out_index:
                raise InputError(f"fn returned {b!r}, not in output alphabet")
            table[counts] = out_index[b]
        return cls(input_alphabet, tuple(output_alphabet), arity, table)

    def to_json_dict(self) -> dict:
        return {
            "input_alphabet": list(self.input_alphabet),
            "output_alphabet": list(self.output_alphabet),
            "arity": self.arity,
            "table": [
                {"type": list(t), "output": k} for t, k in sorted(self.table.items())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "TestFunction":
        """The function that to_json_dict wrote; InputError names the
        first field of the wrong type: the alphabets are lists of strings or
        numbers, the arity an integer, and the table a list of objects
        whose type is a list of integers and whose output is an integer."""
        if not isinstance(data, Mapping):
            raise InputError("test function file must hold a JSON object")
        for key in ("input_alphabet", "output_alphabet", "arity", "table"):
            if key not in data:
                raise InputError(f"test function file is missing key {key!r}")
        for key in ("input_alphabet", "output_alphabet"):
            symbols = data[key]
            if not isinstance(symbols, list) or not all(
                isinstance(x, (str, int, float)) for x in symbols
            ):
                raise InputError(f"{key} must be a list of strings or numbers")
        if not _is_int(data["arity"]):
            raise InputError("arity must be an integer")
        entries = data["table"]
        if not isinstance(entries, list):
            raise InputError("table must be a list of entries")
        table = {}
        for i, entry in enumerate(entries):
            if not isinstance(entry, Mapping) or "type" not in entry or "output" not in entry:
                raise InputError(f"table entry {i}: needs 'type' and 'output' fields")
            t, k = entry["type"], entry["output"]
            if not isinstance(t, list) or not all(map(_is_int, t)):
                raise InputError(f"table entry {i}: type must be a list of integers")
            if not _is_int(k):
                raise InputError(f"table entry {i}: output must be an integer")
            table[tuple(t)] = k
        if len(table) != len(entries):
            raise InputError("table contains a duplicate type")
        return cls(
            tuple(data["input_alphabet"]),
            tuple(data["output_alphabet"]),
            data["arity"],
            table,
        )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order.  Each step moves one unit out of the last nonzero
    part j: part j - 1 gains it and the rest of part j goes to the end, so
    no call depth grows with `parts`."""
    if parts < 1 or total < 0:
        return
    c = [0] * parts
    c[-1] = total
    while True:
        yield tuple(c)
        j = parts - 1
        while j and not c[j]:
            j -= 1
        if not j:
            return
        rest = c[j] - 1
        c[j - 1] += 1
        c[j] = 0
        c[-1] = rest


def or_function(r: int) -> TestFunction:
    """Pooled OR: fires iff at least one pooled object is defective."""
    table = {(r - w, w): (1 if w > 0 else 0) for w in range(r + 1)}
    return TestFunction((0, 1), (0, 1), r, table)


def count_function(r: int) -> TestFunction:
    """Reports the exact number of defective objects in the pool."""
    table = {(r - w, w): w for w in range(r + 1)}
    return TestFunction((0, 1), tuple(range(r + 1)), r, table)


# ---------------------------------------------------------------------------
# input checks shared by the oracles and the exact formulas
# ---------------------------------------------------------------------------


def _check_arity(f: TestFunction, r: int) -> None:
    if f.arity != r:
        raise InputError(f"test function arity {f.arity} != r={r}")


def _check_event(params: SystemParams, w: int, s: int) -> None:
    """A binary event: input weight w and output weight s within the system."""
    if not 0 <= w <= params.n:
        raise InputError(f"input weight {w} outside [0, {params.n}]")
    if not 0 <= s <= params.m:
        raise InputError(f"output weight {s} outside [0, {params.m}]")


def _check_types(
    params: SystemParams, f: TestFunction, input_counts: Sequence[int], output_counts: Sequence[int]
) -> None:
    """A typed event: one nonnegative count per symbol of f's input and
    output alphabets, totalling n inputs and m outputs."""
    _check_arity(f, params.r)
    if len(input_counts) != f.num_inputs:
        raise InputError("input counts length must match the input alphabet")
    if len(output_counts) != f.num_outputs:
        raise InputError("output counts length must match the output alphabet")
    if sum(input_counts) != params.n:
        raise InputError(f"input counts must sum to n={params.n}")
    if sum(output_counts) != params.m:
        raise InputError(f"output counts must sum to m={params.m}")
    if min((*input_counts, *output_counts)) < 0:
        raise InputError("counts must be nonnegative")


# ---------------------------------------------------------------------------
# exact event fractions over the full ensemble (ground-truth oracles)
# ---------------------------------------------------------------------------


def _check_budget(arrangements: int) -> None:
    if arrangements > _ARRANGEMENT_BUDGET:
        raise GuardError(
            f"enumeration over {arrangements} socket arrangements refused "
            f"(limit {ENUMERATION_SOCKET_LIMIT}! = {_ARRANGEMENT_BUDGET})"
        )


def _fired_mask_counts(params: SystemParams, w: int, s: int) -> tuple[Counter, int]:
    """Count the C(nl, wl) right-socket images of the canonical weight-w
    input's defect sockets by the tests they fire.

    Returns the counts keyed by fired-test bitmask (bit j is test j) and the
    bitmask of the canonical weight-s outcome.
    """
    _check_event(params, w, s)
    nl, wl = params.num_sockets, w * params.l
    _check_budget(math.comb(nl, wl))
    masks = Counter(
        reduce(or_, image, 0) for image in itertools.combinations(_test_bits(params), wl)
    )
    return masks, (1 << s) - 1


def enumeration_fraction_noiseless(params: SystemParams, w: int, s: int) -> Fraction:
    """Exact fraction of wirings with F_G(x) = y for canonical x of weight w,
    y of weight s, under pooled OR tests."""
    masks, target = _fired_mask_counts(params, w, s)
    return Fraction(masks[target], math.comb(params.num_sockets, w * params.l))


def enumeration_fraction_noisy(params: SystemParams, w: int, s: int) -> Fraction:
    """Exact probability that the flipped outcome F_G(x) xor e equals canonical y,
    averaged over wirings and over e ~ Bernoulli(q)^m, as a rational number."""
    masks, target = _fired_mask_counts(params, w, s)
    flips: Counter = Counter()
    for mask, count in masks.items():
        flips[(mask ^ target).bit_count()] += count
    q = Fraction(params.q)  # exact for Fraction and for any float's binary value
    big_p, big_q, m = q.numerator, q.denominator, params.m
    weight = sum(count * big_p**f * (big_q - big_p) ** (m - f) for f, count in flips.items())
    return Fraction(weight, big_q**m * math.comb(params.num_sockets, w * params.l))


def _socket_labellings(sizes: Sequence[int]) -> Iterator[list[int]]:
    """Yield every labelling of sockets 0..sum(sizes)-1 that uses label i
    exactly sizes[i] times, once each, as one list mutated in place.

    Each class but the last picks its sockets by one combination over the
    sockets still free; the last class takes what is left.
    """
    last = len(sizes) - 1
    labels = [last] * sum(sizes)

    def place(i: int, free: list[int]) -> Iterator[list[int]]:
        if i == last:
            yield labels
            return
        for chosen in itertools.combinations(free, sizes[i]):
            for k in chosen:
                labels[k] = i
            yield from place(i + 1, [k for k in free if labels[k] == last])
            for k in chosen:
                labels[k] = last

    return place(0, list(range(len(labels))))


def enumeration_fraction_general(
    params: SystemParams,
    f: TestFunction,
    input_counts: Sequence[int],
    output_counts: Sequence[int],
) -> Fraction:
    """Exact fraction of wirings with F_G(x) = y for canonical representatives
    of the given input/output type-count vectors."""
    _check_types(params, f, input_counts, output_counts)
    # the canonical output, as output indices in alphabet order
    y = [k for k, c in enumerate(output_counts) for _ in range(c)]
    sizes = [params.l * c for c in input_counts]
    arrangements = math.factorial(params.num_sockets)
    for size in sizes:
        arrangements //= math.factorial(size)
    _check_budget(arrangements)
    r, symbols, table = params.r, range(f.num_inputs), f.table
    starts = range(0, params.num_sockets, r)
    hits = sum(
        all(
            table[tuple([labels[a : a + r].count(i) for i in symbols])] == b
            for a, b in zip(starts, y)
        )
        for labels in _socket_labellings(sizes)
    )
    return Fraction(hits, arrangements)

"""Command-line surface.

Every subcommand is deterministic given its flags (plus seed where one
applies), echoes its resolved configuration, and prints floats with 12
significant digits.  Exit codes: 0 success, 1 verification failure,
2 usage or input error, 3 resource-guard refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from . import bounds as _bounds
from . import genfunc as _genfunc
from . import montecarlo as _mc
from .ensemble import (
    SystemParams,
    TestFunction,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    or_function,
)
from .errors import GuardError, InputError
from .estimators import DEFAULT_EPSILON

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _config_line(config: dict) -> str:
    parts = " ".join(f"{k}={v}" for k, v in config.items() if v is not None)
    return f"# config: {parts}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path: str | None) -> None:
    # JSON has no NaN or infinity: a payload holding one is refused, not printed
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"result is not finite: {exc}") from None
    _emit(text + "\n", out_path)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    curve = args.curve
    xname, yname, _, _ = _bounds.CURVES[curve]
    lo = getattr(args, f"{xname}_min")
    hi = getattr(args, f"{xname}_max")
    if lo is None or hi is None:
        raise InputError(
            f"curve {curve!r} sweeps {xname}: pass --{xname}-min and --{xname}-max"
        )
    grid = _bounds.linspace(lo, hi, args.steps)
    fixed = {"l": args.l, "r": args.r, "p": args.p, "q": args.q,
             "sigma": args.sigma, "ratio": args.ratio}
    rows = _bounds.emit_curve(curve, grid, **fixed)
    config = {
        "curve": curve,
        **{k: v for k, v in fixed.items() if v is not None},
        f"{xname}_min": lo,
        f"{xname}_max": hi,
        "steps": args.steps,
    }
    if args.format == "json":
        payload = {"config": config, "columns": [xname, yname],
                   "rows": [[x, y] for x, y in rows]}
        _emit_json(payload, args.out)
    else:
        lines = [_config_line(config), f"{xname},{yname}"]
        lines += [f"{_fmt(x)},{_fmt(y)}" for x, y in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def _parse_pairs(tokens: list[str]) -> list[tuple[int, int]]:
    pairs = []
    for token in tokens:
        for item in token.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                l_str, r_str = item.split(":")
                pairs.append((int(l_str), int(r_str)))
            except ValueError:
                raise InputError(f"pair {item!r} is not of the form l:r") from None
    if not pairs:
        raise InputError("no (l, r) pairs given")
    return pairs


def cmd_thresholds(args: argparse.Namespace) -> int:
    pairs = _parse_pairs(args.pairs)
    digits = args.precision
    if digits < 0:
        raise InputError(f"--precision {digits} is negative")
    records = []
    for l, r in pairs:
        try:
            records.append(_bounds.threshold_pair(l, r).to_json_dict())
        except InputError as exc:
            records.append({"l": l, "r": r, "error": str(exc)})
    config = {"pairs": ";".join(f"{l}:{r}" for l, r in pairs), "precision": digits}
    if args.format == "json":
        _emit_json({"config": config, "rows": records}, args.out)
        return EXIT_OK
    lines = [_config_line(config), "l,r,p_lower,p_upper,error"]
    for rec in records:
        if "error" in rec:
            lines.append(f"{rec['l']},{rec['r']},,,{rec['error']}")
        else:
            try:
                lower, upper = f"{rec['p_lower']:.{digits}f}", f"{rec['p_upper']:.{digits}f}"
            except ValueError:
                raise InputError(f"--precision {digits} is too large to format") from None
            lines.append(f"{rec['l']},{rec['r']},{lower},{upper},")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    run = {"trials": args.trials, "master_seed": args.seed, "graph_mode": args.graph_mode}
    if args.mode == "noiseless":
        params = SystemParams(args.l, args.r, args.n, p=args.p)
        report = _mc.run_noiseless_trials(params, epsilon=args.eps, **run)
    else:
        if args.q is None:
            raise InputError("noisy mode needs --q")
        params = SystemParams(args.l, args.r, args.n, p=args.p, q=args.q)
        report = _mc.run_noisy_trials(params, epsilon_input=args.eps, epsilon_noise=args.eps2, **run)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Checks:
    def __init__(self) -> None:
        self.failures = 0

    def record(self, name: str, ok: bool, detail: str) -> None:
        mark = "ok" if ok else "FAIL"
        print(f"[{mark}] {name}: {detail}")
        if not ok:
            self.failures += 1

    def max_difference(self, name: str, pairs, tol: float) -> None:
        worst = max(abs(a - b) for a, b in pairs)
        self.record(name, worst <= tol, f"max difference {worst:.3e}")

    def all_events_equal(self, name: str, params: SystemParams, formula, reference, w=None) -> None:
        """Record whether formula(params, v, s) == reference(params, v, s)
        for every output weight s and every input weight v, or v = w alone."""
        for v in range(params.n + 1) if w is None else (w,):
            for s in range(params.m + 1):
                a, b = formula(params, v, s), reference(params, v, s)
                if a != b:
                    self.record(name, False, f"first mismatch at (w={v}, s={s}): {a} vs {b}")
                    return
        self.record(name, True, "exact rational match on all " + ("(w, s)" if w is None else f"s at w={w}"))


def _verify_exact(checks: _Checks) -> None:
    for l, r, n in ((1, 2, 4), (1, 2, 2), (2, 4, 4)):
        checks.all_events_equal(
            f"noiseless formula vs enumeration (l={l}, r={r}, n={n})",
            SystemParams(l, r, n),
            _genfunc.ensemble_event_probability,
            enumeration_fraction_noiseless,
        )

    for l, r, n, q, w in (
        (1, 2, 2, Fraction(1, 4), None),
        (1, 2, 2, Fraction(1, 2), None),
        (2, 4, 4, Fraction(1, 10), None),
        (3, 6, 24, Fraction(1, 10), 2),  # one walk per fired weight, past all (nl)! wirings
    ):
        checks.all_events_equal(
            f"noisy formula vs enumeration (l={l}, r={r}, n={n}, q={q})",
            SystemParams(l, r, n, q=q),
            _genfunc.noisy_ensemble_event_probability,
            enumeration_fraction_noisy,
            w,
        )

    # at w=60 neither power is stable, so the float is the recurrence's exact
    # numerator rounded; at w=24 quiet's power is a certified bound; both are
    # compared with the Fraction route's exact truncated powers
    for n, w, s, route in (
        (120, 60, 15, " via the recurrence in (1+z)^r"),
        (240, 24, 30, " via certified power bounds"),
    ):
        rounded = _genfunc.noisy_ensemble_event_probability(SystemParams(3, 6, n, q=0.1), w, s)
        exact = _genfunc.noisy_ensemble_event_probability(
            SystemParams(3, 6, n, q=Fraction(0.1)), w, s
        )
        checks.record(
            f"float-q noisy formula{route} is the exact value rounded once"
            f" (l=3, r=6, n={n}, q=0.1)",
            rounded == float(exact),
            f"w={w}, s={s}: {rounded!r} vs {float(exact)!r}",
        )

    # the rounded float hides a numerator error below half an ulp, so the
    # recurrence's integer is compared with the two exact truncated powers
    q = Fraction(0.1)
    keep, flip = q.denominator - q.numerator, q.numerator
    m, s, lw = 60, 15, 3 * 60
    fire, quiet = _genfunc._fire_quiet(6, flip, keep)
    expected = _genfunc._dot_reversed(
        _genfunc._truncated_power(fire, s, lw), _genfunc._truncated_power(quiet, m - s, lw)
    )
    numer = _genfunc._noisy_numerator(keep, flip, 6, m, s, lw)
    checks.record(
        "float-q recurrence numerator is the exact product of the truncated powers"
        " (l=3, r=6, n=120, q=0.1)",
        numer == expected,
        f"w=60, s={s}: " + (
            f"equal {expected.bit_length()}-bit integers" if numer == expected
            else f"they differ by a {(numer - expected).bit_length()}-bit integer"
        ),
    )

    for l, r, n in ((1, 2, 4), (2, 4, 4)):
        checks.all_events_equal(
            f"general formula reduces to binary (l={l}, r={r}, n={n})",
            SystemParams(l, r, n),
            _genfunc.ensemble_event_probability,
            lambda params, w, s, f=or_function(r): _genfunc.general_ensemble_event_probability(
                params, f, (params.n - w, w), (params.m - s, s)
            ),
        )

    # merged OR, far past a walk over all (nl)! wirings
    merged = TestFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), 6)
    event = (SystemParams(3, 6, 24), merged, (20, 3, 1), (8, 4))
    a, b = _genfunc.general_ensemble_event_probability(*event), enumeration_fraction_general(*event)
    name = "merged-OR formula vs per-test enumeration (l=3, r=6, n=24)"
    checks.record(name, a == b, f"input types (20, 3, 1), output types (8, 4): {a} vs {b}")

    for l, r, n in ((3, 6, 12), (2, 4, 4)):
        params = SystemParams(l, r, n)
        bad = [
            w
            for w in range(n + 1)
            if sum(
                math.comb(params.m, s)
                * _genfunc.ensemble_event_probability(params, w, s)
                for s in range(params.m + 1)
            )
            != 1
        ]
        checks.record(
            f"outcome distribution normalizes (l={l}, r={r}, n={n})",
            not bad,
            "sums to 1 exactly for every input weight" if not bad
            else f"fails at input weights {bad}",
        )


def _verify_identities(checks: _Checks) -> None:
    l, r, p = 3, 6, 0.08
    z_star = _bounds.fixed_point_z(r)
    sigmas = [0.05 * i for i in range(int(l / r / 0.05) + 1)]
    values = [_bounds.collision_exponent(l, r, p, s, z_star) for s in sigmas]
    spread = max(values) - min(values)
    checks.record(
        "collision exponent is sigma-independent at the fixed point",
        spread <= 1e-12,
        f"spread {spread:.3e} over {len(sigmas)} sigma values",
    )

    grid = (0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20)
    checks.max_difference(
        "noiseless direct exponent matches the closed form below the crossover",
        [(_genfunc.noiseless_direct_exponent(ll, rr, pp).value, _bounds.achievable_margin(ll, rr, pp))
         for ll, rr in ((l, r), (4, 8)) for pp in grid if pp < 2 - 2 ** ((rr - 1) / rr)],
        1e-12,
    )
    checks.max_difference(
        "binary OR margin matches the closed form below the crossover",
        [(_genfunc.binary_direct_margin(or_function(rr), ll, rr, pp).value,
          _bounds.achievable_margin(ll, rr, pp))
         for ll, rr in ((l, r), (4, 8)) for pp in grid if pp < 2 - 2 ** ((rr - 1) / rr)],
        1e-12,
    )
    f = or_function(r)
    checks.max_difference(
        "general converse bound reduces to the closed form",
        [(_genfunc.general_converse_bound(f, l, r, (1 - pp, pp)), _bounds.converse_margin(l, r, pp))
         for pp in grid],
        1e-12,
    )

    # The ternary test that fires when any pooled symbol is nonzero sees only
    # the merged defect mass m = p1 + p2, so its margin is the binary OR
    # margin at m plus m h(p1 / m) for the split; 0.06 and 0.27 lie either
    # side of the crossover 2 - 2^((r-1)/r), where the optimum leaves the kink.
    # general_direct_margin makes that very merge, so the ternary side is
    # solved unmerged, by the interior point.
    merged = TestFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), r)
    pairs = []
    for pp in (0.06, 0.27):
        probs = (1 - pp, 0.6 * pp, 0.4 * pp)
        mass = probs[1] + probs[2]
        split = mass * _bounds.binary_entropy(probs[1] / mass)
        pairs.append((
            _genfunc._unmerged_margin(merged, l, r, probs).value,
            _genfunc.binary_direct_margin(f, l, r, mass).value + split,
        ))
    checks.max_difference(
        "merged-OR ternary margin is the binary OR margin plus the split entropy", pairs, 1e-10
    )


def _verify_montecarlo(checks: _Checks, trials: int, seed: int) -> None:
    cases = [
        (SystemParams(1, 2, 4), 2, 1),
        (SystemParams(3, 6, 12), 1, 3),
    ]
    for params, w, s in cases:
        result = _mc.validate_event_probability(params, w, s, trials, seed)
        checks.record(
            f"sampled noiseless event rate (l={params.l}, r={params.r}, n={params.n}, w={w}, s={s})",
            result.passed,
            f"empirical {result.empirical:.6f} vs exact {result.exact:.6f}, z = {result.z_score:+.2f}",
        )
    params = SystemParams(1, 2, 2, q=0.25)
    result = _mc.validate_noisy_event_probability(params, 1, 1, trials, seed)
    checks.record(
        "sampled noisy event rate (l=1, r=2, n=2, q=0.25, w=1, s=1)",
        result.passed,
        f"empirical {result.empirical:.6f} vs exact {result.exact:.6f}, z = {result.z_score:+.2f}",
    )


def cmd_verify(args: argparse.Namespace) -> int:
    checks = _Checks()
    if args.suite in ("exact", "all"):
        _verify_exact(checks)
    if args.suite in ("identities", "all"):
        _verify_identities(checks)
    if args.suite in ("montecarlo", "all"):
        _verify_montecarlo(checks, args.trials, args.seed)
    total = "all checks passed" if checks.failures == 0 else f"{checks.failures} check(s) failed"
    print(f"verify --suite {args.suite}: {total}")
    return EXIT_OK if checks.failures == 0 else EXIT_VERIFY


# ---------------------------------------------------------------------------
# general test functions
# ---------------------------------------------------------------------------


def _load_function(path: str) -> TestFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from None
    return TestFunction.from_json_dict(data)


def cmd_general(args: argparse.Namespace) -> int:
    f = _load_function(args.function)
    l, r = args.l, args.r
    if args.probs is not None:
        try:
            probs = tuple(float(tok) for tok in args.probs.split(","))
        except ValueError:
            raise InputError(f"--probs {args.probs!r} is not a comma-separated float list") from None
    elif args.p is not None:
        if f.num_inputs != 2:
            raise InputError("--p shorthand needs a binary input alphabet; pass --probs")
        probs = (1.0 - args.p, args.p)
    else:
        raise InputError("pass --probs (one per input symbol) or --p for binary input")

    converse = _genfunc.general_converse_bound(f, l, r, probs)
    outcome_dist = _genfunc.outcome_distribution(f, probs)
    margin = _genfunc.general_direct_margin(f, l, r, probs)
    payload = {
        "config": {
            "function": args.function,
            "l": l,
            "r": r,
            "probs": list(probs),
        },
        "input_alphabet": list(f.input_alphabet),
        "output_alphabet": list(f.output_alphabet),
        "arity": f.arity,
        "converse_bound": converse,
        "outcome_distribution": outcome_dist,
        "direct_margin": asdict(margin),
    }
    _emit_json(payload, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pooltest",
        description="Analytic bounds, exact ensemble averages, and seeded "
        "simulations for sparse regular pooled testing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    b = sub.add_parser("bounds", help="emit one bound curve on a parameter grid")
    b.add_argument("--curve", required=True, choices=sorted(_bounds.CURVES))
    b.add_argument("--l", type=int)
    b.add_argument("--r", type=int)
    b.add_argument("--p", type=float)
    b.add_argument("--q", type=float)
    b.add_argument("--sigma", type=float)
    b.add_argument("--ratio", type=int, help="r/l ratio for the degree sweep (default 2)")
    b.add_argument("--p-min", type=float)
    b.add_argument("--p-max", type=float)
    b.add_argument("--z-min", type=float)
    b.add_argument("--z-max", type=float)
    b.add_argument("--l-min", type=float)
    b.add_argument("--l-max", type=float)
    b.add_argument("--steps", type=int, required=True)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out", help="output path (default: stdout)")
    b.set_defaults(func=cmd_bounds)

    t = sub.add_parser("thresholds", help="critical densities for (l, r) pairs")
    t.add_argument("--pairs", required=True, nargs="+",
                   help="l:r pairs, comma or space separated")
    t.add_argument("--precision", type=int, default=6, help="decimal places (default 6)")
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--out", help="output path (default: stdout)")
    t.set_defaults(func=cmd_thresholds)

    s = sub.add_parser("simulate", help="run seeded decoding trials")
    s.add_argument("--mode", required=True, choices=("noiseless", "noisy"))
    s.add_argument("--l", type=int, required=True)
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--q", type=float, help="test flip rate (noisy mode)")
    s.add_argument("--eps", type=float, default=DEFAULT_EPSILON, help="input typicality half-width")
    s.add_argument("--eps2", type=float, default=DEFAULT_EPSILON, help="noise typicality half-width")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--graph-mode", choices=("fixed", "fresh"), default="fresh")
    s.add_argument("--out", help="output path (default: stdout)")
    s.set_defaults(func=cmd_simulate)

    v = sub.add_parser("verify", help="run built-in correctness suites")
    v.add_argument("--suite", choices=("exact", "identities", "montecarlo", "all"),
                   default="all")
    v.add_argument("--trials", type=int, default=100000,
                   help="trials per sampled check (montecarlo suite)")
    v.add_argument("--seed", type=int, default=1)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("general", help="bounds for a user-supplied test function")
    g.add_argument("--function", required=True, help="path to a test-function JSON file")
    g.add_argument("--l", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--p", type=float, help="defect probability (binary shorthand)")
    g.add_argument("--probs", help="comma-separated symbol probabilities")
    g.add_argument("--out", help="output path (default: stdout)")
    g.set_defaults(func=cmd_general)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

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
from fractions import Fraction

from . import bounds as _bounds
from . import genfunc as _genfunc
from . import montecarlo as _mc
from .ensemble import (
    SystemParams,
    TestFunction,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    or_function,
)
from .errors import (
    ConfigurationError,
    EmptyTypicalSetError,
    GuardError,
    InputError,
    NoThresholdError,
    ReducedAlphabetError,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

_CURVE_AXES = {
    "converse-vs-l": ("l", "converse_margin"),
    "converse-vs-p": ("p", "converse_margin"),
    "noisy-converse-vs-p": ("p", "noisy_converse_margin"),
    "achievable-vs-p": ("p", "achievable_margin"),
    "collision-vs-z": ("z", "collision_exponent"),
}


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


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    curve = args.curve
    xname, yname = _CURVE_AXES[curve]
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
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
        record: dict = {"l": l, "r": r}
        try:
            pair = _bounds.threshold_pair(l, r)
            record["p_lower"] = pair.p_lower
            record["p_upper"] = pair.p_upper
        except (NoThresholdError, ConfigurationError, InputError) as exc:
            record["error"] = str(exc)
        records.append(record)
    config = {"pairs": ";".join(f"{l}:{r}" for l, r in pairs), "precision": digits}
    if args.format == "json":
        _emit(json.dumps({"config": config, "rows": records}, indent=2) + "\n", args.out)
        return EXIT_OK
    lines = [_config_line(config), "l,r,p_lower,p_upper,error"]
    for rec in records:
        if "error" in rec:
            lines.append(f"{rec['l']},{rec['r']},,,{rec['error']}")
        else:
            lines.append(
                f"{rec['l']},{rec['r']},"
                f"{rec['p_lower']:.{digits}f},{rec['p_upper']:.{digits}f},"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.mode == "noiseless":
        params = SystemParams(args.l, args.r, args.n, p=args.p)
        report = _mc.run_noiseless_trials(
            params,
            epsilon=args.eps,
            trials=args.trials,
            master_seed=args.seed,
            graph_mode=args.graph_mode,
            enumeration_limit=args.enum_limit,
        )
    else:
        if args.q is None:
            raise InputError("noisy mode needs --q")
        params = SystemParams(args.l, args.r, args.n, p=args.p, q=args.q)
        report = _mc.run_noisy_trials(
            params,
            epsilon_input=args.eps,
            epsilon_noise=args.eps2,
            trials=args.trials,
            master_seed=args.seed,
            graph_mode=args.graph_mode,
            enumeration_limit=args.enum_limit,
        )
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
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


def _verify_exact(checks: _Checks) -> None:
    for l, r, n in ((1, 2, 4), (1, 2, 2), (2, 4, 4)):
        params = SystemParams(l, r, n)
        worst = None
        for w in range(n + 1):
            for s in range(params.m + 1):
                formula = _genfunc.ensemble_event_probability(params, w, s)
                counted = enumeration_fraction_noiseless(params, w, s)
                if formula != counted:
                    worst = (w, s, formula, counted)
        checks.record(
            f"noiseless formula vs enumeration (l={l}, r={r}, n={n})",
            worst is None,
            "exact rational match on all (w, s)" if worst is None
            else f"mismatch at (w={worst[0]}, s={worst[1]}): {worst[2]} vs {worst[3]}",
        )

    for l, r, n, q in (
        (1, 2, 2, Fraction(1, 4)),
        (1, 2, 2, Fraction(1, 2)),
        (2, 4, 4, Fraction(1, 10)),
    ):
        params = SystemParams(l, r, n, q=q)
        worst = None
        for w in range(n + 1):
            for s in range(params.m + 1):
                formula = _genfunc.noisy_ensemble_event_probability(params, w, s)
                counted = enumeration_fraction_noisy(params, w, s)
                if formula != counted:
                    worst = (w, s, formula, counted)
        checks.record(
            f"noisy formula vs enumeration (l={l}, r={r}, n={n}, q={q})",
            worst is None,
            "exact rational match on all (w, s)" if worst is None
            else f"mismatch at (w={worst[0]}, s={worst[1]}): {worst[2]} vs {worst[3]}",
        )

    rounded = _genfunc.noisy_ensemble_event_probability(SystemParams(3, 6, 120, q=0.1), 60, 15)
    exact = _genfunc.noisy_ensemble_event_probability(
        SystemParams(3, 6, 120, q=Fraction(0.1)), 60, 15
    )
    checks.record(
        "float-q noisy formula is the exact value rounded once (l=3, r=6, n=120, q=0.1)",
        rounded == float(exact),
        f"w=60, s=15: {rounded!r} vs {float(exact)!r}",
    )

    for l, r, n in ((1, 2, 4), (2, 4, 4)):
        params = SystemParams(l, r, n)
        f = or_function(r)
        worst = None
        for w in range(n + 1):
            for s in range(params.m + 1):
                binary = _genfunc.ensemble_event_probability(params, w, s)
                general = _genfunc.general_ensemble_event_probability(
                    params, f, (n - w, w), (params.m - s, s)
                )
                if binary != general:
                    worst = (w, s)
        checks.record(
            f"general formula reduces to binary (l={l}, r={r}, n={n})",
            worst is None,
            "exact match on all types" if worst is None
            else f"mismatch at (w={worst[0]}, s={worst[1]})",
        )

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

    checks.max_difference(
        "noisy per-test factor equals 1 at the fixed point",
        [(_bounds.noisy_collision_factor(r, q, sigma, z_star), 1.0)
         for q in (0.0, 0.1, 0.3, 0.5) for sigma in (0.0, 0.25, 0.5)],
        1e-15,
    )

    grid = (0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20)
    checks.max_difference(
        "noisy converse margin reduces to noiseless at q=0",
        [(_bounds.noisy_converse_margin(l, r, pp, 0.0), _bounds.converse_margin(l, r, pp))
         for pp in grid],
        1e-14,
    )
    checks.max_difference(
        "noisy direct exponent reduces to noiseless at q=0",
        [(_genfunc.noisy_direct_exponent(l, r, pp, 0.0).value,
          _genfunc.noiseless_direct_exponent(l, r, pp).value) for pp in (0.05, 0.10)],
        1e-12,
    )
    f = or_function(r)
    checks.max_difference(
        "general converse bound reduces to the closed form",
        [(_genfunc.general_converse_bound(f, l, r, (1 - pp, pp)), _bounds.converse_margin(l, r, pp))
         for pp in grid],
        1e-12,
    )
    margins = {
        pp: _genfunc.binary_direct_margin(f, l, r, pp).value for pp in (0.02, 0.08, 0.14, 0.20)
    }
    checks.max_difference(
        "binary direct margin matches the closed form (small p)",
        [(value, _bounds.achievable_margin(l, r, pp)) for pp, value in margins.items()],
        1e-9,
    )
    checks.max_difference(
        "general direct margin matches the binary path",
        [(_genfunc.general_direct_margin(f, l, r, (1 - pp, pp)).value, value)
         for pp, value in margins.items()],
        1e-8,
    )

    # The ternary test that fires when any pooled symbol is nonzero sees only
    # the merged defect mass m = p1 + p2, so its margin is the binary OR
    # margin at m plus m h(p1 / m) for the split; 0.06 and 0.27 lie either
    # side of the crossover 2 - 2^((r-1)/r), where the optimum leaves the kink.
    merged = TestFunction.from_callable(lambda v: int(any(v)), (0, 1, 2), (0, 1), r)
    pairs = []
    for pp in (0.06, 0.27):
        probs = (1 - pp, 0.6 * pp, 0.4 * pp)
        mass = probs[1] + probs[2]
        split = mass * _bounds.binary_entropy(probs[1] / mass)
        pairs.append((
            _genfunc.general_direct_margin(merged, l, r, probs).value,
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
    outcome_dist = [
        _genfunc.type_enumerator(f, k).evaluate(probs) for k in range(f.num_outputs)
    ]
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
        "direct_margin": {
            "value": margin.value,
            "z": list(margin.z),
            "sweeps": margin.sweeps,
            "converged": margin.converged,
            "gap": margin.gap,
        },
    }
    if f.num_inputs == 2 and tuple(f.input_alphabet) == (0, 1) and 0 < probs[1] < 1:
        binary = _genfunc.binary_direct_margin(f, l, r, probs[1])
        payload["binary_direct_margin"] = {"value": binary.value, "z": binary.z}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
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
    b.add_argument("--curve", required=True, choices=sorted(_CURVE_AXES))
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
    s.add_argument("--eps", type=float, default=0.1, help="input typicality half-width")
    s.add_argument("--eps2", type=float, default=0.1, help="noise typicality half-width")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--graph-mode", choices=("fixed", "fresh"), default="fresh")
    s.add_argument("--enum-limit", type=int, default=24,
                   help="refuse exhaustive decoding beyond this many objects")
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
    except (
        ConfigurationError,
        InputError,
        NoThresholdError,
        EmptyTypicalSetError,
        ReducedAlphabetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

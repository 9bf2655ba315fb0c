"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Feeds deliberately wrong outputs through the same pass loop the benchmark
uses and asserts that each counts as a failed op (toward failed_frac and
against ok_frac) and makes the run incorrect, while the untampered op, and
an exponent shifted by the 2e-12 that separates the program's two
exponent paths, still pass.  Exits nonzero on the first broken
expectation.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction

from run import Outcomes, import_program, run_pass


def run_one(op) -> Outcomes:
    outcomes = Outcomes()
    run_pass([op], outcomes)
    return outcomes


def tampered(op, change):
    return dataclasses.replace(op, call=lambda: change(op.call()), known=None)


def expect(name: str, outcomes: Outcomes, failed: bool) -> None:
    got = outcomes.failed == 1 and bool(outcomes.violations)
    if got != failed or outcomes.attempted != 1:
        raise SystemExit(f"selftest {name}: expected failed={failed}, got "
                         f"failed={outcomes.failed}, violations={outcomes.violations}")
    print(f"ok  {name}: " + (outcomes.violations[0][:160] if failed else "passes"))


def main() -> int:
    import_program()
    import reference as ref
    import workloads

    exact = workloads.exact_ops(1)
    asym = workloads.asymptotic_ops(1)
    trials = workloads.trials_ops(1)

    nl = next(op for op in exact if op.layer == "genfunc.extract.noiseless")
    expect("exact value", run_one(nl), False)
    expect("exact value off by 1e-40", run_one(tampered(nl, lambda v: v + Fraction(1, 10**40))), True)

    def raising():
        raise ZeroDivisionError("injected")

    expect("undocumented exception", run_one(dataclasses.replace(nl, call=raising)), True)
    overflow = next(op for op in exact if op.known == "OverflowError")
    outcomes = run_one(overflow)
    if outcomes.failed != 1 or outcomes.violations or outcomes.by_cause != {"OverflowError": 1}:
        raise SystemExit(f"selftest documented OverflowError: {outcomes.__dict__}")
    print("ok  documented OverflowError: counted failed, run stays correct")

    exponent = next(op for op in asym if op.layer == "genfunc.optimize.noiseless_exponent"
                    and float(op.label.split("p=")[1].rstrip(")")) > 0.25)
    l, r, p = 3, 6, float(exponent.label.split("p=")[1].rstrip(")"))
    expect("exponent shifted by 2e-12", run_one(tampered(exponent, lambda v: v + 2e-12)), False)
    expect("kink value past the crossover (wrong optimum)",
           run_one(tampered(exponent, lambda v: ref.achievable(l, r, p))), True)

    report_op = next(op for op in trials if op.layer == "montecarlo.run_noisy")
    expect("trial report", run_one(report_op), False)
    expect("error causes that do not sum",
           run_one(tampered(report_op, lambda rep: dataclasses.replace(
               rep, errors_ambiguous=rep.errors_ambiguous + 1))), True)
    gate = next(op for op in trials if op.layer == "montecarlo.validate")
    expect("gate reported as failed",
           run_one(tampered(gate, lambda res: dataclasses.replace(res, passed=False))), True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

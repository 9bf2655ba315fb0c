"""Record the decoding error rates the `trials` workload checks against.

    python3 bench/make_trial_rates.py [--replicates 200]

Runs every fresh-graph decoding configuration of the trials workload at
its op's trial count for many master seeds and writes trial_rates.json:
per configuration the mean error rate and the standard deviation of one
op's rate across master seeds.  (A fixed-graph run's rate belongs to its
one graph, so the workload does not check it against a recorded rate.)
Run it at the commit whose behaviour the benchmark should hold later
commits to; the file records that commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import commit, import_program


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--replicates", type=int, default=200)
    args = ap.parse_args(argv)
    import_program()
    import workloads

    rates = {}
    for key, mode, params, eps, trials, graph_mode in workloads.trial_configs():
        if graph_mode != "fresh":
            continue
        values = []
        for i in range(args.replicates):
            # master seeds above 2**31, so no workload seed reuses them
            report = workloads.run_config(mode, params, eps, trials, graph_mode, 2**31 + i)
            values.append(report.error_rate)
        rates[key] = {"mean": statistics.fmean(values), "sd": statistics.stdev(values)}
        print(f"{key}: mean {rates[key]['mean']:.4f} sd {rates[key]['sd']:.4f}", file=sys.stderr)
    payload = {
        "commit": commit(),
        "replicates": args.replicates,
        "master_seeds": f"2**31 + i for i < {args.replicates}",
        "rates": rates,
    }
    with open(workloads.TRIAL_RATES_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate reference/stress_modulated.json, the run.csv summaries that
the `stress_modulated` workload's check compares against.

    python3 bench/make_reference.py

Run from the root of a checkout whose outputs are trusted.  One entry per
(gamma, beta0) grid point the seed can pick.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import workloads  # noqa: E402


def main():
    workload = workloads.StressModulated()
    workdir = os.path.join(os.getcwd(), ".bench_out", "reference")
    reference = {}
    for gamma in workload.gammas:
        for beta0 in workload.beta0s:
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            path = workload.write(os.getcwd(), workdir, gamma, beta0)
            scenario = workload.setup({"scenario": path})
            trajectory = workload.run(scenario)
            if trajectory.failed:
                raise SystemExit("gamma=%r beta0=%r halted: %s"
                                 % (gamma, beta0, trajectory.error))
            rows, summary = workloads.csv_summary(
                os.path.join(scenario.output.directory, "run.csv"))
            reference[workload.key(gamma, beta0)] = {"rows": rows,
                                                     "summary": summary}
            print(workload.key(gamma, beta0), "sweeps",
                  summary["equilibrium_iters"][2] * rows, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

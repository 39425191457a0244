"""morphosim benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is `inflation`, `stress_modulated`,
`contraction_sweep` or `all`.  For `--seconds` seconds the launcher starts
one fresh worker process per timed run (so no cache, workspace or peak
resident memory carries from one run into the next), with BLAS threading
pinned.  Each run builds its inputs from the seed, solves, writes its
outputs and checks them.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics, each the median over the runs.  With `--trace 1`
runs alternate between untraced and traced, and the metrics are the
per-layer ones.  The lines before it give each metric's minimum, median,
highest percentile the sample count supports and sample count, the same
for the absolute run and calibration times, and the failed share.  Every
run's full record, with the seed, versions, thread settings and source
revision, goes to `.bench_out/results/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# every invocation must exit within 180 s; leave room for the last run
DEADLINE_S = 165.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
# end-to-end metric -> unit, each reported as the median over the runs;
# run_rel is the run time divided by the median time of one repetition of
# the calibration kernel timed around it (see NOTES.md, "Steadiness and
# bounds")
END_TO_END = {"run_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# printed beside them but not reported: the absolute run time and the
# calibration kernel's median time
ABSOLUTE = {"run_s": "s", "calib_s": "s"}
REQUIRED_FILES = [os.path.join("src", "morphosim", "__init__.py")] + [
    os.path.join(workloads.SCENARIO_DIR, name)
    for name in ("analytic_growth.cfg", "stress_modulated.cfg")]


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("per_factorization"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def pinned_env():
    """The launcher's environment with BLAS threading capped at one thread
    (below nproc on any machine) and morphosim's own thread pool off."""
    env = dict(os.environ)
    env.pop("MORPHOSIM_THREADS", None)
    env.update(PINNED_THREADS)
    return env


def source_digest(root):
    """SHA-256 over the files under src/, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root):
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": dict(PINNED_THREADS, MORPHOSIM_THREADS=None),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
    }


def run_sample(root, env, workload, seed, run_id, traced, timeout):
    """One worker process: draw inputs, run, check.  Returns its record;
    a crash, a timeout or a failed check gives ``ok: False``."""
    workdir = os.path.join(root, OUT_DIR, "work", run_id)
    os.makedirs(workdir)
    started = time.perf_counter()
    params = None
    try:
        params = workload.draw(seed, root, workdir)
        params_path = os.path.join(workdir, "params.json")
        with open(params_path, "w") as fh:
            json.dump(params, fh)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", workload.name, "--params", params_path,
               "--run-id", run_id]
        if traced:
            spans = os.path.join(root, OUT_DIR, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--trace", os.path.join(spans, run_id + ".jsonl")]
        proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            record = {"ok": False, "error": "timed out after %.0f s"
                      % timeout}
        else:
            lines = out.strip().splitlines()
            if proc.returncode != 0 or not lines:
                record = {"ok": False, "error": "exit code %d: %s"
                          % (proc.returncode, err.strip()[-2000:])}
            else:
                record = json.loads(lines[-1])
                src = os.path.join(root, "src", "morphosim")
                if os.path.realpath(record["morphosim"]) != \
                        os.path.realpath(src):
                    record.update(ok=False, error="imported morphosim from "
                                  "%s, not this checkout" % record["morphosim"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(run_id=run_id, seed=seed, traced=traced, params=params,
                  wall_s=time.perf_counter() - started)
    return record


def warm_up(root, env):
    """Import the stack once, untimed, so that the first timed run does not
    also pay for compiling bytecode or a cold file cache."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, "
                    "'src'); import morphosim.benchmarks"],
                   cwd=root, env=env, check=True, timeout=120)


def measure(root, workload, seed, seconds, trace):
    """Run fresh worker processes for about `seconds` seconds.  With
    `trace`, runs alternate untraced / traced, starting untraced."""
    env = pinned_env()
    warm_up(root, env)
    records = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        run_id = "%s-seed%d-%d-%d" % (workload.name, seed, os.getpid(),
                                      len(records))
        elapsed = time.perf_counter() - start
        records.append(run_sample(root, env, workload, seed, run_id, traced,
                                  timeout=max(DEADLINE_S - elapsed, 10.0)))
        elapsed = time.perf_counter() - start
        typical = elapsed / len(records)
        kinds = {r["traced"] for r in records}
        enough = kinds == ({False, True} if trace else {False})
        if enough and elapsed + 0.5 * typical >= seconds:
            break
        if elapsed + 1.5 * typical > DEADLINE_S:
            break
    return records


def median(values, unit):
    """Median; for counts, the lower middle value, so it stays a count
    that was observed."""
    if unit in ("count", "bytes"):
        return statistics.median_low(values)
    return statistics.median(values)


def tail_percentile(values):
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it,
    or the maximum when there are too few samples for any."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            return "p%d" % p, statistics.quantiles(values, n=100)[p - 1]
    return "max", max(values)


def summarize(records, trace):
    """Every metric's samples over the runs that passed their check, and
    the samples of the absolute times printed beside them."""
    plain = [r for r in records if r["ok"] and not r["traced"]]
    stats, absolute = {}, {}
    for name, unit in ABSOLUTE.items():
        values = [r[name] for r in plain]
        if values:
            absolute[name] = (values, unit)
    if not trace:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in plain]
            if values:
                stats[name] = (values, unit)
    else:
        traced = [r for r in records if r["ok"] and r["traced"]]
        for name in (traced[0]["layers"] if traced else ()):
            stats[name] = ([r["layers"][name] for r in traced],
                           layer_unit(name))
        if traced and plain:
            untraced = statistics.median(r["run_rel"] for r in plain)
            with_trace = statistics.median(r["run_rel"] for r in traced)
            stats["trace.overhead_share"] = (
                [(with_trace - untraced) / untraced], "ratio")
    return stats, absolute


def report(workload, seed, records, trace):
    """Print the human-readable summary and return the result object."""
    stats, absolute = summarize(records, trace)
    failed = sum(1 for r in records if not r["ok"])
    print("workload %s  seed %d  params %s" % (
        workload.name, seed, json.dumps(
            {k: v for k, v in records[0]["params"].items()
             if k != "scenario"})))
    for name, (values, unit) in list(stats.items()) + list(absolute.items()):
        label, tail = tail_percentile(values)
        print("  %-36s min=%-12.6g median=%-12.6g %s=%-12.6g %-5s n=%d"
              % (name, min(values), median(values, unit), label, tail, unit,
                 len(values)))
    print("  %-36s %.6g (%d of %d runs failed)" % (
        "failed_share", failed / len(records), failed, len(records)))
    for r in records:
        if not r["ok"]:
            print("  failed run %s: %s" % (
                r["run_id"], r.get("error") or json.dumps(r.get("check"))))
    return {
        "correct": failed == 0 and bool(stats),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": median(values, unit), "unit": unit}
                    for name, (values, unit) in stats.items()},
    }


def save(root, workload, seed, trace, records, result):
    path = os.path.join(root, OUT_DIR, "results")
    os.makedirs(path, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (workload.name, seed, trace,
                                          time.time_ns())
    with open(os.path.join(path, name), "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "trace": trace,
                   "environment": environment(root), "result": result,
                   "runs": records}, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in REQUIRED_FILES
               if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print("bench: run from the root of a morphosim checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2

    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = workloads.WORKLOADS[name]
        records = measure(root, workload, args.seed, args.seconds,
                          bool(args.trace))
        result = report(workload, args.seed, records, bool(args.trace))
        save(root, workload, args.seed, args.trace, records, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0 if combined["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())

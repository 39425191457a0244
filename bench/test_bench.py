"""Self-test of the benchmark (under a minute).

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout.  Checks that every metric BENCHMARK.json
names is emitted with its unit, that per-layer counts repeat exactly, that
per-layer self times plus the untraced remainder add up to the traced run
time, that a failing run is counted, and that the launcher refuses to run
outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def launch(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_record(name, seed, tag):
    """One traced worker run, as the launcher starts it."""
    record = run.run_sample(ROOT, run.pinned_env(), workloads.WORKLOADS[name],
                            seed, "selftest-%s-%d" % (tag, os.getpid()),
                            traced=True, timeout=150)
    assert record["ok"], record
    return record


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                          (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(trace, section):
    result = last_json(launch("--workload", "stress_modulated", "--seed", "1",
                              "--seconds", "0.1", "--trace", str(trace)))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 if trace else 1)
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted


def test_counts_repeat_exactly():
    first, second = (traced_record("stress_modulated", 7, tag)
                     for tag in ("a", "b"))
    counts = {name for name in first["layers"]
              if run.layer_unit(name) in ("count", "bytes", "ratio")}
    assert counts
    assert {n: first["layers"][n] for n in counts} == \
        {n: second["layers"][n] for n in counts}


def test_self_times_add_up_to_traced_run_time():
    layers = traced_record("inflation", 3, "sum")["layers"]
    run_phase = [name for name in layers if name.endswith("_s")
                 and not name.startswith("trace.")
                 and name not in ("scenario.load_s", "mesh.build_s")]
    total = sum(layers[name] for name in run_phase) \
        + layers["trace.bookkeeping_s"] + layers["trace.remainder_s"]
    assert total == pytest.approx(layers["trace.run_s"], rel=1e-9)
    assert layers["fem.assemble_vector.calls"] == 0
    assert layers["elasticity.sweeps"] == 0


def test_failed_run_is_counted(monkeypatch):
    workload = workloads.WORKLOADS["stress_modulated"]
    # no reference summary exists off the parameter grid
    monkeypatch.setattr(workload, "draw", lambda seed, root, workdir: {
        "gamma": 0.21, "beta0": 0.5,
        "scenario": workload.write(root, workdir, 0.21, 0.5)})
    record = run.run_sample(ROOT, run.pinned_env(), workload, 1,
                            "selftest-fail-%d" % os.getpid(), traced=False,
                            timeout=150)
    assert not record["ok"]
    result = run.report(workload, 1, [record], trace=False)
    assert result["failed"] == 1 and not result["correct"]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = launch("--workload", "inflation", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout

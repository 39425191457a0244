"""One timed run of one workload, in a fresh process.

Started by run.py; not meant to be run by hand.  The set-up clock starts
before numpy or morphosim is imported, because every user run pays for
those imports.  The last line of standard output is a JSON record of the
run: set-up and run time, the calibration kernel's times, peak
resident memory, the check's verdict and, when traced, the per-layer
metrics.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


class Calibration:
    """A fixed computation that does not use morphosim, repeated right
    before and right after the run.  The shared host's speed drifts by tens
    of percent over minutes; dividing the run's time by the median time of
    one repetition cancels most of that drift, and the median ignores a
    burst that hits a few repetitions only (see NOTES.md, "Steadiness and
    bounds").

    Interpreted code and memory-bound sparse factorization slow down by
    different factors when the host is busy, so there are two kernels and
    each workload takes the one that resembles it.  `interpreted` is an
    interpreted loop, batched 2x2 tensor algebra and a small sparse LU;
    `sparse` is the LU factorization of a 5,000-dof block Laplacian, three
    triangular solves and batched tensor algebra on 100,000 points."""

    def __init__(self, kernel):
        import numpy as np
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        if kernel == "interpreted":
            n, points, block = 40, 2000, None
        else:
            n, points, block = 50, 100000, [[2.0, 0.5], [0.5, 2.0]]
        self.matrix = sp.diags([-1.0, -1.0, 4.2, -1.0, -1.0],
                               [-n, -1, 0, 1, n], shape=(n * n, n * n))
        if block is not None:
            self.matrix = sp.kron(self.matrix, sp.csr_matrix(block))
        self.matrix = self.matrix.tocsc()
        self.rhs = np.ones(self.matrix.shape[0])
        self.tensors = rng.standard_normal((points, 2, 2))
        self.rep = getattr(self, "_" + kernel)
        self.rep()  # first calls pay one-off costs; not timed

    def _interpreted(self):
        import numpy as np
        import scipy.sparse.linalg as spla
        F = self.tensors
        total = 0
        for i in range(30000):
            total += i * i % 7
        for _ in range(20):
            C = np.einsum("qij,qkj->qik", F, F)
            np.linalg.det(C)
            F.transpose(0, 2, 1) @ C
        spla.splu(self.matrix).solve(self.rhs)

    def _sparse(self):
        import numpy as np
        import scipy.sparse.linalg as spla
        factor = spla.splu(self.matrix)
        for _ in range(3):
            factor.solve(self.rhs)
        F = self.tensors
        np.einsum("qij,qkj->qik", F, F) + F

    def time(self, reps):
        """Each of `reps` repetitions' duration."""
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self.rep()
            times.append(time.perf_counter() - start)
        return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--params", required=True,
                        help="JSON file written by the launcher")
    parser.add_argument("--trace", default=None,
                        help="write spans to this file and report per-layer "
                             "metrics")
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads
    import morphosim

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.run_id)
        # the set-up span starts with the set-up clock, at process start
        tracer.open("bench.setup")
        tracer.spans[0][1] = SETUP_START
        tracing.install(tracer)
        tracing.patch(tracer, workloads, "touch_geometry", "mesh.geometry")

    with open(args.params) as fh:
        params = json.load(fh)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(params)
    if tracer:
        tracer.close()
    setup_end = time.perf_counter()
    kernel, reps = workload.calibration
    calibration = Calibration(kernel)
    calib_reps = calibration.time(reps)
    if tracer:
        # counters describe the run; validation during set-up also calls
        # the wrapped energy functions
        tracer.counts.clear()
        run_root = len(tracer.spans)
        tracer.open("bench.run")
    run_start = time.perf_counter()
    outputs = workload.run(inputs)
    run_end = time.perf_counter()
    if tracer:
        tracer.close()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calib_reps += calibration.time(reps)
    calib_s = statistics.median(calib_reps)

    ok, report = workload.check(params, inputs, outputs)
    record = {
        "run_id": args.run_id,
        "ok": bool(ok),
        "check": report,
        "setup_s": setup_end - SETUP_START,
        "run_s": run_end - run_start,
        "calib_s": calib_s,
        "calib_reps_s": calib_reps,
        "run_rel": (run_end - run_start) / calib_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "morphosim": os.path.dirname(morphosim.__file__),
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer:
        record["layers"] = tracing.layer_metrics(tracer, 0, run_root)
        tracer.write(args.trace)
    print(json.dumps(record))


if __name__ == "__main__":
    main()

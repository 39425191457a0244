"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Expensive trajectories are computed once per module and shared between the
criteria that inspect them.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from morphosim import tensor
from morphosim.benchmarks import (analytic_growth_scenario,
                                  bench_compatible_growth, bench_contraction,
                                  bench_nutrient_manufactured, bench_ode_order,
                                  bench_stress_free_reference,
                                  contraction_problem)
from morphosim.cli import main
from morphosim.coupled import run_coupled, trajectory_csv
from morphosim.elasticity import solve_fixed_point, solve_newton
from morphosim.materials import DetRatioNutrientModel, PolarWellEnergy
from morphosim.scenario import load_scenario
from tests.conftest import SCENARIO_DIR


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print("FAIL  criterion %2d: %s" % (number, description))
        raise
    print("PASS  criterion %2d: %s" % (number, description))


@pytest.fixture(scope="module")
def stress_free_result():
    return bench_stress_free_reference()


@pytest.fixture(scope="module")
def analytic_result():
    return bench_analytic()


def bench_analytic():
    from morphosim.benchmarks import bench_analytic_growth
    return bench_analytic_growth()


def test_criterion_01_stress_free_reference(stress_free_result):
    with criterion(1, "stress-free reference stays exactly at rest"):
        r = stress_free_result
        values = {m.label: m.value for m in r.metrics}
        assert values["max nodal |u|"] <= 1e-10
        assert values["max cell |P|_F"] <= 1e-10
        assert r.runtime < 5.0
        assert r.passed


def test_criterion_02_analytic_growth_benchmark(analytic_result):
    with criterion(2, "analytic inflation trajectory tracked to tolerance"):
        r = analytic_result
        assert r.trajectory.status == "completed"
        values = {m.label: m.value for m in r.metrics}
        assert values["max |G - (1-t)^-1 I|"] <= 1e-6
        assert values["max |y - (1-t)^-1 x|"] <= 1e-8
        assert values["max cell |P|_F"] <= 1e-8
        assert r.runtime < 120.0
        assert r.passed


def test_criterion_03_compatible_growth_energy_decay():
    with criterion(3, "compatible-growth energy decays at second order"):
        r = bench_compatible_growth(sizes=(8, 16, 32), amplitude=0.05)
        ratios = [m.value for m in r.metrics if m.label.startswith("decay")]
        assert len(ratios) == 2
        assert all(3.5 <= ratio <= 4.5 for ratio in ratios)
        assert r.passed


def test_criterion_04_derivative_consistency():
    with criterion(4, "energy derivatives match finite differences"):
        rng = np.random.default_rng(2024)
        e = PolarWellEnergy()
        n = 0
        F = np.empty((200, 2, 2))
        while n < 200:
            cand = np.eye(2) + rng.uniform(-0.3, 0.3, size=(400, 2, 2))
            good = cand[np.linalg.det(cand) > 0.25][:200 - n]
            F[n:n + len(good)] = good
            n += len(good)
        x = np.zeros((200, 2))
        D = e.first_derivative(x, F)
        H = e.second_derivative(x, F)
        h = 1e-5
        for k in range(2):
            for l in range(2):
                E = np.zeros((2, 2))
                E[k, l] = 1.0
                fd1 = (e.evaluate(x, F + h * E)
                       - e.evaluate(x, F - h * E)) / (2 * h)
                assert np.max(np.abs(D[:, k, l] - fd1)
                              / np.maximum(np.abs(fd1), 1.0)) <= 1e-6
                fd2 = (e.first_derivative(x, F + h * E)
                       - e.first_derivative(x, F - h * E)) / (2 * h)
                assert np.max(np.abs(H[..., :, :, k, l] - fd2)
                              / np.maximum(np.abs(fd2), 1.0)) <= 1e-6


def test_criterion_05_frame_indifference():
    with criterion(5, "energy and nutrient coefficients frame indifferent"):
        rng = np.random.default_rng(77)
        e = PolarWellEnergy()
        model = DetRatioNutrientModel(d0=np.diag([1.0, 2.0]), beta0=0.4)
        n = 0
        F = np.empty((1000, 2, 2))
        while n < 1000:
            cand = np.eye(2) + rng.uniform(-0.35, 0.35, size=(2000, 2, 2))
            good = cand[np.linalg.det(cand) > 0.2][:1000 - n]
            F[n:n + len(good)] = good
            n += len(good)
        Q = tensor.rotation(rng.uniform(0.0, 2 * np.pi, size=1000))
        x = np.zeros((1000, 2))
        w = e.evaluate(x, F)
        assert np.max(np.abs(e.evaluate(x, Q @ F) - w)
                      / (1.0 + np.abs(w))) <= 1e-10
        G = np.eye(2) + rng.uniform(-0.2, 0.2, size=(1000, 2, 2))
        G = np.where(np.linalg.det(G)[:, None, None] > 0.3, G, np.eye(2))
        D0, b0 = model.coefficients(G, F, x)
        DQ, bQ = model.coefficients(G, Q @ F, x)
        assert np.max(np.abs(DQ - D0) / (1.0 + np.abs(D0))) <= 1e-10
        assert np.max(np.abs(bQ - b0) / (1.0 + np.abs(b0))) <= 1e-10


def test_criterion_06_contraction_behavior():
    with criterion(6, "frozen-map iteration contracts and matches Newton"):
        fp = solve_fixed_point(contraction_problem(16, 0.01))
        inc = fp.increment_history
        ratios = [inc[k + 1] / inc[k] for k in range(len(inc) - 1)
                  if inc[k] > 1e-300]
        assert len(inc) >= 2
        assert all(r < 1.0 for r in ratios)
        assert fp.rho_hat < 1.0
        nw = solve_newton(contraction_problem(16, 0.01))
        assert np.max(np.abs(fp.displacement - nw.displacement)) <= 1e-10


def test_criterion_07_nutrient_correctness(stress_free_result,
                                           analytic_result):
    with criterion(7, "nutrient solves: exact constants, second order, "
                      "non-negative"):
        r = bench_nutrient_manufactured(sizes=(8, 16, 32))
        values = {m.label: m.value for m in r.metrics}
        assert values["constant solution error"] <= 1e-12
        assert 1.7 <= values["order 8 -> 16"] <= 2.3
        assert 1.7 <= values["order 16 -> 32"] <= 2.3
        assert values["min nutrient value"] >= -1e-10
        # non-negativity across the shipped (Delaunay-type) scenarios
        for result in (stress_free_result, analytic_result):
            assert all(d.nutrient_min >= -1e-10
                       for d in result.trajectory.diagnostics)
        for name in ("stress_modulated.cfg", "zero_nutrient.cfg",
                     "compatible_sine.cfg"):
            sc = load_scenario(SCENARIO_DIR / name)
            sc.time.t_end = min(sc.time.t_end, 3.0 * sc.time.dt)
            traj = run_coupled(sc)
            assert traj.status == "completed"
            assert all(d.nutrient_min >= -1e-10 for d in traj.diagnostics)


def test_criterion_08_ode_integrator_order():
    with criterion(8, "integrator is fourth order and volume-exact"):
        r = bench_ode_order()
        values = {m.label: m.value for m in r.metrics}
        assert 12.0 <= values["error ratio dt 0.01 -> 0.005"] <= 20.0
        assert 12.0 <= values["error ratio dt 0.005 -> 0.0025"] <= 20.0
        assert values["det drift per unit time"] <= 1e-10


def test_criterion_09_guard_fires_before_blowup(tmp_path):
    with criterion(9, "guards halt the inflating run strictly before t = 1"):
        outdir = tmp_path / "guard_run"
        code = main(["bench", "analytic_growth", "--t-end", "0.99",
                     "--output-dir", str(outdir)])
        assert code == 1
        assert (outdir / "failure_snapshot.vtk").exists()
        note = (outdir / "failure.txt").read_text()
        assert "guard_violation" in note
        halted_at = float(note.split("t=")[1].split("\n")[0])
        assert halted_at < 1.0


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated runs produce byte-identical diagnostics"):
        cfg = SCENARIO_DIR / "stress_free.cfg"
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", str(cfg), "--output-dir", str(d1)]) == 0
        assert main(["run", str(cfg), "--output-dir", str(d2)]) == 0
        csv1 = (d1 / "run.csv").read_bytes()
        csv2 = (d2 / "run.csv").read_bytes()
        assert csv1 == csv2
        short = analytic_growth_scenario(nx=8, dt=2e-3, t_end=0.05)
        again = analytic_growth_scenario(nx=8, dt=2e-3, t_end=0.05)
        assert trajectory_csv(run_coupled(short)) \
            == trajectory_csv(run_coupled(again))

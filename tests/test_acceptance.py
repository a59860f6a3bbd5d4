"""Acceptance suite: ten pinned criteria covering the full study battery.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line with the
measured quantities and elapsed wall time (visible with `pytest -s`). All
thresholds are frozen here; seeds are pinned so every run checks identical
numbers.
"""

import dataclasses
import json
import time

import numpy as np
from scipy.stats import spearmanr

from lyapsim import (
    BangBangSpec,
    PulseTrainSpec,
    bang_bang_law,
    build_config,
    classify_critical_point,
    control_field,
    delay_sweep,
    derive_rng,
    feedback_law,
    field_derivatives,
    lyapunov_value,
    preset_5dim,
    propagate_exact,
    pulse_count_sweep,
    pulsed_law,
    random_initial_state,
    run_dimension_scaling,
    seeded_initial_states,
    simulate,
)
from lyapsim.cli import main
from lyapsim.control_law import DEGENERATE, MINIMUM

from helpers import coupled_rk4_step, projector, random_unit_complex

SYS5 = preset_5dim()


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num:2d} {name}: {status} - {detail} ({time.perf_counter() - t0:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_1_lyapunov_descent():
    t0 = time.perf_counter()
    worst = -np.inf
    for i in range(100):
        psi0 = random_initial_state(5, derive_rng(3, 0, i))
        traj = simulate(SYS5, feedback_law(SYS5), psi0, 200.0, 0.01)
        worst = max(worst, float(np.max(np.diff(traj.lyapunov))))
    _report(1, "lyapunov descent", worst <= 1e-8,
            f"worst per-step dV = {worst:.2e} <= 1e-08 over 100 states", t0)


def test_criterion_2_delay_free_convergence():
    t0 = time.perf_counter()
    finals = [
        simulate(SYS5, feedback_law(SYS5), psi0, 200.0, 0.01).final_fidelity
        for psi0 in seeded_initial_states(5, 10, seed=7)
    ]
    mean = float(np.mean(finals))
    _report(2, "delay-free convergence", mean >= 0.95,
            f"mean final fidelity = {mean:.4f} >= 0.95 over 10 states", t0)


def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    law = pulsed_law(SYS5, PulseTrainSpec(n_pulses=50, horizon=150.0))
    rk4 = simulate(SYS5, law, psi0, 150.0, 0.01)
    # The applied train, read off the run's fields on the 50-pulse grid:
    # pulse p starts at step ceil(p * n_steps / 50).
    bounds = [-(-p * (len(rk4) - 1) // 50) for p in range(51)]
    segments = [(rk4.times[b] - rk4.times[a], rk4.fields[a]) for a, b in zip(bounds, bounds[1:])]
    held = all(np.all(rk4.fields[a:b] == rk4.fields[a]) for a, b in zip(bounds, bounds[1:]))
    exact = propagate_exact(SYS5, segments, psi0)
    diff = float(np.max(np.abs(rk4.final_state - exact.final_state)))
    _report(3, "oracle equivalence", held and diff <= 1e-6,
            f"final-state sup-norm difference = {diff:.2e} <= 1e-06 (50-pulse train); "
            f"field held on each pulse = {held}", t0)


def test_criterion_4_delay_degradation():
    t0 = time.perf_counter()
    points = delay_sweep(
        SYS5, [-1.0, -0.5, -0.1, 0.0, 0.1, 0.5, 1.0], n_states=10, seed=7,
        horizon=200.0, dt=0.01,
    )
    mean = {p.parameter: p.mean_fidelity for p in points}
    drop = mean[0.0] - mean[1.0]
    small_asym = abs(mean[0.1] - mean[-0.1])
    large_asym = abs(mean[1.0] - mean[-1.0])
    ok = drop >= 0.01 and small_asym <= 0.005 and large_asym > 0.005
    _report(4, "delay degradation", ok,
            f"drop(tau=1) = {drop:.3f} >= 0.01; |asym|(0.1) = {small_asym:.4f} <= 0.005; "
            f"|asym|(1.0) = {large_asym:.3f} > 0.005", t0)


def test_criterion_5_taylor_expansion_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    h = 1e-4
    worst1 = worst2 = 0.0
    for _ in range(100):
        psi = random_unit_complex(rng, 5)
        f0 = control_field(psi, SYS5)
        fp = control_field(coupled_rk4_step(SYS5, psi, h), SYS5)
        fm = control_field(coupled_rk4_step(SYS5, psi, -h), SYS5)
        fd1 = (fp - fm) / (2 * h)
        fd2 = (fp - 2 * f0 + fm) / h**2
        an1, an2 = field_derivatives(psi, SYS5)
        worst1 = max(worst1, abs(fd1 - an1) / max(abs(an1), 1e-6))
        worst2 = max(worst2, abs(fd2 - an2) / max(abs(an2), 1e-5))
    ok = worst1 <= 1e-3 and worst2 <= 1e-2
    _report(5, "field-derivative validity", ok,
            f"max rel err: first = {worst1:.2e} <= 1e-03, second = {worst2:.2e} <= 1e-02", t0)


def test_criterion_6_pulse_train_adequacy():
    t0 = time.perf_counter()
    horizon = 150.0
    baseline = float(np.mean([
        simulate(SYS5, feedback_law(SYS5), psi0, horizon, 0.01).final_fidelity
        for psi0 in seeded_initial_states(5, 10, seed=7)
    ]))
    points = pulse_count_sweep(
        SYS5, [10, 20, 30, 40, 50, 75, 100], n_states=10, seed=7, horizon=horizon, dt=0.01
    )
    mean = {int(p.parameter): p.mean_fidelity for p in points}
    gap = abs(baseline - mean[50])
    ok = gap <= 0.05 and mean[50] > mean[20]
    _report(6, "pulse-train adequacy", ok,
            f"|baseline - mean(n=50)| = {gap:.4f} <= 0.05; "
            f"mean(50) = {mean[50]:.4f} > mean(20) = {mean[20]:.4f}", t0)


def test_criterion_7_bang_bang_convergence():
    t0 = time.perf_counter()
    state = np.array([0.4314, 0.3627, 0.5948, 0.3991, 0.4114], dtype=np.complex128)
    state /= np.sqrt(np.sum(np.abs(state) ** 2))
    spec = BangBangSpec(f0=0.1, deadband=1e-8)
    traj1 = simulate(SYS5, bang_bang_law(SYS5, spec), state, 200.0, 0.01)
    sys7 = dataclasses.replace(SYS5, gain_k=7.0)
    traj7 = simulate(sys7, bang_bang_law(sys7, spec), state, 200.0, 0.01)
    signs_equal = np.array_equal(np.sign(traj1.fields), np.sign(traj7.fields))
    ok = traj1.final_fidelity >= 0.9 and signs_equal
    _report(7, "bang-bang convergence", ok,
            f"final fidelity = {traj1.final_fidelity:.4f} >= 0.9; "
            f"sign sequence k=1 vs k=7 identical = {signs_equal}", t0)


def test_criterion_8_critical_point_classification():
    t0 = time.perf_counter()
    a_eigenvalues = np.sort(np.linalg.eigvalsh(projector(SYS5.target)))
    labels = [classify_critical_point(a_eigenvalues, c) for c in range(5)]
    labels_ok = labels[0] == MINIMUM and all(lab == DEGENERATE for lab in labels[1:])

    rng = np.random.default_rng(99)
    brute_ok = True
    for c in range(5):
        psi_c = np.zeros(5, dtype=np.complex128)
        psi_c[c] = 1.0
        v_c = lyapunov_value(psi_c, SYS5.target)
        for _ in range(1000):
            pert = psi_c + 1e-3 * random_unit_complex(rng, 5)
            pert /= np.linalg.norm(pert)
            dv = lyapunov_value(pert, SYS5.target) - v_c
            if c == 0:
                brute_ok &= dv >= -1e-10
            else:
                brute_ok &= dv <= 1e-10
    ok = labels_ok and brute_ok
    _report(8, "critical-point classification", ok,
            f"labels = [{', '.join(labels)}]; 5000 perturbations consistent = {brute_ok}", t0)


def test_criterion_9_dimension_scaling():
    t0 = time.perf_counter()
    cfg = build_config({"preset": "fig5", "seed": 11})
    rows = run_dimension_scaling(cfg)
    dims = [r.dim for r in rows]
    rho_t = float(spearmanr(dims, [r.mean_convergence_time for r in rows]).statistic)
    rho_f = float(spearmanr(dims, [r.mean_fidelity for r in rows]).statistic)
    ok = rho_t >= 0.9 and rho_f <= -0.5
    _report(9, "dimension scaling", ok,
            f"Spearman(convergence time) = {rho_t:.3f} >= 0.9; "
            f"Spearman(fidelity@150) = {rho_f:.3f} <= -0.5 (dims 4..16, 30 trials)", t0)


def test_criterion_10_reproducibility(tmp_path):
    t0 = time.perf_counter()
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["simulate", "--preset", "fig4", "--seed", "7", "--out", str(out)]) == 0
    same_traj = (runs[0] / "trajectory.csv").read_bytes() == (runs[1] / "trajectory.csv").read_bytes()
    same_manifest = (runs[0] / "manifest.json").read_bytes() == (runs[1] / "manifest.json").read_bytes()

    cfg = tmp_path / "scaling.json"
    cfg.write_text(json.dumps({
        "preset": "fig5", "seed": 5, "dims": [4, 5, 6], "n_states": 3,
        "horizon": 160.0, "fidelity_time": 150.0,
    }))
    assert main(["dim-scaling", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
    assert main(["dim-scaling", "--config", str(cfg), "--out", str(tmp_path / "rerun")]) == 0
    same_scaling = (
        (tmp_path / "first" / "scaling.csv").read_bytes()
        == (tmp_path / "rerun" / "scaling.csv").read_bytes()
    )
    same_scaling_manifest = (
        (tmp_path / "first" / "manifest.json").read_bytes()
        == (tmp_path / "rerun" / "manifest.json").read_bytes()
    )
    ok = same_traj and same_manifest and same_scaling and same_scaling_manifest
    _report(10, "reproducibility", ok,
            f"byte-identical reruns: trajectory = {same_traj}, manifest = {same_manifest}, "
            f"scaling rerun = {same_scaling and same_scaling_manifest}", t0)

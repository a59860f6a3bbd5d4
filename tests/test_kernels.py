"""The polynomial RK4 step and held-field blocks against independent oracles."""

import warnings

import numpy as np
import pytest

from lyapsim import (
    BangBangSpec,
    DelaySpec,
    NumericalError,
    PiecewiseConstantLaw,
    PulseTrainSpec,
    bang_bang_law,
    delayed_law,
    feedback_law,
    preset_5dim,
    propagate_exact,
    pulsed_law,
    seeded_initial_states,
    simulate,
)
from lyapsim import _kernels
from lyapsim.cli import main

from helpers import random_hermitian, random_unit_complex


def _replay_loop(sys5, psi0, f_ref, dt=0.01):
    return _kernels.simulate_loop(
        sys5.h0, sys5.h1, sys5.target, sys5.h1_target(), sys5.gain_k,
        psi0, len(f_ref) - 1, dt, _kernels.LAW_REPLAY, 0, 0.0,
        f_ref, 1, 0.0, 0.0, 1e-6,
    )


def test_drift_guard_reports_step():
    sys5 = preset_5dim()
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    states, fields, status, bad_step = _replay_loop(sys5, psi0, np.full(101, 1e8))
    assert status == 1
    assert bad_step == 0


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_polynomial_map_matches_classic_rk4(dim):
    rng = np.random.default_rng(dim)
    h0 = random_hermitian(rng, dim)
    h1 = random_hermitian(rng, dim)
    target = random_unit_complex(rng, dim)
    m = _kernels.rk4_matrices(h0, h1, 0.01)
    stepper = _kernels.Stepper(h0, h1, target, h1 @ target, 0.01)
    out = np.empty(dim, dtype=np.complex128)
    for f in rng.uniform(-1.0, 1.0, size=10):
        psi = random_unit_complex(rng, dim)
        expected, expected_drift = _kernels.rk4_step(h0, h1, f, 0.01, psi)
        raw = sum(f**k * m[k] for k in range(5)) @ psi
        assert np.max(np.abs(raw / np.linalg.norm(raw) - expected)) <= 1e-14
        stepper.load(psi)
        drift = stepper.advance(f, out)
        assert np.max(np.abs(out - expected)) <= 1e-14
        assert abs(drift - expected_drift) <= 1e-14


def test_held_field_replay_matches_exact_and_generic(sys5, rng):
    # Runs longer than one block, a one-step run, and a ragged tail.
    segments = [(0.2, 0.3), (0.001, -0.5), (0.15, 0.1), (0.049, 0.7)]
    ends = [200, 201, 351, 400]
    psi0 = random_unit_complex(rng, 5)
    law = PiecewiseConstantLaw(segments)
    traj = simulate(sys5, law, psi0, 0.4, 0.001)
    generic = simulate(sys5, law, psi0, 0.4, 0.001, _force_generic=True)
    exact = propagate_exact(sys5, segments, psi0)
    assert np.array_equal(traj.fields, generic.fields)
    assert np.max(np.abs(traj.states - generic.states)) <= 1e-12
    assert np.max(np.abs(traj.states[ends] - exact.states[1:])) <= 1e-12


def test_overflowing_field_fails_at_its_step(sys5):
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    f_ref = np.full(101, 0.1)
    f_ref[37:] = 1e8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, fields, status, bad_step = _replay_loop(sys5, psi0, f_ref)
        with pytest.raises(NumericalError, match="step 37"):
            simulate(sys5, PiecewiseConstantLaw([(0.37, 0.1), (0.63, 1e8)]), psi0, 1.0, 0.01)
    assert (status, bad_step) == (1, 37)
    assert np.all(np.abs(np.linalg.norm(states[:38], axis=1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("generic", [False, True])
def test_guard_applies_per_step_inside_blocks(sys5, generic):
    # At f = 10 each step drifts ~4e-7, under the guard, though 50 steps
    # compound past it; f = 12 drifts 1.1e-6 on its first step.
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    law = PiecewiseConstantLaw([(0.5, 10.0), (0.5, 12.0)])
    with pytest.raises(NumericalError, match="at step 50 "):
        simulate(sys5, law, psi0, 1.0, 0.01, _force_generic=generic)


def _laws(sys5, psi0):
    reference = simulate(sys5, feedback_law(sys5), psi0, 30.0, 0.01)
    return {
        "feedback": feedback_law(sys5),
        "history": delayed_law(sys5, DelaySpec(0.5, "history")),
        "taylor": delayed_law(sys5, DelaySpec(-0.5, "taylor")),
        "replay": delayed_law(sys5, DelaySpec(-0.3, "replay"), reference),
        "pulses": pulsed_law(sys5, PulseTrainSpec(7, 30.0), reference)[0],
        # 30 is a whole number of 0.5 holds: the last sample re-quantizes.
        "bang": bang_bang_law(sys5, BangBangSpec(hold=0.5)),
        "bang-per-step": bang_bang_law(sys5, BangBangSpec(hold=0.01)),
    }


@pytest.mark.parametrize(
    "kind", ["feedback", "history", "taylor", "replay", "pulses", "bang", "bang-per-step"]
)
def test_kernel_matches_generic_path(sys5, kind):
    psi0 = seeded_initial_states(5, 1, seed=11)[0]
    law = _laws(sys5, psi0)[kind]
    fast = simulate(sys5, law, psi0, 30.0, 0.01)
    slow = simulate(sys5, law, psi0, 30.0, 0.01, _force_generic=True)
    assert np.max(np.abs(fast.fields - slow.fields)) <= 1e-12
    assert np.max(np.abs(fast.states - slow.states)) <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["delay-sweep", "--taus=-0.5,0,0.5", "--horizon", "20"],
        ["pulse-sweep", "--pulse-counts", "10,40", "--horizon", "20"],
    ],
)
def test_sweeps_independent_of_thread_count(argv, tmp_path, monkeypatch, capsys):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("LYAPSIM_THREADS", threads)
        out = tmp_path / threads
        assert main([*argv, "--seed", "3", "--n-states", "2", "--out", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "manifest.json")])
    assert outputs[0] == outputs[1]

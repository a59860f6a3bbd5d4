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

from helpers import (
    bang_at,
    feedback_at,
    oracle_run,
    pulses_at,
    random_hermitian,
    random_unit_complex,
    replay_at,
    taylor_at,
)


def _replay_loop(sys5, psi0, f_ref, dt=0.01):
    return _kernels.simulate_loop(
        sys5.h0, sys5.h1, sys5.target, sys5.h1_target(), sys5.gain_k,
        psi0, len(f_ref) - 1, dt, f_ref, 1e-6,
    )


def test_drift_guard_reports_step():
    sys5 = preset_5dim()
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    states, fields, bad_step = _replay_loop(sys5, psi0, np.full(101, 1e8))
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


def _segment_field(values, ends):
    """The field of piecewise-constant segments ending at the given steps; zero after."""
    return lambda i, s: (values + [0.0])[int(np.searchsorted(ends, i, side="right"))]


def test_held_field_replay_matches_exact_and_generic(sys5, rng):
    # Runs longer than one block, a one-step run, and a ragged tail; the
    # per-step reference loop is the generic path.
    segments = [(0.2, 0.3), (0.001, -0.5), (0.15, 0.1), (0.049, 0.7)]
    ends = [200, 201, 351, 400]
    psi0 = random_unit_complex(rng, 5)
    traj = simulate(sys5, PiecewiseConstantLaw(segments), psi0, 0.4, 0.001)
    states, fields, bad_step = oracle_run(
        sys5, psi0, 0.4, 0.001, _segment_field([v for _, v in segments], ends)
    )
    exact = propagate_exact(sys5, segments, psi0)
    assert bad_step == -1
    assert np.array_equal(traj.fields, fields)
    assert np.max(np.abs(traj.states - states)) <= 1e-12
    assert np.max(np.abs(traj.states[ends] - exact.states[1:])) <= 1e-12


def test_overflowing_field_fails_at_its_step(sys5):
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    f_ref = np.full(101, 0.1)
    f_ref[37:] = 1e8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, fields, bad_step = _replay_loop(sys5, psi0, f_ref)
        with pytest.raises(NumericalError, match="step 37"):
            simulate(sys5, PiecewiseConstantLaw([(0.37, 0.1), (0.63, 1e8)]), psi0, 1.0, 0.01)
    assert bad_step == 37
    assert np.all(np.abs(np.linalg.norm(states[:38], axis=1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("generic", [False, True])
def test_guard_applies_per_step_inside_blocks(sys5, generic):
    # At f = 10 each step drifts ~4e-7, under the guard, though 50 steps
    # compound past it; f = 12 drifts 1.1e-6 on its first step. The generic
    # case runs the per-step reference loop.
    psi0 = seeded_initial_states(5, 1, seed=7)[0]
    if generic:
        _, _, bad_step = oracle_run(sys5, psi0, 1.0, 0.01, _segment_field([10.0, 12.0], [50, 100]))
        assert bad_step == 50
    else:
        law = PiecewiseConstantLaw([(0.5, 10.0), (0.5, 12.0)])
        with pytest.raises(NumericalError, match="at step 50 "):
            simulate(sys5, law, psi0, 1.0, 0.01)


def _laws(sys5, psi0):
    """Each law kind with its field in the per-step reference loop."""
    reference = simulate(sys5, feedback_law(sys5), psi0, 30.0, 0.01)
    design = oracle_run(sys5, psi0, 30.0, 0.01, feedback_at(sys5))[1]
    hold, per_step = BangBangSpec(hold=0.5), BangBangSpec(hold=0.01)
    return {
        "feedback": (feedback_law(sys5), feedback_at(sys5)),
        "history": (delayed_law(sys5, DelaySpec(0.5, "history")), feedback_at(sys5, 50)),
        "taylor": (delayed_law(sys5, DelaySpec(-0.5, "taylor")), taylor_at(sys5, -0.5)),
        "replay": (delayed_law(sys5, DelaySpec(-0.3, "replay"), reference), replay_at(design, -30)),
        "pulses": (pulsed_law(sys5, PulseTrainSpec(7, 30.0), reference), pulses_at(design, 7)),
        # 30 is a whole number of 0.5 holds: the last sample re-quantizes.
        "bang": (bang_bang_law(sys5, hold), bang_at(sys5, hold, 50)),
        "bang-per-step": (bang_bang_law(sys5, per_step), bang_at(sys5, per_step, 1)),
    }


@pytest.mark.parametrize(
    "kind", ["feedback", "history", "taylor", "replay", "pulses", "bang", "bang-per-step"]
)
def test_kernel_matches_generic_path(sys5, kind):
    # The generic path is the per-step reference loop of tests/helpers.py.
    psi0 = seeded_initial_states(5, 1, seed=11)[0]
    law, field_at = _laws(sys5, psi0)[kind]
    fast = simulate(sys5, law, psi0, 30.0, 0.01)
    states, fields, bad_step = oracle_run(sys5, psi0, 30.0, 0.01, field_at)
    assert bad_step == -1
    if kind.startswith("bang"):
        assert np.array_equal(fast.fields, fields)
    assert np.max(np.abs(fast.fields - fields)) <= 1e-12
    assert np.max(np.abs(fast.states - states)) <= 1e-12

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapsim import (
    BangBangSpec,
    InputError,
    PulseTrainSpec,
    bang_bang_law,
    bang_bang_quantize,
    control_field,
    convergence_time,
    feedback_law,
    pulse_count_sweep,
    pulsed_law,
    seeded_initial_states,
    simulate,
)
from lyapsim.experiments import BANG_BANG_STATE

from helpers import altered_systems


@pytest.fixture(scope="module")
def psi0():
    return seeded_initial_states(5, 1, seed=7)[0]


@pytest.fixture(scope="module")
def fig4_state():
    state = BANG_BANG_STATE.astype(np.complex128)
    return state / np.linalg.norm(state)


class TestSpecs:
    def test_pulse_spec_validation(self):
        with pytest.raises(InputError):
            PulseTrainSpec(n_pulses=0, horizon=10.0)
        with pytest.raises(InputError):
            PulseTrainSpec(n_pulses=10, horizon=0.0)
        assert PulseTrainSpec(n_pulses=50, horizon=150.0).duration == 3.0

    def test_bang_spec_validation(self):
        with pytest.raises(InputError):
            BangBangSpec(f0=0.0)
        with pytest.raises(InputError):
            BangBangSpec(f0=0.1, deadband=-1e-9)
        with pytest.raises(InputError):
            BangBangSpec(f0=0.1, hold=0.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("key", ["f0", "deadband", "hold"])
    def test_bang_spec_rejects_non_finite(self, key, value):
        with pytest.raises(InputError, match=f"^{key} must be"):
            BangBangSpec(**{key: value})

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_pulse_spec_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(InputError, match="^horizon must be"):
            PulseTrainSpec(n_pulses=10, horizon=horizon)

    @pytest.mark.parametrize("n_pulses", [np.nan, 2.5])
    def test_pulse_spec_rejects_non_integer_count(self, n_pulses):
        with pytest.raises(InputError, match="^n_pulses must be an integer"):
            PulseTrainSpec(n_pulses=n_pulses, horizon=10.0)


class TestQuantizer:
    def test_branches(self):
        spec = BangBangSpec(f0=0.1, deadband=1e-6)
        assert bang_bang_quantize(0.3, spec) == 0.1
        assert bang_bang_quantize(-0.02, spec) == -0.1
        assert bang_bang_quantize(0.0, spec) == 0.0
        assert bang_bang_quantize(5e-7, spec) == 0.0

    def test_range_and_odd_symmetry(self, rng):
        spec = BangBangSpec(f0=0.25, deadband=1e-3)
        for x in rng.normal(size=200):
            out = bang_bang_quantize(x, spec)
            assert out in (-0.25, 0.0, 0.25)
            assert bang_bang_quantize(-x, spec) == -out

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.floats(allow_nan=False),
        f0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        deadband=st.floats(min_value=0.0, allow_infinity=False),
    )
    def test_three_levels_odd_and_zero_exactly_in_deadband(self, raw, f0, deadband):
        spec = BangBangSpec(f0=f0, deadband=deadband)
        out = bang_bang_quantize(raw, spec)
        assert out in (-f0, 0.0, f0)
        assert bang_bang_quantize(-raw, spec) == -out
        assert (out == 0.0) == (abs(raw) <= deadband)

    def test_f0_scaling_keeps_sign(self, rng):
        small = BangBangSpec(f0=0.1)
        big = BangBangSpec(f0=0.2)
        for x in rng.normal(size=100):
            assert np.sign(bang_bang_quantize(x, small)) == np.sign(bang_bang_quantize(x, big))


class TestPulseTrain:
    def test_refinement_limit_reproduces_continuous(self, sys5, psi0):
        # one pulse per integrator step: the train is exactly the design field
        n_steps = 2000
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=n_steps, horizon=20.0))
        pulsed = simulate(sys5, law, psi0, 20.0, 0.01)
        raw = simulate(sys5, feedback_law(sys5), psi0, 20.0, 0.01)
        assert np.array_equal(pulsed.states, raw.states)
        # applied fields identical; the final record (never applied) holds
        # the last pulse amplitude rather than a freshly sampled value
        assert np.array_equal(pulsed.fields[:-1], raw.fields[:-1])

    def test_recorded_train_tiles_horizon(self, sys5, psi0):
        # The applied train is traj.fields. 7 pulses do not divide 2000
        # steps: pulse p starts at step ceil(p * 2000 / 7), so the field
        # switches at t = 2.86, 5.72, ..., and the last sample holds the
        # last pulse.
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=7, horizon=20.0))
        traj = simulate(sys5, law, psi0, 20.0, 0.01)
        switches = np.flatnonzero(np.diff(traj.fields)) + 1
        assert switches.tolist() == [-(-p * 2000 // 7) for p in range(1, 7)]
        assert traj.times[switches[:2]].tolist() == pytest.approx([2.86, 5.72], abs=1e-12)
        assert traj.times[-1] == 20.0

    def test_amplitudes_vary(self, sys5, psi0):
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=50, horizon=150.0))
        traj = simulate(sys5, law, psi0, 150.0, 0.01)
        assert len(np.unique(traj.fields)) > 40

    def test_duration_below_dt_rejected(self, sys5, psi0):
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=3000, horizon=20.0))
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 20.0, 0.01)

    def test_horizon_mismatch_rejected(self, sys5, psi0):
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=10, horizon=30.0))
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 20.0, 0.01)

    def test_mismatched_reference_rejected(self, sys5, psi0, rng):
        other = seeded_initial_states(5, 2, seed=99)[1]
        ref = simulate(sys5, feedback_law(sys5), other, 20.0, 0.01)
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=10, horizon=20.0), reference=ref)
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 20.0, 0.01)

    @pytest.mark.parametrize("with_reference", [False, True])
    def test_runs_only_on_its_design_system(self, sys5, psi0, with_reference):
        ref = simulate(sys5, feedback_law(sys5), psi0, 20.0, 0.01) if with_reference else None
        law = pulsed_law(sys5, PulseTrainSpec(n_pulses=10, horizon=20.0), reference=ref)
        for name, other in altered_systems(sys5).items():
            with pytest.raises(InputError, match=rf"another system \({name} differ"):
                simulate(other, law, psi0, 20.0, 0.01)
        same = simulate(dataclasses.replace(sys5), law, psi0, 20.0, 0.01)
        assert np.array_equal(same.states, simulate(sys5, law, psi0, 20.0, 0.01).states)

    def test_fifty_pulses_near_continuous(self, sys5):
        states = seeded_initial_states(5, 10, seed=7)
        base = [simulate(sys5, feedback_law(sys5), s, 150.0, 0.01).final_fidelity for s in states]
        pulsed = []
        for s in states:
            law = pulsed_law(sys5, PulseTrainSpec(n_pulses=50, horizon=150.0))
            pulsed.append(simulate(sys5, law, s, 150.0, 0.01).final_fidelity)
        assert abs(np.mean(base) - np.mean(pulsed)) <= 0.05
        assert np.mean(pulsed) >= 0.9

    def test_convergence_prolongs_on_average(self, sys5):
        # Individual states vary; the slowdown is an ensemble statement.
        horizon = 150.0
        cont, pulsed = [], []
        for s in seeded_initial_states(5, 10, seed=7):
            ref = simulate(sys5, feedback_law(sys5), s, horizon, 0.01)
            law = pulsed_law(sys5, PulseTrainSpec(50, horizon), reference=ref)
            traj = simulate(sys5, law, s, horizon, 0.01)
            t_ref = convergence_time(ref, 0.95)
            t_tr = convergence_time(traj, 0.95)
            cont.append(t_ref if t_ref is not None else horizon)
            pulsed.append(t_tr if t_tr is not None else horizon)
        assert np.mean(pulsed) > np.mean(cont)

    def test_refinement_distance_shrinks(self, sys5, psi0):
        raw = simulate(sys5, feedback_law(sys5), psi0, 150.0, 0.01)
        dists = []
        for n in (25, 50, 100, 200):
            law = pulsed_law(sys5, PulseTrainSpec(n_pulses=n, horizon=150.0), reference=raw)
            traj = simulate(sys5, law, psi0, 150.0, 0.01)
            dists.append(np.max(np.abs(traj.final_state - raw.final_state)))
        assert all(dists[i + 1] < dists[i] for i in range(3))

    def test_pulse_count_sweep(self, sys5):
        points = pulse_count_sweep(sys5, [20, 50], n_states=4, seed=7, horizon=150.0, dt=0.01)
        assert [p.parameter for p in points] == [20, 50]
        assert points[1].mean_fidelity > points[0].mean_fidelity
        again = pulse_count_sweep(sys5, [20, 50], n_states=4, seed=7, horizon=150.0, dt=0.01)
        assert points == again


class TestBangBang:
    def test_fig4_state_converges(self, sys5, fig4_state):
        traj = simulate(sys5, bang_bang_law(sys5, BangBangSpec()), fig4_state, 200.0, 0.01)
        assert traj.final_fidelity >= 0.9
        assert convergence_time(traj, 0.9) is not None

    def test_field_values_are_three_level(self, sys5, fig4_state):
        spec = BangBangSpec(f0=0.1, deadband=1e-8)
        traj = simulate(sys5, bang_bang_law(sys5, spec), fig4_state, 50.0, 0.01)
        assert set(np.unique(traj.fields)) <= {-0.1, 0.0, 0.1}

    def test_pulse_widths_vary(self, sys5, fig4_state):
        traj = simulate(sys5, bang_bang_law(sys5, BangBangSpec()), fig4_state, 200.0, 0.01)
        sgn = np.sign(traj.fields)
        boundaries = np.nonzero(sgn[1:] != sgn[:-1])[0]
        widths = np.diff(boundaries)
        assert len(np.unique(widths)) > 3

    def test_sign_sequence_gain_invariant(self, sys5, fig4_state):
        spec = BangBangSpec()
        t1 = simulate(sys5, bang_bang_law(sys5, spec), fig4_state, 200.0, 0.01)
        s7 = dataclasses.replace(sys5, gain_k=7.0)
        t7 = simulate(s7, bang_bang_law(s7, spec), fig4_state, 200.0, 0.01)
        assert np.array_equal(np.sign(t1.fields), np.sign(t7.fields))

    def test_descent_while_sign_aligned(self, sys5, fig4_state):
        spec = BangBangSpec(f0=0.1, deadband=1e-8)
        traj = simulate(sys5, bang_bang_law(sys5, spec), fig4_state, 200.0, 0.01)
        raw = np.array([control_field(s, sys5) for s in traj.states[:-1]])
        applied = traj.fields[:-1]
        aligned = (np.sign(applied) == np.sign(raw)) & (np.abs(raw) > spec.deadband) & (applied != 0)
        dv = np.diff(traj.lyapunov)
        assert np.max(dv[aligned]) <= 1e-5

    def test_per_step_switching_available(self, sys5, fig4_state):
        spec = BangBangSpec(f0=0.1, deadband=1e-8, hold=0.01)
        traj = simulate(sys5, bang_bang_law(sys5, spec), fig4_state, 20.0, 0.01)
        raw0 = control_field(fig4_state, sys5)
        assert traj.fields[0] == bang_bang_quantize(raw0, spec)

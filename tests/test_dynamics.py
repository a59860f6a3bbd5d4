import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyapsim import (
    BangBangSpec,
    ControlSystem,
    DelaySpec,
    InputError,
    NumericalError,
    PiecewiseConstantLaw,
    PulseTrainSpec,
    bang_bang_law,
    control_field,
    delayed_law,
    derive_rng,
    feedback_law,
    propagate_exact,
    pulsed_law,
    random_initial_state,
    seeded_initial_states,
    simulate,
)
from lyapsim._kernels import RING_ROWS
from lyapsim.experiments import random_scaling_instance_with_retries
from lyapsim._kernels import rk4_step
from lyapsim.dynamics import FieldLaw

from helpers import feedback_at, oracle_run, random_system, random_unit_complex


def basis(i, dim=5):
    e = np.zeros(dim, dtype=np.complex128)
    e[i] = 1.0
    return e


class TestControlSystem:
    def test_dimension_mismatch(self, sys5):
        with pytest.raises(InputError):
            ControlSystem(h0=sys5.h0, h1=np.eye(4), target=sys5.target)

    def test_gain_must_be_positive(self, sys5):
        with pytest.raises(InputError):
            ControlSystem(h0=sys5.h0, h1=sys5.h1, target=sys5.target, gain_k=0.0)

    def test_target_must_be_h0_eigenvector(self, sys5):
        bad = (basis(0) + basis(1)) / np.sqrt(2)
        with pytest.raises(InputError):
            ControlSystem(h0=sys5.h0, h1=sys5.h1, target=bad)


class TestRk4Step:
    """The four-stage step the per-step reference loop of helpers.py runs."""

    def test_free_phase_oracle(self, sys5):
        # e1 is an H0 eigenstate with energy 0.2: one step is a pure phase.
        out, _ = rk4_step(sys5.h0, sys5.h1, 0.0, 0.01, basis(0))
        assert np.max(np.abs(out - np.exp(-0.002j) * basis(0))) <= 1e-10

    def test_small_step_limit(self, sys5, rng):
        psi = random_unit_complex(rng, 5)
        out, _ = rk4_step(sys5.h0, sys5.h1, 0.1, 1e-8, psi)
        assert np.max(np.abs(out - psi)) <= 1e-7

    def test_renormalized_output(self, sys5, rng):
        psi = random_unit_complex(rng, 5)
        out, drift = rk4_step(sys5.h0, sys5.h1, 0.4, 0.01, psi)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-14
        assert drift <= 1e-8

    def test_rejects_nonpositive_dt(self, sys5):
        # The kernel takes dt as given; simulate, which drives it, refuses a
        # step that is not positive before any step is taken.
        for dt in (0.0, -0.01):
            with pytest.raises(InputError):
                simulate(sys5, feedback_law(sys5), basis(0), 1.0, dt)


class TestSimulate:
    def test_stationary_eigenstate(self, sys5):
        law = PiecewiseConstantLaw([(10.0, 0.0)])
        traj = simulate(sys5, law, basis(0), 10.0, 0.01)
        assert np.all(np.abs(traj.fidelity - 1.0) <= 1e-12)

    def test_delay_free_convergence(self, sys5):
        finals = [
            simulate(sys5, feedback_law(sys5), psi0, 200.0, 0.01).final_fidelity
            for psi0 in seeded_initial_states(5, 10, seed=7)
        ]
        assert np.mean(finals) >= 0.95

    def test_lyapunov_descent(self, sys5):
        for psi0 in seeded_initial_states(5, 5, seed=3):
            traj = simulate(sys5, feedback_law(sys5), psi0, 100.0, 0.01)
            assert np.max(np.diff(traj.lyapunov)) <= 1e-8

    def test_norm_preserved_along_trajectory(self, sys5):
        psi0 = seeded_initial_states(5, 1, seed=5)[0]
        traj = simulate(sys5, feedback_law(sys5), psi0, 50.0, 0.01)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(2, 8),
        gain_k=st.floats(0.01, 100.0),
        level=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        bang=st.booleans(),
    )
    def test_unit_norm_on_random_systems(self, dim, gain_k, level, seed, bang):
        # A strong drive may trip the drift guard; a run that completes keeps
        # every recorded state on the unit sphere.
        rng = np.random.default_rng(seed)
        sys = random_system(rng, dim, level, gain_k)
        law = bang_bang_law(sys, BangBangSpec()) if bang else feedback_law(sys)
        try:
            traj = simulate(sys, law, random_unit_complex(rng, dim), 2.0, 0.01)
        except NumericalError:
            return
        assert np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)) <= 1e-12

    def test_per_step_drift_before_renormalization(self, sys5):
        from lyapsim import _kernels

        psi0 = seeded_initial_states(5, 1, seed=5)[0]
        traj = simulate(sys5, feedback_law(sys5), psi0, 50.0, 0.01)
        worst = 0.0
        for i in range(len(traj) - 1):
            _, drift = _kernels.rk4_step(sys5.h0, sys5.h1, traj.fields[i], 0.01, traj.states[i])
            worst = max(worst, drift)
        assert worst <= 1e-8

    def test_norm_drift_guard(self, sys5, rng):
        law = PiecewiseConstantLaw([(1.0, 1e7)])
        with pytest.raises(NumericalError):
            simulate(sys5, law, random_unit_complex(rng, 5), 1.0, 0.01)

    def test_horizon_shorter_than_step(self, sys5):
        with pytest.raises(InputError):
            simulate(sys5, feedback_law(sys5), basis(0), 0.001, 0.01)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_non_finite_horizon(self, sys5, horizon):
        with pytest.raises(InputError, match="^horizon must be finite"):
            simulate(sys5, feedback_law(sys5), basis(0), horizon, 0.01)

    def test_records_initial_condition_first(self, sys5, rng):
        psi0 = random_unit_complex(rng, 5)
        traj = simulate(sys5, feedback_law(sys5), psi0, 1.0, 0.01)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.states[0], psi0)
        assert len(traj) == 101

    def test_integrator_order_on_fixed_field(self, sys5, rng):
        # Field held fixed so the refinement probes RK4 itself, not the
        # zero-order hold of the feedback sampling.
        psi0 = random_unit_complex(rng, 5)
        law = PiecewiseConstantLaw([(5.0, 0.3)])
        xs = {
            dt: simulate(sys5, law, psi0, 5.0, dt).final_state
            for dt in (0.02, 0.01, 0.005)
        }
        e1 = np.max(np.abs(xs[0.02] - xs[0.01]))
        e2 = np.max(np.abs(xs[0.01] - xs[0.005]))
        order = np.log2(e1 / e2)
        assert order >= 3.5


class TestPropagateExact:
    def test_free_evolution_phases(self, sys5):
        traj = propagate_exact(sys5, [(2.0, 0.0)], basis(0))
        assert np.allclose(traj.final_state, np.exp(-0.4j) * basis(0), atol=1e-12)

    def test_unitarity(self, sys5, rng):
        psi0 = random_unit_complex(rng, 5)
        segs = [(0.7, 0.3), (1.4, -0.2), (0.9, 0.05)]
        traj = propagate_exact(sys5, segs, psi0)
        assert abs(np.linalg.norm(traj.final_state) - 1.0) <= 1e-10

    def test_matches_rk4_on_piecewise_field(self, sys5, rng):
        psi0 = random_unit_complex(rng, 5)
        segs = [(2.0, 0.4), (2.0, -0.3), (2.0, 0.1)]
        exact = propagate_exact(sys5, segs, psi0)
        approx = simulate(sys5, PiecewiseConstantLaw(segs), psi0, 6.0, 2.0 / 1000)
        assert np.max(np.abs(exact.final_state - approx.final_state)) <= 1e-6

    def test_rejects_bad_segments(self, sys5):
        with pytest.raises(InputError):
            propagate_exact(sys5, [], basis(0))
        with pytest.raises(InputError):
            propagate_exact(sys5, [(0.0, 1.0)], basis(0))

    @pytest.mark.parametrize(
        "segment, part",
        [((np.nan, 0.1), "duration"), ((np.inf, 0.1), "duration"),
         ((0.1, np.nan), "value"), ((0.1, -np.inf), "value")],
    )
    def test_non_finite_segments_name_their_index(self, segment, part):
        with pytest.raises(InputError, match=rf"^segments\[1\]: {part} must be"):
            PiecewiseConstantLaw([(0.5, 0.2), segment])


class TestTrajectory:
    def test_validation_rejects_inconsistent_arrays(self, sys5):
        from lyapsim import Trajectory

        times = np.array([0.0, 1.0])
        states = np.zeros((2, 5), dtype=np.complex128)
        states[:, 0] = 1.0
        with pytest.raises(InputError):
            Trajectory(times=times, states=states, fields=np.zeros(2),
                       lyapunov=np.array([0.0, 0.3]), fidelity=np.array([1.0, 1.0]))
        with pytest.raises(InputError):
            Trajectory(times=np.array([0.0, 0.0]), states=states, fields=np.zeros(2),
                       lyapunov=np.zeros(2), fidelity=np.ones(2))
        with pytest.raises(InputError):
            Trajectory(times=times, states=states, fields=np.zeros(1),
                       lyapunov=np.zeros(2), fidelity=np.ones(2))

    def test_only_a_reduced_record_keeps_two_states(self):
        from lyapsim import Trajectory

        def make(n_states, reduced):
            states = np.zeros((n_states, 5), dtype=np.complex128)
            states[:, 0] = 1.0
            return Trajectory(times=np.arange(3.0), states=states, fields=np.zeros(3),
                              lyapunov=np.zeros(3), fidelity=np.ones(3), reduced=reduced)

        assert not make(3, False).reduced
        assert make(2, True).reduced
        for n_states, reduced in ((2, False), (3, True), (1, True)):
            with pytest.raises(InputError, match="every sample"):
                make(n_states, reduced)

    def test_sample_lookup(self, sys5):
        traj = simulate(sys5, feedback_law(sys5), basis(1), 1.0, 0.01)
        assert traj.index_at(0.0) == 0
        assert traj.index_at(0.504) == 50
        assert traj.index_at(99.0) == 100

    def test_lyapunov_fidelity_sum(self, sys5, rng):
        psi0 = random_unit_complex(rng, 5)
        traj = simulate(sys5, feedback_law(sys5), psi0, 5.0, 0.01)
        assert np.max(np.abs(traj.lyapunov + traj.fidelity - 1.0)) <= 1e-12


class TestGenericLoop:
    def test_generic_path_matches_kernel(self, sys5, rng):
        # A user law through the field(t, psi) hook runs the built-in
        # feedback law's arithmetic bit for bit; both follow the per-step
        # reference loop.
        class UserFeedback(FieldLaw):
            def field(self, t, psi):
                return control_field(psi, sys5)

        psi0 = random_unit_complex(rng, 5)
        fast = simulate(sys5, feedback_law(sys5), psi0, 10.0, 0.01)
        user = simulate(sys5, UserFeedback(), psi0, 10.0, 0.01)
        assert np.array_equal(fast.states, user.states)
        assert np.array_equal(fast.fields, user.fields)
        states, fields, bad_step = oracle_run(sys5, psi0, 10.0, 0.01, feedback_at(sys5))
        assert bad_step == -1
        assert np.max(np.abs(fast.fields - fields)) <= 1e-12
        assert np.max(np.abs(fast.states - states)) <= 1e-12

    def test_custom_python_law(self, sys5):
        class ConstantLaw(FieldLaw):
            def field(self, t, psi):
                return 0.25

        traj = simulate(sys5, ConstantLaw(), basis(1), 2.0, 0.01)
        exact = propagate_exact(sys5, [(2.0, 0.25)], basis(1))
        assert np.max(np.abs(traj.final_state - exact.final_state)) <= 1e-9

    def test_user_law_sees_each_step_start(self, sys5, rng):
        seen = []

        class Recorder(FieldLaw):
            def field(self, t, psi):
                seen.append((t, psi.copy()))
                return 0.1

        traj = simulate(sys5, Recorder(), random_unit_complex(rng, 5), 1.0, 0.01)
        assert np.array_equal([t for t, _ in seen], traj.times)
        assert np.array_equal([psi for _, psi in seen], traj.states)


class _HalfFeedback(FieldLaw):
    """A user law: half the feedback of the state it is given."""

    def __init__(self, sys):
        self.sys = sys

    def field(self, t, psi):
        return 0.5 * control_field(psi, self.sys)


def _every_law_kind(sys, psi0, horizon):
    reference = simulate(sys, feedback_law(sys), psi0, horizon, 0.01)
    return {
        "feedback": feedback_law(sys),
        "history": delayed_law(sys, DelaySpec(0.5, "history")),
        "taylor": delayed_law(sys, DelaySpec(-0.5, "taylor")),
        "replay": delayed_law(sys, DelaySpec(-0.3, "replay"), reference),
        "pulses": pulsed_law(sys, PulseTrainSpec(7, horizon), reference),
        "piecewise": PiecewiseConstantLaw([(7.0, 0.3), (0.01, -0.5), (13.0, 0.1)]),
        # Holds of 1000 steps: the one at step 2000 starts with fewer free
        # ring rows than it is long.
        "bang": bang_bang_law(sys, BangBangSpec(hold=10.0)),
        "user": _HalfFeedback(sys),
    }


class TestReducedRecord:
    @pytest.mark.parametrize("target", ["preset", "random"])
    @pytest.mark.parametrize(
        "kind", ["feedback", "history", "taylor", "replay", "pulses", "piecewise", "bang", "user"]
    )
    def test_matches_the_full_record(self, sys5, kind, target):
        sys = sys5 if target == "preset" else random_system(np.random.default_rng(5), 5, 2, 1.0)
        if target == "random":
            assert np.count_nonzero(np.abs(sys.target) > 1e-3) == 5
        psi0 = seeded_initial_states(5, 1, seed=3)[0]
        law = _every_law_kind(sys, psi0, 30.0)[kind]
        assert 30.0 / 0.01 > RING_ROWS  # the ring wraps
        full = simulate(sys, law, psi0, 30.0, 0.01)
        reduced = simulate(sys, law, psi0, 30.0, 0.01, states=False)
        assert reduced.reduced and not full.reduced
        assert reduced.states.shape == (2, 5)
        for name in ("times", "fields", "lyapunov", "fidelity"):
            assert np.array_equal(getattr(reduced, name), getattr(full, name)), name
        assert np.array_equal(reduced.states[0], full.states[0])
        assert np.array_equal(reduced.final_state, full.final_state)

    @pytest.mark.parametrize("states", [True, False])
    @pytest.mark.parametrize("held", [True, False])
    def test_drift_failure_at_the_same_step(self, sys5, states, held):
        # Step 2500 lies past the reduced ring's first wrap.
        class Blowup(FieldLaw):
            def field(self, t, psi):
                return 1e8 if t >= 24.999 else 0.1

        law = PiecewiseConstantLaw([(25.0, 0.1), (5.0, 1e8)]) if held else Blowup()
        psi0 = seeded_initial_states(5, 1, seed=7)[0]
        with pytest.raises(NumericalError, match="at step 2500 "):
            simulate(sys5, law, psi0, 30.0, 0.01, states=states)

    def test_peak_memory_without_states(self):
        # The d = 16 trial of the dimension-scaling study.
        rng = derive_rng(0, 16, 0)
        sys16, _ = random_scaling_instance_with_retries(16, rng)
        psi0 = random_initial_state(16, rng)

        def peak(horizon, states):
            tracemalloc.start()
            try:
                simulate(sys16, feedback_law(sys16), psi0, horizon, 0.01, states=states)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # tracemalloc sees the states array of a shorter run that keeps them.
        assert peak(30.0, True) > 3001 * 16 * 16
        assert peak(300.0, False) < 30001 * 16 * 16 / 4

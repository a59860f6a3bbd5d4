import dataclasses

import numpy as np
import pytest

from lyapsim import (
    DelaySpec,
    InputError,
    control_field,
    delay_sweep,
    delayed_law,
    feedback_law,
    seeded_initial_states,
    simulate,
)

from helpers import altered_systems


@pytest.fixture(scope="module")
def psi0():
    return seeded_initial_states(5, 1, seed=7)[0]


class TestDelaySpec:
    def test_history_requires_nonnegative_tau(self):
        with pytest.raises(InputError):
            DelaySpec(tau=-0.5, mode="history")

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau(self, tau):
        with pytest.raises(InputError, match="^tau must be finite"):
            DelaySpec(tau=tau)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            DelaySpec(tau=0.5, mode="predictive")

    def test_auto_resolution(self):
        assert DelaySpec(tau=0.5).resolved_mode() == "history"
        assert DelaySpec(tau=0.0).resolved_mode() == "history"
        assert DelaySpec(tau=-0.5).resolved_mode() == "taylor"


class TestDelayedLaw:
    def test_zero_delay_reproduces_raw_loop(self, sys5, psi0):
        raw = simulate(sys5, feedback_law(sys5), psi0, 30.0, 0.01)
        for mode in ("history", "taylor"):
            law = delayed_law(sys5, DelaySpec(0.0, mode))
            traj = simulate(sys5, law, psi0, 30.0, 0.01)
            assert np.max(np.abs(traj.states - raw.states)) <= 1e-12
        law = delayed_law(sys5, DelaySpec(0.0, "replay"), reference=raw)
        traj = simulate(sys5, law, psi0, 30.0, 0.01)
        assert np.max(np.abs(traj.states - raw.states)) <= 1e-12

    def test_history_prehistory_is_silent(self, sys5, psi0):
        traj = simulate(sys5, delayed_law(sys5, DelaySpec(1.0, "history")), psi0, 30.0, 0.01)
        assert np.all(traj.fields[:100] == 0.0)
        assert np.any(traj.fields[100:] != 0.0)

    def test_history_field_is_delayed_feedback(self, sys5, psi0):
        tau, dt = 0.5, 0.01
        m = 50
        traj = simulate(sys5, delayed_law(sys5, DelaySpec(tau, "history")), psi0, 20.0, dt)
        for i in (m, 321, 1999):
            expected = control_field(traj.states[i - m], sys5)
            assert traj.fields[i] == pytest.approx(expected, abs=1e-15)

    def test_replay_requires_reference(self, sys5):
        with pytest.raises(InputError):
            delayed_law(sys5, DelaySpec(0.5, "replay"))

    def test_replay_grid_mismatch(self, sys5, psi0):
        ref = simulate(sys5, feedback_law(sys5), psi0, 30.0, 0.02)
        law = delayed_law(sys5, DelaySpec(0.5, "replay"), reference=ref)
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 30.0, 0.01)

    def test_replay_coverage_check(self, sys5, psi0):
        ref = simulate(sys5, feedback_law(sys5), psi0, 10.0, 0.01)
        law = delayed_law(sys5, DelaySpec(0.5, "replay"), reference=ref)
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 30.0, 0.01)

    def test_replay_shifts_reference_field(self, sys5, psi0):
        ref = simulate(sys5, feedback_law(sys5), psi0, 20.0, 0.01)
        law = delayed_law(sys5, DelaySpec(0.3, "replay"), reference=ref)
        traj = simulate(sys5, law, psi0, 20.0, 0.01)
        assert np.array_equal(traj.fields[30:], ref.fields[: len(ref) - 30])
        assert np.all(traj.fields[:30] == 0.0)

    def test_replay_runs_only_on_its_design_system(self, sys5, psi0):
        ref = simulate(sys5, feedback_law(sys5), psi0, 20.0, 0.01)
        law = delayed_law(sys5, DelaySpec(0.3, "replay"), reference=ref)
        for name, other in altered_systems(sys5).items():
            with pytest.raises(InputError, match=rf"another system \({name} differ"):
                simulate(other, law, psi0, 20.0, 0.01)
        same = simulate(dataclasses.replace(sys5), law, psi0, 20.0, 0.01)
        assert np.array_equal(same.states, simulate(sys5, law, psi0, 20.0, 0.01).states)

    def test_tau_beyond_horizon_rejected(self, sys5, psi0):
        law = delayed_law(sys5, DelaySpec(50.0, "history"))
        with pytest.raises(InputError):
            simulate(sys5, law, psi0, 30.0, 0.01)

    def test_taylor_close_to_history_at_small_tau(self, sys5, psi0):
        dist = {}
        for tau in (0.01, 0.1):
            th = simulate(sys5, delayed_law(sys5, DelaySpec(tau, "history")), psi0, 200.0, 0.01)
            tt = simulate(sys5, delayed_law(sys5, DelaySpec(tau, "taylor")), psi0, 200.0, 0.01)
            dist[tau] = np.max(np.abs(th.final_state - tt.final_state))
        assert dist[0.1] >= 5.0 * dist[0.01]

    def test_taylor_history_deviation_order(self, sys5, psi0):
        # The two closed loops differ at O(tau^2): the O(tau) trajectory
        # perturbations re-enter the applied fields as a cross term that
        # dominates the tau^3 expansion truncation.
        dists = []
        for tau in (0.02, 0.04, 0.08):
            th = simulate(sys5, delayed_law(sys5, DelaySpec(tau, "history")), psi0, 20.0, 0.01)
            tt = simulate(sys5, delayed_law(sys5, DelaySpec(tau, "taylor")), psi0, 20.0, 0.01)
            dists.append(np.max(np.abs(th.final_state - tt.final_state)))
        orders = [np.log2(dists[i + 1] / dists[i]) for i in range(2)]
        assert min(orders) >= 1.5


class TestDelaySweep:
    def test_zero_tau_matches_baseline(self, sys5):
        points = delay_sweep(sys5, [0.0], n_states=4, seed=7, horizon=50.0, dt=0.01)
        finals = [
            simulate(sys5, feedback_law(sys5), psi0, 50.0, 0.01).final_fidelity
            for psi0 in seeded_initial_states(5, 4, seed=7)
        ]
        assert points[0].mean_fidelity == pytest.approx(np.mean(finals), abs=1e-12)
        assert points[0].n == 4

    def test_deterministic(self, sys5):
        a = delay_sweep(sys5, [-0.2, 0.0, 0.4], n_states=3, seed=9, horizon=20.0, dt=0.01)
        b = delay_sweep(sys5, [-0.2, 0.0, 0.4], n_states=3, seed=9, horizon=20.0, dt=0.01)
        assert a == b

    def test_replay_mode_sweep(self, sys5):
        points = delay_sweep(
            sys5, [-0.5, 0.5], n_states=2, seed=7, mode="replay", horizon=30.0, dt=0.01
        )
        assert len(points) == 2
        assert all(0.0 <= p.mean_fidelity <= 1.0 for p in points)

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyapsim import (
    ConfigError,
    Trajectory,
    build_config,
    check_convergence,
    config_to_dict,
    convergence_time,
    delay_sweep,
    derive_rng,
    feedback_law,
    preset_5dim,
    pulse_count_sweep,
    random_initial_state,
    run_dimension_scaling,
    simulate,
)
from lyapsim.experiments import (
    CONVERGENCE_HOLD,
    MIN_SPECTRAL_GAP,
    PRESETS,
    _scaling_trial,
    random_scaling_instance_with_retries,
)

from helpers import loop_convergence_time


class TestPreset5Dim:
    def test_hamiltonians_exact(self):
        sys5 = preset_5dim()
        assert np.array_equal(np.diag(sys5.h0).real, [0.2, 1.0, 0.8, 0.5, 0.6])
        assert np.array_equal(sys5.h0, np.diag(np.diag(sys5.h0)))
        expected_h1 = np.zeros((5, 5))
        expected_h1[0, 1:] = 1.0
        expected_h1[1:, 0] = 1.0
        assert np.array_equal(sys5.h1.real, expected_h1)
        assert np.all(sys5.h1.imag == 0.0)

    def test_target_is_ground_state(self):
        sys5 = preset_5dim()
        assert np.array_equal(sys5.target, np.eye(5, dtype=np.complex128)[0])
        energy = np.vdot(sys5.target, sys5.h0 @ sys5.target).real
        assert energy == pytest.approx(0.2, abs=1e-15)
        assert sys5.gain_k == 1.0

    def test_convergence_preconditions(self):
        assert check_convergence(preset_5dim()).invariant_set_trivial


class TestRandomInitialState:
    def test_unit_norm_real_nonnegative(self):
        rng = derive_rng(3, 0, 0)
        psi = random_initial_state(5, rng)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
        assert np.all(psi.imag == 0.0)
        assert np.all(psi.real >= 0.0)

    def test_deterministic(self):
        a = random_initial_state(8, derive_rng(42, 0, 1))
        b = random_initial_state(8, derive_rng(42, 0, 1))
        assert np.array_equal(a, b)

    def test_component_exchangeability(self):
        rng = derive_rng(123, 9)
        samples = np.array([random_initial_state(5, rng).real for _ in range(10_000)])
        means = samples.mean(axis=0)
        se = samples.std(axis=0).max() / np.sqrt(len(samples))
        assert np.max(means) - np.min(means) <= 6 * se


def random_instance(dim, rng):
    return random_scaling_instance_with_retries(dim, rng)[0]


class TestRandomScalingInstance:
    @pytest.mark.parametrize("dim", [4, 7, 12])
    def test_structure(self, dim):
        sys_d = random_instance(dim, derive_rng(5, dim, 0))
        diag = np.diag(sys_d.h0).real
        assert np.array_equal(sys_d.h0, np.diag(np.diag(sys_d.h0)))
        assert diag.max() == 1.0
        assert np.all(np.diff(diag) >= MIN_SPECTRAL_GAP)
        assert sys_d.h1[0, 0] == 0.0
        assert np.all(sys_d.h1[0, 1:] == 1.0)
        assert np.all(sys_d.h1[1:, 0] == 1.0)
        assert np.all(sys_d.h1[1:, 1:] == 0.0)
        assert np.array_equal(sys_d.target, np.eye(dim, dtype=np.complex128)[0])

    def test_every_instance_passes_precondition_check(self):
        for dim in (4, 6, 9):
            for trial in range(5):
                sys_d = random_instance(dim, derive_rng(17, dim, trial))
                assert check_convergence(sys_d).invariant_set_trivial

    def test_deterministic(self):
        a = random_instance(6, derive_rng(1, 6, 2))
        b = random_instance(6, derive_rng(1, 6, 2))
        assert np.array_equal(a.h0, b.h0)


def synthetic_trajectory(times, fidelity):
    times = np.asarray(times, dtype=float)
    fid = np.asarray(fidelity, dtype=float)
    dim = 2
    states = np.zeros((len(times), dim), dtype=np.complex128)
    states[:, 0] = np.sqrt(fid)
    states[:, 1] = np.sqrt(1 - fid)
    return Trajectory(
        times=times,
        states=states,
        fields=np.zeros(len(times)),
        lyapunov=1 - fid,
        fidelity=fid,
    )


@st.composite
def fidelity_traces(draw):
    """(times, fidelity, threshold): runs of samples at, above or below threshold."""
    threshold = draw(st.floats(1e-3, 1.0))
    value = st.one_of(
        st.just(threshold),
        st.floats(threshold, 1.0),
        st.floats(0.0, threshold, exclude_max=True),
    )
    runs = draw(st.lists(st.tuples(st.integers(1, 400), value), min_size=1, max_size=12))
    dt = draw(st.sampled_from([0.01, 0.1, 0.25, 1.0, 3.0]))
    fid = np.repeat([v for _, v in runs], [n for n, _ in runs])
    return np.arange(len(fid)) * dt, fid, threshold


def _dips(n, at):
    fid = np.ones(n)
    fid[at] = 0.5
    return fid


class TestConvergenceTime:
    @settings(max_examples=300, deadline=None)
    @given(fidelity_traces())
    @example((np.arange(30.0), np.ones(30), 0.95))  # all above
    @example((np.arange(30.0), np.zeros(30), 0.95))  # all below
    @example((np.arange(30.0), _dips(30, [0, 1, 15, 25]), 0.95))  # last dip within the hold of the horizon
    @example((np.arange(1200) * 0.01, _dips(1200, [100, 1150]), 0.95))
    # From t = 0.04 the dip at 10.040000000000001 is at the window's end, one
    # rounding step past t + 10; the 1e-12 slack counts it inside.
    @example((np.arange(1200) * 0.01, _dips(1200, [0, 1, 2, 3, 1004]), 0.95))
    @example((np.arange(1.0), np.ones(1), 1.0))
    def test_matches_sample_loop(self, trace):
        times, fid, threshold = trace
        traj = synthetic_trajectory(times, fid)
        expected = loop_convergence_time(traj, threshold, CONVERGENCE_HOLD)
        assert convergence_time(traj, threshold) == expected

    def test_always_converged(self):
        traj = synthetic_trajectory(np.arange(30.0), np.ones(30))
        assert convergence_time(traj, 0.95) == 0.0

    def test_never_converged(self):
        traj = synthetic_trajectory(np.arange(30.0), np.full(30, 0.5))
        assert convergence_time(traj, 0.95) is None

    def test_sustained_crossing(self):
        times = np.arange(0.0, 100.0)
        fid = np.where(times >= 42.0, 0.97, 0.1)
        traj = synthetic_trajectory(times, fid)
        assert convergence_time(traj, 0.95) == 42.0

    def test_transient_spike_rejected(self):
        times = np.arange(0.0, 100.0)
        fid = np.full_like(times, 0.5)
        fid[10:15] = 0.99  # five-unit excursion, shorter than the hold window
        fid[60:] = 0.99
        traj = synthetic_trajectory(times, fid)
        assert convergence_time(traj, 0.95) == 60.0

    def test_crossing_near_horizon_counts(self):
        # hold window is clipped at the horizon
        times = np.arange(0.0, 20.0)
        fid = np.where(times >= 15.0, 0.99, 0.1)
        traj = synthetic_trajectory(times, fid)
        assert convergence_time(traj, 0.95) == 15.0

    def test_threshold_monotonicity(self, sys5):
        psi0 = random_initial_state(5, derive_rng(8, 0, 0))
        traj = simulate(sys5, feedback_law(sys5), psi0, 200.0, 0.01)
        t_low = convergence_time(traj, 0.90)
        t_high = convergence_time(traj, 0.95)
        assert t_low is not None and t_high is not None
        assert t_low <= t_high


_POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_config_mappings(draw):
    """Config mappings build_config accepts: every preset, each optional key
    within its validated range, horizon >= dt and fidelity_time <= horizon."""
    horizon = draw(_POSITIVE)
    mapping = {
        "preset": draw(st.sampled_from(PRESETS)),
        "horizon": horizon,
        "dt": draw(st.floats(0.0, horizon, exclude_min=True)),
        "fidelity_time": draw(st.floats(0.0, horizon, exclude_min=True)),
    }
    optional = {
        "seed": st.integers(0, 2**63),
        "n_states": st.integers(1, 10**6),
        "n_pulses": st.integers(1, 10**6),
        "gain_k": _POSITIVE,
        "f0": _POSITIVE,
        "tau": _FINITE,
        "deadband": st.floats(0.0, 1e300),
        "threshold": st.floats(0.0, 1.0, exclude_min=True),
        "delay_mode": st.sampled_from(["auto", "history", "replay", "taylor"]),
        "full_state": st.booleans(),
        "taus": st.lists(_FINITE, min_size=1, max_size=8),
        "pulse_counts": st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
        "dims": st.lists(st.integers(2, 1000), min_size=1, max_size=8).map(sorted),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            mapping[key] = draw(values)
    return mapping


class TestConfig:
    def test_minimal_fig4_defaults(self):
        cfg = build_config({"preset": "fig4", "seed": 7})
        assert cfg.f0 == 0.1
        assert cfg.horizon == 200.0
        assert cfg.dt == 0.01
        assert cfg.gain_k == 1.0

    def test_fig5_overrides(self):
        cfg = build_config({"preset": "fig5"})
        assert cfg.horizon == 300.0
        assert cfg.n_states == 30
        assert cfg.dims == list(range(4, 17))
        assert cfg.fidelity_time == 150.0

    def test_negative_dt_names_key(self):
        with pytest.raises(ConfigError, match="dt"):
            build_config({"preset": "fig1", "dt": -0.01})

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            build_config({"preset": "fig1", "seed": -3})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wibble"):
            build_config({"preset": "fig1", "wibble": 3})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            build_config({"preset": "fig9"})

    def test_list_validation_names_index(self):
        with pytest.raises(ConfigError, match=r"dims\[1\]"):
            build_config({"dims": [4, 1]})

    def test_fidelity_time_beyond_horizon_rejected(self):
        with pytest.raises(ConfigError, match="fidelity_time"):
            build_config({"preset": "fig5", "horizon": 100.0})

    @settings(max_examples=300, deadline=None)
    @given(valid_config_mappings())
    @example({"preset": "fig3", "seed": 11, "pulse_counts": [10, 50], "dt": 0.02})
    def test_round_trip(self, mapping):
        cfg = build_config(mapping)
        assert build_config(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


class TestDimensionScaling:
    def test_trials_are_deterministic_and_match_direct_loop(self):
        cfg = build_config(
            {"preset": "fig5", "seed": 13, "dims": [5], "n_states": 3,
             "horizon": 160.0, "fidelity_time": 150.0}
        )
        (row,) = run_dimension_scaling(cfg)
        assert row.n_trials == 3
        direct = [
            _scaling_trial((13, 5, t, 160.0, 0.01, 0.95, 150.0)) for t in range(3)
        ]
        times = [t if t is not None else 160.0 for t, _, _ in direct]
        assert row.mean_convergence_time == pytest.approx(np.mean(times), abs=1e-12)
        assert row.mean_fidelity == pytest.approx(np.mean([f for _, f, _ in direct]), abs=1e-12)

    def test_nonconverged_counted_at_horizon(self):
        cfg = build_config(
            {"preset": "fig5", "seed": 2, "dims": [16], "n_states": 2,
             "horizon": 160.0, "fidelity_time": 150.0}
        )
        (row,) = run_dimension_scaling(cfg)
        if row.n_nonconverged == row.n_trials:
            assert row.mean_convergence_time == pytest.approx(160.0)


class TestPairedSweep:
    @pytest.mark.parametrize("sweep", ["replay-delay", "pulse-count"])
    def test_design_runs_are_not_held(self, sys5, sweep):
        # The trials keep only what their laws read of each state's design
        # run, so 6 more states must cost less than three design-state arrays.
        def peak(n_states):
            tracemalloc.start()
            try:
                if sweep == "replay-delay":
                    delay_sweep(sys5, [0.5], n_states, seed=7, mode="replay", horizon=20.0)
                else:
                    pulse_count_sweep(sys5, [10], n_states, seed=7, horizon=20.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations are not the sweep's
        state_bytes = 2001 * 5 * 16
        assert peak(8) - peak(2) < 3 * state_bytes

import json

import numpy as np
import pytest

from lyapsim import ConfigError, Trajectory, build_config, feedback_law, preset_5dim, simulate
from lyapsim import cli
from lyapsim.cli import (
    main,
    parse_config,
    serialize_config,
    write_trajectory_csv,
)

from helpers import reference_trajectory_csv


@pytest.fixture(scope="module")
def short_trajectory():
    sys5 = preset_5dim()
    psi0 = np.zeros(5, dtype=np.complex128)
    psi0[1] = 1.0
    return simulate(sys5, feedback_law(sys5), psi0, 1.0, 0.01)


class TestParseConfig:
    def test_minimal_fig4(self):
        cfg = parse_config('{"preset":"fig4","seed":7}')
        assert cfg.preset == "fig4"
        assert cfg.seed == 7
        assert cfg.f0 == 0.1
        assert cfg.horizon == 200.0

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_negative_dt(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config('{"preset":"fig1","dt":-1}')

    def test_round_trip(self):
        cfg = build_config(
            {"preset": "fig1", "seed": 3, "taus": [-0.5, 0.0, 0.5], "horizon": 60.0,
             "n_states": 4, "full_state": True}
        )
        assert parse_config(serialize_config(cfg)) == cfg


class TestTrajectoryCsv:
    def test_layout(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,f,V,F"
        assert len(lines) == len(short_trajectory) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == short_trajectory.fidelity[0]

    def test_round_trip_exact(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 2], short_trajectory.lyapunov)
        assert np.array_equal(rows[:, 3], short_trajectory.fidelity)

    def test_full_state_columns(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path, full_state=True)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[4:6] == ["re_psi_1", "im_psi_1"]
        assert len(header) == 4 + 10
        row = np.array([float(x) for x in lines[1].split(",")])
        psi0 = row[4::2] + 1j * row[5::2]
        assert np.array_equal(psi0, short_trajectory.states[0])

    def test_lf_line_endings(self, short_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path)
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("full_state", [False, True])
    def test_matches_per_cell_format(self, short_trajectory, tmp_path, full_state):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(short_trajectory, path, full_state)
        assert path.read_bytes() == reference_trajectory_csv(short_trajectory, full_state).encode()

    @pytest.mark.parametrize("full_state", [False, True])
    def test_edge_values_and_strided_states(self, tmp_path, full_state):
        wide = np.zeros((4, 6), dtype=np.complex128)
        states = wide[:, ::2]  # not contiguous
        states.real[:] = [[-0.0, 5e-324, 1e300], [1.0, -1e300, 0.1], [0.0, -5e-324, 2.0], [3.0, 4.0, 5.0]]
        states.imag[:] = [[5e-324, -0.0, -1e300], [0.0, 1e300, -0.1], [-0.0, 1.0, 1e-300], [6.0, 7.0, 8.0]]
        fid = np.array([1.0, 0.0, 5e-324, -0.0])
        traj = Trajectory(
            times=np.array([-0.0, 5e-324, 1.0, 1e300]),
            states=states,
            fields=np.array([-0.0, 5e-324, -1e300, 1e300]),
            lyapunov=1.0 - fid,
            fidelity=fid,
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, full_state)
        text = path.read_text()
        assert text == reference_trajectory_csv(traj, full_state)
        assert text.splitlines()[1].startswith("-0,-0,0,1")
        assert "4.9406564584124654e-324" in text


class TestMain:
    def test_check_exits_zero(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "invariant set trivial:  True" in out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_flag_value(self, capsys):
        assert main(["simulate", "--dt", "-0.5", "--horizon", "1"]) == 1

    def test_simulate_is_reproducible(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"preset":"fig4","seed":7,"horizon":20.0}')
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_manifest_checksums_and_config_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--preset", "fig4", "--seed", "9",
                     "--horizon", "20", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        import hashlib

        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert manifest["outputs"]["trajectory.csv"] == digest
        assert build_config(manifest["config"]) == build_config(
            {"preset": "fig4", "seed": 9, "horizon": 20.0}
        )

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"preset":"fig4","seed":7,"horizon":20.0}')
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 8

    def test_delay_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["delay-sweep", "--seed", "7", "--horizon", "20",
                     "--n-states", "2", "--taus", "0,0.5", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "parameter,mean_F,std_F,n"
        assert len(lines) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["notes"]["paired_initial_states"] is True

    def test_pulse_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "psweep"
        assert main(["pulse-sweep", "--seed", "7", "--horizon", "30",
                     "--n-states", "2", "--pulse-counts", "10,30", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_dim_scaling_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"preset":"fig5","seed":5,"dims":[4,5],"n_states":2,'
            '"horizon":160.0,"fidelity_time":150.0}'
        )
        out = tmp_path / "scaling"
        assert main(["dim-scaling", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "scaling.csv").read_text().splitlines()
        assert lines[0] == "dim,mean_convergence_time,n_nonconverged,mean_F_at_150"
        assert len(lines) == 3

    def test_scaling_column_names_fidelity_time(self, tmp_path, capsys):
        out = tmp_path / "scaling"
        assert main(["dim-scaling", "--dims", "4", "--n-states", "1", "--horizon", "10",
                     "--config", str(self._config(tmp_path, '{"fidelity_time":5}')),
                     "--out", str(out)]) == 0
        header = (out / "scaling.csv").read_text().splitlines()[0]
        assert header == "dim,mean_convergence_time,n_nonconverged,mean_F_at_5"

    @staticmethod
    def _config(tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        return path

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("simulate", '{"preset":"fig1","tau":NaN}', "tau"),
            ("bang-bang", '{"preset":"fig4","deadband":Infinity}', "deadband"),
            ("delay-sweep", '{"taus":[0.5,-Infinity]}', "taus[1]"),
        ],
    )
    def test_non_finite_values_are_config_errors(self, command, text, key, tmp_path, capsys):
        code = main([command, "--config", str(self._config(tmp_path, text)),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"error: {key}:" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "boom"
        code = main(["simulate", "--preset", "custom", "--gain-k", "1e9",
                     "--horizon", "5", "--seed", "1", "--out", str(out)])
        assert code == 2

    @pytest.mark.parametrize(
        "dims, code, err",
        [
            # 1001 levels 1e-3 apart with the top at 1 put the lowest at 0,
            # outside (0, 1]: the smallest size no spectrum exists for.
            ("[4, 1001]", 1, "error: dims[1]: 1001 levels in (0, 1] cannot keep spectral gaps"),
            # 300 levels can, but uniform draws practically never do.
            ("[300]", 2, "numerical failure: could not draw a 300-level spectrum"),
        ],
    )
    def test_spectral_gap_bound_on_dims(self, dims, code, err, tmp_path, capsys):
        config = self._config(tmp_path, f'{{"preset":"fig5","n_states":1,"dims":{dims}}}')
        assert main(["dim-scaling", "--config", str(config), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err.startswith(err)

    def test_horizon_beyond_memory_is_a_config_error(self, tmp_path, capsys):
        code = main(["simulate", "--horizon", "1e12", "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon=1e+12 with dt=0.01 ")
        assert "Traceback" not in err

    def test_unexpected_exception_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(cfg, out_dir):
            return 1 / 0

        monkeypatch.setitem(cli._RUNNERS, "simulate", boom)
        code = main(["simulate", "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == "internal error: ZeroDivisionError: division by zero\n"

    def test_io_failure_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["simulate", "--preset", "fig4", "--horizon", "20",
                     "--out", str(blocker / "sub")])
        assert code == 3

    def test_bang_bang_command(self, tmp_path, capsys):
        out = tmp_path / "bb"
        assert main(["bang-bang", "--seed", "7", "--horizon", "50", "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("bang-bang: final fidelity")

    def test_fig5_preset_rejected_for_simulate(self, capsys):
        assert main(["simulate", "--preset", "fig5"]) == 1

    def test_simulate_delayed_preset(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        assert main(["simulate", "--preset", "fig1", "--seed", "7", "--horizon", "20",
                     "--tau", "0.5", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:50, 1] == 0.0)  # no signal before one delay has elapsed

    def test_simulate_pulsed_preset(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        assert main(["simulate", "--preset", "fig2", "--seed", "7", "--horizon", "20",
                     "--n-pulses", "5", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert len(np.unique(rows[:, 1])) == 5  # one amplitude per pulse

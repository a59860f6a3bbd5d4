"""Command-line front end: config parsing, CSV emission, run manifests.

Subcommands map onto the studies: `simulate` (single trajectory under the
preset's field law), `delay-sweep`, `pulse-sweep`, `bang-bang`, `dim-scaling`
and `check`. Every run writes its data as CSV plus a manifest.json carrying
the fully resolved config, base seed and sha256 checksums of the outputs, so
a run is reproducible byte for byte from its manifest. Summary statistics go
to stdout; bulk data goes to files.

Exit codes: 0 success, 1 config error, 2 numerical failure, 3 I/O error,
4 internal error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .control_law import check_convergence, feedback_law
from .delay import DelaySpec, delay_sweep, delayed_law
from .dynamics import Trajectory, simulate
from .errors import ConfigError, InputError, NumericalError
from .experiments import (
    BANG_BANG_STATE,
    ExperimentConfig,
    PRESETS,
    build_config,
    config_to_dict,
    derive_rng,
    preset_5dim,
    random_initial_state,
    run_dimension_scaling,
)
from .shaping import BangBangSpec, PulseTrainSpec, bang_bang_law, pulse_count_sweep, pulsed_law

_SUBCOMMAND_PRESET = {
    "simulate": "custom",
    "delay-sweep": "fig1",
    "pulse-sweep": "fig3",
    "bang-bang": "fig4",
    "dim-scaling": "fig5",
    "check": "custom",
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(traj: Trajectory, path, full_state: bool = False) -> None:
    """Write t,f,V,F rows (plus per-component re/im columns if requested).

    The whole table is formatted by one %-operation; '%.17g' % x and
    format(x, ".17g") are the same float conversion, so the cells are those
    of _fmt.
    """
    header = ["t", "f", "V", "F"]
    columns = [traj.times, traj.fields, traj.lyapunov, traj.fidelity]
    if full_state:
        dim = traj.states.shape[1]
        header += [f"{part}_psi_{i}" for i in range(1, dim + 1) for part in ("re", "im")]
        # The float view interleaves re/im per component, matching the header.
        columns.append(np.ascontiguousarray(traj.states, dtype=np.complex128).view(np.float64))
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1])
    body = "\n".join([row] * len(table)) % tuple(table.ravel().tolist())
    Path(path).write_text(",".join(header) + "\n" + body + "\n", newline="\n")


def write_sweep_csv(points, path) -> None:
    lines = ["parameter,mean_F,std_F,n"]
    for p in points:
        lines.append(
            f"{_fmt(p.parameter)},{_fmt(p.mean_fidelity)},{_fmt(p.std_fidelity)},{p.n}"
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_scaling_csv(rows, path, fidelity_time: float) -> None:
    lines = [f"dim,mean_convergence_time,n_nonconverged,mean_F_at_{fidelity_time:g}"]
    for r in rows:
        lines.append(
            f"{r.dim},{_fmt(r.mean_convergence_time)},{r.n_nonconverged},{_fmt(r.mean_fidelity)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON config into a validated ExperimentConfig with defaults."""
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return build_config(mapping)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config: parse_config(serialize_config(cfg)) == cfg."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig, files, notes=None) -> None:
    manifest = {
        "tool": "lyapsim",
        "version": __version__,
        "command": command,
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "outputs": {name: _sha256(out_dir / name) for name in files},
    }
    if notes:
        manifest["notes"] = notes
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", newline="\n"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lyapsim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lyapsim {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file")
    common.add_argument("--preset", choices=PRESETS)
    common.add_argument("--seed", type=int)
    common.add_argument("--out", metavar="DIR", default=".", help="output directory")
    common.add_argument("--horizon", type=float)
    common.add_argument("--dt", type=float)
    common.add_argument("--gain-k", dest="gain_k", type=float)
    common.add_argument("--n-states", dest="n_states", type=int)
    common.add_argument("--tau", type=float)
    common.add_argument("--taus", help="comma-separated delay list")
    common.add_argument("--mode", dest="delay_mode", choices=("auto", "history", "replay", "taylor"))
    common.add_argument("--n-pulses", dest="n_pulses", type=int)
    common.add_argument("--pulse-counts", dest="pulse_counts", help="comma-separated pulse counts")
    common.add_argument("--f0", type=float)
    common.add_argument("--deadband", type=float)
    common.add_argument("--dims", help="comma-separated dimension list")
    common.add_argument("--threshold", type=float)
    common.add_argument("--full-state", dest="full_state", action="store_true", default=None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _SUBCOMMAND_PRESET:
        sub.add_parser(name, parents=[common])
    return parser


def _parse_num_list(key: str, raw: str, kind):
    out = []
    for i, chunk in enumerate(raw.split(",")):
        try:
            out.append(kind(chunk))
        except ValueError:
            raise ConfigError(f"{key}[{i}]: expected a number, got {chunk!r}")
    return out


def _resolve_config(args) -> ExperimentConfig:
    mapping = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        try:
            mapping = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(mapping, dict):
            raise ConfigError("config must be a JSON object")

    overrides = {
        "preset": args.preset,
        "seed": args.seed,
        "horizon": args.horizon,
        "dt": args.dt,
        "gain_k": args.gain_k,
        "n_states": args.n_states,
        "tau": args.tau,
        "delay_mode": args.delay_mode,
        "n_pulses": args.n_pulses,
        "f0": args.f0,
        "deadband": args.deadband,
        "threshold": args.threshold,
        "full_state": args.full_state,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = value
    if args.taus is not None:
        mapping["taus"] = _parse_num_list("taus", args.taus, float)
    if args.pulse_counts is not None:
        mapping["pulse_counts"] = _parse_num_list("pulse_counts", args.pulse_counts, int)
    if args.dims is not None:
        mapping["dims"] = _parse_num_list("dims", args.dims, int)
    mapping.setdefault("preset", _SUBCOMMAND_PRESET[args.command])
    return build_config(mapping)


def _system(cfg: ExperimentConfig):
    sys5 = preset_5dim()
    if cfg.gain_k != sys5.gain_k:
        sys5 = replace(sys5, gain_k=cfg.gain_k)
    return sys5


def _initial_state(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    if cfg.preset == "fig4":
        state = BANG_BANG_STATE.astype(np.complex128)
        return state / np.sqrt(np.sum(np.abs(state) ** 2))
    return random_initial_state(dim, derive_rng(cfg.seed, 0, 0))


def _trajectory_for(cfg: ExperimentConfig, sys5) -> Trajectory:
    psi0 = _initial_state(cfg, sys5.dim)
    if cfg.preset == "fig1":
        spec = DelaySpec(cfg.tau, cfg.delay_mode)
        reference = None
        if spec.resolved_mode() == "replay":
            reference = simulate(sys5, feedback_law(sys5), psi0, cfg.horizon, cfg.dt)
        law = delayed_law(sys5, spec, reference)
    elif cfg.preset in ("fig2", "fig3"):
        law = pulsed_law(sys5, PulseTrainSpec(cfg.n_pulses, cfg.horizon))
    elif cfg.preset == "fig4":
        law = bang_bang_law(sys5, BangBangSpec(cfg.f0, cfg.deadband))
    elif cfg.preset == "custom":
        law = feedback_law(sys5)
    else:
        raise ConfigError(f"preset: {cfg.preset!r} is a sweep study; use its dedicated command")
    return simulate(sys5, law, psi0, cfg.horizon, cfg.dt)


def _cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> str:
    traj = _trajectory_for(cfg, _system(cfg))
    write_trajectory_csv(traj, out_dir / "trajectory.csv", cfg.full_state)
    _write_manifest(out_dir, "simulate", cfg, ["trajectory.csv"])
    return f"simulate: final fidelity {traj.final_fidelity:.6f}"


def _cmd_bang_bang(cfg: ExperimentConfig, out_dir: Path) -> str:
    sys5 = _system(cfg)
    law = bang_bang_law(sys5, BangBangSpec(cfg.f0, cfg.deadband))
    traj = simulate(sys5, law, _initial_state(cfg, sys5.dim), cfg.horizon, cfg.dt)
    write_trajectory_csv(traj, out_dir / "trajectory.csv", cfg.full_state)
    _write_manifest(out_dir, "bang-bang", cfg, ["trajectory.csv"])
    return f"bang-bang: final fidelity {traj.final_fidelity:.6f}"


def _cmd_delay_sweep(cfg: ExperimentConfig, out_dir: Path) -> str:
    points = delay_sweep(
        _system(cfg), cfg.taus, cfg.n_states, cfg.seed, cfg.delay_mode, cfg.horizon, cfg.dt
    )
    write_sweep_csv(points, out_dir / "sweep.csv")
    _write_manifest(
        out_dir, "delay-sweep", cfg, ["sweep.csv"], notes={"paired_initial_states": True}
    )
    mean = float(np.mean([p.mean_fidelity for p in points]))
    return f"delay-sweep: mean final fidelity {mean:.6f} over {len(points)} delays"


def _cmd_pulse_sweep(cfg: ExperimentConfig, out_dir: Path) -> str:
    points = pulse_count_sweep(
        _system(cfg), cfg.pulse_counts, cfg.n_states, cfg.seed, cfg.horizon, cfg.dt
    )
    write_sweep_csv(points, out_dir / "sweep.csv")
    _write_manifest(
        out_dir, "pulse-sweep", cfg, ["sweep.csv"], notes={"paired_initial_states": True}
    )
    mean = float(np.mean([p.mean_fidelity for p in points]))
    return f"pulse-sweep: mean final fidelity {mean:.6f} over {len(points)} counts"


def _cmd_dim_scaling(cfg: ExperimentConfig, out_dir: Path) -> str:
    rows = run_dimension_scaling(cfg)
    write_scaling_csv(rows, out_dir / "scaling.csv", cfg.fidelity_time)
    _write_manifest(out_dir, "dim-scaling", cfg, ["scaling.csv"])
    mean = float(np.mean([r.mean_fidelity for r in rows]))
    return f"dim-scaling: mean fidelity at t={cfg.fidelity_time:g} is {mean:.6f} across {len(rows)} dims"


def _cmd_check(cfg: ExperimentConfig, out_dir: Path) -> str:
    sys5 = _system(cfg)
    report = check_convergence(sys5)
    print(f"spectrum nondegenerate: {report.spectrum_nondegenerate}")
    print(f"min spectral gap:       {report.min_spectral_gap:.6g}")
    print("couplings |<Phi_j|H1|target>|:", " ".join(f"{c:.6g}" for c in report.couplings))
    print(f"invariant set trivial:  {report.invariant_set_trivial}")
    return f"check: invariant set trivial = {report.invariant_set_trivial}"


_RUNNERS = {
    "simulate": _cmd_simulate,
    "delay-sweep": _cmd_delay_sweep,
    "pulse-sweep": _cmd_pulse_sweep,
    "bang-bang": _cmd_bang_bang,
    "dim-scaling": _cmd_dim_scaling,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = _RUNNERS[args.command](cfg, out_dir)
        print(summary)
        return 0
    except SystemExit as exc:  # argparse --help / --version
        return int(exc.code or 0)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("usage: lyapsim COMMAND [options]; COMMAND is one of "
              f"{', '.join(_RUNNERS)}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

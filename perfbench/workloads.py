"""Workloads of the lyapsim benchmark and the checks on their outputs.

Each workload is one `lyapsim` CLI study at the paper's dt, horizon, taus,
pulse counts and dims; only the number of states (trials) per sweep point is
scaled down so that one CLI run takes seconds, not minutes. The workload
seed is passed to the CLI as `--seed`.

Output checks come in two kinds:

* invariants that hold for every seed (grid, ranges, counts, the manifest's
  sha256 values, unit norm and V + F = 1 on every full-state row);
* a comparison with `reference.json`, written by `make_reference.py` at the
  commit that defined the benchmark, for every seed it covers.

Tolerances of the reference comparison: every fidelity value (mean_F, std_F,
mean_F_at_*, V, F, state amplitudes) may move by FIDELITY_ATOL = 1e-7.
Reordered floating-point sums, as a batched or differently blocked
integrator produces, change these values by about 1e-12 (a prototype batched
RK4 agreed with the current path to 12 digits), while a wrong field law,
delay lookup or pulse amplitude moves a mean fidelity by 1e-4 or more.
Convergence times sit on the dt grid, so mean_convergence_time may move by
one step of one trial (dt / n_states). Integer columns, sweep parameters and
the quantized bang-bang field must match exactly; sample times to 1e-9.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

FIDELITY_ATOL = 1e-7
#: Unit norm, V + F = 1 and F = |<target|psi>|^2 hold to rounding in each row.
ROW_ATOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    csv_name: str
    seeded: bool


#: One state per tau keeps a delay-sweep iteration near 3 s, so a run holds
#: about ten and its fastest is steady; the 7 taus still fill the pool. The
#: pulse sweep keeps 2 states so that its design stage runs on the pool too.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("delay-sweep", ("delay-sweep", "--preset", "fig1", "--n-states", "1"), "sweep.csv", True),
        Workload("pulse-sweep", ("pulse-sweep", "--preset", "fig3", "--n-states", "2"), "sweep.csv", True),
        Workload("dim-scaling", ("dim-scaling", "--preset", "fig5", "--n-states", "1"), "scaling.csv", True),
        Workload("bang-bang-trajectory", ("bang-bang", "--preset", "fig4", "--full-state"), "trajectory.csv", False),
    )
}


def cli_argv(workload: Workload, seed: int, out_dir) -> list:
    """CLI arguments of one run. fig4 fixes its initial state, so the seed
    reaches the manifest but changes no number of bang-bang-trajectory."""
    return [*workload.argv, "--seed", str(seed), "--out", str(out_dir)]


def n_steps(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


def _resolved_delay_mode(tau: float, mode: str) -> str:
    if mode != "auto":
        return mode
    return "history" if tau >= 0 else "taylor"


def trial_steps(command: str, cfg: dict) -> int:
    """RK4 trial-steps a study performs, from its resolved config.

    Counts every integrated trajectory, including the delay-free design runs
    that the pulse sweep and a replay-mode delay sweep compute first.
    """
    n = n_steps(cfg["horizon"], cfg["dt"])
    states = cfg["n_states"]
    if command == "delay-sweep":
        taus = cfg["taus"]
        design = any(_resolved_delay_mode(t, cfg["delay_mode"]) == "replay" for t in taus)
        return states * n * (len(taus) + int(design))
    if command == "pulse-sweep":
        return states * n * (len(cfg["pulse_counts"]) + 1)
    if command == "dim-scaling":
        return len(cfg["dims"]) * states * n
    if command == "bang-bang":
        return n
    raise ValueError(f"no step count for command {command!r}")


class OutputError(Exception):
    """A study output that fails verification."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OutputError(message)


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_manifest(out_dir: Path, command: str, seed: int) -> dict:
    """Parse manifest.json and check it names this run and hashes its outputs."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    _require(manifest.get("command") == command, f"manifest command {manifest.get('command')!r}")
    _require(manifest.get("seed") == seed, f"manifest seed {manifest.get('seed')!r} != {seed}")
    outputs = manifest.get("outputs") or {}
    _require(bool(outputs), "manifest lists no outputs")
    for name, digest in outputs.items():
        actual = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        _require(actual == digest, f"manifest sha256 of {name} does not match the file")
    return manifest


def _check_sweep(rows: list, cfg: dict, command: str) -> None:
    _require(rows[0] == ["parameter", "mean_F", "std_F", "n"], f"sweep header {rows[0]}")
    params = cfg["taus"] if command == "delay-sweep" else cfg["pulse_counts"]
    _require(len(rows) == len(params) + 1, f"{len(rows) - 1} sweep rows, expected {len(params)}")
    for row, param in zip(rows[1:], params):
        p, mean_f, std_f, n = float(row[0]), float(row[1]), float(row[2]), int(row[3])
        _require(p == param, f"sweep parameter {p} != {param}")
        _require(0.0 <= mean_f <= 1.0, f"mean_F {mean_f} outside [0, 1]")
        _require(0.0 <= std_f <= 0.5, f"std_F {std_f} outside [0, 0.5]")
        _require(n == cfg["n_states"], f"n {n} != n_states {cfg['n_states']}")


def _check_scaling(rows: list, cfg: dict) -> None:
    header = rows[0]
    _require(
        header[:3] == ["dim", "mean_convergence_time", "n_nonconverged"]
        and len(header) == 4
        and header[3].startswith("mean_F_at_"),
        f"scaling header {header}",
    )
    _require(len(rows) == len(cfg["dims"]) + 1, f"{len(rows) - 1} scaling rows")
    trials = cfg["n_states"]
    for row, dim in zip(rows[1:], cfg["dims"]):
        _require(int(row[0]) == dim, f"dim {row[0]} != {dim}")
        t_mean, n_bad, f_at = float(row[1]), int(row[2]), float(row[3])
        _require(0.0 <= t_mean <= cfg["horizon"], f"mean_convergence_time {t_mean}")
        grid = t_mean * trials / cfg["dt"]
        _require(abs(grid - round(grid)) < 1e-6, f"convergence time sum {t_mean * trials} off the dt grid")
        _require(0 <= n_bad <= trials, f"n_nonconverged {n_bad}")
        _require(0.0 <= f_at <= 1.0, f"mean_F_at {f_at} outside [0, 1]")


def _check_trajectory(text: str, cfg: dict) -> None:
    import numpy as np

    header = text[: text.index("\n")].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    _require(header[:4] == ["t", "f", "V", "F"], f"trajectory header {header[:4]}")
    _require(cfg["full_state"] and len(header) == 4 + 2 * 5, "expected 5 full-state amplitudes")
    n = n_steps(cfg["horizon"], cfg["dt"])
    _require(data.shape == (n + 1, len(header)), f"trajectory shape {data.shape}")
    t, f, v, fid, amps = data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4:]
    _require(np.allclose(t, np.arange(n + 1) * cfg["dt"], rtol=0, atol=ROW_ATOL), "time grid")
    levels = np.array([-cfg["f0"], 0.0, cfg["f0"]])
    _require(bool(np.all(np.isin(f, levels))), "bang-bang field leaves {-f0, 0, +f0}")
    _require(bool(np.all((fid >= -ROW_ATOL) & (fid <= 1 + ROW_ATOL))), "F outside [0, 1]")
    _require(float(np.max(np.abs(v + fid - 1.0))) <= ROW_ATOL, "V + F != 1")
    norm2 = np.sum(amps * amps, axis=1)
    _require(float(np.max(np.abs(norm2 - 1.0))) <= ROW_ATOL, "state norm drifts from 1")
    overlap2 = amps[:, 0] ** 2 + amps[:, 1] ** 2
    _require(float(np.max(np.abs(overlap2 - fid))) <= ROW_ATOL, "F != |<target|psi>|^2")


def check_invariants(workload: Workload, text: str, cfg: dict) -> None:
    command = workload.argv[0]
    if command in ("delay-sweep", "pulse-sweep"):
        _check_sweep(_rows(text), cfg, command)
    elif command == "dim-scaling":
        _check_scaling(_rows(text), cfg)
    else:
        _check_trajectory(text, cfg)


def trajectory_digest(text: str, every: int = 1000) -> dict:
    """Compact reference for a full-state trajectory: its sha256, row count
    and every `every`-th row as written."""
    lines = text.rstrip("\n").split("\n")
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "rows": len(lines) - 1,
        "every": every,
        "header": lines[0],
        "sample": lines[1::every],
    }


def _compare_table(actual: list, expected: list, tolerances: list) -> None:
    """Cell-by-cell comparison; a tolerance of None means an exact match."""
    _require(actual[0] == expected[0], f"header {actual[0]} != reference {expected[0]}")
    _require(len(actual) == len(expected), f"{len(actual) - 1} rows, reference has {len(expected) - 1}")
    for i, (a_row, e_row) in enumerate(zip(actual[1:], expected[1:]), start=1):
        _require(len(a_row) == len(e_row), f"row {i} has {len(a_row)} cells")
        for col, (a, e, tol) in enumerate(zip(a_row, e_row, tolerances)):
            if tol is None:
                _require(float(a) == float(e), f"row {i} {actual[0][col]}: {a} != reference {e}")
            else:
                _require(
                    abs(float(a) - float(e)) <= tol,
                    f"row {i} {actual[0][col]}: {a} differs from reference {e} by more than {tol:g}",
                )


def check_reference(workload: Workload, text: str, cfg: dict, reference: dict | None) -> bool:
    """Compare with the stored reference; False when none covers this seed."""
    if reference is None:
        return False
    command = workload.argv[0]
    if command in ("delay-sweep", "pulse-sweep"):
        _compare_table(_rows(text), _rows(reference), [None, FIDELITY_ATOL, FIDELITY_ATOL, None])
    elif command == "dim-scaling":
        t_tol = cfg["dt"] / cfg["n_states"] + 1e-9
        _compare_table(_rows(text), _rows(reference), [None, t_tol, None, FIDELITY_ATOL])
    else:
        digest = trajectory_digest(text, reference["every"])
        if digest["sha256"] == reference["sha256"]:
            return True
        _require(digest["rows"] == reference["rows"], f"{digest['rows']} rows, reference {reference['rows']}")
        n_cols = len(reference["header"].split(","))
        tolerances = [ROW_ATOL, None] + [FIDELITY_ATOL] * (n_cols - 2)
        _compare_table(
            _rows("\n".join([digest["header"], *digest["sample"]])),
            _rows("\n".join([reference["header"], *reference["sample"]])),
            tolerances,
        )
    return True


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(table: dict, workload: Workload, seed: int):
    entries = table.get(workload.name, {})
    return entries.get("any") if not workload.seeded else entries.get(str(seed))

"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def traced():
    """One traced run of every workload at the default seed."""
    results = {}
    for workload in wl.WORKLOADS.values():
        work = run.HERE / "_work" / f"test-{workload.name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            study = run.Study(ROOT, work, workload, 0)
            child = study.run("traced", run.usable_cpus())
            assert child is not None, study.failures
            results[workload.name] = (study, child.result["trace"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return results


def test_config_step_count_equals_traced_simulate_steps(traced):
    for name, (study, report) in traced.items():
        assert report["dynamics.trial_steps"]["value"] == study.trial_steps(), name


def test_every_layer_metric_is_reported(traced):
    for name, (_, report) in traced.items():
        assert set(report) == set(layertrace.METRICS), name
        assert all(entry["value"] is not None for entry in report.values()), name


def test_worker_spans_have_the_map_as_parent(traced):
    # Design runs execute on pool threads; they are found through their
    # parent chain, which the pool itself does not carry.
    study, report = traced["pulse-sweep"]
    assert report["shaping.design_runs"]["value"] == study.manifest["config"]["n_states"]
    assert report["parallel.busy_ratio"]["value"] > 0


def test_laws_are_classified_per_workload(traced):
    expect = {
        "delay-sweep": {"history", "taylor"},
        "pulse-sweep": {"feedback", "replay"},
        "dim-scaling": {"feedback"},
        "bang-bang-trajectory": {"bang"},
    }
    for name, kinds in expect.items():
        report = traced[name][1]
        seen = {k for k in layertrace.LAW_KINDS if report[f"dynamics.us_per_trial_step.{k}"]["value"] > 0}
        assert seen == kinds, name


def test_missing_function_is_reported_not_fatal():
    code = (
        "import layertrace, lyapsim, lyapsim.cli\n"
        "layertrace.TARGETS = tuple(t for t in layertrace.TARGETS if t[1] != 'simulate_loop')"
        " + (('lyapsim._kernels', 'no_such_kernel', 'kernels.simulate_loop'),)\n"
        "tracer = layertrace.install()\n"
        "sys5 = lyapsim.preset_5dim()\n"
        "psi0 = lyapsim.random_initial_state(5, lyapsim.derive_rng(0, 0, 0))\n"
        "tracer.run_main(lambda argv: lyapsim.simulate(sys5, lyapsim.feedback_law(sys5), psi0, 1.0), [])\n"
        "import json; print(json.dumps(tracer.report()))\n"
    )
    env = run.child_env(ROOT, 1)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(run.HERE)])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.splitlines()[-1])
    kernel = report["kernels.simulate_loop_us_per_trial_step"]
    assert kernel["value"] is None and "no_such_kernel" in kernel["missing"]
    assert report["dynamics.trial_steps"]["value"] == 100


def _sweep_reference():
    return wl.load_reference()["delay-sweep"]["0"]


def _with_cell(text, row, col, delta):
    lines = text.rstrip("\n").split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_reference_tolerance_allows_reordered_sums_and_catches_wrong_means():
    workload = wl.WORKLOADS["delay-sweep"]
    cfg = {"dt": 0.01, "n_states": 2}
    ref = _sweep_reference()
    assert wl.check_reference(workload, _with_cell(ref, 3, 1, 1e-12), cfg, ref)
    with pytest.raises(wl.OutputError):
        wl.check_reference(workload, _with_cell(ref, 3, 1, 1e-5), cfg, ref)


def test_convergence_time_may_move_one_grid_step():
    workload = wl.WORKLOADS["dim-scaling"]
    cfg = {"dt": 0.01, "n_states": 1}
    ref = wl.load_reference()["dim-scaling"]["0"]
    assert wl.check_reference(workload, _with_cell(ref, 1, 1, 0.01), cfg, ref)
    with pytest.raises(wl.OutputError):
        wl.check_reference(workload, _with_cell(ref, 1, 1, 0.02), cfg, ref)


def test_benchmark_json_names_match_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert per_layer == set(layertrace.METRICS) | {"trace.overhead_ratio", "parallel.speedup_vs_1thread"}


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

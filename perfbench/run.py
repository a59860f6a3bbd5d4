#!/usr/bin/env python3
"""The lyapsim benchmark: CLI studies as fresh processes, timed and verified.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration spawns `perfbench/child.py`, which imports lyapsim from
./src and calls `lyapsim.cli.main` with the workload's arguments, the way a
user reproduces a figure. Iterations repeat while the next one is expected
to end within S seconds (at least one runs). Every output is verified (see
workloads.py), and every iteration of a run must write byte-identical files.

--trace 0 reports the end-to-end metrics. The study does the same work on
every iteration and a busy host can only slow it down, so study_s and cpu_s
are the fastest iteration of the run, which other tenants' load disturbs far
less than a median of a few long iterations; setup_s and peak_rss_mb are
medians:
  setup_s            spawn until `lyapsim` and `lyapsim.cli` are imported
                     (also sampled by import-only processes)
  study_s            wall time of lyapsim.cli.main(argv), CSV and manifest
                     written
  trial_steps_per_s  RK4 trial-steps from the resolved config / study_s
  cpu_s              user + sys CPU of the child process (wait4 rusage)
  peak_rss_mb        max RSS of the child process
  ok_ratio           1 - fail_ratio; fail_ratio = runs that exit nonzero,
                     raise, or fail verification / runs attempted (the
                     import-only set-up runs count in both)

--trace 1 repeats (untraced, traced, untraced with LYAPSIM_THREADS=1) and
reports the per-layer metrics of layertrace.py, plus trace.overhead_ratio
(traced / untraced study_s) and parallel.speedup_vs_1thread.

The last stdout line is the JSON result; the lines before it give study_s
of every iteration (--trace 0), every metric with its unit and the
environment record (backend, versions, CPUs, thread settings, seed).
Thread settings are fixed here: the end-to-end runs set LYAPSIM_THREADS=1
(see E2E_THREADS), the traced pass the number of usable CPUs, and
OpenBLAS/OpenMP/MKL get one thread each, so compute threads never exceed
the CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Import-only processes spawned per --trace 0 run for the setup_s median.
SETUP_SAMPLES = 15
#: Worker threads of the end-to-end runs. The pool's threads share one GIL,
#: so a second one gains nothing (2 threads ran at 0.88-1.05x of 1), and on
#: a loaded shared host study_s spread 1.5-2 times wider with two threads
#: than with one. The traced pass runs the pool at the usable CPUs and
#: reports what it gains (parallel.speedup_vs_1thread).
E2E_THREADS = 1
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PERFBENCH_SRC"] = str(root / "src")
    env["LYAPSIM_THREADS"] = str(threads)
    env.pop("LYAPSIM_NO_NUMBA", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


class ChildRun:
    """One child process: its timings, resource use and result file."""

    def __init__(self, root: Path, work: Path, mode: str, argv: list, threads: int):
        result_path = work / f"result-{time.monotonic_ns()}.json"
        log_path = result_path.with_suffix(".log")
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *argv]
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=root, env=child_env(root, threads), stdout=log, stderr=log)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child down too
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.log = log_path.read_text(errors="replace")[-2000:]
        self.result = json.loads(result_path.read_text()) if result_path.exists() else {}
        self.setup_s = self.result["t_imported"] - t_spawn if "t_imported" in self.result else None
        self.ok = self.exit_code == 0 and bool(self.result)
        self.error = None if self.ok else f"exit code {self.exit_code}: {self.log.strip()}"
        for path in (result_path, log_path):
            path.unlink(missing_ok=True)


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Study:
    """Runs one workload repeatedly and verifies what it writes."""

    def __init__(self, root: Path, work: Path, workload: wl.Workload, seed: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_out: Path | None = None
        self.first_digest = None
        self.manifest = None
        self.backend = None
        self.reference_checked = False
        self.verify_error = None

    def run(self, mode: str, threads: int) -> ChildRun | None:
        """One CLI run; returns it if it succeeded, else records the failure."""
        self.attempted += 1
        out_dir = self.work / f"out-{self.attempted}"
        argv = wl.cli_argv(self.workload, self.seed, out_dir)
        child = ChildRun(self.root, self.work, mode, argv, threads)
        self.backend = child.result.get("backend", self.backend)
        try:
            if not child.ok:
                raise wl.OutputError(child.error)
            digest = _digest(out_dir)
            if self.first_digest is None:
                self.first_out, self.first_digest = out_dir, digest
                try:
                    self.verify(out_dir)
                except Exception as exc:  # any fault in reading the output fails it
                    self.verify_error = f"{type(exc).__name__}: {exc}"
            if digest != self.first_digest:
                raise wl.OutputError("outputs differ from the first run of the same input")
            if self.verify_error:
                raise wl.OutputError(self.verify_error)
        except (wl.OutputError, OSError) as exc:
            self.failures.append(f"run {self.attempted} ({mode}): {exc}")
            return None
        finally:
            if out_dir != self.first_out:
                shutil.rmtree(out_dir, ignore_errors=True)
        return child

    def verify(self, out_dir: Path) -> None:
        command = self.workload.argv[0]
        self.manifest = wl.check_manifest(out_dir, command, self.seed)
        text = (out_dir / self.workload.csv_name).read_text()
        cfg = self.manifest["config"]
        wl.check_invariants(self.workload, text, cfg)
        reference = wl.reference_for(wl.load_reference(), self.workload, self.seed)
        self.reference_checked = wl.check_reference(self.workload, text, cfg, reference)

    def check_traced_steps(self, child: ChildRun) -> ChildRun | None:
        """Fail the traced run whose simulate calls made other trial-steps
        than the config gives; that base would skew the per-step metrics."""
        traced = child.result["trace"]["dynamics.trial_steps"]["value"]
        steps = self.trial_steps()
        if traced is not None and traced != steps:
            self.failures.append(
                f"run {self.attempted} (traced): simulate calls made {traced} trial-steps, config gives {steps}"
            )
            return None
        return child

    def trial_steps(self) -> int | None:
        if self.manifest is None:
            return None
        return wl.trial_steps(self.workload.argv[0], self.manifest["config"])


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _min(values):
    values = [v for v in values if v is not None]
    return min(values) if values else None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(study: Study, seconds: float, threads: int) -> dict:
    t_end = time.monotonic() + seconds
    setup = []
    for _ in range(SETUP_SAMPLES):
        study.attempted += 1
        child = ChildRun(study.root, study.work, "setup", [], threads)
        if child.ok:
            setup.append(child.setup_s)
            study.backend = child.result.get("backend", study.backend)
        else:
            study.failures.append(f"run {study.attempted} (setup): {child.error}")
    runs, last = [], 0.0
    while not runs or time.monotonic() + last <= t_end:
        t0 = time.monotonic()
        child = study.run("plain", threads)
        last = time.monotonic() - t0
        if child is not None:
            runs.append(child)
            setup.append(child.setup_s)
        if not runs and study.attempted >= 3:
            break
    print("study_s per iteration: " + " ".join(f"{r.result['study_s']:.4f}" for r in runs))
    study_s = _min([r.result["study_s"] for r in runs])
    steps = study.trial_steps()
    ok_ratio = 1.0 - len(study.failures) / max(study.attempted, 1)
    return {
        "setup_s": _metric(_median(setup), "s"),
        "study_s": _metric(study_s, "s"),
        "trial_steps_per_s": _metric(steps / study_s if steps and study_s else None, "1/s"),
        "cpu_s": _metric(_min([r.cpu_s for r in runs]), "s"),
        "peak_rss_mb": _metric(_median([r.rss_mb for r in runs]), "MB"),
        "ok_ratio": _metric(ok_ratio, "ratio"),
    }


def measure_layers(study: Study, seconds: float, threads: int) -> dict:
    t_end = time.monotonic() + seconds
    plain, traced, single = [], [], []
    last = 0.0
    while not traced or time.monotonic() + last <= t_end:
        t0 = time.monotonic()
        for mode, n, into in (("plain", threads, plain), ("traced", threads, traced), ("plain", 1, single)):
            child = study.run(mode, n)
            if child is not None and mode == "traced":
                child = study.check_traced_steps(child)
            if child is not None:
                into.append(child)
        last = time.monotonic() - t0
        if not traced and study.attempted >= 9:
            break
    reports = [c.result["trace"] for c in traced]
    metrics = {}
    if reports:
        for name, entry in reports[0].items():
            if entry["value"] is None:
                metrics[name] = entry
            else:
                metrics[name] = _metric(_median([r[name]["value"] for r in reports]), entry["unit"])
    plain_s = _min([c.result["study_s"] for c in plain])
    traced_s = _min([c.result["study_s"] for c in traced])
    single_s = _min([c.result["study_s"] for c in single])
    metrics["trace.overhead_ratio"] = _metric(traced_s / plain_s if traced_s and plain_s else None, "ratio")
    metrics["parallel.speedup_vs_1thread"] = _metric(
        single_s / plain_s if single_s and plain_s else None, "ratio"
    )
    return metrics


def environment(study: Study, threads: int) -> dict:
    import numpy

    return {
        "workload": study.workload.name,
        "seed": study.seed,
        "seed_varies_inputs": study.workload.seeded,
        "backend": study.backend,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "os_cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "LYAPSIM_THREADS": threads,
        **{var: 1 for var in BLAS_THREAD_VARS},
        "reference_checked": study.reference_checked,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd()
    if not (root / "src" / "lyapsim" / "cli.py").is_file():
        print(f"error: no lyapsim source tree at {root / 'src' / 'lyapsim'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    threads = usable_cpus() if args.trace else E2E_THREADS
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    study = Study(root, work, wl.WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics = measure_layers(study, args.seconds, threads)
        else:
            metrics = measure_end_to_end(study, args.seconds, threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in study.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"environment": environment(study, threads)}, sort_keys=True))
    for name, entry in metrics.items():
        note = f"  (missing: {entry['missing']})" if "missing" in entry else ""
        print(f"metric {name} = {entry['value']} {entry['unit']}{note}")
    failed = len(study.failures)
    correct = failed == 0 and all(
        e["value"] is not None or "missing" in e for e in metrics.values()
    )
    print(json.dumps({"correct": correct, "attempted": study.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Write perfbench/reference.json: the study outputs the benchmark checks against.

Usage (from the root of a source checkout):

    python3 perfbench/make_reference.py

Runs every seeded workload once per seed in SEEDS, and bang-bang-trajectory
once (its inputs do not depend on the seed), through the same child process
as the benchmark. Regenerate only when a change alters the study numbers on purpose,
and say so in that change.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import run
import workloads as wl

#: The tuning seeds 0-31 and the held-out seed 1000 (see README.md).
SEEDS = [*range(32), 1000]


def main() -> int:
    root = Path.cwd()
    work = run.HERE / "_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    table = {}
    try:
        for workload in wl.WORKLOADS.values():
            seeds = SEEDS if workload.seeded else [0]
            entries = table.setdefault(workload.name, {})
            for seed in seeds:
                out_dir = work / f"{workload.name}-{seed}"
                argv = wl.cli_argv(workload, seed, out_dir)
                child = run.ChildRun(root, work, "plain", argv, run.usable_cpus())
                if not child.ok:
                    raise SystemExit(f"{workload.name} seed {seed}: {child.error}")
                cfg = wl.check_manifest(out_dir, workload.argv[0], seed)["config"]
                text = (out_dir / workload.csv_name).read_text()
                wl.check_invariants(workload, text, cfg)
                if workload.seeded:
                    entries[str(seed)] = text
                else:
                    entries["any"] = wl.trajectory_digest(text)
                print(f"{workload.name} seed {seed}: {child.result['study_s']:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

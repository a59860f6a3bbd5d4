"""One benchmark process: import lyapsim, run one CLI study, report timings.

Usage: python3 perfbench/child.py RESULT_JSON MODE [CLI ARGS...]

MODE is `setup` (import only), `plain` (run `lyapsim.cli.main(CLI ARGS)`)
or `traced` (the same with module-boundary spans, see layertrace.py). The
parent passes the source tree on PYTHONPATH and reads RESULT_JSON; times are
CLOCK_MONOTONIC readings, which the parent shares, so it can measure set-up
from the moment it spawned this process.
"""

import sys
import time

import lyapsim
import lyapsim.cli

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(lyapsim.__file__).startswith(src + os.sep):
        print(f"lyapsim imported from {lyapsim.__file__}, not from {src}", file=sys.stderr)
        return 4
    result = {
        "t_imported": T_IMPORTED,
        "backend": "numba" if getattr(lyapsim, "USING_NUMBA", False) else "numpy",
    }
    if mode != "setup":
        tracer = None
        if mode == "traced":
            import layertrace

            tracer = layertrace.install()
        t0 = time.perf_counter()
        rc = tracer.run_main(lyapsim.cli.main, argv) if tracer else lyapsim.cli.main(argv)
        result["study_s"] = time.perf_counter() - t0
        result["exit_code"] = rc
        if tracer is not None:
            result["trace"] = tracer.report()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result.get("exit_code", 0)


if __name__ == "__main__":
    raise SystemExit(main())

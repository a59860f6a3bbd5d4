"""Spans at lyapsim's module boundaries, for the traced benchmark pass.

`install()` wraps the public functions listed in TARGETS wherever a lyapsim
module has bound them, so calls made through `from .x import f` are seen
too. A target that no longer exists is recorded as missing, and every metric
that needs it is reported with a null value and the reason, instead of
failing the run. Spans keep wall and thread-CPU time; the thread pool does
not carry context to its workers, so the `parallel_map` wrapper hands its
own span to each task as parent.

Per-call costs (us per trial-step, us per call) use thread-CPU time, so the
time a pool thread waits for the interpreter lock or the scheduler is not
charged to the layer; it is reported as `dynamics.wait_s` instead.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
from importlib import import_module

#: Real flops of one RK4 step in the d x d matvecs: 4 stages x 2 complex
#: matvecs (H0 psi and H1 psi) x d^2 complex multiply-adds x 8 real flops.
RK4_FLOPS_PER_D2 = 64

#: (module, attribute, span name). Span names are the layer (module) names.
TARGETS = (
    ("lyapsim.dynamics", "simulate", "dynamics.simulate"),
    ("lyapsim._kernels", "simulate_loop", "kernels.simulate_loop"),
    ("lyapsim._parallel", "parallel_map", "parallel.parallel_map"),
    ("lyapsim.delay", "delay_sweep", "delay.delay_sweep"),
    ("lyapsim.shaping", "pulse_count_sweep", "shaping.pulse_count_sweep"),
    ("lyapsim.experiments", "run_dimension_scaling", "experiments.run_dimension_scaling"),
    ("lyapsim.experiments", "convergence_time", "experiments.convergence_time"),
    ("lyapsim.experiments", "random_scaling_instance_with_retries", "experiments.instance"),
    ("lyapsim.control_law", "check_convergence", "control_law.check_convergence"),
    ("lyapsim.linalg", "hermitian_eigen", "linalg.hermitian_eigen"),
    ("lyapsim.cli", "write_trajectory_csv", "cli.write_csv"),
    ("lyapsim.cli", "write_sweep_csv", "cli.write_csv"),
    ("lyapsim.cli", "write_scaling_csv", "cli.write_csv"),
)

LAW_KINDS = ("feedback", "history", "taylor", "replay", "bang")

#: Per-layer metric -> (unit, span names it is computed from).
METRICS = {
    **{
        f"dynamics.us_per_trial_step.{kind}": ("us", ("dynamics.simulate", f"law:{kind}"))
        for kind in LAW_KINDS
    },
    "dynamics.trial_steps": ("count", ("dynamics.simulate",)),
    "dynamics.simulate_calls": ("count", ("dynamics.simulate",)),
    "dynamics.simulate_s": ("s", ("dynamics.simulate",)),
    "dynamics.self_s": ("s", ("dynamics.simulate", "kernels.simulate_loop")),
    "dynamics.wait_s": ("s", ("dynamics.simulate",)),
    "dynamics.state_bytes_max": ("bytes", ("dynamics.simulate",)),
    "dynamics.failures": ("count", ("dynamics.simulate",)),
    "kernels.simulate_loop_us_per_trial_step": ("us", ("kernels.simulate_loop",)),
    "kernels.gflops_computed": ("GFLOP/s", ("kernels.simulate_loop",)),
    "parallel.tasks": ("count", ("parallel.parallel_map",)),
    "parallel.map_s": ("s", ("parallel.parallel_map",)),
    "parallel.busy_ratio": ("ratio", ("parallel.parallel_map",)),
    "shaping.design_runs": ("count", ("shaping.pulse_count_sweep", "dynamics.simulate", "law:feedback")),
    "shaping.design_s": ("s", ("shaping.pulse_count_sweep", "dynamics.simulate", "law:feedback")),
    "shaping.pulse_count_sweep_s": ("s", ("shaping.pulse_count_sweep",)),
    "delay.delay_sweep_s": ("s", ("delay.delay_sweep",)),
    "experiments.run_dimension_scaling_s": ("s", ("experiments.run_dimension_scaling",)),
    "experiments.convergence_time_us": ("us", ("experiments.convergence_time",)),
    "experiments.instance_us": ("us", ("experiments.instance",)),
    "experiments.redraws": ("count", ("experiments.instance",)),
    "control_law.check_convergence_us": ("us", ("control_law.check_convergence",)),
    "linalg.hermitian_eigen_us": ("us", ("linalg.hermitian_eigen",)),
    "cli.write_csv_s": ("s", ("cli.write_csv",)),
    "cli.csv_bytes": ("bytes", ("cli.write_csv",)),
    "cli.self_s": ("s", ("cli.write_csv",)),
    "trace.study_s": ("s", ()),
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "cpu", "thread", "attrs", "failed")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.attrs = {}
        self.failed = False

    @property
    def wall(self) -> float:
        return self.end - self.start

    def has_ancestor(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


def _law_kinds() -> tuple[dict, dict]:
    """Map law types to kinds by building one law with each public constructor.

    Returns (type -> kind, kind -> reason it cannot be classified).
    """
    import lyapsim as L

    sys5 = L.preset_5dim()

    def replay_laws():
        pulsed = L.pulsed_law(sys5, L.PulseTrainSpec(10, 1.0))
        yield pulsed[0] if isinstance(pulsed, tuple) else pulsed
        psi0 = L.random_initial_state(5, L.derive_rng(0, 0, 0))
        reference = L.simulate(sys5, L.feedback_law(sys5), psi0, 1.0, 0.01)
        yield L.delayed_law(sys5, L.DelaySpec(0.5, "replay"), reference)

    builders = {
        "feedback": lambda: [L.feedback_law(sys5)],
        "history": lambda: [L.delayed_law(sys5, L.DelaySpec(0.5, "history"))],
        "taylor": lambda: [L.delayed_law(sys5, L.DelaySpec(-0.5, "taylor"))],
        "replay": lambda: list(replay_laws()),
        "bang": lambda: [L.bang_bang_law(sys5, L.BangBangSpec())],
    }
    kinds, unknown = {}, {}
    for kind, build in builders.items():
        try:
            laws = build()
        except Exception as exc:  # a constructor changed: report, do not fail
            unknown[kind] = f"constructor failed: {type(exc).__name__}: {exc}"
            continue
        for law in laws:
            other = kinds.setdefault(type(law), kind)
            if other != kind:
                unknown[kind] = unknown[other] = f"{other} and {kind} laws share type {type(law).__name__}"
    return kinds, unknown


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._local = threading.local()
        self._law_kinds, unknown = _law_kinds()
        for kind, reason in unknown.items():
            self.missing[f"law:{kind}"] = reason

    # -- span recording -------------------------------------------------
    def _current(self):
        return getattr(self._local, "span", None)

    def _record(self, name, fn, args, kwargs, parent, annotate=None):
        span = Span(name, parent)
        self._local.span = span
        cpu0 = time.thread_time()
        span.start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - cpu0
            self._local.span = parent
            self.spans.append(span)
        if annotate is not None:
            try:
                annotate(span, args, kwargs, out)
            except Exception as exc:  # a changed signature or result: report, do not fail
                self.missing.setdefault(name, f"cannot read {name} call: {type(exc).__name__}: {exc}")
        return out

    def wrap(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, self._current(), annotate)

        return wrapper

    def wrap_parallel_map(self, name, fn):
        def wrapper(task_fn, items, *args, **kwargs):
            def map_call(items, *a, **k):
                span = self._local.span

                def task(item):
                    # Pool workers start with no span: make the map the parent.
                    return self._record("parallel.task", task_fn, (item,), {}, span)

                return fn(task, items, *a, **k)

            return self._record(name, map_call, (items, *args), kwargs, self._current())

        return wrapper

    def run_main(self, main, argv):
        """Run the CLI entry point inside the root span."""
        return self._record("cli.main", main, (argv,), {}, None)

    # -- annotations ----------------------------------------------------
    def _annotator(self, span_name, fn):
        bind = _arguments(fn)
        if span_name == "dynamics.simulate":

            def annotate(span, args, kwargs, out):
                a = bind(args, kwargs)
                law, psi0 = a.get("law"), a.get("psi0")
                horizon, dt = a.get("horizon"), a.get("dt")
                span.attrs["kind"] = self._law_kinds.get(type(law), "other")
                if horizon is not None and dt is not None:
                    span.attrs["steps"] = int(horizon / dt + 1e-9)
                if psi0 is not None:
                    span.attrs["dim"] = len(psi0)

            return annotate
        if span_name == "kernels.simulate_loop":

            def annotate(span, args, kwargs, out):
                a = bind(args, kwargs)
                span.attrs["steps"] = a.get("n_steps")
                psi0 = a.get("psi0")
                span.attrs["dim"] = len(psi0) if psi0 is not None else None

            return annotate
        if span_name == "experiments.instance":

            def annotate(span, args, kwargs, out):
                span.attrs["redraws"] = out[1]

            return annotate
        if span_name == "cli.write_csv":

            def annotate(span, args, kwargs, out):
                path = bind(args, kwargs).get("path")
                span.attrs["bytes"] = os.path.getsize(path) if path is not None else None

            return annotate
        return None

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        lyap_modules = [
            m for n, m in list(sys.modules.items()) if n == "lyapsim" or n.startswith("lyapsim.")
        ]
        found = set()
        for module_name, attr, span_name in TARGETS:
            try:
                module = import_module(module_name)
            except ImportError as exc:
                self.missing.setdefault(span_name, f"{module_name} not importable: {exc}")
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.missing.setdefault(span_name, f"{module_name}.{attr} does not exist")
                continue
            found.add(span_name)
            if span_name == "parallel.parallel_map":
                wrapper = self.wrap_parallel_map(span_name, orig)
            else:
                wrapper = self.wrap(span_name, orig, self._annotator(span_name, orig))
            for mod in lyap_modules + [module]:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)
        # A span name served by several functions counts as present if any is.
        for name in found:
            self.missing.pop(name, None)

    # -- metrics --------------------------------------------------------
    def report(self) -> dict:
        """Per-layer metrics: {name: {"value", "unit"[, "missing"]}}."""
        values = self._values()
        out = {}
        for name, (unit, needs) in METRICS.items():
            reasons = [self.missing[n] for n in needs if n in self.missing]
            if reasons:
                out[name] = {"value": None, "unit": unit, "missing": "; ".join(reasons)}
            else:
                out[name] = {"value": values[name], "unit": unit}
        return out

    def _values(self) -> dict:
        by_name: dict[str, list[Span]] = {}
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def wall(name):
            return sum(s.wall for s in spans(name))

        def us_per_call(name):
            calls = spans(name)
            return 1e6 * sum(s.cpu for s in calls) / len(calls) if calls else 0.0

        def per_step_us(calls):
            steps = sum(s.attrs.get("steps") or 0 for s in calls)
            return 1e6 * sum(s.cpu for s in calls) / steps if steps else 0.0

        sims = spans("dynamics.simulate")
        kernels = spans("kernels.simulate_loop")
        maps = spans("parallel.parallel_map")
        root = spans("cli.main")[0]
        v = {}
        for kind in LAW_KINDS:
            v[f"dynamics.us_per_trial_step.{kind}"] = per_step_us(
                [s for s in sims if s.attrs.get("kind") == kind]
            )
        v["dynamics.trial_steps"] = sum(s.attrs.get("steps") or 0 for s in sims)
        v["dynamics.simulate_calls"] = len(sims)
        v["dynamics.simulate_s"] = wall("dynamics.simulate")
        kernel_in_sim = sum(k.cpu for k in kernels if k.has_ancestor("dynamics.simulate"))
        v["dynamics.self_s"] = sum(s.cpu for s in sims) - kernel_in_sim
        v["dynamics.wait_s"] = sum(s.wall - s.cpu for s in sims)
        v["dynamics.state_bytes_max"] = max(
            ((s.attrs.get("steps", 0) + 1) * s.attrs.get("dim", 0) * 16 for s in sims), default=0
        )
        v["dynamics.failures"] = sum(s.failed for s in sims)
        v["kernels.simulate_loop_us_per_trial_step"] = per_step_us(kernels)
        kernel_cpu = sum(k.cpu for k in kernels)
        flops = sum(RK4_FLOPS_PER_D2 * (k.attrs["dim"] or 0) ** 2 * (k.attrs["steps"] or 0) for k in kernels)
        v["kernels.gflops_computed"] = flops / kernel_cpu / 1e9 if kernel_cpu else 0.0
        tasks = [t for m in maps for t in children.get(id(m), [])]
        v["parallel.tasks"] = len(tasks)
        v["parallel.map_s"] = sum(m.wall for m in maps)
        capacity = sum(
            m.wall * len({t.thread for t in children.get(id(m), [])}) for m in maps
        )
        v["parallel.busy_ratio"] = sum(t.cpu for t in tasks) / capacity if capacity else 0.0
        design = [
            s for s in sims
            if s.attrs.get("kind") == "feedback" and s.has_ancestor("shaping.pulse_count_sweep")
        ]
        v["shaping.design_runs"] = len(design)
        v["shaping.design_s"] = _union([(s.start, s.end) for s in design])
        v["shaping.pulse_count_sweep_s"] = wall("shaping.pulse_count_sweep")
        v["delay.delay_sweep_s"] = wall("delay.delay_sweep")
        v["experiments.run_dimension_scaling_s"] = wall("experiments.run_dimension_scaling")
        v["experiments.convergence_time_us"] = us_per_call("experiments.convergence_time")
        v["experiments.instance_us"] = us_per_call("experiments.instance")
        v["experiments.redraws"] = sum(s.attrs.get("redraws", 0) for s in spans("experiments.instance"))
        v["control_law.check_convergence_us"] = us_per_call("control_law.check_convergence")
        v["linalg.hermitian_eigen_us"] = us_per_call("linalg.hermitian_eigen")
        v["cli.write_csv_s"] = wall("cli.write_csv")
        v["cli.csv_bytes"] = sum(s.attrs.get("bytes") or 0 for s in spans("cli.write_csv"))
        top = [(c.start, c.end) for c in children.get(id(root), [])]
        v["cli.self_s"] = root.wall - _union(top)
        v["trace.study_s"] = root.wall
        return v


def _arguments(fn):
    """A function mapping one call's (args, kwargs) to fn's named arguments."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: {}

    def bind(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return {}
        bound.apply_defaults()
        return bound.arguments

    return bind


def _union(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer

"""The sweeps' trial map.

Trials run one after another, in submission order: the kernels are short
numpy calls that hold the GIL, so a thread pool ran the sweeps at 0.54-0.68x
the speed of one thread. Every sweep hands its trials to this map, which is
where perfbench's traced pass counts them.
"""

from __future__ import annotations


def parallel_map(fn, items):
    """[fn(item) for item in items]."""
    return [fn(item) for item in items]

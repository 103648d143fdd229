"""Seeded workload inputs: the sweep spec files the program receives.

Every workload is a declarative sweep spec (the JSON form ``repro
scenario run`` accepts). ``--seed`` becomes the spec's ``base_seed``,
so two seeds draw different jitter streams over the same cells: the
simulated numbers move a little, the amount of work does not. The
specs are written out here rather than taken from the program's own
registry, so a change to the program cannot silently change what the
benchmark measures.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

MODES_ALL = ["overlapped", "sequential", "ideal"]
MODES_PAIR = ["overlapped", "sequential"]

#: A100 straggler: rank 0's SM throughput derated 30% for the whole run.
STRAGGLER = [
    {
        "kind": "straggler_rank",
        "target": "gpu:0",
        "start_s": 0.0,
        "duration_s": 600.0,
        "magnitude": 0.3,
    }
]
#: Flaky link: rank 0's links fully down for a 100 ms window from 2 ms.
FLAKY_LINK = [
    {
        "kind": "flaky_link",
        "target": "gpu:0",
        "start_s": 0.002,
        "duration_s": 0.1,
        "magnitude": 1.0,
    }
]


def paper_grid(seed: int) -> Dict[str, Any]:
    """The Figs. 4-6 quick grid: 4 GPUs x 2 strategies x 3 models x 2 batches."""
    return {
        "name": "paper_grid",
        "description": "Figs. 4-6 evaluation grid (quick subset)",
        "base": {"runs": 1, "jitter_sigma": 0.02, "base_seed": seed},
        "axes": [
            {"gpu": ["A100", "H100", "MI210", "MI250"]},
            {"strategy": ["fsdp", "pipeline"]},
            {"model": ["gpt3-xl", "gpt3-2.7b", "gpt3-13b"]},
            {"batch_size": [8, 32]},
        ],
        "modes": MODES_ALL,
    }


def capped_deep(seed: int) -> Dict[str, Any]:
    """Few plans, deep drains: power caps x perturbations x seeded runs.

    The repeated runs are an axis of seeds rather than ``runs`` inside
    a cell, so a command resolves 36 cells: enough for a per-cell tail
    above the median (see :func:`perfbench.stats.tail_percentile`).
    """
    return {
        "name": "capped_deep",
        "description": "A100 GPT-3 2.7B under power caps and perturbations",
        "base": {"gpu": "A100", "model": "gpt3-2.7b", "batch_size": 8, "runs": 1},
        "axes": [
            {"strategy": ["fsdp", "pipeline"]},
            {"power_limit_w": [None, 250.0, 150.0]},
            {"perturbations": [[], STRAGGLER, FLAKY_LINK]},
            {"base_seed": [seed, seed + 1]},
        ],
        "modes": MODES_PAIR,
    }


def fleet_batch(seed: int) -> Dict[str, Any]:
    """Many small cells (GPT-3 XL, batch 8) for the fleet wire."""
    return {
        "name": "fleet_batch",
        "description": "small cells served through a fleet coordinator",
        "base": {"model": "gpt3-xl", "batch_size": 8, "runs": 1, "base_seed": seed},
        "axes": [
            {"gpu": ["A100", "H100", "MI210", "MI250"]},
            {"strategy": ["fsdp", "pipeline"]},
            {"power_limit_w": [None, 300.0, 200.0, 150.0]},
        ],
        "modes": MODES_PAIR,
    }


def cells(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Override dicts per cell, in the order the spec compiles them.

    The first axes group is the outermost loop; the specs above use
    single-field groups and no constraints or includes.
    """
    groups = spec["axes"]
    names = [next(iter(group)) for group in groups]
    out = []
    for combo in itertools.product(*(group[name] for group, name in zip(groups, names))):
        cell = dict(spec["base"])
        cell.update(zip(names, combo))
        out.append(cell)
    return out


def subset_spec(spec: Dict[str, Any], picked: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A spec that compiles to exactly the ``picked`` cells of ``spec``.

    The cells keep every field, so they compile to the same job cache
    keys as in the full sweep.
    """
    return {
        "name": f"{spec['name']}_sample",
        "description": f"cells re-simulated from {spec['name']}",
        "include": picked,
        "modes": spec["modes"],
    }

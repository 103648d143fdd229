"""Grid sweeps over (GPU, model, batch, strategy) with feasibility cuts.

Sweeps are *specified* declaratively as
:class:`~repro.scenario.spec.SweepSpec` objects and *executed* as
batches of :class:`~repro.exec.job.SimJob` through an
:class:`~repro.exec.service.ExecutionService`: cells already in the
result cache are served without simulating, the rest fan out across
the configured executor (``--jobs N``), and infeasible cells come back
as skipped rows rather than exceptions.

:func:`grid_spec_from_args` builds the ``SweepSpec`` for a plain
(GPU, model, batch, strategy) cross-product; run any spec with
:func:`repro.scenario.runner.run_spec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.modes import ExecutionMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.spec import SweepSpec


@dataclass
class GridRow:
    """One sweep cell: either a result or the reason it was skipped."""

    config: ExperimentConfig
    result: Optional[ExperimentResult]
    skipped_reason: Optional[str] = None

    @property
    def ran(self) -> bool:
        return self.result is not None


def grid_configs(
    gpus: Sequence[str],
    models: Sequence[str],
    batch_sizes: Sequence[int],
    strategies: Sequence[str] = ("fsdp",),
    base: Optional[ExperimentConfig] = None,
) -> List[ExperimentConfig]:
    """The cross-product of configs a grid sweep covers.

    ``base`` supplies the non-swept fields (runs, precision, seq_len,
    power limits, ...); its gpu/model/batch/strategy fields are ignored.
    """
    if base is None:
        base = ExperimentConfig(gpu="H100", model="gpt3-xl", batch_size=8)
    return [
        base.with_updates(
            gpu=gpu, model=model, batch_size=batch, strategy=strategy
        )
        for gpu in gpus
        for strategy in strategies
        for model in models
        for batch in batch_sizes
    ]


def grid_spec_from_args(
    gpus: Sequence[str],
    models: Sequence[str],
    batch_sizes: Sequence[int],
    strategies: Sequence[str] = ("fsdp",),
    base: Optional[ExperimentConfig] = None,
    modes: Tuple[ExecutionMode, ...] = (
        ExecutionMode.OVERLAPPED,
        ExecutionMode.SEQUENTIAL,
        ExecutionMode.IDEAL,
    ),
) -> "SweepSpec":
    """The :class:`SweepSpec` for a (GPU, model, batch, strategy) grid.

    Axis nesting matches :func:`grid_configs` exactly
    (gpu -> strategy -> model -> batch), so the compiled jobs are
    identical to the historical cross-product.
    """
    # Function-level import: repro.scenario sits above the core layer.
    from repro.scenario.spec import SweepSpec

    if base is None:
        base = ExperimentConfig(gpu="H100", model="gpt3-xl", batch_size=8)
    swept = ("gpu", "strategy", "model", "batch_size")
    base_overrides = {
        f.name: getattr(base, f.name)
        for f in dataclasses.fields(base)
        if f.name not in swept
    }
    return SweepSpec(
        name="grid",
        base=base_overrides,
        axes=[
            {"gpu": list(gpus)},
            {"strategy": list(strategies)},
            {"model": list(models)},
            {"batch_size": list(batch_sizes)},
        ],
        modes=modes,
    )


def feasible_rows(rows: Iterable[GridRow]) -> List[GridRow]:
    """Only the cells that actually ran."""
    return [row for row in rows if row.ran]


def summarize_slowdowns(rows: Iterable[GridRow]) -> dict:
    """Aggregate slowdown statistics over a grid (the abstract's
    headline numbers: average and maximum compute slowdown, average and
    maximum sequential-vs-overlapped gap)."""
    ran = feasible_rows(rows)
    if not ran:
        return {
            "cells": 0,
            "mean_compute_slowdown": 0.0,
            "max_compute_slowdown": 0.0,
            "mean_sequential_penalty": 0.0,
            "max_sequential_penalty": 0.0,
        }
    slowdowns = [row.result.metrics.compute_slowdown for row in ran]
    seq_penalties = [
        row.result.metrics.sequential_vs_overlapped for row in ran
    ]
    return {
        "cells": len(ran),
        "mean_compute_slowdown": sum(slowdowns) / len(slowdowns),
        "max_compute_slowdown": max(slowdowns),
        "mean_sequential_penalty": sum(seq_penalties) / len(seq_penalties),
        "max_sequential_penalty": max(seq_penalties),
    }

#!/usr/bin/env python
"""Engine hot-path benchmark: reference vs exact vs fast tiers.

Measures two things per engine tier and records them in
``BENCH_engine.json`` so the repo carries a perf trajectory across
PRs:

* **single-cell event throughput** — one representative contended cell
  (H100, GPT-3 2.7B, FSDP, jitter + governor active) simulated by each
  tier; reports engine events/second.
* **quick-grid cells/sec** — the full Figs. 4-6 quick evaluation grid
  (48 cells x 3 modes) run serially through the execution service with
  caching disabled, once per tier.

The tiers are named by their ``SimConfig.engine`` value:
``reference`` (full recompute), ``exact`` (the bit-exact incremental
default) and ``fast`` (additive contention aggregates, adaptive
governor ticks and cohort batching over the struct-of-arrays store),
which carries bounded relative error — see the engine-equivalence
tolerance suite. Grid cells pick the fast tier through
``ExperimentConfig.engine_tier``; the reference oracle is not a cell
tier, so its grid pass sets ``$REPRO_SIM_ENGINE=reference``.

``--profile`` wraps each tier's single-cell run in cProfile and
prints the top 20 functions by cumulative time, for hot-path work.

``--verify`` instead runs one grid cell end-to-end under the reference
and exact engines and exits nonzero unless the full result
payloads are byte-identical (the CI equivalence gate; the fast tier is
gated by its tolerance tests, not by byte identity).

Timed sections run with cyclic GC suspended (the ``timeit`` module's
convention, applied identically to every tier): collection scheduling
is allocation-count driven, so whether a major sweep lands inside a
timed pass is random noise, not engine cost. Records carry
``gc_paused: true``.

This file is a standalone script, not a pytest-benchmark module: run
``python benchmarks/bench_engine_hotpath.py [--quick]``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.experiment import (  # noqa: E402
    SIM_ENGINE_ENV,
    ExperimentConfig,
)
from repro.exec.executors import SerialExecutor  # noqa: E402
from repro.exec.job import SimJob  # noqa: E402
from repro.exec.planning import default_planner  # noqa: E402
from repro.exec.service import ExecutionService  # noqa: E402
from repro.exec.cache import result_to_payload  # noqa: E402
from repro.harness.figures.grid import grid_spec  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.engine import (  # noqa: E402
    make_simulator,
    reset_shared_evaluators,
)
from repro.sim.prep import prep_stats  # noqa: E402

#: Exact engines (``--verify`` pins them byte-identical).
ENGINES = ("reference", "exact")
#: All benchmarked tiers, by ``SimConfig.engine`` value.
TIERS = ("reference", "exact", "fast")

#: The representative contended cell for the event-throughput probe.
SINGLE_CELL = ExperimentConfig(
    gpu="H100",
    model="gpt3-2.7b",
    batch_size=16,
    strategy="fsdp",
    jitter_sigma=0.02,
)

#: The cell the CI equivalence gate checks (one quick-grid cell).
VERIFY_CELL = ExperimentConfig(
    gpu="A100",
    model="gpt3-xl",
    batch_size=8,
    strategy="fsdp",
    jitter_sigma=0.02,
    runs=1,
)


@contextlib.contextmanager
def _paused_gc():
    """Suspend cyclic GC around a timed section (timeit's convention).

    Collection scheduling is driven by process-global allocation
    counters, so whether a gen-2 sweep (hundreds of ms against the
    planner's persistent caches) lands inside a timed pass is
    essentially random — pausing it measures the code, not the
    collector.  Every tier is paused identically; the record carries
    ``gc_paused`` so the numbers are comparable across revisions.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@contextlib.contextmanager
def _engine_env(engine: str):
    """Route exact-tier cells through the reference oracle or not."""
    previous = os.environ.get(SIM_ENGINE_ENV)
    if engine == "reference":
        os.environ[SIM_ENGINE_ENV] = "reference"
    else:
        os.environ.pop(SIM_ENGINE_ENV, None)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(SIM_ENGINE_ENV, None)
        else:
            os.environ[SIM_ENGINE_ENV] = previous


def _tier_jobs(jobs, engine: str):
    """The grid's jobs with the fast tier's ``engine_tier`` applied."""
    if engine != "fast":
        return jobs
    return [
        SimJob(job.config.with_updates(engine_tier="fast"), job.modes)
        for job in jobs
    ]


def bench_single_cell(repeats: int, profile: bool = False) -> dict:
    """Event throughput of one contended simulation, per engine."""
    planner = default_planner()
    node = planner.node_for(SINGLE_CELL)
    plan = planner.plan_for(SINGLE_CELL, overlap=True)
    cost_model = planner.cost_model_for(SINGLE_CELL)
    out: dict = {"cell": SINGLE_CELL.describe(), "repeats": repeats}
    for engine in TIERS:
        # Every tier starts with cold process-wide evaluator memos so
        # the recorded speedups compare engines, not cache inheritance
        # from whichever tier ran first. The first construction after
        # the reset therefore *builds* the tier's PreparedSim (cold
        # setup); every later construction fetches it from the prep
        # cache (warm setup) — both are recorded so the prepared-layer
        # amortization is a gateable series, not folded into noise.
        reset_shared_evaluators()
        config = SimConfig(jitter_sigma=0.02, seed=1, engine=engine)
        prep_before = prep_stats()
        best = None
        setup_times = []
        events = 0
        with _paused_gc():
            for _ in range(repeats):
                t0 = time.perf_counter()
                sim = make_simulator(
                    node, plan.tasks, config, cost_model=cost_model
                )
                t1 = time.perf_counter()
                sim.run()
                elapsed = time.perf_counter() - t1
                setup_times.append(t1 - t0)
                best = elapsed if best is None else min(best, elapsed)
                stats = sim.stats
                events = stats.events
                # Free the finished run here, untimed: rebinding ``sim``
                # inside the next setup window would bill its teardown
                # to construction.
                del sim
            if len(setup_times) == 1:
                # --quick runs once; add one untimed-run construction
                # so the warm-setup series exists in every record.
                t0 = time.perf_counter()
                spare = make_simulator(
                    node, plan.tasks, config, cost_model=cost_model
                )
                setup_times.append(time.perf_counter() - t0)
                del spare
        prep_after = prep_stats()
        setup_cold = setup_times[0]
        setup_warm = min(setup_times[1:])
        out[engine] = {
            "seconds": best,
            "setup_cold_s": setup_cold,
            "setup_warm_s": setup_warm,
            "setup_cold_over_warm": (
                setup_cold / setup_warm if setup_warm > 0 else None
            ),
            "drain_s": best,
            "events": events,
            "events_per_s": events / best,
            "prep": {
                "hits": prep_after["hits"] - prep_before["hits"],
                "builds": prep_after["builds"] - prep_before["builds"],
            },
            "gpu_rate_passes": stats.gpu_rate_passes,
            "stale_events": stats.stale_events,
            "ticks_skipped": stats.ticks_skipped,
            "cohorts": stats.cohorts,
            "vector_batches": stats.vector_batches,
        }
        if profile:
            _profile_tier(engine, node, plan, config, cost_model)
    out["speedup"] = (
        out["exact"]["events_per_s"] / out["reference"]["events_per_s"]
    )
    out["speedup_fast"] = (
        out["fast"]["events_per_s"] / out["reference"]["events_per_s"]
    )
    return out


def _profile_tier(engine, node, plan, config, cost_model) -> None:
    """cProfile one single-cell run; print top 20 by cumulative time."""
    import cProfile
    import pstats

    sim = make_simulator(node, plan.tasks, config, cost_model=cost_model)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run()
    profiler.disable()
    print(f"--- profile: {engine} (top 20 by cumulative time) ---")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(20)


def bench_grid() -> dict:
    """Cells/sec on the quick Figs. 4-6 grid, per engine, serial."""
    spec = grid_spec(quick=True)
    jobs = spec.compile()
    # Warm the shared planner — nodes, plans (both overlap variants)
    # and collective cost models — so every timed pass measures
    # simulation, not plan construction. The plan/cost-model builds
    # are identical work in every tier, so leaving them in would only
    # dilute the engine-to-engine ratios.
    planner = default_planner()
    for job in jobs:
        planner.node_for(job.config)
        try:
            for overlap in (True, False):
                planner.plan_for(job.config, overlap=overlap)
            planner.cost_model_for(job.config)
        except Exception:
            # Infeasible cells are the service's business to skip.
            continue
    out: dict = {"cells": len(jobs), "spec": spec.name}
    for engine in TIERS:
        # Cold evaluator memos per tier (cells within a tier still
        # share them, which is the product behaviour being measured).
        reset_shared_evaluators()
        service = ExecutionService(executor=SerialExecutor(), cache=None)
        planner_before = planner.stats()["prepared_sims"]
        tier_jobs = _tier_jobs(jobs, engine)
        with _engine_env(engine), _paused_gc():
            t0 = time.perf_counter()
            outcomes = service.run_jobs(tier_jobs)
            elapsed = time.perf_counter() - t0
        planner_after = planner.stats()["prepared_sims"]
        ran = sum(1 for o in outcomes if o.ran)
        out[engine] = {
            "seconds": elapsed,
            "cells_per_s": len(jobs) / elapsed,
            "simulated": ran,
            "infeasible": len(jobs) - ran,
            # Planner-level PreparedSim reuse across the grid's cells:
            # every hit is a cell whose tables were shared instead of
            # rebuilt.
            "prepared_sims": {
                "hits": planner_after["hits"] - planner_before["hits"],
                "builds": planner_after["builds"] - planner_before["builds"],
            },
        }
    out["speedup"] = (
        out["exact"]["cells_per_s"] / out["reference"]["cells_per_s"]
    )
    out["speedup_fast"] = (
        out["fast"]["cells_per_s"] / out["reference"]["cells_per_s"]
    )
    return out


def verify_equivalence() -> bool:
    """Run one grid cell under both engines; True iff bit-identical."""
    job = SimJob(config=VERIFY_CELL)
    payloads = {}
    for engine in ENGINES:
        with _engine_env(engine):
            outcome = SerialExecutor().run([job])[0]
        if not outcome.ran:
            print(f"verify cell infeasible under {engine}: "
                  f"{outcome.skipped_reason}")
            return False
        payloads[engine] = result_to_payload(outcome.result)
    identical = payloads["reference"] == payloads["exact"]
    cell = VERIFY_CELL.describe()
    if identical:
        print(f"engine equivalence OK: {cell} is bit-identical under "
              f"reference and exact engines")
    else:
        print(f"ENGINE DIVERGENCE on {cell}:")
        ref, exact = payloads["reference"], payloads["exact"]
        for section in ref:
            if ref[section] != exact[section]:
                print(f"  section {section!r} differs")
                print(f"    reference: {json.dumps(ref[section])[:200]}")
                print(f"    exact:     {json.dumps(exact[section])[:200]}")
    return identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="single timing repeat per engine (CI perf-smoke mode)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="single-cell timing repeats, best-of (default: 3)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="where to write the benchmark record",
    )
    parser.add_argument(
        "--skip-grid",
        action="store_true",
        help="only run the single-cell probe (fast local iteration)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="assert reference/exact equivalence on one grid "
        "cell instead of benchmarking; exit 1 on divergence",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each tier's single-cell run and print the top "
        "20 functions by cumulative time",
    )
    args = parser.parse_args(argv)

    if args.verify:
        return 0 if verify_equivalence() else 1

    repeats = 1 if args.quick else args.repeats
    record: dict = {
        "schema": 1,
        "generated_by": "benchmarks/bench_engine_hotpath.py",
        "quick": args.quick,
        # Timed sections run with cyclic GC suspended (see _paused_gc).
        "gc_paused": True,
    }
    print(f"single-cell event throughput ({repeats} repeat(s))...")
    record["single_cell"] = bench_single_cell(repeats, profile=args.profile)
    sc = record["single_cell"]
    for engine in TIERS:
        tier = sc[engine]
        print(
            f"  {engine:>9}: {tier['events']} events, "
            f"setup {tier['setup_cold_s'] * 1e3:.2f} ms cold / "
            f"{tier['setup_warm_s'] * 1e3:.2f} ms warm, "
            f"drain {tier['drain_s'] * 1e3:.1f} ms "
            f"({tier['events_per_s']:.0f} events/s; prep "
            f"{tier['prep']['hits']} hit(s), "
            f"{tier['prep']['builds']} build(s))"
        )
    print(
        f"  speedup: {sc['speedup']:.2f}x exact, "
        f"{sc['speedup_fast']:.2f}x fast"
    )

    if not args.skip_grid:
        print("quick Figs. 4-6 grid (serial, uncached)...")
        record["grid"] = bench_grid()
        grid = record["grid"]
        for engine in TIERS:
            prepared = grid[engine]["prepared_sims"]
            print(
                f"  {engine:>9}: {grid['cells']} cells in "
                f"{grid[engine]['seconds']:.1f} s "
                f"({grid[engine]['cells_per_s']:.3f} cells/s; "
                f"prepared {prepared['hits']} hit(s), "
                f"{prepared['builds']} build(s))"
            )
        print(
            f"  speedup: {grid['speedup']:.2f}x exact, "
            f"{grid['speedup_fast']:.2f}x fast"
        )

    out = Path(args.out)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"benchmark record -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

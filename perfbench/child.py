"""Run one ``repro`` CLI command in this process and record its timings.

Usage::

    python perfbench/child.py RECORD MODE [-- CLI ARGS...]

The process imports ``repro.cli`` and loads the scenario catalog (the
set-up the benchmark times), wraps the public entry points of the
layers it needs, runs ``repro.cli.main(CLI ARGS)`` and writes RECORD
(JSON) once the command has finished. With no CLI arguments it stops
after set-up, which the benchmark uses to sample set-up time alone.

MODE ``cells`` wraps only what per-cell latency needs: ``execute_job``
for a simulated cell, ``ResultCache.get`` for a cache hit and the fleet
worker's requests for lease-to-ack. MODE ``trace`` also wraps every
layer's entry points so the parent can compute per-layer self times.
The wrappers live here, in the benchmark; nothing under ``src/`` is
changed.
"""

import time

T0 = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import Recorder  # noqa: E402

MODES = ("cells", "trace")


def _request_span(args) -> str:
    """``fleet.lease`` / ``fleet.result`` / ``fleet.request`` by endpoint."""
    endpoint = args[0].rsplit("/", 1)[-1]
    return f"fleet.{endpoint}" if endpoint in ("lease", "result") else "fleet.request"


class Hooks:
    """Wrappers around layer entry points, feeding one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self.counters = {
            "executed": 0,
            "gets": 0,
            "hits": 0,
            "infeasible": 0,
            "puts": 0,
            "bytes_written": 0,
            "engine_runs": 0,
            "events": 0,
            "stale_events": 0,
            "gpu_rate_passes": 0,
            "ticks_skipped": 0,
            "sim_seconds": 0.0,
            "waits": 0,
            "idle_s": 0.0,
        }
        #: ``[kind, seconds, cache key]`` per resolved cell: ``miss``
        #: (execute_job), ``hit`` (cache read) or ``fleet`` (lease to
        #: acknowledged result).
        self.cells = []
        self.fleet = {"first_lease": None, "last_ack": None, "acked": 0}
        self._leased_at = {}
        self._wait_since = None

    def wrap(self, owner, attr, name, on_exit=None):
        """Record a span around ``owner.attr``; ``name`` may be a function
        of the call's positional arguments."""
        original = getattr(owner, attr)
        rec = self.rec

        def wrapper(*args, **kwargs):
            if not rec.active():
                return original(*args, **kwargs)
            index = rec.open(name(args) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = rec.close(index)
            if on_exit is not None:
                on_exit(rec.spans[index], seconds, args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    # -- per-cell latency (both modes) ---------------------------------

    def _after_execute(self, span, seconds, args, outcome):
        self.counters["executed"] += 1
        if not outcome.ran:
            self.counters["infeasible"] += 1
        self.cells.append(["miss", seconds, args[0].cache_key()])

    def _after_get(self, span, seconds, args, outcome):
        self.counters["gets"] += 1
        if outcome is not None:
            self.counters["hits"] += 1
            if not outcome.ran:
                self.counters["infeasible"] += 1
            self.cells.append(["hit", seconds, args[1].cache_key()])

    def _after_request(self, span, seconds, args, response):
        name, start, end = span[0], span[1], span[2]
        if name == "fleet.lease":
            if self._wait_since is not None:
                self.counters["idle_s"] += start - self._wait_since
                self._wait_since = None
            state = response.get("state")
            if state == "wait":
                self.counters["waits"] += 1
                self._wait_since = end
            elif state == "task":
                items = response.get("tasks") or [{"task": response["task"]}]
                for item in items:
                    self._leased_at[item["task"]["cache_key"]] = start
                if self.fleet["first_lease"] is None:
                    self.fleet["first_lease"] = start
        elif name == "fleet.result":
            body = args[1]
            pushed = body.get("results") or [body]
            states = response.get("states") or [response]
            for item, state in zip(pushed, states):
                if "payload" not in item or not state.get("ok", False):
                    continue
                leased = self._leased_at.pop(item["key"], None)
                if leased is not None:
                    self.cells.append(["fleet", end - leased, item["key"]])
                    self.fleet["acked"] += 1
                    self.fleet["last_ack"] = end

    # -- extra counters (trace mode) -----------------------------------

    def _after_put(self, span, seconds, args, result):
        cache, outcome = args[0], args[1]
        self.counters["puts"] += 1
        path = cache._path_for(outcome.job.cache_key())
        if path is not None:
            self.counters["bytes_written"] += path.stat().st_size

    def _traced_simulator(self, original):
        rec, counters = self.rec, self.counters

        def make_simulator(*args, **kwargs):
            index = rec.open("engine.setup")
            try:
                sim = original(*args, **kwargs)
            finally:
                rec.close(index)
            drain = sim.run

            def run():
                index = rec.open("engine.drain")
                try:
                    result = drain()
                finally:
                    rec.close(index)
                stats = sim.stats
                counters["engine_runs"] += 1
                counters["events"] += stats.events
                counters["stale_events"] += stats.stale_events
                counters["gpu_rate_passes"] += stats.gpu_rate_passes
                counters["ticks_skipped"] += stats.ticks_skipped
                counters["sim_seconds"] += result.end_time_s
                return result

            sim.run = run
            return sim

        return make_simulator

    def install(self, mode: str) -> None:
        from repro.exec import executors
        from repro.exec.cache import ResultCache
        from repro.fleet import worker

        self.wrap(executors, "execute_job", "exec.dispatch", self._after_execute)
        self.wrap(ResultCache, "get", "cache.get", self._after_get)
        self.wrap(worker, "request_json", _request_span, self._after_request)
        if mode != "trace":
            return

        from repro.exec.planning import Planner
        from repro.exec.service import ExecutionService
        from repro.harness import io
        from repro.scenario import runner
        from repro.scenario.spec import SweepSpec
        from repro.sim import engine

        self.wrap(runner, "run_scenario", "scenario.run")
        self.wrap(SweepSpec, "compile", "scenario.compile")
        for attr in ("load_manifest", "save_manifest"):
            self.wrap(runner, attr, "scenario.manifest")
        for attr in ("generic_rows", "render_generic"):
            self.wrap(runner, attr, "scenario.rows")
        self.wrap(io, "write_json", "scenario.rows")
        self.wrap(ExecutionService, "run_jobs", "exec.dispatch")
        self.wrap(executors.Executor, "run", "exec.dispatch")
        self.wrap(ResultCache, "put", "cache.put", self._after_put)
        self.wrap(executors, "run_experiment", "experiment")
        for attr in ("node_for", "plan_for", "cost_model_for"):
            self.wrap(Planner, attr, "planning.plan")
        self.wrap(Planner, "prepared_for", "planning.prep")
        engine.make_simulator = self._traced_simulator(engine.make_simulator)
        self.wrap(worker.FleetWorker, "run", "fleet.run")

    def planner_counts(self) -> dict:
        from repro.exec.planning import default_planner

        stats = default_planner().stats()
        return {
            "plan_hits": stats["plans"]["hits"],
            "plan_builds": stats["plans"]["builds"],
            "prep_hits": stats["prepared_sims"]["hits"],
            "prep_builds": stats["prepared_sims"]["builds"],
        }


def main() -> int:
    record_path, mode = sys.argv[1], sys.argv[2]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r} (known: {', '.join(MODES)})")
    argv = sys.argv[4:] if sys.argv[3:4] == ["--"] else []

    t_import = time.monotonic()
    import repro.cli
    from repro.scenario.registry import load_catalog

    load_catalog()
    t_ready = time.monotonic()

    record = {"t0": T0, "t_import": t_import, "t_ready": t_ready, "exit_code": 0}
    hooks = None
    if argv:
        hooks = Hooks(Recorder(time.monotonic))
        hooks.install(mode)
        index = hooks.rec.open("cli.main")
        try:
            record["exit_code"] = repro.cli.main(argv)
        finally:
            hooks.rec.close(index)
        record.update(
            spans=hooks.rec.spans,
            counters=hooks.counters,
            cells=hooks.cells,
            fleet=hooks.fleet,
        )
        if mode == "trace":
            record["planner"] = hooks.planner_counts()
    record["t_end"] = time.monotonic()
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(record_path, "w") as handle:
        json.dump(record, handle)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())

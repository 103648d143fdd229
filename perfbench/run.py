"""End-to-end benchmark of ``repro scenario run``, cold, warm and via the fleet.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Each timed command is a real ``repro`` CLI invocation in a fresh
process (through ``perfbench/child.py``, which times set-up and
per-cell latency). The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` cells, and the
metrics -- the end-to-end ones with ``--trace 0``, the per-layer ones
with ``--trace 1``. The line before it (``{"detail": ...}``) records
host facts, the tail percentile and its sample count, ``fail_ratio``,
and on the grid workloads the simulated-vs-paper error.

All times are host time (what the simulator costs to run) except the
``sim_err.*`` figures, which compare simulated results with the paper.
See ``perfbench/NOTES.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, stats, tracing, workloads  # noqa: E402

CHILD = Path(__file__).resolve().parent / "child.py"

#: Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 165.0
#: Set-up samples per run; commands that ran count, probes top up.
SETUP_SAMPLES = 5
#: Cells per run re-simulated under the reference engine.
REF_SAMPLE = 2
#: Tasks per fleet lease round trip.
FLEET_BATCH = 4

#: Bounds are what the run-to-run spread on a shared 2-core VM allows:
#: ten-seed inter-quartile spreads of the timings reach 0.1-0.2 of the
#: median there (see NOTES.md), so a tighter bound would flag noise.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "cell_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cell_tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.import.sim_s", "s", "lower"),
    ("cli.import.fleet_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("scenario.compile_s", "s", "lower"),
    ("scenario.manifest_s", "s", "lower"),
    ("scenario.rows_s", "s", "lower"),
    ("scenario.self_s", "s", "lower"),
    ("exec.dispatch_s", "s", "lower"),
    ("exec.simulated", "count", "lower"),
    ("exec.hits", "count", "higher"),
    ("exec.infeasible", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.gets", "count", "lower"),
    ("cache.puts", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_written", "bytes", "lower"),
    ("planning.plan_s", "s", "lower"),
    ("planning.plan_builds", "count", "lower"),
    ("planning.plan_hit_ratio", "ratio", "higher"),
    ("planning.prep_s", "s", "lower"),
    ("planning.prep_builds", "count", "lower"),
    ("planning.prep_hit_ratio", "ratio", "higher"),
    ("experiment.self_s", "s", "lower"),
    ("engine.setup_s", "s", "lower"),
    ("engine.drain_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.us_per_event", "us", "lower"),
    ("engine.gpu_rate_passes", "count", "lower"),
    ("engine.stale_ratio", "ratio", "lower"),
    ("engine.ticks_skipped", "count", "higher"),
    ("engine.sim_s_per_host_s", "s/s", "higher"),
    ("fleet.lease_ms", "ms", "lower"),
    ("fleet.result_ms", "ms", "lower"),
    ("fleet.round_trips", "count", "lower"),
    ("fleet.waits", "count", "lower"),
    ("fleet.idle_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("trace.process_s", "s", "lower"),
    ("trace.startup_s", "s", "lower"),
    ("trace.exit_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

WHY = {
    "paper_grid": "the paper's Figs. 4-6 sweep, cold: many distinct plans, so planning, "
    "engine drains and cache writes all carry weight; 10 of 48 cells are OOM-cut",
    "capped_deep": "few plans under power caps, perturbations and repeated seeds: nearly "
    "all time is the engine drain, so a planning change should not move it",
    "grid_warm": "paper_grid re-served from a filled cache: every cell a hit, no planning "
    "or engine; the control for engine work and the cache-read path",
    "fleet_batch": "many small cells leased in batches from a coordinator process: the "
    "only workload that crosses the fleet wire",
}


def benchmark_json() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` contract, generated from the tables above."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 20,
        "workloads": [{"name": name, "why": why} for name, why in WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def program_env(**extra: str) -> Dict[str, str]:
    """The environment every child gets: no ``REPRO_*`` from outside.

    An ambient ``REPRO_CACHE_DIR`` would turn a cold run warm and
    ``REPRO_SIM_FAST`` would switch the engine tier, so every
    ``REPRO_*`` variable is dropped before ``extra`` is applied.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


@dataclass
class Command:
    """One timed child process and what it recorded."""

    wall_s: float
    setup_s: float
    process_s: float
    exit_code: int
    record: Optional[Dict[str, Any]]
    stderr: str
    #: Cells resolved (simulated, cache hit or infeasible).
    resolved: int = 0
    #: ``(kind, seconds, cache key)`` per resolved cell (see child.py).
    cells: List[Tuple[str, float, str]] = field(default_factory=list)
    #: Indices (compile order) of the cells that failed a check.
    failed: Set[int] = field(default_factory=set)
    traced: bool = False

    @property
    def latencies(self) -> List[float]:
        """Per-cell host latency in seconds."""
        return [seconds for _, seconds, _ in self.cells]

    @property
    def work_s(self) -> float:
        return self.wall_s - self.setup_s

    @property
    def rss_mb(self) -> float:
        return self.record["peak_rss_kb"] / 1024.0 if self.record else 0.0


class BenchmarkError(RuntimeError):
    """A run cannot produce a result: its preparation or set-up failed."""


class Context:
    """One benchmark run: its work directory, children and deadline."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work_root: Optional[Path] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        root = work_root if work_root is not None else ROOT / ".perfbench"
        self.work = root / f"{workload}-s{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._procs: List[subprocess.Popen] = []
        self._serial = 0
        self.setup_probes: List[float] = []

    # -- processes -----------------------------------------------------

    def remaining(self) -> float:
        return max(1.0, RUN_BUDGET_S - (time.monotonic() - self.started))

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:03d}-{stem}"

    def popen(self, cmd: List[str], env: Dict[str, str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, cwd=self.work, env=env, **kwargs)
        self._procs.append(proc)
        return proc

    def wait(self, proc: subprocess.Popen, timeout: Optional[float] = None) -> int:
        """Block until ``proc`` exits; kill it once ``timeout`` has passed.

        ``Popen.wait(timeout=...)`` polls with sleeps of up to 50 ms,
        which would quantise every wall time by that much; a plain
        ``wait()`` blocks in ``waitpid`` and returns the moment the
        child exits, and a timer thread enforces the timeout instead.
        """
        timer = threading.Timer(self.remaining() if timeout is None else timeout, proc.kill)
        timer.start()
        try:
            return proc.wait()
        finally:
            timer.cancel()

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(self.work, ignore_errors=True)

    def run_plain(self, argv: List[str], env: Optional[Dict[str, str]] = None) -> int:
        """Run ``python -m repro ARGV`` untimed (preparation, checks)."""
        with open(self.path("plain.err"), "w") as err:
            proc = self.popen(
                [sys.executable, "-m", "repro", *argv],
                env if env is not None else program_env(),
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            return self.wait(proc)

    def run_child(self, argv: List[str], traced: bool = False) -> Command:
        """Run one timed ``repro`` command through ``child.py``."""
        record_path = self.path("record.json")
        err_path = self.path("child.err")
        mode = "trace" if traced else "cells"
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), str(record_path), mode]
        if argv:
            cmd += ["--", *argv]
        with open(err_path, "w") as err:
            spawned = time.monotonic()
            proc = self.popen(cmd, program_env(), stdout=subprocess.DEVNULL, stderr=err)
            code = self.wait(proc)
            exited = time.monotonic()
        record = None
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            pass
        stderr = err_path.read_text()
        setup = record["t_ready"] - spawned if record else exited - spawned
        command = Command(
            wall_s=exited - spawned,
            setup_s=setup,
            process_s=exited - spawned,
            exit_code=code,
            record=record,
            stderr=stderr,
            traced=traced,
        )
        if record and "counters" in record:
            counters = record["counters"]
            command.resolved = counters["executed"] + counters["hits"]
            command.cells = [tuple(cell) for cell in record["cells"]]
        return command

    def probe_setup(self, have: int) -> None:
        """Top the run's set-up samples up to :data:`SETUP_SAMPLES`."""
        for _ in range(max(0, SETUP_SAMPLES - have)):
            probe = self.run_child([])
            if probe.exit_code != 0 or probe.record is None:
                raise BenchmarkError(f"set-up probe failed:\n{probe.stderr[-2000:]}")
            self.setup_probes.append(probe.setup_s)

    def write_spec(self, spec: Dict[str, Any]) -> Path:
        path = self.path(f"{spec['name']}.json")
        path.write_text(json.dumps(spec, indent=1))
        return path

    def timed_loop(self, one: Callable[[bool], Command]) -> List[Command]:
        """Run commands until the next one would end past ``seconds``
        by more than half its length.

        The measured time thus averages ``seconds`` instead of falling
        short of it by up to a command, which would halve the window of
        a run whose commands take just over half of it. At least one
        command runs (a traced run: one untraced and one traced).
        Traced runs alternate untraced and traced commands so the
        tracing overhead compares like with like.
        """
        start = time.monotonic()
        done: List[Command] = []
        while True:
            done.append(one(False))
            if self.trace:
                done.append(one(True))
            elapsed = time.monotonic() - start
            step = elapsed / (len(done) // (2 if self.trace else 1))
            if elapsed + step / 2 > self.seconds or elapsed + step > self.remaining() / 2:
                return done


# ----------------------------------------------------------------------
# Checks shared by the workloads
# ----------------------------------------------------------------------


def check_local(cmd: Command, cache_dir: Path, name: str, n_cells: int) -> List[str]:
    """Per-cell checks of a local ``scenario run``; returns compile-order keys."""
    keys = checks.manifest_keys(cache_dir, name)
    if cmd.exit_code != 0 or keys is None or len(keys) != n_cells:
        cmd.failed = set(range(n_cells))
        return keys or []
    for index, problems in enumerate(checks.cell_problems(cache_dir, keys)):
        if problems:
            cmd.failed.add(index)
    if cmd.resolved != n_cells:
        cmd.failed = set(range(n_cells))
    return keys


def check_warm(cmd: Command, rows_path: Path, fill_rows: Path, n_cells: int) -> None:
    """A warm re-serve hits on every cell, simulates none, and writes
    rows byte-identical to the run that filled the cache."""
    counters = (cmd.record or {}).get("counters", {})
    all_hits = counters.get("executed") == 0 and counters.get("hits") == n_cells
    if cmd.exit_code != 0 or not all_hits or not rows_path.exists():
        cmd.failed = set(range(n_cells))
        return
    if checks.same_bytes(rows_path, fill_rows):
        return
    rows = json.loads(rows_path.read_text())
    expected = json.loads(fill_rows.read_text())
    if len(rows) != n_cells or len(expected) != n_cells:
        cmd.failed = set(range(n_cells))
        return
    # Byte equality is the check; the per-row diff only says which
    # cells to blame (all of them when no single row differs).
    cmd.failed = {i for i in range(n_cells) if rows[i] != expected[i]} or set(range(n_cells))


def reference_check(ctx: Context, spec: Dict[str, Any], cache_dir: Path,
                    keys: List[str]) -> Set[int]:
    """Re-simulate a seeded sample of feasible cells on the reference engine.

    Runs outside the timed section. Returns the indices whose payload
    is not byte-identical to the one the timed command stored.
    """
    cells = workloads.cells(spec)
    feasible = [
        i for i, key in enumerate(keys)
        if "result" in (checks.load_payload(cache_dir, key) or {})
    ]
    picked = sorted(random.Random(ctx.seed).sample(feasible, min(REF_SAMPLE, len(feasible))))
    if not picked:
        return set()
    sample = workloads.subset_spec(spec, [cells[i] for i in picked])
    ref_dir = ctx.path("reference")
    code = ctx.run_plain(
        ["scenario", "run", str(ctx.write_spec(sample)), "--cache-dir", str(ref_dir)],
        env=program_env(REPRO_SIM_ENGINE="reference"),
    )
    ref_keys = checks.manifest_keys(ref_dir, sample["name"])
    if code != 0 or ref_keys is None or len(ref_keys) != len(picked):
        return set(picked)
    return {
        index
        for index, ref_key in zip(picked, ref_keys)
        if ref_key != keys[index]
        or not checks.same_bytes(ref_dir / f"{ref_key}.json", cache_dir / f"{ref_key}.json")
    }


def grid_sim_err(cache_dir: Path, keys: List[str]) -> Dict[str, float]:
    payloads = [checks.load_payload(cache_dir, key) for key in keys]
    return checks.sim_err_pp(checks.aggregates_pct(payloads))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    commands: List[Command]
    n_cells: int
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Cells failed outside any one command (reference re-simulation).
    extra_failed: int = 0


def run_cold(ctx: Context, spec: Dict[str, Any]) -> Outcome:
    """paper_grid / capped_deep: fresh process, empty cache dir, per command."""
    spec_path = ctx.write_spec(spec)
    n_cells = len(workloads.cells(spec))
    first: Dict[str, Any] = {}

    def one(traced: bool) -> Command:
        cache_dir = ctx.path("cache")
        cmd = ctx.run_child(
            ["scenario", "run", str(spec_path), "--cache-dir", str(cache_dir),
             "--out", str(ctx.path("rows.json"))],
            traced=traced,
        )
        keys = check_local(cmd, cache_dir, spec["name"], n_cells)
        if not first and not cmd.failed:
            first.update(cache_dir=cache_dir, keys=keys)
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return cmd

    commands = ctx.timed_loop(one)
    outcome = Outcome(commands, n_cells)
    if first:
        failed = reference_check(ctx, spec, first["cache_dir"], first["keys"])
        outcome.extra_failed = len(failed)
        if spec["name"] == "paper_grid":
            outcome.detail.update(grid_sim_err(first["cache_dir"], first["keys"]))
    return outcome


def run_paper_grid(ctx: Context) -> Outcome:
    return run_cold(ctx, workloads.paper_grid(ctx.seed))


def run_capped_deep(ctx: Context) -> Outcome:
    return run_cold(ctx, workloads.capped_deep(ctx.seed))


def run_grid_warm(ctx: Context) -> Outcome:
    """paper_grid's spec re-served from a cache filled before timing."""
    spec = workloads.paper_grid(ctx.seed)
    spec_path = ctx.write_spec(spec)
    n_cells = len(workloads.cells(spec))
    cache_dir = ctx.path("cache")
    fill_rows = ctx.path("fill-rows.json")
    code = ctx.run_plain(
        ["scenario", "run", str(spec_path), "--cache-dir", str(cache_dir),
         "--out", str(fill_rows)]
    )
    keys = checks.manifest_keys(cache_dir, spec["name"])
    if code != 0 or keys is None or len(keys) != n_cells:
        raise BenchmarkError("grid_warm: filling the cache failed")
    bad_payloads = {
        i for i, problems in enumerate(checks.cell_problems(cache_dir, keys)) if problems
    }

    def one(traced: bool) -> Command:
        rows_path = ctx.path("rows.json")
        cmd = ctx.run_child(
            ["scenario", "run", str(spec_path), "--cache-dir", str(cache_dir),
             "--out", str(rows_path)],
            traced=traced,
        )
        check_warm(cmd, rows_path, fill_rows, n_cells)
        cmd.failed |= bad_payloads
        return cmd

    outcome = Outcome(ctx.timed_loop(one), n_cells)
    outcome.detail.update(grid_sim_err(cache_dir, keys))
    return outcome


def _coordinator_url(proc: subprocess.Popen, deadline: float) -> Optional[str]:
    """Read the coordinator's stdout until it prints where it serves."""
    buffer = b""
    fd = proc.stdout.fileno()
    while time.monotonic() < deadline:
        ready, _, _ = select.select([fd], [], [], 0.2)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                return None
            buffer += chunk
            for line in buffer.decode("utf-8", "replace").splitlines():
                marker = " at http"
                if line.startswith("[fleet] serving") and marker in line:
                    return line[line.index(marker) + 4:].strip()
        elif proc.poll() is not None:
            return None
    return None


def run_fleet_batch(ctx: Context) -> Outcome:
    """A coordinator process serving one batched-lease worker per command."""
    spec = workloads.fleet_batch(ctx.seed)
    spec_path = ctx.write_spec(spec)
    n_cells = len(workloads.cells(spec))
    serial_dir = ctx.path("serial")
    code = ctx.run_plain(["scenario", "run", str(spec_path), "--cache-dir", str(serial_dir)])
    keys = checks.manifest_keys(serial_dir, spec["name"])
    if code != 0 or keys is None or len(keys) != n_cells:
        raise BenchmarkError("fleet_batch: the serial reference run failed")
    first: Dict[str, Any] = {}

    def one(traced: bool) -> Command:
        coord_dir = ctx.path("coordinator")
        with open(ctx.path("coordinator.err"), "w") as err:
            coordinator = ctx.popen(
                [sys.executable, "-u", "-m", "repro", "scenario", "serve", str(spec_path),
                 "--port", "0", "--cache-dir", str(coord_dir),
                 "--timeout", str(int(ctx.remaining()))],
                program_env(), stdout=subprocess.PIPE, stderr=err,
            )
        url = _coordinator_url(coordinator, time.monotonic() + min(60.0, ctx.remaining()))
        if url is None:
            coordinator.kill()
            ctx.wait(coordinator)
            raise BenchmarkError("fleet_batch: the coordinator did not start")
        cmd = ctx.run_child(["worker", url, "--batch", str(FLEET_BATCH)], traced=traced)
        coordinator_code = ctx.wait(coordinator, timeout=min(30.0, ctx.remaining()))
        coordinator.stdout.close()
        fleet = (cmd.record or {}).get("fleet") or {}
        if fleet.get("first_lease") is not None and fleet.get("last_ack") is not None:
            cmd.wall_s = fleet["last_ack"] - fleet["first_lease"]
        cmd.resolved = fleet.get("acked", 0)
        # The worker's execute_job calls are inside lease-to-ack; the
        # per-cell latency here is the fleet's.
        cmd.cells = [cell for cell in cmd.cells if cell[0] == "fleet"]
        if cmd.exit_code != 0 or coordinator_code != 0 or cmd.resolved != n_cells:
            cmd.failed = set(range(n_cells))
        for index, key in enumerate(keys):
            if not checks.same_bytes(serial_dir / f"{key}.json", coord_dir / f"{key}.json"):
                cmd.failed.add(index)
        for index, problems in enumerate(checks.cell_problems(coord_dir, keys)):
            if problems:
                cmd.failed.add(index)
        if not first and not cmd.failed:
            first["cache_dir"] = coord_dir
        else:
            shutil.rmtree(coord_dir, ignore_errors=True)
        return cmd

    commands = ctx.timed_loop(one)
    outcome = Outcome(commands, n_cells)
    if first:
        outcome.extra_failed = len(reference_check(ctx, spec, first["cache_dir"], keys))
    return outcome


RUNNERS: Dict[str, Callable[[Context], Outcome]] = {
    "paper_grid": run_paper_grid,
    "capped_deep": run_capped_deep,
    "grid_warm": run_grid_warm,
    "fleet_batch": run_fleet_batch,
}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end_metrics(commands: List[Command], setup_samples: List[float],
                       fleet: bool) -> Dict[str, float]:
    """Every end-to-end metric over a run's untraced commands.

    Times per command are medians over the commands; per-cell latency
    is read off the run's cell samples (:func:`stats.cell_samples`).
    """
    samples = run_cell_samples(commands)

    def rate(cmd: Command) -> float:
        # The fleet wall already starts at the first lease, after set-up.
        return cmd.resolved / (cmd.wall_s if fleet else cmd.work_s)

    return {
        "wall_s": stats.median([c.wall_s for c in commands]),
        "setup_s": stats.median(setup_samples),
        "cells_per_s": stats.median([rate(c) for c in commands]),
        "cell_p50_ms": 1e3 * stats.median(samples),
        "cell_tail_ms": 1e3 * stats.tail(samples)["value"],
        "peak_rss_mb": stats.median([c.rss_mb for c in commands]),
    }


def run_cell_samples(commands: List[Command]) -> List[float]:
    return stats.cell_samples(cell for cmd in commands for cell in cmd.cells)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_self_times(record: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer, the import phase counted as ``cli``'s."""
    layers = tracing.totals_by_layer(record["spans"])
    layers["cli"] += record["t_ready"] - record["t_import"]
    return layers


def layer_metrics(cmd: Command) -> Dict[str, float]:
    """Per-layer metrics of one traced command."""
    record = cmd.record
    spans = record["spans"]
    by_name = tracing.totals_by_name(spans)
    counters = record["counters"]
    planner = record["planner"]
    import_s = record["t_ready"] - record["t_import"]
    spawned = record["t_ready"] - cmd.setup_s
    covered = sum(layer_self_times(record).values())
    events = counters["events"]
    drain_s = by_name.get("engine.drain", 0.0)
    leases = [s[2] - s[1] for s in spans if s[0] == "fleet.lease"]
    results = [s[2] - s[1] for s in spans if s[0] == "fleet.result"]
    plan_total = planner["plan_hits"] + planner["plan_builds"]
    prep_total = planner["prep_hits"] + planner["prep_builds"]
    return {
        "cli.import_s": import_s,
        "cli.import.sim_s": tracing.import_chain_s(cmd.stderr, ["repro.sim", "numpy"]),
        "cli.import.fleet_s": tracing.import_chain_s(cmd.stderr, ["repro.fleet"]),
        "cli.main_s": by_name.get("cli.main", 0.0),
        "scenario.compile_s": by_name.get("scenario.compile", 0.0),
        "scenario.manifest_s": by_name.get("scenario.manifest", 0.0),
        "scenario.rows_s": by_name.get("scenario.rows", 0.0),
        "scenario.self_s": by_name.get("scenario.run", 0.0),
        "exec.dispatch_s": by_name.get("exec.dispatch", 0.0),
        "exec.simulated": counters["executed"],
        "exec.hits": counters["hits"],
        "exec.infeasible": counters["infeasible"],
        "cache.get_s": by_name.get("cache.get", 0.0),
        "cache.put_s": by_name.get("cache.put", 0.0),
        "cache.gets": counters["gets"],
        "cache.puts": counters["puts"],
        "cache.hit_ratio": _ratio(counters["hits"], counters["gets"]),
        "cache.bytes_written": counters["bytes_written"],
        "planning.plan_s": by_name.get("planning.plan", 0.0),
        "planning.plan_builds": planner["plan_builds"],
        "planning.plan_hit_ratio": _ratio(planner["plan_hits"], plan_total),
        "planning.prep_s": by_name.get("planning.prep", 0.0),
        "planning.prep_builds": planner["prep_builds"],
        "planning.prep_hit_ratio": _ratio(planner["prep_hits"], prep_total),
        "experiment.self_s": by_name.get("experiment", 0.0),
        "engine.setup_s": by_name.get("engine.setup", 0.0),
        "engine.drain_s": drain_s,
        "engine.runs": counters["engine_runs"],
        "engine.events": events,
        "engine.us_per_event": 1e6 * drain_s / events if events else 0.0,
        "engine.gpu_rate_passes": counters["gpu_rate_passes"],
        "engine.stale_ratio": _ratio(counters["stale_events"], events + counters["stale_events"]),
        "engine.ticks_skipped": counters["ticks_skipped"],
        "engine.sim_s_per_host_s": _ratio(counters["sim_seconds"], drain_s),
        "fleet.lease_ms": 1e3 * stats.median(leases) if leases else 0.0,
        "fleet.result_ms": 1e3 * stats.median(results) if results else 0.0,
        "fleet.round_trips": len(leases) + len(results),
        "fleet.waits": counters["waits"],
        "fleet.idle_s": counters["idle_s"],
        "fleet.self_s": by_name.get("fleet.run", 0.0),
        "trace.process_s": cmd.process_s,
        "trace.startup_s": record["t0"] - spawned,
        "trace.exit_s": spawned + cmd.process_s - record["t_end"],
        "trace.uncovered_s": cmd.process_s - covered,
        "trace.wall_s": cmd.wall_s,
    }


def layer_shares(cmd: Command) -> Dict[str, float]:
    """Each layer's self time as a share of the traced process wall time."""
    layers = layer_self_times(cmd.record)
    shares = {layer: own / cmd.process_s for layer, own in layers.items()}
    shares["uncovered"] = 1.0 - sum(shares.values())
    return shares


def per_layer_metrics(commands: List[Command]) -> Dict[str, float]:
    """Medians over a traced run's traced commands, plus the overhead."""
    traced = [c for c in commands if c.traced]
    plain = [c for c in commands if not c.traced]
    per_cmd = [layer_metrics(c) for c in traced]
    out = {name: stats.median([m[name] for m in per_cmd]) for name in per_cmd[0]}
    out["trace.untraced_wall_s"] = stats.median([c.wall_s for c in plain])
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run(ctx: Context) -> Dict[str, Any]:
    """Run one workload; returns ``{"detail": ..., "result": ...}``."""
    outcome = RUNNERS[ctx.workload](ctx)
    commands = outcome.commands
    plain = [c for c in commands if not c.traced]
    if not ctx.trace:
        ctx.probe_setup(len(plain))
    attempted = outcome.n_cells * len(commands)
    failed = min(attempted, sum(len(c.failed) for c in commands) + outcome.extra_failed)
    usable = [c for c in commands if c.record and c.latencies and c.work_s > 0]
    complete = len(usable) == len(commands)
    correct = failed == 0 and complete
    units = {m["name"]: m["unit"] for m in END_TO_END}
    units.update({name: unit for name, unit, _ in PER_LAYER})
    metrics: Dict[str, float] = {}
    if complete:
        if ctx.trace:
            metrics = per_layer_metrics(commands)
        else:
            metrics = end_to_end_metrics(
                plain, [c.setup_s for c in plain] + ctx.setup_probes,
                fleet=ctx.workload == "fleet_batch",
            )
    usable_plain = [c for c in usable if not c.traced]
    tail = (stats.tail(run_cell_samples(usable_plain)) if usable_plain
            else {"pct": None, "samples": 0})
    detail = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "host": host_facts(),
        "commands": len(commands),
        "cell_tail": {"pct": tail["pct"], "samples": tail["samples"]},
        "fail_ratio": stats.fail_ratio(attempted, failed),
        **outcome.detail,
    }
    if ctx.trace and complete:
        traced = [c for c in commands if c.traced]
        detail["layer_shares"] = layer_shares(traced[0])
        spans_path = ctx.work.parent / f"trace-{ctx.workload}-s{ctx.seed}.json"
        spans_path.write_text(json.dumps([c.record["spans"] for c in traced]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return {"detail": detail, "result": result}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="write BENCHMARK.json at the repository root and exit",
    )
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        report = run(ctx)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        ctx.close()
    print(json.dumps({"detail": report["detail"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

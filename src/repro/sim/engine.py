"""The discrete-event simulation engine.

Executes a set of :class:`~repro.sim.task.Task` objects (per-GPU stream
programs) on a :class:`~repro.hw.system.NodeSpec`. Tasks are fluids:
each holds remaining work and a current rate; events bank progress,
apply the state change, launch newly unblocked stream heads, update
rates from the contention model and (re)schedule finish events.
Governor ticks close the DVFS loop against instantaneous power.

Three engine tiers share that machinery; ``SimConfig.engine`` picks
one (:func:`make_simulator`):

* :class:`Simulator` (``"reference"``) — the full-recompute oracle:
  every event recomputes every instance rate, every per-GPU contention
  aggregate and every GPU's power. O(events x tasks); kept as the
  correctness oracle and perf baseline.
* :class:`IncrementalSimulator` (``"exact"``, the default) — an event
  dirties only the GPUs and collective instances whose inputs actually
  changed (shared SM/HBM/link contention, clock moves,
  launches/finishes), and only those are re-evaluated. Task progress
  banks lazily by replaying the global time-step log, which reproduces
  the reference engine's per-step float arithmetic exactly; per-GPU
  float accumulations iterate memberships in creation order for the
  same reason. Results are **bit-for-bit identical** to the reference
  (the equivalence suite pins this).
* :class:`FastSimulator` (``"fast"``) — additive contention
  aggregates, adaptive governor ticks, cohort batching over a
  struct-of-arrays store and O(1) progress banking. Its results carry
  bounded relative error, gated by the equivalence suite's tolerance
  tier.

Every tier pops one versioned binary-heap
:class:`~repro.sim.events.EventQueue`; stale finish events are
tombstoned (lazy invalidation) instead of eagerly removed. Invariant
per-task quantities — jittered work and isolated durations, collective
cost-model lookups, jitter factors — are hoisted into tables built
once per simulation; power evaluations and roofline peaks are memoized
on the state they depend on (see :class:`~repro.hw.power.PowerEvaluator`
/ :class:`~repro.sim.rates.RateModel`).
"""

from __future__ import annotations

import gc
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.collectives.cost_model import CollectiveCostModel
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    PlanError,
    SimulationError,
)
from repro.hw.datapath import Datapath
from repro.hw.dvfs import FrequencyGovernor, PowerLimitPolicy, observe_many
from repro.hw.system import NodeSpec
from repro.sim.collective_sync import CollectiveInstance
from repro.sim.config import SimConfig
from repro.sim.events import EventKind, EventQueue
from repro.sim.prep import PreparedSim, prepare, reset_prepared, run_arena
from repro.sim.rates import RateModel
from repro.sim.result import PowerSegment, SimulationResult, TaskRecord
from repro.sim.soa import VECTOR_MIN, CohortScratch, numpy_or_none
from repro.sim.task import CommTask, ComputeTask, Task, TaskCategory
from repro.workloads.kernels import reset_kernel_intern

#: Floors preventing full starvation (real kernels always trickle).
_MIN_SM_FRACTION = 0.05
_MIN_HBM_FRACTION = 0.02
#: Collectives can never pin more than this much of the GPU.
_MAX_COMM_SM = 0.45
#: Vector-pipe utilisation per unit of collective SM share: channel
#: copy loops of an *active* collective draw most of their pipes'
#: power; busy-polling (spinning) channels draw less and move no data.
#: Shared by every engine tier's power path.
_COMM_VECTOR_UTIL = 0.8
_SPIN_VECTOR_UTIL = 0.4

#: Hot-loop aliases (module lookups are faster than attribute chains).
_INF = float("inf")
_TASK_FINISH = EventKind.TASK_FINISH
_GOVERNOR_TICK = EventKind.GOVERNOR_TICK
_COLLECTIVE_FINISH = EventKind.COLLECTIVE_FINISH
_PERTURB_BEGIN = EventKind.PERTURB_BEGIN
_PERTURB_END = EventKind.PERTURB_END
#: TASK_FINISH events exist only for compute entries (comm retires
#: through COLLECTIVE_FINISH), so the fast tier's finish branch records
#: this constant instead of calling the ``category`` property.
_CAT_COMPUTE = TaskCategory.COMPUTE
#: (start_s, task_id) over TaskRecord's tuple layout — the result-sort
#: key, evaluated once per record.
_RECORD_SORT_KEY = operator.itemgetter(6, 0)

def reset_shared_evaluators() -> None:
    """Drop the process-wide prep-layer memos (evaluators, prepared
    sims, jitter factors, the kernel intern table).

    Results never depend on them (every cached value is pure in its
    key), but *timings* do — the engine benchmark calls this between
    tiers so no tier inherits a cache another tier warmed.
    """
    reset_prepared()
    reset_kernel_intern()


@dataclass(slots=True)
class _RunningCompute:
    """Bookkeeping for an in-flight compute task.

    ``slots=True``: the engine touches several fields per entry on
    every rate/power re-evaluation, and slot access skips the per
    instance ``__dict__`` lookup.
    """

    task: ComputeTask
    work_remaining: float
    rate: float
    isolated_s: float
    started_at: float
    #: Pre-resolved kernel roofline parameters (peak x efficiency and
    #: arithmetic intensity) so the per-event rate/power math never
    #: hashes the kernel table.
    peak_eff: float = 0.0
    ai: float = float("inf")
    #: Short kernels never reach steady-state power; this precomputed
    #: ``isolated_s / (isolated_s + 50e-6)`` ramp discount is used by
    #: the fast tier's fused power loop (the exact tiers compute
    #: the identical quotient inline).
    ramp: float = 1.0
    #: Whether the kernel issues on the vector datapath (else tensor);
    #: pre-resolved so the fused power loop never touches the kernel.
    is_vector: bool = True
    #: Free-running utilisation at the config's clock cap — the clock
    #: every uncapped (and most capped) evaluations see — so the fused
    #: loop's common case is one float compare instead of a dict walk.
    free_util0: float = 0.0
    #: The task's id, denormalized so finish (re)scheduling — once per
    #: rate change per entry — skips the task attribute walk.
    tid: int = -1
    #: Whether a finish event has ever been scheduled (the first rate
    #: assignment must push even if the placeholder rate matches).
    scheduled: bool = False
    #: Index into the engine's time-step log up to which progress has
    #: been banked (exact engine only).
    bank_idx: int = 0
    #: Cumulative simulated time up to which progress has been banked
    #: (fast engine only — O(1) banking, no replay log).
    bank_cum: float = 0.0
    #: Per-clock free-running utilisation, resolved through the shared
    #: RateModel memo on first use (values are identical; this cache
    #: only skips the kernel-keyed hashing on the power hot path).
    free_util_cache: Dict[float, float] = field(default_factory=dict)


@dataclass
class EngineStats:
    """Hot-path counters for benchmarking and diagnostics."""

    events: int = 0
    stale_events: int = 0
    gpu_rate_passes: int = 0
    instance_rate_passes: int = 0
    #: Governor tick schedulings skipped by the adaptive cadence
    #: (fast tier only; one count per provably-no-op skip decision).
    ticks_skipped: int = 0
    #: Same-timestamp event cohorts drained by the fast engine
    #: (events / cohorts is the mean batching factor).
    cohorts: int = 0
    #: Multi-GPU recompute batches evaluated through the numpy path.
    vector_batches: int = 0
    #: Perturbation windows opened/closed (one count per applied
    #: PERTURB_BEGIN/PERTURB_END event).
    perturb_events: int = 0


class Simulator:
    """Simulate one program (e.g. one training iteration) on a node.

    This base class is the *reference* engine: every event triggers a
    full recompute of all rates, aggregates and power. Subclasses hook
    the state transitions (launch, post, start, finish, clock change)
    to maintain incremental indices; the hooks are no-ops here.
    """

    def __init__(
        self,
        node: NodeSpec,
        tasks: Sequence[Task],
        config: Optional[SimConfig] = None,
        cost_model: Optional[CollectiveCostModel] = None,
        prepared: Optional[PreparedSim] = None,
    ):
        if config is None:
            config = SimConfig()
        self.node = node
        self.config = config
        self.gpu = node.gpu
        # Everything pure in (plan, node, sim-relevant config) lives in
        # the prepared layer — built (or fetched from the process-wide
        # cache) here, or handed in pre-built by the planner.
        if prepared is None:
            prepared = prepare(
                node,
                tasks,
                seed=config.seed,
                jitter_sigma=config.jitter_sigma,
                max_clock_frac=config.max_clock_frac,
                cost_model=cost_model,
            )
        elif (
            prepared.tasks_src is not tasks
            or prepared.gpu is not node.gpu
            or (cost_model is not None and prepared.cost_model is not cost_model)
            or prepared.seed != config.seed
            or prepared.jitter_sigma != config.jitter_sigma
            or prepared.max_clock_frac != config.max_clock_frac
            or prepared.num_gpus != node.num_gpus
        ):
            raise PlanError(
                "prepared simulation does not match (node, tasks, config)"
            )
        self.prepared = prepared
        self.cost_model = prepared.cost_model
        self.stats = EngineStats()

        # Read-only indexes from the prep layer; only the cursor dict
        # and completion set are per-run.
        self.tasks: Dict[int, Task] = prepared.tasks
        self.streams: Dict[Tuple[int, str], List[int]] = prepared.streams
        self._stream_pos: Dict[Tuple[int, str], int] = dict.fromkeys(
            prepared.stream_keys, 0
        )
        self.done: set = set()

        self.time = 0.0
        self.queue = EventQueue()
        self.running: Dict[int, _RunningCompute] = {}
        self.instances: Dict[str, CollectiveInstance] = {}
        self._inst_seq = 0
        self._waiting: set = set()  # comm tasks posted but not started
        self._comm_started: set = set()

        # Memoized pure evaluators (shared per GPU spec) + invariant
        # tables, all read-only from the prep layer.
        self._rates = prepared.rates
        self._power_eval = prepared.power_eval
        self._compute_table = prepared.compute_table
        self._comm_cost = prepared.comm_cost
        # Hot-path invariants hoisted out of attribute chains.
        self._hbm_eff = prepared.hbm_eff
        self._hbm_bw = prepared.hbm_bw
        self._spin_scale = prepared.spin_scale
        self._interference = prepared.interference
        self._stall_frac = prepared.stall_frac

        self._clock: Dict[int, float] = {
            g: config.max_clock_frac for g in range(node.num_gpus)
        }
        self._governors: Dict[int, FrequencyGovernor] = {}
        if config.governor_enabled:
            limit = config.power_limit_w or node.gpu.tdp_w
            policy = PowerLimitPolicy(
                limit_w=limit,
                control_period_s=config.governor_period_s,
                max_clock_frac=config.max_clock_frac,
            )
            for g in range(node.num_gpus):
                self._governors[g] = FrequencyGovernor(
                    policy, min_clock_frac=node.gpu.min_clock_frac
                )

        self._tick_pending: Dict[int, bool] = {
            g: False for g in range(node.num_gpus)
        }
        #: Count of GPUs with a tick outstanding (fast-path exit for
        #: the per-event _ensure_ticks sweep).
        self._ticks_outstanding = 0
        self._power_now: Dict[int, float] = {}
        #: Open power segment per GPU as a plain tuple
        #: (start_s, power_w, compute_active, comm_active, clock_frac);
        #: materialized into a PowerSegment only when it closes.
        self._segment_open: Dict[
            int, Tuple[float, float, bool, bool, float]
        ] = {}
        self._segments: Dict[int, List[PowerSegment]] = {
            g: [] for g in range(node.num_gpus)
        }
        self.records: List[TaskRecord] = []
        self._min_clock_seen = config.max_clock_frac
        self._init_perturbations()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _init_perturbations(self) -> None:
        """Arm the degradation injector (``sim/perturb.py``).

        Each :class:`~repro.sim.perturb.PerturbationSpec` becomes a
        ``PERTURB_BEGIN`` (and, for finite windows, ``PERTURB_END``)
        event in the ordinary queue, keyed by its index in the config
        tuple — scheduled here, before any task event exists, so the
        insertion order (and therefore every same-time tie-break) is
        identical in every tier. The per-GPU multiplier arrays start
        at identity; :meth:`_apply_perturb` rebuilds them from the
        active-perturbation set on every boundary.
        """
        perturbs = self.config.perturbations
        num_gpus = self.node.num_gpus
        self._perturbs = perturbs
        self._perturbed = bool(perturbs)
        self._perturb_rate: List[float] = [1.0] * num_gpus
        self._perturb_hbm: List[float] = [1.0] * num_gpus
        self._perturb_link: List[float] = [1.0] * num_gpus
        self._perturb_cap: List[float] = (
            [self.config.max_clock_frac] * num_gpus
        )
        self._perturb_targets: List[Tuple[int, ...]] = []
        self._perturb_target_sets: List[frozenset] = []
        self._active_perturbs: set = set()
        if not perturbs:
            return
        inf = float("inf")
        for index, spec in enumerate(perturbs):
            gpus = spec.target_gpus(num_gpus)
            self._perturb_targets.append(gpus)
            self._perturb_target_sets.append(frozenset(gpus))
            if not gpus:
                continue  # inert on this node width
            self.queue.schedule(spec.start_s, _PERTURB_BEGIN, index)
            end = spec.end_s
            if end < inf:
                self.queue.schedule(end, _PERTURB_END, index)

    # ------------------------------------------------------------------
    # incremental hooks (no-ops in the reference engine)
    # ------------------------------------------------------------------

    def _on_compute_launched(self, entry: _RunningCompute) -> None:
        pass

    def _on_compute_finished(self, entry: _RunningCompute) -> None:
        pass

    def _on_instance_created(self, inst: CollectiveInstance) -> None:
        pass

    def _on_comm_posted(self, task: CommTask, inst: CollectiveInstance) -> None:
        pass

    def _on_instance_started(self, inst: CollectiveInstance) -> None:
        pass

    def _on_collective_finished(self, inst: CollectiveInstance) -> None:
        pass

    def _on_task_done(self, task: Task) -> None:
        pass

    def _on_clock_changed(self, gpu_index: int) -> None:
        pass

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute all tasks; returns the populated result."""
        self._open_segments()
        self._try_launch()
        self._recompute()
        self._ensure_ticks()
        # Same rationale as the fast tier's loop: the drain
        # allocates no reference cycles, so generational collection
        # scans during it are pure overhead. Restore the caller's
        # setting even on simulation errors.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._run_loop()
        finally:
            if was_enabled:
                gc.enable()
        return self._finalize()

    def _run_loop(self) -> None:
        total = len(self.tasks)
        while len(self.done) < total:
            event = self.queue.pop_live()
            if event is None:
                raise DeadlockError(self._deadlock_report())
            if event.time > self.config.max_sim_time_s:
                raise SimulationError(
                    f"simulation exceeded {self.config.max_sim_time_s}s"
                )
            self.stats.events += 1
            self._advance_to(event.time)
            if event.kind is EventKind.TASK_FINISH:
                self._finish_compute(event.payload)
            elif event.kind is EventKind.COLLECTIVE_FINISH:
                self._finish_collective(event.payload)
            elif event.kind is EventKind.GOVERNOR_TICK:
                self._governor_tick(event.payload)
            elif event.kind is EventKind.PERTURB_BEGIN:
                self._apply_perturb(event.payload, True)
            elif event.kind is EventKind.PERTURB_END:
                self._apply_perturb(event.payload, False)
            if len(self.done) >= total:
                break
            self._try_launch()
            self._recompute()
            self._ensure_ticks()

    def _finalize(self) -> SimulationResult:
        """Close out the run: stats, segments, validated result."""
        self.stats.stale_events = self.queue.stale_dropped
        self._close_segments()
        result = SimulationResult(
            end_time_s=self.time,
            # (start_s, task_id) sort key; itemgetter over the record
            # namedtuple's slots runs in C, and this touches every
            # record of the run.
            records=sorted(self.records, key=_RECORD_SORT_KEY),
            power_segments=self._segments if self.config.trace_power else {},
            num_gpus=self.node.num_gpus,
            min_clock_frac_seen=self._min_clock_seen,
        )
        result.validate()
        return result

    def _advance_to(self, t: float) -> None:
        if t < self.time - 1e-12:
            raise SimulationError("event time went backwards")
        t = max(t, self.time)
        dt = t - self.time
        if dt > 0:
            for entry in self.running.values():
                entry.work_remaining = max(
                    0.0, entry.work_remaining - entry.rate * dt
                )
            for inst in self.instances.values():
                inst.bank_progress(t)
        self.time = t

    # ------------------------------------------------------------------
    # launching
    # ------------------------------------------------------------------

    def _head(self, key: Tuple[int, str]) -> Optional[int]:
        order = self.streams[key]
        pos = self._stream_pos[key]
        if pos >= len(order):
            return None
        return order[pos]

    def _pop_head(self, key: Tuple[int, str], expected: int) -> None:
        # _head, inlined (called once per task completion).
        order = self.streams[key]
        pos = self._stream_pos[key]
        head = order[pos] if pos < len(order) else None
        if head != expected:
            raise SimulationError(
                f"stream {key}: completing task {expected} but head is {head}"
            )
        self._stream_pos[key] = pos + 1

    def _maybe_launch_head(self, key: Tuple[int, str]) -> bool:
        """Launch/post the head of one stream if it is runnable."""
        # _head, inlined (this runs for every candidate stream on
        # every completion).
        order = self.streams[key]
        pos = self._stream_pos[key]
        if pos >= len(order):
            return False
        tid = order[pos]
        if tid in self.running or tid in self._waiting:
            return False
        if tid in self._comm_started:
            return False
        task = self.tasks[tid]
        if not task.deps <= self.done:
            return False
        if isinstance(task, ComputeTask):
            self._launch_compute(task)
        elif isinstance(task, CommTask):
            self._post_comm(task)
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown task type for {task.label}")
        return True

    def _try_launch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for key in self.streams:
                if self._maybe_launch_head(key):
                    progressed = True

    def _launch_compute(self, task: ComputeTask) -> None:
        work, iso, peak_eff, ai, ramp, is_vector, free_util0 = (
            self._compute_table[task.task_id]
        )
        # Positional: rate=1.0 is a placeholder the first recompute
        # overwrites.
        entry = _RunningCompute(
            task, work, 1.0, iso, self.time,
            peak_eff, ai, ramp, is_vector, free_util0,
            task.task_id,
        )
        self.running[task.task_id] = entry
        self._on_compute_launched(entry)

    def _post_comm(self, task: CommTask) -> None:
        op = task.op
        inst = self.instances.get(op.key)
        if inst is None:
            inst = CollectiveInstance(
                op=op, cost=self._comm_cost[op.key], seq=self._inst_seq
            )
            self._inst_seq += 1
            self.instances[op.key] = inst
            self._on_instance_created(inst)
        inst.post(task, self.time)
        self._waiting.add(task.task_id)
        self._on_comm_posted(task, inst)
        if inst.ready:
            inst.start(self.time)
            for rank_task in inst.posted.values():
                self._waiting.discard(rank_task.task_id)
                self._comm_started.add(rank_task.task_id)
            self._on_instance_started(inst)

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------

    def _finish_compute(self, tid: int) -> None:
        entry = self.running.pop(tid)
        task = entry.task
        self._pop_head((task.gpu, task.stream), tid)
        self.done.add(tid)
        self.records.append(
            TaskRecord(
                tid,
                task.gpu,
                task.stream,
                task.label,
                task.category,
                task.phase,
                entry.started_at,
                self.time,
                entry.isolated_s,
            )
        )
        self._on_compute_finished(entry)
        self._on_task_done(task)

    def _finish_collective(self, key: str) -> None:
        inst = self.instances[key]
        inst.finish(self.time)
        started = inst.started_at if inst.started_at is not None else self.time
        for task in inst.posted.values():
            self._pop_head((task.gpu, task.stream), task.task_id)
            self._comm_started.discard(task.task_id)
            self.done.add(task.task_id)
            self.records.append(
                TaskRecord(
                    task.task_id,
                    task.gpu,
                    task.stream,
                    task.label,
                    task.category,
                    task.phase,
                    started,
                    self.time,
                    inst.cost.duration_s,
                )
            )
            self._on_task_done(task)
        self._on_collective_finished(inst)

    # ------------------------------------------------------------------
    # rates / contention
    # ------------------------------------------------------------------

    def _active_instances_on(self, gpu: int) -> List[CollectiveInstance]:
        return [
            inst
            for inst in self.instances.values()
            if inst.active and gpu in inst.op.participants
        ]

    def _spinning_instances_on(self, gpu: int) -> List[CollectiveInstance]:
        """Collectives whose kernel is resident on ``gpu`` but still
        waiting for peer ranks (busy-polling its channels' SMs)."""
        return [
            inst
            for inst in self.instances.values()
            if inst.started_at is None and gpu in inst.posted
        ]

    def _instance_rate(self, inst: CollectiveInstance) -> float:
        """Current progress rate of an active instance."""
        min_f = min(self._clock[g] for g in inst.op.participants)
        if not self.config.contention_enabled:
            min_f = self.config.max_clock_frac
        rate = inst.nominal_rate() * inst.progress_scale(min_f)
        if self._perturbed:
            link = self._perturb_link
            mul = min(link[g] for g in inst.op.participants)
            if mul != 1.0:
                # Flaky link: the collective crawls at the worst
                # participant's link derate (0.0 = full outage; the
                # finish projection is guarded by max(rate, 1e-12)).
                rate *= mul
        return rate

    def _recompute(self) -> None:
        # Pass 1: instance rates depend only on participant clocks. A
        # finish is (re)scheduled exactly when the rate *changes* — the
        # start is covered by the 0 -> positive transition, and an
        # unchanged rate means the outstanding event's projection is
        # still exact. Pushing only on change keeps the event sequence
        # (and therefore every same-time heap tie-break) structurally
        # identical between this engine and the incremental one.
        for inst in self.instances.values():
            if not inst.active:
                continue
            self.stats.instance_rate_passes += 1
            new_rate = self._instance_rate(inst)
            if new_rate != inst.rate:
                inst.rate = new_rate
                finish = self.time + inst.work_remaining / max(new_rate, 1e-12)
                self.queue.schedule(
                    finish, EventKind.COLLECTIVE_FINISH, inst.op.key
                )

        # Pass 2: compute rates under contention from active collectives.
        per_gpu_running: Dict[int, List[_RunningCompute]] = {}
        for entry in self.running.values():
            per_gpu_running.setdefault(entry.task.gpu, []).append(entry)

        for gpu_index in range(self.node.num_gpus):
            self._recompute_gpu(
                gpu_index,
                per_gpu_running.get(gpu_index, []),
                self._active_instances_on(gpu_index),
                self._spinning_instances_on(gpu_index),
            )

    def _recompute_gpu(
        self,
        gpu_index: int,
        entries: List[_RunningCompute],
        insts: List[CollectiveInstance],
        spinning: List[CollectiveInstance],
    ) -> None:
        """Update compute rates + power for one GPU from its residents."""
        self.stats.gpu_rate_passes += 1
        clock = self._clock[gpu_index]
        sm_avail, hbm_avail, eff_clock = self._availability(
            clock,
            sum(i.cost.sm_fraction for i in insts),
            sum(i.cost.sm_fraction for i in spinning),
            sum(i.hbm_demand_now() for i in insts),
            bool(insts),
        )
        rate_mul = 1.0
        if self._perturbed:
            rate_mul = self._perturb_rate[gpu_index]
            hbm_mul = self._perturb_hbm[gpu_index]
            if hbm_mul != 1.0:
                hbm_avail *= hbm_mul
            cap = self._perturb_cap[gpu_index]
            if eff_clock > cap:
                # Only reachable in ideal mode, where _availability
                # bypasses the (already capped) per-GPU clock.
                eff_clock = cap
        self._update_entry_rates(
            entries, len(entries), sm_avail, hbm_avail, eff_clock, rate_mul
        )
        self._update_power(gpu_index, entries, insts, spinning, clock)

    def _availability(
        self,
        clock: float,
        comm_sm: float,
        spin_sm: float,
        comm_hbm: float,
        comm_active: bool,
    ) -> Tuple[float, float, float]:
        """(sm_avail, hbm_avail, eff_clock) from raw contention terms.

        The contention formulas — the clamp, the starvation floors,
        interference scaling and the ideal-mode bypass — for both exact
        tiers; the fast tier's fused loops inline the same formulas
        over its additive aggregates (:meth:`FastSimulator
        ._fused_availability`).
        """
        if not self.config.contention_enabled:
            return 1.0, self._hbm_eff, self.config.max_clock_frac
        total_sm = min(_MAX_COMM_SM, comm_sm + self._spin_scale * spin_sm)
        sm_avail = max(_MIN_SM_FRACTION, 1.0 - total_sm)
        hbm_eff = self._hbm_eff
        hbm_avail = max(_MIN_HBM_FRACTION * hbm_eff, hbm_eff - comm_hbm)
        if comm_active:
            hbm_avail *= 1.0 - self._interference
        return sm_avail, hbm_avail, clock

    def _update_entry_rates(
        self,
        entries,
        n: int,
        sm_avail: float,
        hbm_avail: float,
        eff_clock: float,
        rate_mul: float = 1.0,
    ) -> None:
        """Re-derive each running kernel's rate from its fair share.

        Shared verbatim by both exact tiers (they differ only in how
        their resident sets are gathered), so the roofline arithmetic
        and the push-on-change event discipline live once.
        ``rate_mul`` is the GPU's straggler derate (1.0 when healthy),
        applied after the roofline floor so the rate stays positive.
        """
        rate_from_params = RateModel.rate_from_params
        for entry in entries:
            new_rate = rate_from_params(
                entry.peak_eff,
                entry.ai,
                sm_avail / n,
                hbm_avail / n,
                eff_clock,
            )
            if rate_mul != 1.0:
                new_rate *= rate_mul
            if new_rate != entry.rate or not entry.scheduled:
                self._bank_entry(entry)
                entry.rate = new_rate
                entry.scheduled = True
                finish = self.time + entry.work_remaining / new_rate
                self.queue.schedule(
                    finish, EventKind.TASK_FINISH, entry.tid
                )

    def _bank_entry(self, entry: _RunningCompute) -> None:
        """Bring an entry's banked progress up to ``self.time``.

        The reference engine banks eagerly in :meth:`_advance_to`, so
        this is a no-op here; the incremental engine overrides it with
        the lazy time-step replay.
        """

    def _compute_power_terms(
        self,
        entries: List[_RunningCompute],
        clock: float,
        sm_util: Dict[Datapath, float],
    ) -> float:
        """Accumulate the running kernels' SM/HBM power terms.

        Returns the kernels' HBM draw in bytes/s and fills ``sm_util``
        per datapath. The arithmetic matches the module-level
        ``sm_utilization``/``hbm_demand`` functions bit-for-bit; the
        kernel parameters come pre-resolved from the launch table.
        """
        hbm_used = 0.0
        stall_frac = self._stall_frac
        util_from_params = RateModel.sm_utilization_from_params
        for entry in entries:
            util = util_from_params(entry.peak_eff, entry.rate, 1.0, clock)
            # A kernel slowed *by contention* keeps most of its warps
            # resident and toggling; its power tracks the throughput it
            # would achieve uncontended, discounted by stall_power_frac,
            # not the throughput it actually achieves. Intrinsically
            # memory-bound kernels are unaffected (their uncontended
            # utilisation is already low).
            free_util = entry.free_util_cache.get(clock)
            if free_util is None:
                free_util = self._rates.free_utilization(
                    entry.task.kernel, clock
                )
                entry.free_util_cache[clock] = free_util
            if free_util > util:
                util += stall_frac * (free_util - util)
            # Short kernels never reach steady-state power: wave ramp-up
            # and drain clip the average draw (that is why small models
            # sit well below TDP on real boards).
            util *= entry.isolated_s / (entry.isolated_s + 50e-6)
            path = entry.task.kernel.path.datapath
            sm_util[path] = sm_util.get(path, 0.0) + util
            ai = entry.ai
            if ai != float("inf") and ai > 0:
                hbm_used += entry.rate / ai
        return hbm_used

    def _update_power(
        self,
        gpu_index: int,
        entries: List[_RunningCompute],
        insts: List[CollectiveInstance],
        spinning: List[CollectiveInstance],
        clock: float,
    ) -> None:
        sm_util: Dict[Datapath, float] = {}
        hbm_used = self._compute_power_terms(entries, clock, sm_util)
        link_frac = 0.0
        for inst in insts:
            hbm_used += inst.hbm_demand_now()
            link_frac += inst.link_fraction_now()
            # Channel copy loops run on the vector pipes.
            sm_util[Datapath.VECTOR] = (
                sm_util.get(Datapath.VECTOR, 0.0)
                + _COMM_VECTOR_UTIL * inst.cost.sm_fraction
            )
        for inst in spinning:
            # Busy-polling channels draw some vector power but move no data.
            sm_util[Datapath.VECTOR] = (
                sm_util.get(Datapath.VECTOR, 0.0)
                + _SPIN_VECTOR_UTIL * inst.cost.sm_fraction
            )
        power = self._power_eval.evaluate_parts(
            clock,
            hbm_used / self._hbm_bw,
            min(link_frac, 1.0),
            tuple(sm_util.items()),
        )
        self._power_now[gpu_index] = power
        self._maybe_roll_segment(
            gpu_index,
            power,
            compute_active=bool(entries),
            comm_active=bool(insts),
            clock=clock,
        )

    # ------------------------------------------------------------------
    # governor
    # ------------------------------------------------------------------

    def _has_activity(self) -> bool:
        """Anything progressing (running kernels or active collectives)."""
        if self.running:
            return True
        return any(inst.active for inst in self.instances.values())

    def _ensure_ticks(self) -> None:
        """Keep governor ticks scheduled while work is progressing.

        Ticks are NOT scheduled when the machine is fully stalled, so a
        rendezvous deadlock drains the queue and is reported as such
        instead of ticking forever.
        """
        governors = self._governors
        if not governors or not self._has_activity():
            return
        # Fast path: every governed GPU is awaiting its tick — nothing
        # to schedule this event.
        if self._ticks_outstanding >= len(governors):
            return
        for gpu_index, pending in self._tick_pending.items():
            if pending:
                continue
            self._tick_pending[gpu_index] = True
            self._ticks_outstanding += 1
            self.queue.schedule(
                self.time + self.config.governor_period_s,
                EventKind.GOVERNOR_TICK,
                gpu_index,
            )

    def _governor_tick(self, gpu_index: int) -> None:
        self._tick_pending[gpu_index] = False
        self._ticks_outstanding -= 1
        governor = self._governors.get(gpu_index)
        if governor is None:
            return
        power = self._power_now.get(gpu_index)
        if power is None:
            power = self._power_eval.idle_power()
        new_clock = governor.observe(power)
        if self._perturbed:
            cap = self._perturb_cap[gpu_index]
            if new_clock > cap:
                # Thermal ceiling: clamp both the applied clock and the
                # controller's internal state so its next ramp step
                # starts from the clock actually running.
                new_clock = cap
                governor.clock_frac = cap
        if new_clock != self._clock[gpu_index]:
            self._clock[gpu_index] = new_clock
            self._on_clock_changed(gpu_index)
        self._min_clock_seen = min(self._min_clock_seen, new_clock)

    # ------------------------------------------------------------------
    # perturbations
    # ------------------------------------------------------------------

    def _apply_perturb(self, index: int, begin: bool) -> None:
        """Open or close one degradation window (all tiers share this).

        The targeted GPUs' multipliers are rebuilt from scratch from
        the *active* perturbation set, composing in spec order — never
        by multiplying/dividing incrementally, which would accumulate
        float drift and break cross-tier bit-equality. Every targeted
        GPU is then dirtied unconditionally via the ordinary
        clock-changed hook; the push-on-change discipline downstream
        makes spurious dirtying result-neutral.
        """
        if begin:
            self._active_perturbs.add(index)
        else:
            self._active_perturbs.discard(index)
        self.stats.perturb_events += 1
        full_cap = self.config.max_clock_frac
        active = sorted(self._active_perturbs)
        specs = self._perturbs
        target_sets = self._perturb_target_sets
        for g in self._perturb_targets[index]:
            rate = hbm = link = 1.0
            cap = full_cap
            for i in active:
                if g not in target_sets[i]:
                    continue
                spec = specs[i]
                kind = spec.kind
                keep = 1.0 - spec.magnitude
                if kind == "straggler_rank":
                    rate *= keep
                elif kind == "slow_hbm":
                    hbm *= keep
                elif kind == "flaky_link":
                    link *= keep
                else:  # thermal_throttle
                    ceiling = keep * full_cap
                    if ceiling < cap:
                        cap = ceiling
            self._perturb_rate[g] = rate
            self._perturb_hbm[g] = hbm
            self._perturb_link[g] = link
            if cap != self._perturb_cap[g]:
                self._perturb_cap[g] = cap
                self._apply_clock_cap(g, cap)
            self._on_clock_changed(g)

    def _apply_clock_cap(self, gpu_index: int, cap: float) -> None:
        """Reconcile a GPU's running clock with a new thermal ceiling."""
        governor = self._governors.get(gpu_index)
        clock = self._clock[gpu_index]
        if clock > cap:
            self._clock[gpu_index] = cap
            if governor is not None:
                governor.clock_frac = cap
            if cap < self._min_clock_seen:
                self._min_clock_seen = cap
        elif governor is None and clock < cap:
            # No control loop to ramp back up (ideal mode / governor
            # off): restore the ceiling directly when it lifts.
            self._clock[gpu_index] = cap

    # ------------------------------------------------------------------
    # power segments
    # ------------------------------------------------------------------

    def _open_segments(self) -> None:
        if not self.config.trace_power:
            return
        idle = self._power_eval.idle_power()
        for g in range(self.node.num_gpus):
            self._power_now[g] = idle
            self._segment_open[g] = (0.0, idle, False, False, self._clock[g])

    def _maybe_roll_segment(
        self,
        gpu_index: int,
        power: float,
        compute_active: bool,
        comm_active: bool,
        clock: float,
    ) -> None:
        current = self._segment_open.get(gpu_index)
        if current is None:
            return
        start_s, cur_power, cur_compute, cur_comm, cur_clock = current
        if (
            cur_compute == compute_active
            and cur_comm == comm_active
            and abs(cur_power - power) < 1e-6
            and abs(cur_clock - clock) < 1e-9
        ):
            return
        if self.time > start_s:
            self._segments[gpu_index].append(
                PowerSegment(
                    gpu=gpu_index,
                    start_s=start_s,
                    end_s=self.time,
                    power_w=cur_power,
                    compute_active=cur_compute,
                    comm_active=cur_comm,
                    clock_frac=cur_clock,
                )
            )
        self._segment_open[gpu_index] = (
            self.time,
            power,
            compute_active,
            comm_active,
            clock,
        )

    def _close_segments(self) -> None:
        if not self.config.trace_power:
            return
        for g, current in self._segment_open.items():
            start_s, cur_power, cur_compute, cur_comm, cur_clock = current
            if self.time > start_s:
                self._segments[g].append(
                    PowerSegment(
                        gpu=g,
                        start_s=start_s,
                        end_s=self.time,
                        power_w=cur_power,
                        compute_active=cur_compute,
                        comm_active=cur_comm,
                        clock_frac=cur_clock,
                    )
                )
        self._segment_open.clear()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def _deadlock_report(self) -> str:
        unfinished = [
            t.label for tid, t in self.tasks.items() if tid not in self.done
        ]
        heads = {
            key: self.tasks[self._head(key)].label
            for key in self.streams
            if self._head(key) is not None
        }
        waiting_collectives = {
            key: sorted(inst.posted)
            for key, inst in self.instances.items()
            if not inst.active and inst.finished_at is None
        }
        return (
            f"deadlock at t={self.time:.6f}s: "
            f"{len(unfinished)} tasks unfinished "
            f"(first: {unfinished[:5]}); stream heads: {heads}; "
            f"incomplete collectives: {waiting_collectives}"
        )


class IncrementalSimulator(Simulator):
    """O(affected) event updates over the same physics as the reference.

    Event handlers mark *dirty* GPUs (whose resident-set, contention
    aggregate or clock changed) and *dirty* collective instances (a
    participant clock moved, or the instance just started); the
    recompute then touches only those. All other state is provably
    unchanged — the reference engine would recompute identical floats
    and push no events — so skipping it cannot alter the results.

    Progress banking is lazy: :meth:`_advance_to` appends each positive
    time step to a log, and an entry/instance replays its missed steps
    (with the per-step ``max(0, w - r*dt)`` clamp) only when its rate
    changes or its remaining work is read. The replay performs exactly
    the reference engine's per-event arithmetic, which is what keeps
    the two engines bit-for-bit identical rather than merely close.
    """

    def __init__(
        self,
        node: NodeSpec,
        tasks: Sequence[Task],
        config: Optional[SimConfig] = None,
        cost_model: Optional[CollectiveCostModel] = None,
        prepared: Optional[PreparedSim] = None,
    ):
        super().__init__(
            node, tasks, config, cost_model=cost_model, prepared=prepared
        )
        num_gpus = node.num_gpus
        #: Global log of positive time steps (the replay tape).
        self._dts: List[float] = []
        #: GPUs whose rate/power inputs changed since the last recompute.
        #: Starts full so the first recompute mirrors the reference
        #: engine's initial full pass (priming ``_power_now`` for all).
        self._dirty_gpus: Set[int] = set(range(num_gpus))
        #: Dirty active instances, by creation ``seq``.
        self._dirty_insts: Set[int] = set()
        self._insts_by_seq: Dict[int, CollectiveInstance] = {}
        #: Per-GPU resident sets, pooled across runs (see RunArena).
        #: Iterated in creation/launch order so float accumulations
        #: match the reference engine's global dict-order sums exactly.
        self._arena = run_arena()
        self._arena_released = False
        triple = self._arena.acquire_sets(num_gpus)
        self._arena_sets = triple
        self._running_on: List[Dict[int, _RunningCompute]] = triple[0]
        self._active_on: List[Dict[int, CollectiveInstance]] = triple[1]
        self._spinning_on: List[Dict[int, CollectiveInstance]] = triple[2]
        self._active_inst_count = 0
        #: Streams whose head may have become launchable.
        self._launch_candidates: Set[Tuple[int, str]] = set(self.streams)
        #: Stream ordering plus the wake-stream index, both read-only
        #: from the prep layer.
        self._stream_order = self.prepared.stream_order
        self._wake_streams = self.prepared.wake_streams

    def _finalize(self) -> SimulationResult:
        result = super()._finalize()
        self._release_run_state()
        return result

    def _release_run_state(self) -> None:
        """Return pooled per-run containers to the thread's arena.

        Called once at the end of a completed run; the simulator's own
        references stay valid (the containers are simply cleared), and
        nothing reads them after ``_finalize``.
        """
        if not self._arena_released:
            self._arena_released = True
            self._arena.release_sets(self.node.num_gpus, self._arena_sets)

    # ------------------------------------------------------------------
    # lazy banking
    # ------------------------------------------------------------------

    def _advance_to(self, t: float) -> None:
        if t < self.time - 1e-12:
            raise SimulationError("event time went backwards")
        t = max(t, self.time)
        if t > self.time:
            self._dts.append(t - self.time)
        self.time = t

    def _bank_entry(self, entry: _RunningCompute) -> None:
        dts = self._dts
        n = len(dts)
        i = entry.bank_idx
        if i < n:
            w = entry.work_remaining
            r = entry.rate
            # Same per-step arithmetic as the eager path; the branch is
            # max(0.0, .) without the builtin call.
            while i < n:
                w -= r * dts[i]
                if w < 0.0:
                    w = 0.0
                i += 1
            entry.work_remaining = w
            entry.bank_idx = n

    def _bank_instance(self, inst: CollectiveInstance) -> None:
        dts = self._dts
        n = len(dts)
        i = inst.bank_idx
        if i < n:
            w = inst.work_remaining
            r = inst.rate
            while i < n:
                w -= r * dts[i]
                if w < 0.0:
                    w = 0.0
                i += 1
            inst.work_remaining = w
            inst.bank_idx = n
            inst.last_update_s = self.time

    # ------------------------------------------------------------------
    # dirty tracking hooks
    # ------------------------------------------------------------------

    def _on_compute_launched(self, entry: _RunningCompute) -> None:
        entry.bank_idx = len(self._dts)
        gpu = entry.task.gpu
        self._running_on[gpu][entry.tid] = entry
        self._dirty_gpus.add(gpu)

    def _on_compute_finished(self, entry: _RunningCompute) -> None:
        gpu = entry.task.gpu
        self._running_on[gpu].pop(entry.tid, None)
        self._dirty_gpus.add(gpu)

    def _on_instance_created(self, inst: CollectiveInstance) -> None:
        self._insts_by_seq[inst.seq] = inst

    def _on_comm_posted(self, task: CommTask, inst: CollectiveInstance) -> None:
        # The instance busy-polls this rank's SMs until the rendezvous
        # completes; its spin footprint appears on this GPU only.
        self._spinning_on[task.gpu][inst.seq] = inst
        self._dirty_gpus.add(task.gpu)

    def _on_instance_started(self, inst: CollectiveInstance) -> None:
        inst.bank_idx = len(self._dts)
        seq = inst.seq
        for gpu in inst.posted:
            self._spinning_on[gpu].pop(seq, None)
        for gpu in inst.op.participants:
            self._active_on[gpu][seq] = inst
        self._dirty_gpus.update(inst.op.participants)
        self._dirty_insts.add(seq)
        self._active_inst_count += 1

    def _on_collective_finished(self, inst: CollectiveInstance) -> None:
        seq = inst.seq
        for gpu in inst.op.participants:
            self._active_on[gpu].pop(seq, None)
        self._dirty_gpus.update(inst.op.participants)
        self._dirty_insts.discard(seq)
        self._insts_by_seq.pop(seq, None)
        self._active_inst_count -= 1

    def _on_task_done(self, task: Task) -> None:
        self._launch_candidates.update(self._wake_streams[task.task_id])

    def _on_clock_changed(self, gpu_index: int) -> None:
        self._dirty_gpus.add(gpu_index)
        # A moved clock shifts the min-participant-clock of every
        # active collective this GPU takes part in.
        self._dirty_insts.update(self._active_on[gpu_index])

    def _has_activity(self) -> bool:
        return bool(self.running) or self._active_inst_count > 0

    # ------------------------------------------------------------------
    # launching / recompute
    # ------------------------------------------------------------------

    def _try_launch(self) -> None:
        # Launching a task never *enables* another launch (only task
        # completion satisfies deps or exposes a new head), so one pass
        # over the candidate streams — in the reference engine's stream
        # order — launches exactly what its full fixpoint scan would.
        candidates = self._launch_candidates
        streams = self.streams
        stream_pos = self._stream_pos
        running = self.running
        waiting = self._waiting
        comm_started = self._comm_started
        done = self.done
        tasks = self.tasks
        while candidates:
            if len(candidates) == 1:
                batch = list(candidates)
            else:
                batch = sorted(
                    candidates, key=self._stream_order.__getitem__
                )
            candidates.clear()
            for key in batch:
                # _maybe_launch_head, inlined (one call per candidate
                # stream per completion adds up).
                order = streams[key]
                pos = stream_pos[key]
                if pos >= len(order):
                    continue
                tid = order[pos]
                if (
                    tid in running
                    or tid in waiting
                    or tid in comm_started
                ):
                    continue
                task = tasks[tid]
                if not task.deps <= done:
                    continue
                if isinstance(task, ComputeTask):
                    self._launch_compute(task)
                elif isinstance(task, CommTask):
                    self._post_comm(task)
                else:  # pragma: no cover - defensive
                    raise PlanError(
                        f"unknown task type for {task.label}"
                    )

    def _recompute(self) -> None:
        if self._dirty_insts:
            self._recompute_insts()

        if self._dirty_gpus:
            for gpu_index in sorted(self._dirty_gpus):
                self._recompute_dirty_gpu(gpu_index)
            self._dirty_gpus.clear()

    def _recompute_insts(self) -> None:
        """Re-derive dirty instances' rates (shared with the fast
        engine, whose banking dispatch differs but whose instance-rate
        discipline is identical)."""
        # Creation order == the reference engine's global
        # instances-dict order, so same-time finish events are
        # pushed with the same relative heap priority.
        for seq in sorted(self._dirty_insts):
            inst = self._insts_by_seq.get(seq)
            if inst is None or not inst.active:
                continue
            self.stats.instance_rate_passes += 1
            new_rate = self._instance_rate(inst)
            if new_rate != inst.rate:
                self._bank_instance(inst)
                inst.rate = new_rate
                finish = self.time + inst.work_remaining / max(
                    new_rate, 1e-12
                )
                self.queue.schedule(
                    finish, EventKind.COLLECTIVE_FINISH, inst.op.key
                )
                self._on_instance_rate_changed(inst)
                # The instance's HBM/link draw scales with its
                # rate; every participant's contention changed.
                self._dirty_gpus.update(inst.op.participants)
        self._dirty_insts.clear()

    def _on_instance_rate_changed(self, inst: CollectiveInstance) -> None:
        """Hook for subclasses tracking rate-derived aggregates."""

    def _recompute_dirty_gpu(self, gpu_index: int) -> None:
        active = self._active_on[gpu_index]
        spinning = self._spinning_on[gpu_index]
        self._recompute_gpu(
            gpu_index,
            list(self._running_on[gpu_index].values()),
            [active[s] for s in sorted(active)],
            [spinning[s] for s in sorted(spinning)],
        )


class FastSimulator(IncrementalSimulator):
    """The fast accuracy tier: cohort-batched over additive aggregates.

    Four mechanisms on top of the exact incremental machinery, all
    within one tolerance contract (gated by the equivalence suite's
    tolerance tier):

    * **Additive contention aggregates** — per-GPU communication SM
      share, spin SM share, HBM draw and link utilisation are updated
      in O(1) when an instance posts, starts, changes rate or retires,
      instead of re-reducing the resident sets on every recompute.
      Incremental float accumulation visits the terms in event order
      rather than creation order, hence bounded relative error instead
      of bit-exactness. Aggregates snap back to exactly 0.0 whenever a
      GPU's resident set empties, so the drift cannot compound across
      program phases.
    * **Adaptive governor ticks** — a tick is skipped while it is
      provably a no-op (power and its moving average at or under the
      limit, clock pinned at the cap — see
      :meth:`FrequencyGovernor.would_noop`) and re-armed as soon as a
      recompute moves the GPU's power. Throttle onset can shift by up
      to one control period.
    * **Cohort batching** — all events sharing a timestamp are popped
      as one cohort (:meth:`EventQueue.pop_live_cohort`), their state
      deltas applied together, and rates/power/DVFS re-evaluated once
      per (cohort x dirty GPU) instead of once per event. Applying a
      cohort member never reschedules or invalidates another member
      (finishes and ticks only mutate state the *recompute* reads), so
      draining the whole timestamp before recomputing is sound.
      Governor ticks landing mid-cohort observe the pre-cohort power
      and are applied after the finishes (:func:`observe_many`).
      Per-GPU clock, power and the aggregates live in one
      :class:`~repro.sim.soa.SoAStore`; the per-GPU recompute is fused
      into a single pass that derives each running kernel's rate *and*
      its power terms, evaluating the power formula directly. When a
      cohort dirties many GPUs at once the evaluation goes through the
      numpy-vectorized ``*_many`` entry points; the pure-python
      fallback (no numpy, or ``REPRO_SIM_NO_NUMPY=1``) is bit-for-bit
      identical.
    * **O(1) banking** — progress banks against a running cumulative
      simulated time (``bank_cum``) in one multiply instead of
      replaying the per-step log. Value-equal for a constant rate
      (rates only change after banking), but the single fused multiply
      rounds differently than the per-step replay — a tolerance-tier
      difference, never a semantic one.
    """

    def __init__(
        self,
        node: NodeSpec,
        tasks: Sequence[Task],
        config: Optional[SimConfig] = None,
        cost_model: Optional[CollectiveCostModel] = None,
        prepared: Optional[PreparedSim] = None,
    ):
        super().__init__(
            node, tasks, config, cost_model=cost_model, prepared=prepared
        )
        config = self.config
        prep = self.prepared
        num_gpus = node.num_gpus
        store = self._arena.acquire_soa(
            num_gpus, config.max_clock_frac, prep.idle_power_w
        )
        self._soa = store
        # Alias the store's arrays over the dict/list state the parent
        # classes created: inherited hooks and the fused loops share
        # this storage.
        self._clock = store.clock
        self._power_now = store.power
        #: Sum of cost.sm_fraction over active instances per GPU.
        self._agg_comm_sm = store.comm_sm
        #: Sum of cost.sm_fraction over spinning instances per GPU.
        self._agg_spin_sm = store.spin_sm
        #: Sum of instance HBM draw (bytes/s) over active instances.
        self._agg_hbm = store.hbm
        #: Sum of instance link utilisation over active instances.
        self._agg_link = store.link
        #: Last rate-dependent contribution added per instance seq, so
        #: rate changes and retirement apply exact-value deltas.
        self._inst_hbm_contrib: Dict[int, float] = {}
        self._inst_link_contrib: Dict[int, float] = {}
        # Perturbation multipliers move into the store too (all still
        # identity: no PERTURB event can have fired during __init__).
        self._perturb_rate = store.rate_mul
        self._perturb_hbm = store.hbm_mul
        self._perturb_link = store.link_mul
        self._perturb_cap = store.clock_cap
        #: GPUs whose next tick is provably a no-op. Membership is
        #: invalidated the moment the GPU's power is re-evaluated, so
        #: the skip predicate is never stale.
        self._tick_blocked: Set[int] = set()
        #: GPUs with no tick in flight and not blocked — the exact set
        #: _ensure_ticks may need to schedule (in flight / blocked /
        #: unscheduled partition the governed GPUs), so the event loop
        #: skips its tick sweep entirely when this is empty.
        self._tick_unscheduled: Set[int] = set(range(num_gpus))
        #: Cumulative simulated time — the O(1) banking base.
        self._cum_dt = 0.0
        self._np = numpy_or_none()
        # Staging arrays for the vectorized multi-GPU drain; that path
        # is gated on numpy being in play, so so is the scratch.
        self._cohort_scratch = (
            CohortScratch(num_gpus, self._np)
            if self._np is not None
            else None
        )
        # Hot invariants for the fused evaluation loop.
        self._contention = config.contention_enabled
        self._one_minus_interf = 1.0 - self._interference
        self._hbm_floor = _MIN_HBM_FRACTION * self._hbm_eff
        self._max_clock0 = config.max_clock_frac
        self._governor_period_s = config.governor_period_s
        #: Bound method of the shared evaluator's clock-pow memo; the
        #: fused loop calls it once per dirty GPU per cohort.
        self._clock_term = self._power_eval.clock_term
        if prep.missing_paths:
            raise ConfigurationError(
                f"no SM power coefficient for {prep.missing_paths[0]}"
            )
        self._vec_max = prep.vec_max
        self._ten_max = prep.ten_max
        self._idle_frac = prep.idle_frac
        self._hbm_max = prep.hbm_max
        self._link_max = prep.link_max
        self._tdp = prep.tdp
        # Closure over the now-complete hot state (see the factory's
        # docstring); every piece it binds is initialized above.
        self._recompute_gpu_fused = self._make_fused_recompute()

    # ------------------------------------------------------------------
    # aggregate maintenance and O(1) banking
    # ------------------------------------------------------------------

    def _bank_instance(self, inst: CollectiveInstance) -> None:
        cum = self._cum_dt
        behind = cum - inst.bank_cum
        if behind > 0.0:
            w = inst.work_remaining - inst.rate * behind
            inst.work_remaining = w if w > 0.0 else 0.0
            inst.bank_cum = cum
            inst.last_update_s = self.time

    def _on_compute_launched(self, entry: _RunningCompute) -> None:
        # The incremental hook, inlined (one frame per launch).
        entry.bank_cum = self._cum_dt
        gpu = entry.task.gpu
        self._running_on[gpu][entry.tid] = entry
        self._dirty_gpus.add(gpu)

    def _on_comm_posted(self, task: CommTask, inst: CollectiveInstance) -> None:
        super()._on_comm_posted(task, inst)
        self._agg_spin_sm[task.gpu] += inst.cost.sm_fraction

    def _on_instance_started(self, inst: CollectiveInstance) -> None:
        sm_fraction = inst.cost.sm_fraction
        for gpu in inst.posted:
            if inst.seq in self._spinning_on[gpu]:
                self._agg_spin_sm[gpu] -= sm_fraction
        super()._on_instance_started(inst)
        for gpu in inst.posted:
            if not self._spinning_on[gpu]:
                self._agg_spin_sm[gpu] = 0.0
        for gpu in inst.op.participants:
            self._agg_comm_sm[gpu] += sm_fraction
        # Rate is still 0 at the rendezvous; the first recompute sets
        # it and accounts the HBM/link contributions.
        self._inst_hbm_contrib[inst.seq] = 0.0
        self._inst_link_contrib[inst.seq] = 0.0
        inst.bank_cum = self._cum_dt

    def _on_instance_rate_changed(self, inst: CollectiveInstance) -> None:
        """Fold an instance's new rate into its participants' sums."""
        seq = inst.seq
        new_hbm = inst.hbm_demand_now()
        new_link = inst.link_fraction_now()
        delta_hbm = new_hbm - self._inst_hbm_contrib.get(seq, 0.0)
        delta_link = new_link - self._inst_link_contrib.get(seq, 0.0)
        self._inst_hbm_contrib[seq] = new_hbm
        self._inst_link_contrib[seq] = new_link
        for gpu in inst.op.participants:
            self._agg_hbm[gpu] += delta_hbm
            self._agg_link[gpu] += delta_link

    def _on_collective_finished(self, inst: CollectiveInstance) -> None:
        super()._on_collective_finished(inst)
        seq = inst.seq
        sm_fraction = inst.cost.sm_fraction
        hbm = self._inst_hbm_contrib.pop(seq, 0.0)
        link = self._inst_link_contrib.pop(seq, 0.0)
        for gpu in inst.op.participants:
            if self._active_on[gpu]:
                self._agg_comm_sm[gpu] -= sm_fraction
                self._agg_hbm[gpu] -= hbm
                self._agg_link[gpu] -= link
            else:
                # Empty resident set: snap to exact zero so float
                # residue from the add/remove churn cannot accumulate.
                self._agg_comm_sm[gpu] = 0.0
                self._agg_hbm[gpu] = 0.0
                self._agg_link[gpu] = 0.0

    def _release_run_state(self) -> None:
        if not self._arena_released:
            super()._release_run_state()
            self._arena.release_soa(self.node.num_gpus, self._soa)

    # ------------------------------------------------------------------
    # cohort event loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        self._open_segments()
        self._try_launch()
        self._recompute()
        self._ensure_ticks()
        # The cohort loop allocates only tuples and small lists that
        # die immediately or survive to the result — no cycles — so
        # generational collection scans are pure overhead (several
        # percent of the run). Suspend GC while the loop runs; the
        # finally block restores the caller's setting even on
        # simulation errors.
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            self._event_loop()
        finally:
            if was_enabled:
                gc.enable()
        return self._finalize()

    def _event_loop(self) -> None:
        """The cohort loop, with the per-cohort path fully flattened.

        The finish / launch / recompute dispatch bodies are inlined
        here on hoisted locals — line-for-line equivalent to
        :meth:`_finish_compute` (plus its ``_on_*`` hooks),
        :meth:`_try_launch` (plus :meth:`_launch_compute`) and
        :meth:`_recompute`, which remain the canonical copies
        (:meth:`run`'s priming pass still dispatches through the last
        two). Python frames are the dominant cost at this call rate;
        keep the copies in sync when touching either.
        """
        config = self.config
        max_time = config.max_sim_time_s
        total = len(self.tasks)
        stats = self.stats
        pop_cohort = self.queue.pop_live_cohort
        finish_collective = self._finish_collective
        fused = self._recompute_gpu_fused
        recompute_insts = self._recompute_insts
        ensure_ticks = self._ensure_ticks
        post_comm = self._post_comm
        stream_order_key = self._stream_order.__getitem__
        np = self._np
        have_governors = bool(self._governors)
        # Hot state hoisted as locals: every object below keeps its
        # identity across the run (mutated in place, never rebound).
        done = self.done
        tasks = self.tasks
        running = self.running
        records = self.records
        streams = self.streams
        stream_pos = self._stream_pos
        waiting = self._waiting
        comm_started = self._comm_started
        launch_candidates = self._launch_candidates
        wake_streams = self._wake_streams
        compute_table = self._compute_table
        running_on = self._running_on
        dirty_gpus = self._dirty_gpus
        dirty_insts = self._dirty_insts
        tick_unscheduled = self._tick_unscheduled
        events = 0
        cohorts = 0
        # Reused cohort buffer: the loop fully consumes each cohort
        # before popping the next, so one list serves the whole run.
        cohort_buf: list = []
        try:
            while len(done) < total:
                cohort = pop_cohort(cohort_buf)
                if cohort is None:
                    raise DeadlockError(self._deadlock_report())
                t = cohort[0][0]
                if t > max_time:
                    raise SimulationError(
                        f"simulation exceeded {max_time}s"
                    )
                events += len(cohort)
                cohorts += 1
                # Advance the clock and the O(1) banking base.
                time_now = self.time
                if t > time_now:
                    self._cum_dt += t - time_now
                    self.time = t
                elif t < time_now - 1e-12:
                    raise SimulationError("event time went backwards")
                ticks = None
                for _etime, kind, payload, _ver in cohort:
                    if kind is _TASK_FINISH:
                        # _finish_compute, inlined.
                        entry = running.pop(payload)
                        task = entry.task
                        gpu = task.gpu
                        key = (gpu, task.stream)
                        order = streams[key]
                        pos = stream_pos[key]
                        head = order[pos] if pos < len(order) else None
                        if head != payload:
                            raise SimulationError(
                                f"stream {key}: completing task "
                                f"{payload} but head is {head}"
                            )
                        stream_pos[key] = pos + 1
                        done.add(payload)
                        started = entry.started_at
                        if t < started:
                            raise SimulationError(
                                f"task {task.label}: end before start"
                            )
                        records.append(
                            tuple.__new__(
                                TaskRecord,
                                (
                                    payload, gpu, task.stream,
                                    task.label, _CAT_COMPUTE,
                                    task.phase, started, t,
                                    entry.isolated_s,
                                ),
                            )
                        )
                        running_on[gpu].pop(payload, None)
                        dirty_gpus.add(gpu)
                        launch_candidates.update(wake_streams[payload])
                    elif kind is _COLLECTIVE_FINISH:
                        finish_collective(payload)
                    elif kind is _PERTURB_BEGIN:
                        self._apply_perturb(payload, True)
                    elif kind is _PERTURB_END:
                        self._apply_perturb(payload, False)
                    elif ticks is None:
                        ticks = [payload]
                    else:
                        ticks.append(payload)
                if len(done) >= total:
                    # Any same-time remainder can only be governor
                    # ticks; the per-event loop would have stopped
                    # before them.
                    break
                if ticks is not None:
                    self._apply_ticks(ticks)
                # _try_launch + _launch_compute, inlined.
                while launch_candidates:
                    if len(launch_candidates) == 1:
                        batch = list(launch_candidates)
                    else:
                        batch = sorted(
                            launch_candidates, key=stream_order_key
                        )
                    launch_candidates.clear()
                    for key in batch:
                        order = streams[key]
                        pos = stream_pos[key]
                        if pos >= len(order):
                            continue
                        tid = order[pos]
                        if (
                            tid in running
                            or tid in waiting
                            or tid in comm_started
                        ):
                            continue
                        task = tasks[tid]
                        if not task.deps <= done:
                            continue
                        # Dispatch on compute-table membership (exactly
                        # the ComputeTask ids): one dict probe replaces
                        # an isinstance check and immediately yields the
                        # row the compute branch needs anyway.
                        row = compute_table.get(tid)
                        if row is not None:
                            (
                                work, iso, peak_eff, ai, ramp,
                                is_vector, free_util0,
                            ) = row
                            entry = _RunningCompute(
                                task, work, 1.0, iso, self.time,
                                peak_eff, ai, ramp, is_vector,
                                free_util0, tid,
                            )
                            running[tid] = entry
                            entry.bank_cum = self._cum_dt
                            running_on[task.gpu][tid] = entry
                            dirty_gpus.add(task.gpu)
                        elif isinstance(task, CommTask):
                            post_comm(task)
                        else:  # pragma: no cover - defensive
                            raise PlanError(
                                f"unknown task type for {task.label}"
                            )
                # _recompute, inlined.
                if dirty_insts:
                    recompute_insts()
                if dirty_gpus:
                    if len(dirty_gpus) == 1:
                        fused(dirty_gpus.pop())
                    else:
                        if np is not None and len(dirty_gpus) >= VECTOR_MIN:
                            self._recompute_gpus_vectorized(
                                sorted(dirty_gpus), np
                            )
                        else:
                            for gpu_index in sorted(dirty_gpus):
                                fused(gpu_index)
                        dirty_gpus.clear()
                if have_governors and tick_unscheduled:
                    ensure_ticks()
        finally:
            stats.events += events
            stats.cohorts += cohorts

    def _apply_ticks(self, gpus: List[int]) -> None:
        """Apply a cohort's governor ticks in one batched dispatch.

        Every tick observes the pre-cohort power (power is re-evaluated
        only after the cohort), matching the single-tick discipline.
        """
        governors = self._governors
        self._tick_unscheduled.update(gpus)
        clock = self._clock
        power = self._power_now
        if len(gpus) == 1:
            # The dominant cohort shape (one governor due); skip the
            # list staging — observe() is the same control law.
            new_clocks = (governors[gpus[0]].observe(power[gpus[0]]),)
        else:
            new_clocks = observe_many(
                [governors[g] for g in gpus], [power[g] for g in gpus]
            )
        min_seen = self._min_clock_seen
        perturbed = self._perturbed
        caps = self._perturb_cap
        for gpu_index, new_clock in zip(gpus, new_clocks):
            if perturbed:
                cap = caps[gpu_index]
                if new_clock > cap:
                    new_clock = cap
                    governors[gpu_index].clock_frac = cap
            if new_clock != clock[gpu_index]:
                clock[gpu_index] = new_clock
                self._on_clock_changed(gpu_index)
            if new_clock < min_seen:
                min_seen = new_clock
        self._min_clock_seen = min_seen

    def _ensure_ticks(self) -> None:
        """Schedule governor ticks, skipping provable no-ops.

        A GPU's tick is skipped while :meth:`FrequencyGovernor
        .would_noop` holds. Power is piecewise constant between events
        and every power re-evaluation moves the GPU from blocked back
        to unscheduled, so any change that moves a GPU's power
        re-evaluates the skip and re-arms the tick immediately.
        """
        governors = self._governors
        if not governors:
            return
        # _has_activity, inlined (the incremental tier's form).
        if not (self.running or self._active_inst_count > 0):
            return
        unscheduled = self._tick_unscheduled
        if not unscheduled:
            return
        blocked = self._tick_blocked
        power_now = self._power_now
        schedule = self.queue.schedule
        next_t = self.time + self._governor_period_s
        skipped = 0
        # sorted() keeps the scheduling order identical to the base
        # dispatch's gpu-ascending sweep (same-time FIFO pop order);
        # blocked GPUs are disjoint from this set by invariant. A
        # lone entry (the dominant case: one GPU unblocked per cohort)
        # needs no sort.
        if len(unscheduled) == 1:
            sweep = tuple(unscheduled)
        else:
            sweep = sorted(unscheduled)
        for gpu_index in sweep:
            # Governor.would_noop, inlined (same comparisons in the same
            # order) — one method frame per GPU per cohort at the loop's
            # call rate.
            governor = governors[gpu_index]
            policy = governor.policy
            if (
                not power_now[gpu_index] > policy.limit_w
                and not governor.clock_frac < policy.max_clock_frac
                and governor._ewma_w <= policy.limit_w
            ):
                skipped += 1
                blocked.add(gpu_index)
                unscheduled.discard(gpu_index)
                continue
            schedule(next_t, _GOVERNOR_TICK, gpu_index)
            unscheduled.discard(gpu_index)
        if skipped:
            self.stats.ticks_skipped += skipped

    # ------------------------------------------------------------------
    # fused recompute
    # ------------------------------------------------------------------

    def _recompute(self) -> None:
        if self._dirty_insts:
            self._recompute_insts()
        dirty = self._dirty_gpus
        if dirty:
            if len(dirty) == 1:
                # Common case (one finish dirties one GPU) first.
                for gpu_index in dirty:
                    self._recompute_gpu_fused(gpu_index)
            else:
                np = self._np
                if np is not None and len(dirty) >= VECTOR_MIN:
                    self._recompute_gpus_vectorized(sorted(dirty), np)
                else:
                    for gpu_index in sorted(dirty):
                        self._recompute_gpu_fused(gpu_index)
            dirty.clear()

    def _fused_availability(
        self, gpu_index: int, clock: float, active_count: int
    ) -> Tuple[float, float, float]:
        """:meth:`_availability` from the aggregates, branch-inlined.

        Same clamps, floors and interference scaling in the same
        order; negative aggregates (float residue from the add/remove
        churn) read as 0.0.
        """
        if not self._contention:
            return 1.0, self._hbm_eff, self.config.max_clock_frac
        comm_sm = self._agg_comm_sm[gpu_index]
        if comm_sm < 0.0:
            comm_sm = 0.0
        spin_sm = self._agg_spin_sm[gpu_index]
        if spin_sm < 0.0:
            spin_sm = 0.0
        total_sm = comm_sm + self._spin_scale * spin_sm
        if total_sm > _MAX_COMM_SM:
            total_sm = _MAX_COMM_SM
        sm_avail = 1.0 - total_sm
        if sm_avail < _MIN_SM_FRACTION:
            sm_avail = _MIN_SM_FRACTION
        comm_hbm = self._agg_hbm[gpu_index]
        if comm_hbm < 0.0:
            comm_hbm = 0.0
        hbm_avail = self._hbm_eff - comm_hbm
        if hbm_avail < self._hbm_floor:
            hbm_avail = self._hbm_floor
        if active_count:
            hbm_avail *= self._one_minus_interf
        return sm_avail, hbm_avail, clock

    def _make_fused_recompute(self):
        """Build the fused rate + power evaluation for one dirty GPU.

        One pass over the GPU's running kernels derives each rate
        (push-on-change, O(1) banking) *and* accumulates the SM/HBM
        power terms, then evaluates the power formula directly — the
        same arithmetic as the exact tiers' two-pass
        :meth:`_update_entry_rates` + :meth:`_update_power` with the
        communication terms read from the aggregates (power-term
        summation runs vector-then-tensor, which is bitwise-commutative
        with any two-term order), touching each entry once per cohort
        instead of once per event.

        Returned as a closure and installed as the instance's
        ``_recompute_gpu_fused`` at the end of ``__init__``: this is
        the hottest function in the fast tier, and binding the
        identity-stable state (arrays, sets, dicts, model constants)
        as closure cells removes ~30 ``self._x`` attribute walks per
        call. Only the rebound scalars ``self.time`` / ``self._cum_dt``
        still read through ``self``. Everything bound here is created
        once in ``__init__`` and mutated in place, never reassigned.
        """
        stats = self.stats
        clock_arr = self._clock
        active_on = self._active_on
        contention = self._contention
        hbm_eff = self._hbm_eff
        max_clock0 = self._max_clock0
        spin_scale = self._spin_scale
        agg_comm_sm = self._agg_comm_sm
        agg_spin_sm = self._agg_spin_sm
        agg_hbm = self._agg_hbm
        agg_link = self._agg_link
        hbm_floor = self._hbm_floor
        one_minus_interf = self._one_minus_interf
        running_on = self._running_on
        schedule = self.queue.schedule
        stall_frac = self._stall_frac
        free_utilization = self._rates.free_utilization
        spinning_on = self._spinning_on
        vec_max = self._vec_max
        ten_max = self._ten_max
        hbm_bw = self._hbm_bw
        tdp = self._tdp
        idle_frac = self._idle_frac
        hbm_max = self._hbm_max
        link_max = self._link_max
        clock_term = self._clock_term
        # The evaluator's clock-pow memo, bound directly: the common
        # case (clock already seen) is then one dict probe with no
        # method frame; clock_term remains the miss path and keeps the
        # memo's bound/eviction discipline.
        clock_pow = self._power_eval._clock_pow
        power_now = self._power_now
        blocked = self._tick_blocked
        unscheduled = self._tick_unscheduled
        segment_open = self._segment_open
        segments = self._segments
        perturbed = self._perturbed
        perturb_rate = self._perturb_rate
        perturb_hbm = self._perturb_hbm
        perturb_cap = self._perturb_cap

        def fused(gpu_index: int) -> None:
            stats.gpu_rate_passes += 1
            clock = clock_arr[gpu_index]
            active_count = len(active_on[gpu_index])
            # _fused_availability, inlined: the call overhead alone is
            # measurable here. Keep line-for-line equivalent to that
            # method (the vectorized path still calls it).
            if not contention:
                sm_avail = 1.0
                hbm_avail = hbm_eff
                eff_clock = max_clock0
            else:
                comm_sm = agg_comm_sm[gpu_index]
                if comm_sm < 0.0:
                    comm_sm = 0.0
                spin_sm = agg_spin_sm[gpu_index]
                if spin_sm < 0.0:
                    spin_sm = 0.0
                total_sm = comm_sm + spin_scale * spin_sm
                if total_sm > _MAX_COMM_SM:
                    total_sm = _MAX_COMM_SM
                sm_avail = 1.0 - total_sm
                if sm_avail < _MIN_SM_FRACTION:
                    sm_avail = _MIN_SM_FRACTION
                comm_hbm = agg_hbm[gpu_index]
                if comm_hbm < 0.0:
                    comm_hbm = 0.0
                hbm_avail = hbm_eff - comm_hbm
                if hbm_avail < hbm_floor:
                    hbm_avail = hbm_floor
                if active_count:
                    hbm_avail *= one_minus_interf
                eff_clock = clock
            if perturbed:
                rate_mul = perturb_rate[gpu_index]
                pm = perturb_hbm[gpu_index]
                if pm != 1.0:
                    hbm_avail *= pm
                cap = perturb_cap[gpu_index]
                if eff_clock > cap:
                    eff_clock = cap
            else:
                rate_mul = 1.0
            running = running_on[gpu_index]
            uv = 0.0
            ut = 0.0
            hbm_used = 0.0
            n = len(running)
            if n:
                share_sm = sm_avail / n
                share_hbm = hbm_avail / n
                now = self.time
                cum = self._cum_dt
                at_cap = clock == max_clock0
                for entry in running.values():
                    peak_eff = entry.peak_eff
                    ai = entry.ai
                    # rate_from_params, branch-inlined.
                    rate = peak_eff * share_sm * eff_clock
                    if ai != _INF:
                        bandwidth = ai * share_hbm
                        if bandwidth < rate:
                            rate = bandwidth
                    if rate <= 0.0:
                        rate = peak_eff * 1e-4
                        if rate < 1.0:
                            rate = 1.0
                    if rate_mul != 1.0:
                        rate *= rate_mul
                    if rate != entry.rate or not entry.scheduled:
                        behind = cum - entry.bank_cum
                        if behind > 0.0:
                            w = entry.work_remaining - entry.rate * behind
                            entry.work_remaining = w if w > 0.0 else 0.0
                            entry.bank_cum = cum
                        entry.rate = rate
                        entry.scheduled = True
                        schedule(
                            now + entry.work_remaining / rate,
                            _TASK_FINISH,
                            entry.tid,
                        )
                    # sm_utilization_from_params with sm_fraction=1.0.
                    peak = peak_eff * clock
                    if peak <= 0.0:
                        util = 0.0
                    else:
                        util = rate / peak
                        if util > 1.0:
                            util = 1.0
                    if at_cap:
                        free_util = entry.free_util0
                    else:
                        cache = entry.free_util_cache
                        free_util = cache.get(clock)
                        if free_util is None:
                            free_util = free_utilization(
                                entry.task.kernel, clock
                            )
                            cache[clock] = free_util
                    if free_util > util:
                        util += stall_frac * (free_util - util)
                    util *= entry.ramp
                    if entry.is_vector:
                        uv += util
                    else:
                        ut += util
                    if ai != _INF and ai > 0.0:
                        hbm_used += rate / ai
            link_frac = 0.0
            if active_count:
                agg = agg_hbm[gpu_index]
                if agg > 0.0:
                    hbm_used += agg
                agg = agg_link[gpu_index]
                if agg > 0.0:
                    link_frac = agg
                agg = agg_comm_sm[gpu_index]
                if agg > 0.0:
                    uv += _COMM_VECTOR_UTIL * agg
            if spinning_on[gpu_index]:
                agg = agg_spin_sm[gpu_index]
                if agg > 0.0:
                    uv += _SPIN_VECTOR_UTIL * agg
            # evaluate_parts with sm_items ((VECTOR, uv), (TENSOR, ut)),
            # branch-inlined and sharing its clock-pow memo.
            if uv > 1.0:
                uv = 1.0
            elif uv < 0.0:
                uv = 0.0
            dynamic_sm = vec_max * uv
            if ut != 0.0:
                if ut > 1.0:
                    ut = 1.0
                dynamic_sm += ten_max * ut
            hbm_frac = hbm_used / hbm_bw
            if hbm_frac > 1.0:
                hbm_frac = 1.0
            if link_frac > 1.0:
                link_frac = 1.0
            ct = clock_pow.get(clock)
            if ct is None:
                ct = clock_term(clock)
            power = tdp * (
                idle_frac
                + dynamic_sm * ct
                + hbm_max * hbm_frac
                + link_max * link_frac
            )
            # Publish, re-arm a blocked tick, roll the power segment.
            power_now[gpu_index] = power
            if blocked and gpu_index in blocked:
                blocked.remove(gpu_index)
                unscheduled.add(gpu_index)
            current = segment_open.get(gpu_index)
            if current is not None:
                compute_active = n > 0
                comm_active = active_count > 0
                start_s, cur_power, cur_compute, cur_comm, cur_clock = current
                if (
                    cur_compute != compute_active
                    or cur_comm != comm_active
                    or abs(cur_power - power) >= 1e-6
                    or abs(cur_clock - clock) >= 1e-9
                ):
                    now = self.time
                    if now > start_s:
                        # tuple.__new__ like TaskRecord: skips the
                        # namedtuple's generated kwargs __new__, which
                        # profiles at this call rate.
                        segments[gpu_index].append(
                            tuple.__new__(
                                PowerSegment,
                                (
                                    gpu_index, start_s, now, cur_power,
                                    cur_compute, cur_comm, cur_clock,
                                ),
                            )
                        )
                    segment_open[gpu_index] = (
                        now, power, compute_active, comm_active, clock,
                    )

        return fused

    def _recompute_gpus_vectorized(self, gpus: List[int], np) -> None:
        """Many dirty GPUs at once through the ``*_many`` entry points.

        Produces the same floats as :meth:`_recompute_gpu_fused` run
        per GPU (the ``*_many`` helpers are bit-identical to their
        scalar forms); it exists so large cohorts — e.g. the initial
        full-dirty pass on a big node — amortize into a few numpy
        kernels instead of a python loop per GPU.
        """
        stats = self.stats
        stats.gpu_rate_passes += len(gpus)
        stats.vector_batches += 1
        # Phase 1: availability per GPU; flatten entry rate inputs.
        per_gpu = []
        acc: Dict[int, List[float]] = {}
        flat: List[Tuple[int, _RunningCompute]] = []
        pe_list: List[float] = []
        ai_list: List[float] = []
        sm_list: List[float] = []
        hbm_list: List[float] = []
        clk_rate: List[float] = []
        clk_util: List[float] = []
        mul_list: List[float] = []
        perturbed = self._perturbed
        for gpu_index in gpus:
            clock = self._clock[gpu_index]
            active_count = len(self._active_on[gpu_index])
            sm_avail, hbm_avail, eff_clock = self._fused_availability(
                gpu_index, clock, active_count
            )
            rate_mul = 1.0
            if perturbed:
                rate_mul = self._perturb_rate[gpu_index]
                pm = self._perturb_hbm[gpu_index]
                if pm != 1.0:
                    hbm_avail *= pm
                cap = self._perturb_cap[gpu_index]
                if eff_clock > cap:
                    eff_clock = cap
            running = self._running_on[gpu_index]
            n = len(running)
            if n:
                share_sm = sm_avail / n
                share_hbm = hbm_avail / n
                for entry in running.values():
                    flat.append((gpu_index, entry))
                    pe_list.append(entry.peak_eff)
                    ai_list.append(entry.ai)
                    sm_list.append(share_sm)
                    hbm_list.append(share_hbm)
                    clk_rate.append(eff_clock)
                    clk_util.append(clock)
                    mul_list.append(rate_mul)
            per_gpu.append((gpu_index, clock, n, active_count))
            acc[gpu_index] = [0.0, 0.0, 0.0]  # uv, ut, hbm_used
        # Phase 2: batched rate + utilisation evaluation.
        if flat:
            rates = RateModel.rate_from_params_many(
                pe_list, ai_list, sm_list, hbm_list, clk_rate, np=np
            )
            if perturbed:
                # Fold the straggler derate in *before* utilisation so
                # power tracks the derated rate, exactly as the scalar
                # fused path does (x * 1.0 is an exact identity, so the
                # untargeted entries come through bit-unchanged).
                if np is not None and not isinstance(rates, list):
                    rates = rates * np.asarray(mul_list)
                else:
                    rates = [r * m for r, m in zip(rates, mul_list)]
            utils = RateModel.sm_utilization_from_params_many(
                pe_list, rates, 1.0, clk_util, np=np
            )
        else:
            rates = utils = []
        # Phase 3: apply rates (push-on-change, O(1) banking) and fold
        # stall/ramp discounts into the per-GPU accumulators.
        now = self.time
        cum = self._cum_dt
        schedule = self.queue.schedule
        stall_frac = self._stall_frac
        free_utilization = self._rates.free_utilization
        max_clock0 = self._max_clock0
        for i, (gpu_index, entry) in enumerate(flat):
            rate = rates[i]
            if rate != entry.rate or not entry.scheduled:
                behind = cum - entry.bank_cum
                if behind > 0.0:
                    w = entry.work_remaining - entry.rate * behind
                    entry.work_remaining = w if w > 0.0 else 0.0
                    entry.bank_cum = cum
                entry.rate = rate
                entry.scheduled = True
                schedule(
                    now + entry.work_remaining / rate,
                    _TASK_FINISH,
                    entry.tid,
                )
            util = utils[i]
            clock = clk_util[i]
            if clock == max_clock0:
                free_util = entry.free_util0
            else:
                cache = entry.free_util_cache
                free_util = cache.get(clock)
                if free_util is None:
                    free_util = free_utilization(entry.task.kernel, clock)
                    cache[clock] = free_util
            if free_util > util:
                util += stall_frac * (free_util - util)
            util *= entry.ramp
            slot = acc[gpu_index]
            if entry.is_vector:
                slot[0] += util
            else:
                slot[1] += util
            ai = entry.ai
            if ai != _INF and ai > 0.0:
                slot[2] += rate / ai
        # Phase 4: per-GPU communication terms -> power inputs, staged
        # prefix-first into the preallocated scratch arrays (the values
        # are identical to the python lists this replaced; the *_many
        # evaluation sees the same float64 stream either way).
        hbm_bw = self._hbm_bw
        clocks, hbm_fracs, link_fracs, vec_utils, ten_utils = (
            self._cohort_scratch.views(len(per_gpu))
        )
        for i, (gpu_index, clock, n, active_count) in enumerate(per_gpu):
            uv, ut, hbm_used = acc[gpu_index]
            link_frac = 0.0
            if active_count:
                agg = self._agg_hbm[gpu_index]
                if agg > 0.0:
                    hbm_used += agg
                agg = self._agg_link[gpu_index]
                if agg > 0.0:
                    link_frac = agg
                agg = self._agg_comm_sm[gpu_index]
                if agg > 0.0:
                    uv += _COMM_VECTOR_UTIL * agg
            if self._spinning_on[gpu_index]:
                agg = self._agg_spin_sm[gpu_index]
                if agg > 0.0:
                    uv += _SPIN_VECTOR_UTIL * agg
            clocks[i] = clock
            hbm_fracs[i] = hbm_used / hbm_bw
            link_fracs[i] = link_frac if link_frac < 1.0 else 1.0
            vec_utils[i] = uv
            ten_utils[i] = ut
        # Phase 5: batched power evaluation + publish.
        powers = self._power_eval.evaluate_parts_many(
            clocks, hbm_fracs, link_fracs, vec_utils, ten_utils, np=np
        )
        power_now = self._power_now
        blocked = self._tick_blocked
        unscheduled = self._tick_unscheduled
        for i, (gpu_index, clock, n, active_count) in enumerate(per_gpu):
            power = powers[i]
            power_now[gpu_index] = power
            if gpu_index in blocked:
                blocked.remove(gpu_index)
                unscheduled.add(gpu_index)
            self._maybe_roll_segment(
                gpu_index,
                power,
                compute_active=n > 0,
                comm_active=active_count > 0,
                clock=clock,
            )


#: Engine class per ``SimConfig.engine`` value.
_ENGINES = {
    "reference": Simulator,
    "exact": IncrementalSimulator,
    "fast": FastSimulator,
}


def make_simulator(
    node: NodeSpec,
    tasks: Sequence[Task],
    config: Optional[SimConfig] = None,
    cost_model: Optional[CollectiveCostModel] = None,
    prepared: Optional[PreparedSim] = None,
) -> Simulator:
    """Build the engine ``config.engine`` selects (exact by default)."""
    if config is None:
        config = SimConfig()
    cls = _ENGINES[config.engine]
    return cls(node, tasks, config, cost_model=cost_model, prepared=prepared)


def simulate(
    node: NodeSpec,
    tasks: Sequence[Task],
    config: Optional[SimConfig] = None,
    cost_model: Optional[CollectiveCostModel] = None,
    prepared: Optional[PreparedSim] = None,
) -> SimulationResult:
    """Convenience wrapper: build the configured engine and run it.

    ``cost_model`` lets callers share one memoized
    :class:`CollectiveCostModel` across many simulations of the same
    node (see :mod:`repro.exec.planning`); it is stateless, so sharing
    cannot change results. ``prepared`` short-circuits all pure setup
    with a pre-built (planner-cached) :class:`~repro.sim.prep
    .PreparedSim` for the same (node, tasks, config).
    """
    return make_simulator(
        node, tasks, config, cost_model=cost_model, prepared=prepared
    ).run()

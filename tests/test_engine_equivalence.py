"""Engine accuracy tiers: bit-exact equivalence + the tolerance tier.

The exact (incremental) engine's whole contract is that skipping the
clean (non-dirty) parts of the recompute cannot change anything:
records, power segments, end time and minimum clock must be *exactly*
equal — no tolerances — to the full-recompute reference engine, under
jitter, power capping, aggressive governor ticking and ideal mode
alike.

The *fast* tier (``SimConfig(engine="fast")``: additive contention
aggregates, adaptive governor ticks, cohort batching and O(1)
banking) trades bit-exactness for throughput; its contract is bounded
relative error, pinned here by a tolerance-gated version of the same
property suite and real-plan cases.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.primitives import CollectiveKind
from repro.hw.datapath import FP16_TENSOR, FP32_VECTOR
from repro.hw.system import make_node
from repro.parallel.plan import PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import (
    FastSimulator,
    IncrementalSimulator,
    Simulator,
    make_simulator,
)
from repro.sim.rates import (
    RateModel,
    compute_rate,
    isolated_duration,
    sm_utilization,
)
from repro.sim.task import COMM_STREAM
from repro.units import MB
from repro.workloads.kernels import elementwise_kernel, gemm_kernel

NODES = {n: make_node("A100", n) for n in (1, 2, 4)}

KERNELS = [
    gemm_kernel("gemm-s", 256, 256, 256, FP16_TENSOR),
    gemm_kernel("gemm-m", 512, 512, 512, FP16_TENSOR),
    gemm_kernel("gemm-skinny", 2048, 128, 1024, FP16_TENSOR),
    elementwise_kernel("ew", 4e6, FP16_TENSOR),
]

COLLECTIVE_KINDS = [
    CollectiveKind.ALL_REDUCE,
    CollectiveKind.ALL_GATHER,
    CollectiveKind.REDUCE_SCATTER,
]


def _assert_identical(node, tasks, config):
    """Run both engines; everything observable must be exactly equal."""
    ref = Simulator(
        node, tasks, dataclasses.replace(config, engine="reference")
    )
    inc = IncrementalSimulator(node, tasks, config)
    assert isinstance(
        make_simulator(node, tasks, config), IncrementalSimulator
    )
    a = ref.run()
    b = inc.run()
    assert a.end_time_s == b.end_time_s
    assert a.records == b.records
    assert a.power_segments == b.power_segments
    assert a.min_clock_frac_seen == b.min_clock_frac_seen
    # The incremental engine must actually be incremental, not a
    # re-spelling of the full pass: on multi-GPU plans it may touch at
    # most as many (gpu, event) pairs as the reference.
    assert inc.stats.gpu_rate_passes <= ref.stats.gpu_rate_passes
    return a


def _total_energy(result):
    return sum(
        seg.energy_j
        for segments in result.power_segments.values()
        for seg in segments
    )


def _assert_close(node, tasks, config, rel_tol, abs_floor_s=1e-9):
    """Reference vs the fast tier: bounded relative error.

    The fast tier may reorder float accumulations and shift throttle
    onset by a control period, so equality is relative: end time,
    per-task start/end times, total energy and the minimum clock must
    all land within ``rel_tol`` of the reference (times against an
    absolute floor for microsecond-scale programs).
    """
    ref = Simulator(
        node,
        tasks,
        dataclasses.replace(config, engine="reference"),
    )
    fast = make_simulator(node, tasks, config.fast())
    assert isinstance(fast, FastSimulator)
    a = ref.run()
    b = fast.run()
    time_tol = max(abs_floor_s, rel_tol * a.end_time_s)
    assert abs(a.end_time_s - b.end_time_s) <= time_tol
    assert len(a.records) == len(b.records)
    by_id = {record.task_id: record for record in b.records}
    for rec in a.records:
        other = by_id[rec.task_id]
        assert (rec.gpu, rec.stream, rec.label) == (
            other.gpu,
            other.stream,
            other.label,
        )
        assert abs(rec.start_s - other.start_s) <= time_tol
        assert abs(rec.end_s - other.end_s) <= time_tol
    assert abs(a.min_clock_frac_seen - b.min_clock_frac_seen) <= max(
        0.05, rel_tol
    )
    energy_a, energy_b = _total_energy(a), _total_energy(b)
    if energy_a > 0:
        assert abs(energy_a - energy_b) <= rel_tol * energy_a + 1e-9
    return a, b


@st.composite
def random_plans(draw):
    """Small random stream programs: computes, deps, collectives.

    Deps always point at earlier-created *compute* tasks and
    collectives span all GPUs in creation order, which keeps every
    generated plan deadlock-free by construction (the rendezvous
    ordering across comm streams is consistent).
    """
    num_gpus = draw(st.sampled_from([1, 2, 4]))
    builder = PlanBuilder("prop")
    compute_ids = []
    n_ops = draw(st.integers(min_value=2, max_value=14))
    for _ in range(n_ops):
        make_comm = num_gpus > 1 and draw(st.booleans())
        deps = []
        if compute_ids and draw(st.booleans()):
            deps = [draw(st.sampled_from(compute_ids))]
        if make_comm:
            payload = draw(st.sampled_from([2 * MB, 16 * MB, 96 * MB]))
            kind = draw(st.sampled_from(COLLECTIVE_KINDS))
            dep_gpu = draw(st.integers(0, num_gpus - 1))
            builder.add_collective(
                kind,
                payload,
                list(range(num_gpus)),
                deps_by_gpu={dep_gpu: deps} if deps else None,
                stream=COMM_STREAM,
            )
        else:
            gpu = draw(st.integers(0, num_gpus - 1))
            kernel = draw(st.sampled_from(KERNELS))
            tid = builder.add_compute(gpu, kernel, deps=deps)
            compute_ids.append(tid)
    if not any(t for t in builder._tasks):  # pragma: no cover - min_size=2
        builder.add_compute(0, KERNELS[0])
    config = SimConfig(
        contention_enabled=draw(st.booleans()),
        power_limit_w=draw(st.sampled_from([None, 250.0])),
        jitter_sigma=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 3)),
        # A microsecond-scale tick makes the governor fire inside these
        # tiny programs, exercising the clock-dirty propagation path.
        governor_period_s=draw(st.sampled_from([2e-6, 2e-3])),
        # The fused recompute rolls power segments only when tracing.
        trace_power=draw(st.booleans()),
    )
    return NODES[num_gpus], builder.build().tasks, config


@settings(max_examples=30, deadline=None)
@given(random_plans())
def test_random_task_graphs_are_bit_identical(plan):
    node, tasks, config = plan
    _assert_identical(node, tasks, config)


def _overlap_plan(num_gpus, rounds=4):
    builder = PlanBuilder("overlap")
    prev = {}
    for r in range(rounds):
        for g in range(num_gpus):
            deps = [prev[g]] if g in prev else []
            prev[g] = builder.add_compute(g, KERNELS[1], deps=deps)
        builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            64 * MB,
            list(range(num_gpus)),
            stream=COMM_STREAM,
        )
    return builder.build().tasks


@pytest.mark.parametrize("num_gpus", [2, 4])
def test_overlapped_rounds_bit_identical(num_gpus):
    tasks = _overlap_plan(num_gpus)
    result = _assert_identical(
        NODES[num_gpus],
        tasks,
        SimConfig(jitter_sigma=0.02, seed=7, governor_period_s=5e-6),
    )
    assert len(result.records) == len(tasks)


def test_power_capped_real_plan_bit_identical():
    """A real FSDP plan under a biting power cap (governor active)."""
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="fsdp",
        num_gpus=2,
        jitter_sigma=0.02,
        power_limit_w=250.0,
    )
    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    config = cfg.sim_config(seed=3)
    assert config.engine == "exact"
    result = _assert_identical(node, plan.tasks, config)
    # The cap must actually have throttled, or this test exercises
    # nothing clock-related.
    assert result.min_clock_frac_seen < 1.0


def test_pipeline_real_plan_bit_identical():
    """Pipeline send/recv (staggered rank posting — the spin path)."""
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="pipeline",
        num_gpus=4,
        jitter_sigma=0.02,
    )
    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    _assert_identical(node, plan.tasks, cfg.sim_config(seed=1))


def test_incremental_skips_unaffected_gpus():
    """Independent per-GPU work: the dirty set stays per-GPU sized."""
    num_gpus = 4
    builder = PlanBuilder("indep")
    for g in range(num_gpus):
        prev = None
        for _ in range(6):
            prev = builder.add_compute(
                g, KERNELS[0], deps=[prev] if prev is not None else []
            )
    tasks = builder.build().tasks
    node = NODES[num_gpus]
    config = SimConfig(trace_power=False)
    ref = Simulator(
        node, tasks, dataclasses.replace(config, engine="reference")
    )
    inc = IncrementalSimulator(node, tasks, config)
    a, b = ref.run(), inc.run()
    assert a.records == b.records
    # Reference touches every GPU on every event; the incremental
    # engine touches ~one (the finishing task's), so the gap must be
    # roughly the GPU count.
    assert inc.stats.gpu_rate_passes * 2 < ref.stats.gpu_rate_passes


def _spy_residents(sim):
    """Record (active, spinning) collective counts per fused recompute."""
    seen = []
    fused = sim._recompute_gpu_fused

    def spy(gpu_index):
        seen.append(
            (len(sim._active_on[gpu_index]), len(sim._spinning_on[gpu_index]))
        )
        fused(gpu_index)

    sim._recompute_gpu_fused = spy
    return seen


def test_concurrent_collectives_on_one_gpu_bit_identical():
    """Three collectives resident on one GPU at once, active and spinning.

    Each collective rides its own comm stream, so all three run
    together and the contention sums add three terms in ``seq`` order.
    A second wave's rank 1 waits on a long kernel chain, so rank 0
    spins on three instances at once while its own kernels run.
    """
    num_gpus = 2
    builder = PlanBuilder("multi-comm")
    streams = [COMM_STREAM, "comm-b", "comm-c"]
    for g in range(num_gpus):
        builder.add_compute(g, KERNELS[1])
    for stream in streams:
        builder.add_collective(
            CollectiveKind.ALL_REDUCE, 16 * MB, [0, 1], stream=stream
        )
    # Rank 0 keeps computing while it spins; rank 1 computes longer.
    slow = {}
    for g, length in ((0, 8), (1, 16)):
        for _ in range(length):
            prev = slow.get(g)
            slow[g] = builder.add_compute(
                g, KERNELS[2], deps=[prev] if prev is not None else []
            )
    for stream in streams:
        builder.add_collective(
            CollectiveKind.ALL_GATHER,
            16 * MB,
            [0, 1],
            deps_by_gpu={1: [slow[1]]},
            stream=stream,
        )
    tasks = builder.build().tasks
    node = NODES[num_gpus]
    for config in (
        SimConfig(jitter_sigma=0.02, seed=5, governor_period_s=5e-6),
        SimConfig(power_limit_w=150.0, governor_period_s=5e-6),
    ):
        _assert_identical(node, tasks, config)
    sim = IncrementalSimulator(node, tasks, SimConfig(jitter_sigma=0.02))
    seen = _spy_residents(sim)
    sim.run()
    assert max(active for active, _ in seen) == 3
    assert max(spinning for _, spinning in seen) == 3


def test_ideal_mode_thermal_throttle_bit_identical():
    """Contention off: the thermal ceiling caps the effective clock."""
    from repro.sim.perturb import PerturbationSpec

    tasks = _overlap_plan(2)
    node = NODES[2]
    ideal = SimConfig(contention_enabled=False, jitter_sigma=0.02, seed=2)
    throttled = dataclasses.replace(
        ideal,
        perturbations=(
            PerturbationSpec(
                kind="thermal_throttle",
                target="gpu:1",
                start_s=0.0,
                duration_s=0.5,
                magnitude=0.4,
            ),
        ),
    )
    healthy = _assert_identical(node, tasks, ideal)
    capped = _assert_identical(node, tasks, throttled)

    def kernel_time(result, gpu):
        return sum(
            r.duration_s
            for r in result.records
            if r.gpu == gpu and r.stream != COMM_STREAM
        )

    # The cap must have slowed the throttled GPU's kernels (and only
    # its kernels), or the branch was never taken.
    assert kernel_time(capped, 1) > kernel_time(healthy, 1)
    assert kernel_time(capped, 0) == kernel_time(healthy, 0)
    assert capped.min_clock_frac_seen == pytest.approx(0.6)


def _node_without(path, num_gpus):
    """A node whose GPU spec has no SM power coefficient for ``path``."""
    from repro.hw.power import GpuPowerCoefficients

    node = NODES[num_gpus]
    kept = {
        p: frac
        for p, frac in node.gpu.power.sm_max_frac.items()
        if p is not path
    }
    gpu = dataclasses.replace(
        node.gpu, power=GpuPowerCoefficients(sm_max_frac=kept)
    )
    return dataclasses.replace(node, gpu=gpu)


def test_missing_power_coefficient_raises_the_same_error():
    """The exact tier rejects a missing coefficient like the oracle."""
    from repro.errors import ConfigurationError
    from repro.hw.datapath import Datapath

    node = _node_without(Datapath.TENSOR, 2)
    tasks = _overlap_plan(2)
    messages = []
    for engine in ("reference", "exact"):
        config = SimConfig(engine=engine)
        with pytest.raises(ConfigurationError) as excinfo:
            make_simulator(node, tasks, config).run()
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    assert "no SM power coefficient for tensor" in messages[0]


def test_unused_missing_power_coefficient_is_accepted_by_exact_tiers():
    """A coefficient no power term needs is no error for the exact tiers.

    Tensor-only kernels on one GPU never put a vector term into the
    power formula, so both exact tiers run the plan identically; the
    fast tier checks every coefficient up front and refuses it.
    """
    from repro.errors import ConfigurationError
    from repro.hw.datapath import Datapath

    node = _node_without(Datapath.VECTOR, 1)
    builder = PlanBuilder("tensor-only")
    prev = None
    for kernel in KERNELS[:3]:
        prev = builder.add_compute(
            0, kernel, deps=[prev] if prev is not None else []
        )
    tasks = builder.build().tasks
    _assert_identical(node, tasks, SimConfig(power_limit_w=250.0))
    with pytest.raises(ConfigurationError, match="vector"):
        make_simulator(node, tasks, SimConfig(engine="fast"))


# ----------------------------------------------------------------------
# fast tier: tolerance-gated equivalence
# ----------------------------------------------------------------------


def _real_plan(strategy, num_gpus, power_limit_w=None):
    from repro.core.experiment import ExperimentConfig
    from repro.exec.planning import default_planner

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy=strategy,
        num_gpus=num_gpus,
        jitter_sigma=0.02,
        power_limit_w=power_limit_w,
    )
    planner = default_planner()
    return planner.node_for(cfg), planner.plan_for(cfg, overlap=True), cfg


@settings(max_examples=20, deadline=None)
@given(random_plans())
def test_random_task_graphs_fast_tier_within_tolerance(plan):
    node, tasks, config = plan
    # The energy bound needs the power trace.
    config = dataclasses.replace(config, trace_power=True)
    # Tiny microsecond-scale programs with aggressive ticks: allow a
    # generous bound (a handful of control periods of drift).
    _assert_close(node, tasks, config, rel_tol=0.10, abs_floor_s=2e-5)


def test_fast_tier_power_capped_real_plan_within_tolerance():
    node, plan, cfg = _real_plan("fsdp", 2, power_limit_w=250.0)
    config = cfg.sim_config(seed=3)
    ref, fast = _assert_close(node, plan.tasks, config, rel_tol=0.05)
    # The cap must actually have bitten under both tiers.
    assert ref.min_clock_frac_seen < 1.0
    assert fast.min_clock_frac_seen < 1.0


def test_fast_tier_pipeline_real_plan_within_tolerance():
    node, plan, cfg = _real_plan("pipeline", 4)
    _assert_close(node, plan.tasks, cfg.sim_config(seed=1), rel_tol=0.05)


def test_fast_tier_uses_adaptive_ticks():
    """Uncapped real plan: the adaptive cadence must actually skip."""
    node, plan, cfg = _real_plan("fsdp", 2)
    sim = make_simulator(node, plan.tasks, cfg.sim_config(seed=0).fast())
    sim.run()
    assert sim.stats.ticks_skipped > 0


def test_make_simulator_tier_selection():
    node, plan, cfg = _real_plan("fsdp", 2)
    base = cfg.sim_config(seed=0)
    assert type(make_simulator(node, plan.tasks, base)) is IncrementalSimulator
    for engine, cls in (
        ("exact", IncrementalSimulator),
        ("reference", Simulator),
        ("fast", FastSimulator),
    ):
        config = dataclasses.replace(base, engine=engine)
        assert type(make_simulator(node, plan.tasks, config)) is cls
    from repro.errors import ConfigurationError

    for retired in ("incremental", "batched", "auto"):
        with pytest.raises(ConfigurationError, match="reference, exact, fast"):
            dataclasses.replace(base, engine=retired)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_rate_model_matches_module_functions(kernel):
    """RateModel's memoized math is the module functions, bit-for-bit."""
    gpu = NODES[4].gpu
    model = RateModel(gpu)
    for sm in (1.0, 0.4, 0.05):
        for bw in (gpu.memory.effective_bandwidth, 1e11):
            for clock in (1.0, 0.61):
                expected = compute_rate(kernel, gpu, sm, bw, clock)
                assert model.compute_rate(kernel, sm, bw, clock) == expected
                assert (
                    model.sm_utilization(kernel, expected, sm, clock)
                    == sm_utilization(kernel, gpu, expected, sm, clock)
                )
    assert model.isolated_duration(kernel) == isolated_duration(kernel, gpu)
    free = compute_rate(
        kernel, gpu, 1.0, gpu.memory.effective_bandwidth, 0.77
    )
    assert model.free_utilization(kernel, 0.77) == sm_utilization(
        kernel, gpu, free, 1.0, 0.77
    )
    # Second lookup is the memo hit; value must be unchanged.
    assert model.free_utilization(kernel, 0.77) == sm_utilization(
        kernel, gpu, free, 1.0, 0.77
    )


# ----------------------------------------------------------------------
# cohort batching and the numpy fallback
# ----------------------------------------------------------------------


def _cohort_heavy_plan(num_gpus=4, waves=6):
    """Many same-timestamp collective completions per wave.

    With ``jitter_sigma=0`` every collective in a wave has identical
    cost, so all of them — across all GPUs — finish on exactly the
    same float timestamp: the maximal cohort shape the batched drain
    exists for.
    """
    builder = PlanBuilder("cohorts")
    for _ in range(waves):
        for g in range(num_gpus):
            builder.add_compute(g, KERNELS[0])
        for payload in (16 * MB, 16 * MB, 16 * MB):
            builder.add_collective(
                CollectiveKind.ALL_REDUCE,
                payload,
                list(range(num_gpus)),
                stream=COMM_STREAM,
            )
    return builder.build().tasks


def test_cohort_heavy_plan_fast_tier_within_tolerance():
    """Multi-event cohorts drain together and stay within tolerance."""
    num_gpus = 4
    node = NODES[num_gpus]
    tasks = _cohort_heavy_plan(num_gpus)
    config = SimConfig(
        jitter_sigma=0.0, governor_period_s=5e-6, trace_power=True
    )
    _assert_close(node, tasks, config, rel_tol=0.05)
    fast = make_simulator(node, tasks, config.fast())
    fast.run()
    # The plan must actually produce multi-event cohorts, or this
    # exercises nothing (events per cohort strictly > 1 on average).
    assert fast.stats.cohorts > 0
    assert fast.stats.events > fast.stats.cohorts


def test_batched_numpy_fallback_identical_on_real_plan(monkeypatch):
    """REPRO_SIM_NO_NUMPY=1 must not change a single float."""
    pytest.importorskip("numpy")
    from repro.sim.soa import NO_NUMPY_ENV

    node, plan, cfg = _real_plan("fsdp", 2, power_limit_w=250.0)
    config = cfg.sim_config(seed=3).fast()
    monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    with_numpy = make_simulator(node, plan.tasks, config).run()
    monkeypatch.setenv(NO_NUMPY_ENV, "1")
    fallback = make_simulator(node, plan.tasks, config).run()
    assert with_numpy.end_time_s == fallback.end_time_s
    assert with_numpy.records == fallback.records
    assert with_numpy.power_segments == fallback.power_segments
    assert (
        with_numpy.min_clock_frac_seen == fallback.min_clock_frac_seen
    )


# ----------------------------------------------------------------------
# per-metric tolerance knobs: ExperimentConfig wiring
# ----------------------------------------------------------------------


def test_experiment_tolerances_gate_the_tolerance_suite():
    """The configured per-metric bounds are what the suite enforces."""
    from repro.core.experiment import ExperimentConfig

    cfg = ExperimentConfig(
        gpu="A100",
        model="gpt3-xl",
        batch_size=8,
        strategy="fsdp",
        num_gpus=2,
        jitter_sigma=0.02,
        power_limit_w=250.0,
        engine_tier="fast",
        tolerances={"records": 0.05, "power": 0.05, "energy": 0.05},
    )
    assert cfg.tolerance("records") == 0.05
    assert cfg.tolerance("nonexistent", default=0.25) == 0.25
    from repro.exec.planning import default_planner

    planner = default_planner()
    node = planner.node_for(cfg)
    plan = planner.plan_for(cfg, overlap=True)
    config = cfg.sim_config(seed=3)
    exact_cfg = dataclasses.replace(
        cfg, engine_tier="exact", tolerances=None
    )
    ref = Simulator(
        node,
        plan.tasks,
        dataclasses.replace(exact_cfg.sim_config(seed=3), engine="reference"),
    ).run()
    fast = make_simulator(node, plan.tasks, config).run()
    time_tol = cfg.tolerance("records") * ref.end_time_s
    assert abs(ref.end_time_s - fast.end_time_s) <= time_tol
    energy_ref, energy_fast = _total_energy(ref), _total_energy(fast)
    assert (
        abs(energy_ref - energy_fast)
        <= cfg.tolerance("energy") * energy_ref + 1e-9
    )
    avg_ref = energy_ref / ref.end_time_s
    avg_fast = energy_fast / fast.end_time_s
    assert abs(avg_ref - avg_fast) <= cfg.tolerance("power") * avg_ref


#: Kernels across both datapaths and the roofline's regimes: compute-
#: bound GEMMs, bandwidth-bound elementwise kernels, and a pure-FLOP
#: kernel (infinite arithmetic intensity).
FREE_UTIL_KERNELS = KERNELS + [
    gemm_kernel("gemm-fp32", 1024, 1024, 1024, FP32_VECTOR),
    gemm_kernel("gemm-thin", 4096, 8, 64, FP16_TENSOR),
    elementwise_kernel("ew-fp32", 1e7, FP32_VECTOR),
    elementwise_kernel("ew-heavy", 1e6, FP16_TENSOR, flops_per_element=400.0),
    elementwise_kernel("ew-flops", 1e6, FP16_TENSOR, bytes_per_element=0.0),
]


@settings(max_examples=200, deadline=None)
@given(
    gpu_name=st.sampled_from(["A100", "H100", "MI210", "MI250"]),
    kernel=st.sampled_from(FREE_UTIL_KERNELS),
    clock=st.one_of(
        st.floats(min_value=0.05, max_value=1.0),
        st.sampled_from([1.0, 0.3, 0.61, 0.999999, 1e-3]),
    ),
)
def test_free_utilization_closed_form_is_bit_exact(gpu_name, kernel, clock):
    """The fused loops' closed form is RateModel's memo, bit-for-bit."""
    from repro.hw.registry import get_gpu

    gpu = get_gpu(gpu_name)
    if kernel.path not in gpu.peak_flops:
        return  # e.g. no TF32 on CDNA2; no engine would run it
    model = RateModel(gpu)
    peak_eff, ai = model.kernel_params(kernel)
    closed = RateModel.free_utilization_from_params(
        peak_eff, ai, gpu.memory.effective_bandwidth, clock
    )
    assert closed == model.free_utilization(kernel, clock)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
def test_rate_model_param_helpers_are_bit_exact(kernel):
    """The engine's pre-resolved param path equals the module math."""
    gpu = NODES[4].gpu
    model = RateModel(gpu)
    peak_eff, ai = model.kernel_params(kernel)
    assert ai == kernel.arithmetic_intensity
    for sm in (1.0, 0.4, 0.05):
        for bw in (gpu.memory.effective_bandwidth, 1e11):
            for clock in (1.0, 0.61):
                expected = compute_rate(kernel, gpu, sm, bw, clock)
                assert (
                    RateModel.rate_from_params(peak_eff, ai, sm, bw, clock)
                    == expected
                )
                assert RateModel.sm_utilization_from_params(
                    peak_eff, expected, sm, clock
                ) == sm_utilization(kernel, gpu, expected, sm, clock)

"""Struct-of-arrays store and the numpy-optional ``*_many`` contract.

The fast engine's vectorized evaluation is only sound because the
numpy and pure-python paths of every ``*_many`` entry point are
bit-for-bit identical — ``REPRO_SIM_NO_NUMPY`` is a perf knob, never
an accuracy one. This suite pins that contract at three levels: the
raw helpers (against their scalar forms and against each other), the
env gate, and a whole ≥``VECTOR_MIN``-GPU fast-tier simulation run with
and without numpy.
"""

import dataclasses

import pytest

from repro.collectives.primitives import CollectiveKind
from repro.hw.datapath import FP16_TENSOR, Datapath
from repro.hw.power import PowerEvaluator
from repro.hw.system import make_node
from repro.parallel.plan import PlanBuilder
from repro.sim.config import SimConfig
from repro.sim.engine import FastSimulator, make_simulator
from repro.sim.rates import RateModel
from repro.sim.soa import NO_NUMPY_ENV, VECTOR_MIN, SoAStore, numpy_or_none
from repro.sim.task import COMM_STREAM
from repro.units import MB
from repro.workloads.kernels import elementwise_kernel, gemm_kernel

INF = float("inf")

#: Parameter rows covering every branch of rate_from_params: compute
#: bound, bandwidth bound, infinite AI (elementwise), zero peak, zero
#: clock (both fallback arms of the rate<=0 clamp), and a zero SM
#: share.
RATE_CASES = [
    # (peak_eff, ai, sm_fraction, hbm_bytes_per_s, clock_frac)
    (100e12, 142.0, 1.0, 1.5e12, 1.0),
    (100e12, 142.0, 0.25, 1.5e12, 0.61),
    (100e12, 2.0, 1.0, 1.5e12, 1.0),
    (50e12, INF, 0.4, 1.5e12, 0.8),
    (50e12, INF, 1.0, 0.0, 1.0),
    (0.0, 142.0, 1.0, 1.5e12, 1.0),
    (100e12, 142.0, 1.0, 1.5e12, 0.0),
    (100e12, 142.0, 0.0, 1.5e12, 1.0),
    (1e-6, INF, 1.0, 1.5e12, 0.0),
]


def _rate_columns():
    return tuple(
        [case[field] for case in RATE_CASES] for field in range(5)
    )


def test_soa_store_layout():
    store = SoAStore(3, max_clock_frac=0.9, idle_power_w=80.0)
    assert store.num_gpus == 3
    assert store.clock == [0.9, 0.9, 0.9]
    assert store.power == [80.0, 80.0, 80.0]
    for arr in (store.comm_sm, store.spin_sm, store.hbm, store.link):
        assert arr == [0.0, 0.0, 0.0]
    # Parallel arrays, not shared ones: mutating a slot in one array
    # must not alias another.
    store.comm_sm[1] = 0.5
    assert store.spin_sm == [0.0, 0.0, 0.0]


def test_numpy_or_none_env_gate(monkeypatch):
    pytest.importorskip("numpy")
    for falsy in ("", "0", "false", "no", "off", " FALSE "):
        monkeypatch.setenv(NO_NUMPY_ENV, falsy)
        assert numpy_or_none() is not None
    for truthy in ("1", "true", "yes", "anything"):
        monkeypatch.setenv(NO_NUMPY_ENV, truthy)
        assert numpy_or_none() is None
    monkeypatch.delenv(NO_NUMPY_ENV)
    assert numpy_or_none() is not None


def test_rate_from_params_many_matches_scalar():
    pe, ai, sm, hbm, clk = _rate_columns()
    expected = [
        RateModel.rate_from_params(*case) for case in RATE_CASES
    ]
    assert RateModel.rate_from_params_many(pe, ai, sm, hbm, clk) == expected


def test_rate_from_params_many_numpy_bit_identical():
    np = pytest.importorskip("numpy")
    pe, ai, sm, hbm, clk = _rate_columns()
    pure = RateModel.rate_from_params_many(pe, ai, sm, hbm, clk)
    vec = RateModel.rate_from_params_many(pe, ai, sm, hbm, clk, np=np)
    assert vec == pure  # exact: same float64 ops, same order


def test_sm_utilization_many_matches_scalar():
    pe, ai, sm, hbm, clk = _rate_columns()
    rates = RateModel.rate_from_params_many(pe, ai, sm, hbm, clk)
    expected = [
        RateModel.sm_utilization_from_params(pe[i], rates[i], sm[i], clk[i])
        for i in range(len(RATE_CASES))
    ]
    assert (
        RateModel.sm_utilization_from_params_many(pe, rates, sm, clk)
        == expected
    )
    # Scalar sm_fraction broadcasts.
    broadcast = RateModel.sm_utilization_from_params_many(
        pe, rates, 1.0, clk
    )
    assert broadcast == [
        RateModel.sm_utilization_from_params(pe[i], rates[i], 1.0, clk[i])
        for i in range(len(RATE_CASES))
    ]


def test_sm_utilization_many_numpy_bit_identical():
    np = pytest.importorskip("numpy")
    pe, ai, sm, hbm, clk = _rate_columns()
    rates = RateModel.rate_from_params_many(pe, ai, sm, hbm, clk)
    for sm_arg in (sm, 1.0):
        pure = RateModel.sm_utilization_from_params_many(
            pe, rates, sm_arg, clk
        )
        vec = RateModel.sm_utilization_from_params_many(
            pe, rates, sm_arg, clk, np=np
        )
        assert vec == pure


def test_evaluate_parts_many_bit_identical():
    gpu = make_node("A100", 1).gpu
    evaluator = PowerEvaluator(gpu.tdp_w, gpu.power)
    clocks = [1.0, 0.61, 0.0, 1.0, 0.8, 1.2, 0.5]
    hbm = [0.0, 0.5, 1.0, 1.5, 0.2, 0.0, 0.9]
    link = [0.0, 0.3, 1.0, 0.0, 2.0, 0.1, 0.0]
    vec = [0.0, 0.4, 1.0, 1.7, 0.2, 0.0, 0.6]
    ten = [0.0, 0.9, 1.0, 0.0, 0.5, 1.3, 0.2]
    pure = evaluator.evaluate_parts_many(clocks, hbm, link, vec, ten)
    # Row-by-row against the scalar evaluator with the batched layout's
    # fixed (VECTOR, TENSOR) summation order.
    for i in range(len(clocks)):
        assert pure[i] == evaluator.evaluate_parts(
            clocks[i],
            hbm[i],
            link[i],
            ((Datapath.VECTOR, vec[i]), (Datapath.TENSOR, ten[i])),
        )
    np = pytest.importorskip("numpy")
    assert (
        evaluator.evaluate_parts_many(clocks, hbm, link, vec, ten, np=np)
        == pure
    )


def _wide_plan(num_gpus):
    """Per-GPU chains plus collectives on a VECTOR_MIN-wide node.

    The initial recompute dirties every GPU at once (the full-dirty
    priming pass), which is exactly the batch the vectorized path
    exists for; the collectives keep cross-GPU cohorts coming after
    that.
    """
    builder = PlanBuilder("wide")
    kernels = [
        gemm_kernel("gemm", 512, 512, 512, FP16_TENSOR),
        elementwise_kernel("ew", 4e6, FP16_TENSOR),
    ]
    for r in range(2):
        for g in range(num_gpus):
            builder.add_compute(g, kernels[(g + r) % 2])
        builder.add_collective(
            CollectiveKind.ALL_REDUCE,
            16 * MB,
            list(range(num_gpus)),
            stream=COMM_STREAM,
        )
    return builder.build().tasks


def _run_wide_batched(monkeypatch, force_fallback):
    num_gpus = VECTOR_MIN
    node = make_node("A100", num_gpus)
    tasks = _wide_plan(num_gpus)
    if force_fallback:
        monkeypatch.setenv(NO_NUMPY_ENV, "1")
    else:
        monkeypatch.delenv(NO_NUMPY_ENV, raising=False)
    config = dataclasses.replace(
        SimConfig(jitter_sigma=0.02, seed=5, trace_power=True).fast(),
    )
    sim = make_simulator(node, tasks, config)
    assert isinstance(sim, FastSimulator)
    result = sim.run()
    return result, sim.stats


def test_vectorized_batched_run_matches_pure_python(monkeypatch):
    pytest.importorskip("numpy")
    with_numpy, stats_numpy = _run_wide_batched(
        monkeypatch, force_fallback=False
    )
    fallback, stats_fallback = _run_wide_batched(
        monkeypatch, force_fallback=True
    )
    # The numpy run must actually have vectorized, and the fallback
    # must actually have not — otherwise this compares nothing.
    assert stats_numpy.vector_batches > 0
    assert stats_fallback.vector_batches == 0
    # Bit-identical outputs: same records, same power history, same
    # everything.
    assert with_numpy.end_time_s == fallback.end_time_s
    assert with_numpy.records == fallback.records
    assert with_numpy.power_segments == fallback.power_segments
    assert with_numpy.min_clock_frac_seen == fallback.min_clock_frac_seen

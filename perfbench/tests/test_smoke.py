"""A tiny instance of every workload, run end to end through real processes.

Each instance swaps the workload's spec for a two-cell one and runs one
untraced and one traced command, so both metric sets are exercised
without the set-up probes a full run adds.
"""

import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run, workloads

TINY = {
    # One feasible cell and one out-of-memory cell, all three modes.
    "paper_grid": lambda seed: {
        "name": "paper_grid",
        "base": {"runs": 1, "base_seed": seed},
        "axes": [
            {"gpu": ["MI210"]},
            {"strategy": ["pipeline"]},
            {"model": ["gpt3-xl", "gpt3-13b"]},
            {"batch_size": [8]},
        ],
        "modes": workloads.MODES_ALL,
    },
    "capped_deep": lambda seed: {
        "name": "capped_deep",
        "base": {"gpu": "H100", "model": "gpt3-xl", "batch_size": 8, "runs": 1},
        "axes": [
            {"perturbations": [[], workloads.STRAGGLER]},
            {"base_seed": [seed]},
        ],
        "modes": workloads.MODES_PAIR,
    },
    "fleet_batch": lambda seed: {
        "name": "fleet_batch",
        "base": {"gpu": "H100", "model": "gpt3-xl", "batch_size": 8, "base_seed": seed},
        "axes": [{"strategy": ["fsdp", "pipeline"]}],
        "modes": workloads.MODES_PAIR,
    },
}
#: grid_warm re-serves paper_grid's spec.
SPEC_OF = {"paper_grid": "paper_grid", "capped_deep": "capped_deep",
           "grid_warm": "paper_grid", "fleet_batch": "fleet_batch"}


@pytest.mark.parametrize("workload", sorted(run.RUNNERS))
def test_tiny_workload_runs_checks_and_reports_every_metric(workload, monkeypatch, tmp_path):
    spec_name = SPEC_OF[workload]
    monkeypatch.setattr(workloads, spec_name, TINY[spec_name])
    ctx = run.Context(workload, 3, 0.0, True, work_root=tmp_path)
    try:
        outcome = run.RUNNERS[workload](ctx)
    finally:
        ctx.close()
    commands = outcome.commands
    assert [c.traced for c in commands] == [False, True]
    assert outcome.extra_failed == 0
    for cmd in commands:
        assert cmd.exit_code == 0, cmd.stderr[-2000:]
        assert cmd.failed == set()
        assert cmd.resolved == outcome.n_cells == 2
        assert len(cmd.latencies) == 2
    e2e = run.end_to_end_metrics(
        commands[:1], [commands[0].setup_s], fleet=workload == "fleet_batch"
    )
    assert set(e2e) == {m["name"] for m in run.END_TO_END}
    assert all(value > 0 for value in e2e.values()), e2e
    layers = run.per_layer_metrics(commands)
    assert set(layers) == {name for name, _, _ in run.PER_LAYER}
    if workload == "grid_warm":
        assert layers["engine.runs"] == 0
        assert layers["planning.plan_builds"] == 0
        assert layers["cache.hit_ratio"] == 1.0
    else:
        assert layers["engine.runs"] > 0
    if workload == "fleet_batch":
        assert layers["fleet.round_trips"] >= 2
    if workload in ("paper_grid", "grid_warm"):
        assert set(outcome.detail) == {
            "sim_err.slowdown_mean_pp", "sim_err.slowdown_max_pp",
            "sim_err.seq_penalty_mean_pp", "sim_err.seq_penalty_max_pp",
        }
    shares = run.layer_shares(commands[1])
    assert sum(shares.values()) == pytest.approx(1.0)
    assert 0.0 <= shares["uncovered"] < 0.5


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no result, exit != 0."""
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

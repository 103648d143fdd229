"""Unit tests for the benchmark's own arithmetic and checks."""

import json
import re

import pytest

from perfbench import checks, run, stats, tracing


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "count, pct",
    [(48, 79), (36, 72), (32, 68), (20, 50), (11, 9), (10, None), (0, None)],
)
def test_tail_percentile_leaves_ten_beyond(count, pct):
    assert stats.tail_percentile(count) == pct
    if pct is not None:
        # The next percentile up would leave fewer than ten beyond.
        assert count - -(-(pct + 1) * count // 100) < stats.TAIL_BEYOND


def test_tail_reports_value_percentile_and_sample_count():
    values = list(range(1, 49))  # 48 samples, 1..48
    tail = stats.tail(values)
    assert tail == {"pct": 79, "value": 38.0, "samples": 48}
    assert sum(v > tail["value"] for v in values) == 10


def test_tail_falls_back_to_median_when_too_few_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == {"pct": 50, "value": 2.0, "samples": 3}


def test_median_even_and_odd():
    assert stats.median([4, 1, 3]) == 3.0
    assert stats.median([4, 1, 3, 2]) == 2.5


# -- fail_ratio accounting ---------------------------------------------------


def test_cell_samples_are_one_per_cell_median_or_best_hit():
    cells = [
        ("miss", 0.20, "a"), ("miss", 0.30, "b"),
        ("hit", 5e-5, "c"), ("hit", 9e-5, "d"),
        ("miss", 0.26, "a"), ("miss", 0.36, "b"),
        ("hit", 8e-5, "c"), ("hit", 4e-5, "d"),
        ("fleet", 0.40, "e"), ("fleet", 0.50, "e"), ("fleet", 0.90, "e"),
    ]
    samples = stats.cell_samples(cells)
    # Repetitions of a cell give its median; a hit cell gives its best.
    assert sorted(samples) == pytest.approx([4e-5, 5e-5, 0.23, 0.33, 0.50])


def test_run_latency_metrics_take_one_sample_per_cell():
    commands = [_command(latencies=(0.1, 0.2, 0.3)), _command(latencies=(0.3, 0.4, 0.5))]
    e2e = run.end_to_end_metrics(commands, [0.5, 0.5], fleet=False)
    # Cells k0..k2 read 0.2, 0.3 and 0.4 over the two commands.
    assert e2e["cell_p50_ms"] == pytest.approx(300.0)
    # Three cells: too few for a tail with ten beyond, so the median.
    assert e2e["cell_tail_ms"] == pytest.approx(300.0)


def test_fail_ratio_counts_failed_over_attempted():
    assert stats.fail_ratio(48, 0) == 0.0
    assert stats.fail_ratio(48, 12) == 0.25
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(4, 5)


def _command(failed=(), latencies=(0.1, 0.2, 0.3)):
    record = {
        "t0": 0.01, "t_import": 0.02, "t_ready": 0.5, "peak_rss_kb": 1024,
        "counters": {}, "cells": [],
    }
    return run.Command(
        wall_s=2.0, setup_s=0.5, process_s=2.0, exit_code=0, record=record,
        stderr="", resolved=3, failed=set(failed),
        cells=[("miss", seconds, f"k{i}") for i, seconds in enumerate(latencies)],
    )


def test_run_accounts_every_command_and_the_reference_sample(monkeypatch, tmp_path):
    commands = [_command(), _command(failed={0, 2}), _command(), _command(), _command()]
    monkeypatch.setitem(
        run.RUNNERS, "paper_grid",
        lambda ctx: run.Outcome(commands, n_cells=3, extra_failed=1),
    )
    ctx = run.Context("paper_grid", 1, 0.0, False, work_root=tmp_path)
    try:
        report = run.run(ctx)
    finally:
        ctx.close()
    result, detail = report["result"], report["detail"]
    assert result["attempted"] == 15
    assert result["failed"] == 3
    assert result["correct"] is False
    assert detail["fail_ratio"] == pytest.approx(3 / 15)
    assert set(detail["host"]) == {"nproc", "python", "numpy"}
    # Metrics are still reported so a failing run can be inspected.
    assert set(result["metrics"]) == {m["name"] for m in run.END_TO_END}
    assert result["metrics"]["cells_per_s"]["value"] == pytest.approx(3 / 1.5)


def test_warm_check_requires_all_hits_and_identical_rows(tmp_path):
    fill = tmp_path / "fill.json"
    fill.write_text(json.dumps([{"cell": "a", "x": 1}, {"cell": "b", "x": 2}], indent=2))
    same = tmp_path / "same.json"
    same.write_text(fill.read_text())
    one_row = tmp_path / "one-row.json"
    one_row.write_text(json.dumps([{"cell": "a", "x": 1}, {"cell": "b", "x": 3}], indent=2))
    reformatted = tmp_path / "reformatted.json"
    reformatted.write_text(json.dumps(json.loads(fill.read_text())))

    def checked(rows_path, executed=0, hits=2):
        cmd = _command()
        cmd.record["counters"] = {"executed": executed, "hits": hits}
        run.check_warm(cmd, rows_path, fill, 2)
        return cmd.failed

    assert checked(same) == set()
    assert checked(one_row) == {1}
    assert checked(reformatted) == {0, 1}
    assert checked(same, executed=1, hits=1) == {0, 1}
    assert checked(tmp_path / "missing.json") == {0, 1}


# -- spans and self time -----------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["exec.dispatch", 1.0, 9.0, 0],
        ["engine.drain", 2.0, 5.0, 1],
        ["cache.put", 6.0, 7.0, 1],
        ["engine.setup", 3.0, 4.0, 2],
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 2.0, 1.0, 1.0]
    layers = tracing.totals_by_layer(spans)
    assert layers["cli"] == 2.0 and layers["exec"] == 4.0
    assert layers["engine"] == 3.0 and layers["cache"] == 1.0
    assert sum(layers.values()) == 10.0  # self times add up to the root span


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["fleet.run", 0.0, 10.0, -1],
        ["fleet.lease", 1.0, 4.0, 0],
        ["fleet.result", 3.0, 6.0, 0],
        ["fleet.result", 9.0, 12.0, 0],  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_recorder_nests_and_rejects_out_of_order_close():
    ticks = iter(range(100))
    rec = tracing.Recorder(lambda: float(next(ticks)))
    outer = rec.open("cli.main")
    inner = rec.open("scenario.run")
    assert rec.close(inner) == 1.0
    assert rec.close(outer) == 3.0
    assert [s[3] for s in rec.spans] == [-1, 0]
    a = rec.open("a.x")
    rec.open("a.y")
    with pytest.raises(RuntimeError):
        rec.close(a)


def test_import_chain_counts_each_chain_once_from_its_entry():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       500 |        500 |         numpy",
        "import time:       200 |        700 |       repro.sim.prep",
        "import time:       300 |       1000 |     repro.sim.engine",
        "import time:        50 |         50 |     repro.fleet.task",
        "import time:       100 |       1150 |   repro.core.experiment",
        "import time:       400 |        400 |   numpy.linalg",
        "import time:        10 |       1560 | repro.cli",
    ])
    assert tracing.import_chain_s(text, ["repro.sim", "numpy"]) == pytest.approx(1400e-6)
    assert tracing.import_chain_s(text, ["repro.fleet"]) == pytest.approx(50e-6)
    assert tracing.import_chain_s(text, ["repro.cli"]) == pytest.approx(1560e-6)


# -- output checks -----------------------------------------------------------


def _payload(**overrides):
    mode = {
        "e2e_s": 1.0, "compute_s": 0.8, "comm_s": 0.3, "avg_power_w": 300.0,
        "peak_power_w": 400.0, "energy_j": 300.0, "min_clock_frac": 0.9,
        "e2e_samples": [1.0],
    }
    payload = {
        "schema": 1,
        "result": {
            "modes": {
                "overlapped": dict(mode),
                "sequential": dict(mode, e2e_s=1.1),
                "ideal": dict(mode, e2e_s=0.9),
            },
            "metrics": {
                "compute_overlapping_s": 0.8, "compute_sequential_s": 0.64,
                "comm_total_s": 0.3, "overlapped_comm_s": 0.2, "overlap_ratio": 0.66,
                "e2e_overlapping_s": 1.0, "e2e_sequential_measured_s": 1.1,
                "e2e_ideal_simulated_s": 0.9,
            },
            "feasibility": {"fits": True},
        },
    }
    for path, value in overrides.items():
        target = payload["result"]
        *parents, leaf = path.split("__")
        for part in parents:
            target = target[part]
        target[leaf] = value
    return payload


def test_physical_checks_accept_a_sane_payload_and_infeasible_cells():
    assert checks.physical_problems(_payload()) == []
    assert checks.physical_problems({"schema": 1, "infeasible": "out of memory"}) == []


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"metrics__overlap_ratio": 1.2}, "outside [0, 1]"),
        ({"modes__overlapped__min_clock_frac": -0.1}, "not finite"),
        ({"modes__sequential__energy_j": float("nan")}, "not finite"),
        ({"modes__overlapped__comm_s": float("inf")}, "not finite"),
        ({"modes__ideal__e2e_s": 1.5}, "ideal e2e slower"),
        ({"metrics__e2e_ideal_simulated_s": 1.01}, "ideal simulated e2e slower"),
    ],
)
def test_physical_checks_flag_each_violation(overrides, fragment):
    problems = checks.physical_problems(_payload(**overrides))
    assert any(fragment in p for p in problems), problems


def test_physical_checks_reject_malformed_payloads():
    assert checks.physical_problems([]) == ["payload is not an object"]
    assert checks.physical_problems({"schema": 1})


def test_sim_err_is_the_gap_to_the_paper_in_points():
    payloads = [_payload(), {"schema": 1, "infeasible": "oom"}]
    aggregates = checks.aggregates_pct(payloads)
    assert aggregates["slowdown_mean_pp"] == pytest.approx(25.0)
    assert aggregates["seq_penalty_max_pp"] == pytest.approx(10.0)
    err = checks.sim_err_pp(aggregates)
    assert err["sim_err.slowdown_mean_pp"] == pytest.approx(6.1)
    assert err["sim_err.slowdown_max_pp"] == pytest.approx(15.0)
    assert err["sim_err.seq_penalty_max_pp"] == pytest.approx(16.6)


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_matches_the_metric_tables_and_their_limits():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == run.benchmark_json()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = on_disk["end_to_end"] + on_disk["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert set(on_disk["workloads"][0]) == {"name", "why"}
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(run.RUNNERS) == {w["name"] for w in on_disk["workloads"]}

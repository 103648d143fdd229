"""Output checks applied to every cell a benchmark run resolves.

Each check returns a list of problems (empty when the cell passes). A
cell with any problem counts as failed in the run's ``fail_ratio``;
cells are never retried or dropped.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

#: Paper headline aggregates over the Figs. 4-6 grid, in percent. The
#: compute slowdowns are Fig. 4's (Eq. 1) mean and maximum; the
#: sequential penalties are Fig. 5's mean and maximum gap between
#: sequential and overlapped end-to-end iteration time. Both pairs are
#: the numbers the paper's abstract quotes.
PAPER_AGGREGATES_PCT: Dict[str, float] = {
    "slowdown_mean_pp": 18.9,
    "slowdown_max_pp": 40.0,
    "seq_penalty_mean_pp": 10.2,
    "seq_penalty_max_pp": 26.6,
}


def _numbers(value: Any, where: str) -> Iterable[tuple]:
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield where, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers(item, f"{where}[{i}]")


def physical_problems(payload: Any) -> List[str]:
    """Physical sanity of one cached outcome payload.

    Infeasible (out-of-memory) payloads are valid outcomes. A result
    must have finite, non-negative times, powers and energies, ratios
    within [0, 1], and an ideal run never slower than the overlapped
    one when the ideal mode was simulated.
    """
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if "infeasible" in payload:
        reason = payload["infeasible"]
        return [] if isinstance(reason, str) and reason else ["empty infeasible reason"]
    result = payload.get("result")
    if not isinstance(result, dict):
        return ["payload has neither a result nor an infeasible reason"]
    problems = []
    modes = result.get("modes") or {}
    metrics = result.get("metrics") or {}
    if "overlapped" not in modes or "sequential" not in modes:
        problems.append("overlapped or sequential mode missing")
    for where, number in _numbers({"modes": modes, "metrics": metrics}, "result"):
        if not math.isfinite(number) or number < 0:
            problems.append(f"{where} = {number!r} is not finite and non-negative")
    ratios = [("metrics.overlap_ratio", metrics.get("overlap_ratio"))]
    ratios += [
        (f"modes.{mode}.min_clock_frac", stats.get("min_clock_frac"))
        for mode, stats in modes.items()
    ]
    for where, ratio in ratios:
        if not isinstance(ratio, (int, float)) or not 0.0 <= ratio <= 1.0:
            problems.append(f"{where} = {ratio!r} outside [0, 1]")
    if "ideal" in modes and "overlapped" in modes:
        if modes["ideal"]["e2e_s"] > modes["overlapped"]["e2e_s"]:
            problems.append("ideal e2e slower than overlapped")
    ideal = metrics.get("e2e_ideal_simulated_s")
    overlapped = metrics.get("e2e_overlapping_s")
    if ideal is not None and overlapped is not None and ideal > overlapped:
        problems.append("ideal simulated e2e slower than overlapped")
    return problems


def load_payload(cache_dir: Path, key: str) -> Optional[Any]:
    path = cache_dir / f"{key}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def manifest_keys(cache_dir: Path, name: str) -> Optional[List[str]]:
    """Job keys, in compile order, from a run's persisted manifest."""
    try:
        manifest = json.loads((cache_dir / "manifests" / f"{name}.json").read_text())
        keys = manifest["job_keys"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return keys if isinstance(keys, list) else None


def cell_problems(cache_dir: Path, keys: List[str]) -> List[List[str]]:
    """Physical problems for each key's payload (missing counts too)."""
    out = []
    for key in keys:
        payload = load_payload(cache_dir, key)
        out.append(["payload missing"] if payload is None else physical_problems(payload))
    return out


def same_bytes(left: Path, right: Path) -> bool:
    try:
        return left.read_bytes() == right.read_bytes()
    except OSError:
        return False


def aggregates_pct(payloads: Iterable[Any]) -> Dict[str, float]:
    """The paper's four grid aggregates, in percent, from result payloads.

    Compute slowdown is Eq. 1 (overlapped over sequential compute time,
    minus one); the sequential penalty is sequential over overlapped
    end-to-end time, minus one. Infeasible cells are left out, as the
    paper leaves out its out-of-memory cells.
    """
    slowdowns, penalties = [], []
    for payload in payloads:
        if not isinstance(payload, dict) or "result" not in payload:
            continue
        m = payload["result"]["metrics"]
        seq_compute, overlapped_e2e = m["compute_sequential_s"], m["e2e_overlapping_s"]
        slowdowns.append(
            m["compute_overlapping_s"] / seq_compute - 1.0 if seq_compute > 0 else 0.0
        )
        penalties.append(
            m["e2e_sequential_measured_s"] / overlapped_e2e - 1.0 if overlapped_e2e > 0 else 0.0
        )
    if not slowdowns:
        raise ValueError("no feasible cells to aggregate")
    return {
        "slowdown_mean_pp": 100.0 * sum(slowdowns) / len(slowdowns),
        "slowdown_max_pp": 100.0 * max(slowdowns),
        "seq_penalty_mean_pp": 100.0 * sum(penalties) / len(penalties),
        "seq_penalty_max_pp": 100.0 * max(penalties),
    }


def sim_err_pp(aggregates: Dict[str, float]) -> Dict[str, float]:
    """Absolute gap, in percentage points, to the paper's aggregates."""
    return {
        f"sim_err.{name}": abs(aggregates[name] - paper)
        for name, paper in PAPER_AGGREGATES_PCT.items()
    }

"""Spans, self-time arithmetic and the per-layer metrics built on them.

A span is ``[name, start, end, parent]``: a name whose first dotted
part is the layer (``engine.drain`` belongs to ``engine``), two
``time.monotonic()`` readings and the index of the enclosing span
(``-1`` at the root). The child process records spans in memory
(:class:`Recorder`) and writes them once, when its command has
finished; the parent turns them into layer self times here.

A span's self time is its duration minus the part of its interval
that its child spans cover. Self times of all spans plus the import
phase add up to the process wall time, less a stated uncovered
remainder (interpreter start, hook installation, exit).
"""

from __future__ import annotations

import re
import threading
from typing import Dict, Iterable, List, Sequence, Tuple

#: Layers in the order reports list them.
LAYERS: Tuple[str, ...] = (
    "cli",
    "scenario",
    "exec",
    "cache",
    "planning",
    "experiment",
    "engine",
    "fleet",
)


class Recorder:
    """In-memory span store for one process's main thread.

    Calls from other threads (the fleet worker's heartbeat threads)
    are not recorded: their intervals overlap the main thread's and
    would break the self-time accounting.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._main = threading.main_thread()
        self.spans: List[list] = []
        self._stack: List[int] = []

    def active(self) -> bool:
        return threading.current_thread() is self._main

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self._clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        """End span ``index``; returns its duration in seconds."""
        span = self.spans[index]
        span[2] = self._clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        return span[2] - span[1]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus what child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = _covered(children.get(index, ()), start, end)
        out.append((end - start) - covered)
    return out


def totals_by_name(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Summed self time per span name."""
    out: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span[0]] = out.get(span[0], 0.0) + own
    return out


def totals_by_layer(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Summed self time per layer (every layer of :data:`LAYERS` present)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, own in totals_by_name(spans).items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + own
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)\s*$")


def import_chain_s(importtime_text: str, prefixes: Sequence[str]) -> float:
    """Seconds spent importing the modules under ``prefixes``.

    Parses ``python -X importtime`` output and sums the cumulative time
    of each module matching a prefix that was not itself imported from
    inside another matching module, so a chain such as ``repro.sim.engine
    -> repro.sim.prep -> numpy`` counts once, from its entry point.
    """
    entries = []
    for line in importtime_text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            depth = len(match.group(3)) // 2
            entries.append((depth, int(match.group(2)), match.group(4)))

    def matches(module: str) -> bool:
        return any(module == p or module.startswith(p + ".") for p in prefixes)

    # The output is post-order (children before their parent); reversed
    # it is a pre-order walk, so a depth-indexed stack holds ancestors.
    total_us = 0
    stack: List[bool] = []
    for depth, cumulative_us, module in reversed(entries):
        del stack[depth:]
        hit = matches(module)
        if hit and not any(stack):
            total_us += cumulative_us
        stack.append(hit)
    return total_us / 1e6

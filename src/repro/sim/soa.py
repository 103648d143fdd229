"""Struct-of-arrays backing store for the fast engine tier.

The cohort-batched engine keeps its per-GPU hot state — clock
fraction, last published power, and the additive contention
aggregates — in parallel arrays indexed by GPU, instead of the
per-GPU dicts the exact engines use. One :class:`SoAStore` owns those
arrays; the engine aliases them so inherited bookkeeping hooks and
the batched evaluation loops touch the same storage.

The arrays are plain python lists on purpose: scalar indexing into a
numpy array boxes a fresh ``np.float64`` per read, which is *slower*
than a list access for the one-GPU-dirty case that dominates event
processing. numpy enters only through the batched ``*_many``
evaluation entry points (:meth:`~repro.sim.rates.RateModel.
rate_from_params_many`, :meth:`~repro.hw.power.PowerEvaluator.
evaluate_parts_many`, ...), which vectorize once a batch is large
enough to amortize the array round-trip (:data:`VECTOR_MIN`) and
fall back to a pure-python loop otherwise. The two paths are
bit-for-bit identical (the SoA test suite pins this), so the numpy
dependency is strictly optional: set :data:`NO_NUMPY_ENV` (or run on
a box without numpy) and every simulation produces the same floats.
"""

from __future__ import annotations

import os
from typing import List, Optional

#: Environment variable forcing the pure-python array fallback even
#: when numpy is importable (``1``/``true``/...; any non-empty value
#: that is not ``0``/``false``/``no``/``off`` disables numpy). The
#: fallback is bit-identical, so this is a perf knob and a CI axis,
#: never an accuracy one.
NO_NUMPY_ENV = "REPRO_SIM_NO_NUMPY"

_FALSY = ("", "0", "false", "no", "off")

#: Minimum batch size before the ``*_many`` helpers hand work to
#: numpy. Below this the fixed cost of building arrays exceeds the
#: per-element win (measured crossover is ~tens of elements); the
#: pure-python loop is used instead. Engines compare their batch
#: sizes against this before passing a numpy module down.
VECTOR_MIN = 32

try:  # pragma: no cover - import probe
    import numpy as _numpy
except ImportError:  # pragma: no cover - numpy-less environment
    _numpy = None


def numpy_or_none():
    """The numpy module, or None when absent or disabled by env.

    Checked at simulator construction (not import) so tests and CI
    can flip :data:`NO_NUMPY_ENV` per run without re-importing.
    """
    if os.environ.get(NO_NUMPY_ENV, "").strip().lower() not in _FALSY:
        return None
    return _numpy


class CohortScratch:
    """Preallocated staging arrays for the vectorized cohort drain.

    The multi-GPU recompute used to build five fresh python lists per
    cohort and hand them to the ``*_many`` power entry point, which
    converted each with ``np.asarray``. The scratch owns one
    numpy array per component, sized to the node, filled prefix-first
    and passed down as zero-copy views — no per-cohort allocation and
    no list-to-array conversion. Only constructed when numpy is in
    play (the pure-python fallback path never reaches the vectorized
    drain), and only ever read through :meth:`views`, so a prefix from
    an earlier, larger cohort can never leak into a later one.
    """

    __slots__ = ("num_gpus", "clock", "hbm_frac", "link_frac",
                 "vec_util", "ten_util")

    def __init__(self, num_gpus: int, np) -> None:
        self.num_gpus = num_gpus
        self.clock = np.empty(num_gpus, dtype=np.float64)
        self.hbm_frac = np.empty(num_gpus, dtype=np.float64)
        self.link_frac = np.empty(num_gpus, dtype=np.float64)
        self.vec_util = np.empty(num_gpus, dtype=np.float64)
        self.ten_util = np.empty(num_gpus, dtype=np.float64)

    def views(self, count: int):
        """Zero-copy prefix views over the first ``count`` slots."""
        return (
            self.clock[:count],
            self.hbm_frac[:count],
            self.link_frac[:count],
            self.vec_util[:count],
            self.ten_util[:count],
        )


class SoAStore:
    """Per-GPU hot state as parallel arrays (struct-of-arrays).

    One slot per GPU:

    * ``clock`` — current clock fraction (the governor's output).
    * ``power`` — last published instantaneous power (W).
    * ``comm_sm`` / ``spin_sm`` — additive SM-share aggregates of
      active / spinning collectives.
    * ``hbm`` / ``link`` — additive HBM-draw and link-utilisation
      aggregates of active collectives.
    * ``rate_mul`` / ``hbm_mul`` / ``link_mul`` / ``clock_cap`` — the
      degradation multipliers and clock ceiling maintained by the
      perturbation injector (``sim/perturb.py``); identity values
      (1.0 / ``max_clock_frac``) when no perturbation targets the GPU.

    The store is dumb by design: the engine owns every update rule
    (snap-to-zero on empty resident sets, exact-delta rate folds,
    active-set multiplier recomputes); this class just fixes the
    memory layout.
    """

    __slots__ = (
        "num_gpus", "clock", "power", "comm_sm", "spin_sm", "hbm", "link",
        "rate_mul", "hbm_mul", "link_mul", "clock_cap",
    )

    def __init__(
        self, num_gpus: int, max_clock_frac: float, idle_power_w: float
    ):
        self.num_gpus = num_gpus
        self.clock: List[float] = [max_clock_frac] * num_gpus
        self.power: List[float] = [idle_power_w] * num_gpus
        self.comm_sm: List[float] = [0.0] * num_gpus
        self.spin_sm: List[float] = [0.0] * num_gpus
        self.hbm: List[float] = [0.0] * num_gpus
        self.link: List[float] = [0.0] * num_gpus
        self.rate_mul: List[float] = [1.0] * num_gpus
        self.hbm_mul: List[float] = [1.0] * num_gpus
        self.link_mul: List[float] = [1.0] * num_gpus
        self.clock_cap: List[float] = [max_clock_frac] * num_gpus

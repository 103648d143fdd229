"""Roofline rate computation for compute kernels.

The module-level functions are the reference formulas; the engine hot
path goes through :class:`RateModel`, which precomputes the per-kernel
invariants (datapath peak x efficiency, arithmetic intensity) once and
memoizes the clock-dependent free-running utilisation the power model
keeps asking for. The class performs the *same arithmetic in the same
association order* as the functions, so the two are bit-for-bit
interchangeable (a property test pins this).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import SimulationError
from repro.hw.gpu import GpuSpec
from repro.workloads.kernels import KernelSpec


def compute_rate(
    kernel: KernelSpec,
    gpu: GpuSpec,
    sm_fraction: float,
    hbm_bytes_per_s: float,
    clock_frac: float,
) -> float:
    """Execution rate of a kernel in FLOP/s under the given resources.

    The classic roofline: the kernel runs at the lesser of its compute
    ceiling (peak of its datapath, scaled by available SMs, clock and
    kernel efficiency) and its bandwidth ceiling (arithmetic intensity
    times available HBM bandwidth).
    """
    if sm_fraction < 0 or hbm_bytes_per_s < 0 or clock_frac <= 0:
        raise SimulationError(
            f"invalid resources for {kernel.name}: "
            f"sm={sm_fraction}, bw={hbm_bytes_per_s}, f={clock_frac}"
        )
    peak = gpu.peak(kernel.path)
    flops_ceiling = peak * kernel.efficiency * sm_fraction * clock_frac
    ai = kernel.arithmetic_intensity
    if ai == float("inf"):
        rate = flops_ceiling
    else:
        rate = min(flops_ceiling, ai * hbm_bytes_per_s)
    if rate <= 0:
        # Starved of both SMs and bandwidth; progress at a trickle so the
        # simulation still terminates (real kernels never fully stall).
        rate = max(peak * kernel.efficiency * 1e-4, 1.0)
    return rate


def isolated_duration(kernel: KernelSpec, gpu: GpuSpec) -> float:
    """Duration with the whole GPU at full clock (no contention)."""
    rate = compute_rate(
        kernel,
        gpu,
        sm_fraction=1.0,
        hbm_bytes_per_s=gpu.memory.effective_bandwidth,
        clock_frac=1.0,
    )
    return kernel.flops / rate


def hbm_demand(kernel: KernelSpec, rate_flops_per_s: float) -> float:
    """HBM bandwidth (bytes/s) the kernel consumes at a given rate."""
    ai = kernel.arithmetic_intensity
    if ai == float("inf") or ai <= 0:
        return 0.0
    return rate_flops_per_s / ai


def sm_utilization(
    kernel: KernelSpec,
    gpu: GpuSpec,
    rate_flops_per_s: float,
    sm_fraction: float,
    clock_frac: float,
) -> float:
    """Fraction of the datapath's full-tilt issue rate actually used.

    Memory-bound kernels occupy SMs but stall on loads, drawing less
    power than their occupancy suggests; this utilisation drives the SM
    term of the power model.
    """
    peak = gpu.peak(kernel.path) * kernel.efficiency * clock_frac
    if peak <= 0:
        return 0.0
    util = rate_flops_per_s / peak
    return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)


class RateModel:
    """Roofline calculator for one GPU with precomputed kernel tables.

    Hoists the quantities that never change during a simulation — the
    datapath peak scaled by kernel efficiency, the arithmetic intensity,
    the isolated duration — into per-kernel memo tables, and caches the
    free-running (uncontended) SM utilisation per (kernel, clock) pair
    the stall-power model evaluates on every power update. All results
    are bit-for-bit equal to the module-level functions.
    """

    #: Bound on the (kernel, clock) memo: DVFS walks the clock through
    #: many distinct values over a long run, and the table must not
    #: grow without limit.
    _MAX_FREE_ENTRIES = 4096

    def __init__(self, gpu: GpuSpec):
        self.gpu = gpu
        self._peak_eff: Dict[KernelSpec, float] = {}
        self._iso: Dict[KernelSpec, float] = {}
        self._free_util: Dict[Tuple[KernelSpec, float], float] = {}
        self._rows: Dict[Tuple[KernelSpec, float], Tuple] = {}

    def _peak_eff_for(self, kernel: KernelSpec) -> float:
        value = self._peak_eff.get(kernel)
        if value is None:
            value = self.gpu.peak(kernel.path) * kernel.efficiency
            self._peak_eff[kernel] = value
        return value

    def kernel_params(self, kernel: KernelSpec) -> Tuple[float, float]:
        """``(peak * efficiency, arithmetic intensity)`` for one kernel.

        The engine resolves these once per task at launch and feeds
        them back through :meth:`rate_from_params` /
        :meth:`sm_utilization_from_params`, which skips the per-event
        kernel-table hashing without changing a single float.
        """
        return self._peak_eff_for(kernel), kernel.arithmetic_intensity

    @staticmethod
    def rate_from_params(
        peak_eff: float,
        ai: float,
        sm_fraction: float,
        hbm_bytes_per_s: float,
        clock_frac: float,
    ) -> float:
        """:meth:`compute_rate` from pre-resolved kernel parameters.

        Performs exactly the same arithmetic in the same association
        order, so the result is bit-for-bit equal (a property test
        pins this against the module-level function).
        """
        flops_ceiling = peak_eff * sm_fraction * clock_frac
        if ai == float("inf"):
            rate = flops_ceiling
        else:
            rate = min(flops_ceiling, ai * hbm_bytes_per_s)
        if rate <= 0:
            rate = max(peak_eff * 1e-4, 1.0)
        return rate

    @staticmethod
    def sm_utilization_from_params(
        peak_eff: float,
        rate_flops_per_s: float,
        sm_fraction: float,
        clock_frac: float,
    ) -> float:
        """:meth:`sm_utilization` from a pre-resolved peak."""
        peak = peak_eff * clock_frac
        if peak <= 0:
            return 0.0
        util = rate_flops_per_s / peak
        return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)

    @staticmethod
    def free_utilization_from_params(
        peak_eff: float,
        ai: float,
        hbm_bytes_per_s: float,
        clock_frac: float,
    ) -> float:
        """:meth:`free_utilization` from pre-resolved kernel parameters.

        ``hbm_bytes_per_s`` is the GPU's effective bandwidth. The
        closed form of :meth:`compute_rate` (whole GPU, the given
        clock) followed by :meth:`sm_utilization` with its ``peak``
        shared, in the same association order, so the result is
        bit-for-bit equal to the memoized method (a property test pins
        this). The engine's fused loops inline this arithmetic rather
        than probing a (kernel, clock) memo that DVFS keeps missing.
        """
        peak = peak_eff * clock_frac
        if peak <= 0:
            return 0.0
        rate = peak
        if ai != float("inf"):
            bandwidth = ai * hbm_bytes_per_s
            if bandwidth < rate:
                rate = bandwidth
        if rate <= 0:
            rate = max(peak_eff * 1e-4, 1.0)
        util = rate / peak
        return 1.0 if util > 1.0 else util

    @staticmethod
    def rate_from_params_many(
        peak_effs,
        ais,
        sm_fractions,
        hbm_rates,
        clock_fracs,
        np=None,
    ):
        """Batched :meth:`rate_from_params` over parallel arrays.

        Pass a numpy module as ``np`` to vectorize (worthwhile above
        :data:`repro.sim.soa.VECTOR_MIN` elements); with ``np=None``
        the pure-python loop runs instead. Both paths perform the same
        float64 arithmetic in the same association order, so the
        results are bit-for-bit identical (pinned by the SoA tests).
        """
        if np is not None:
            pe = np.asarray(peak_effs)
            ai = np.asarray(ais)
            ceiling = pe * np.asarray(sm_fractions) * np.asarray(clock_fracs)
            with np.errstate(invalid="ignore"):
                # inf * 0.0 is NaN; the isinf branch discards it below,
                # exactly like the scalar early-out for infinite AI.
                bandwidth = ai * np.asarray(hbm_rates)
            rate = np.where(
                np.isinf(ai), ceiling, np.minimum(ceiling, bandwidth)
            )
            return np.where(
                rate <= 0, np.maximum(pe * 1e-4, 1.0), rate
            ).tolist()
        rate_from_params = RateModel.rate_from_params
        return [
            rate_from_params(
                peak_effs[i], ais[i], sm_fractions[i],
                hbm_rates[i], clock_fracs[i],
            )
            for i in range(len(peak_effs))
        ]

    @staticmethod
    def sm_utilization_from_params_many(
        peak_effs,
        rates,
        sm_fractions,
        clock_fracs,
        np=None,
    ):
        """Batched :meth:`sm_utilization_from_params` over arrays.

        ``sm_fractions`` may be a single float (broadcast to every
        element) or a parallel array. Same numpy/pure-python contract
        as :meth:`rate_from_params_many`.
        """
        if np is not None:
            pe = np.asarray(peak_effs)
            peak = pe * np.asarray(clock_fracs)
            with np.errstate(divide="ignore", invalid="ignore"):
                util = np.asarray(rates) / peak
            sm = np.asarray(sm_fractions)
            cap = np.where(sm > 0, sm, 1.0)
            util = np.minimum(np.minimum(util, cap), 1.0)
            return np.where(peak <= 0, 0.0, util).tolist()
        if isinstance(sm_fractions, (int, float)):
            sm_fractions = [sm_fractions] * len(peak_effs)
        util_from_params = RateModel.sm_utilization_from_params
        return [
            util_from_params(
                peak_effs[i], rates[i], sm_fractions[i], clock_fracs[i]
            )
            for i in range(len(peak_effs))
        ]

    def compute_rate(
        self,
        kernel: KernelSpec,
        sm_fraction: float,
        hbm_bytes_per_s: float,
        clock_frac: float,
    ) -> float:
        """Identical to :func:`compute_rate` with the peak memoized."""
        if sm_fraction < 0 or hbm_bytes_per_s < 0 or clock_frac <= 0:
            raise SimulationError(
                f"invalid resources for {kernel.name}: "
                f"sm={sm_fraction}, bw={hbm_bytes_per_s}, f={clock_frac}"
            )
        peak_eff = self._peak_eff_for(kernel)
        flops_ceiling = peak_eff * sm_fraction * clock_frac
        ai = kernel.arithmetic_intensity
        if ai == float("inf"):
            rate = flops_ceiling
        else:
            rate = min(flops_ceiling, ai * hbm_bytes_per_s)
        if rate <= 0:
            rate = max(peak_eff * 1e-4, 1.0)
        return rate

    def isolated_duration(self, kernel: KernelSpec) -> float:
        """Memoized :func:`isolated_duration`."""
        value = self._iso.get(kernel)
        if value is None:
            rate = self.compute_rate(
                kernel,
                sm_fraction=1.0,
                hbm_bytes_per_s=self.gpu.memory.effective_bandwidth,
                clock_frac=1.0,
            )
            value = kernel.flops / rate
            self._iso[kernel] = value
        return value

    def sm_utilization(
        self,
        kernel: KernelSpec,
        rate_flops_per_s: float,
        sm_fraction: float,
        clock_frac: float,
    ) -> float:
        """Identical to :func:`sm_utilization` with the peak memoized."""
        peak = self._peak_eff_for(kernel) * clock_frac
        if peak <= 0:
            return 0.0
        util = rate_flops_per_s / peak
        return min(util, sm_fraction if sm_fraction > 0 else 1.0, 1.0)

    def kernel_row(
        self, kernel: KernelSpec, clock_frac: float
    ) -> Tuple[float, float, float, float]:
        """``(peak_eff, ai, isolated_s, free_util)`` in one memo probe.

        The prepared-simulation table build needs all four per-kernel
        invariants at once; resolving them through the individual memos
        costs three kernel-keyed probes per kernel per plan. This
        combined row is assembled from those same memos on first sight
        (so every float is identical to the piecewise path) and then
        answers in a single lookup.
        """
        key = (kernel, clock_frac)
        row = self._rows.get(key)
        if row is None:
            if len(self._rows) >= self._MAX_FREE_ENTRIES:
                self._rows.clear()
            row = (
                self._peak_eff_for(kernel),
                kernel.arithmetic_intensity,
                self.isolated_duration(kernel),
                self.free_utilization(kernel, clock_frac),
            )
            self._rows[key] = row
        return row

    def free_utilization(self, kernel: KernelSpec, clock_frac: float) -> float:
        """Uncontended SM utilisation at a given clock, memoized.

        This is the ``sm_utilization`` of the rate the kernel would
        sustain with the whole GPU to itself — the quantity the
        stall-power model compares against on every power update.
        """
        key = (kernel, clock_frac)
        value = self._free_util.get(key)
        if value is None:
            if len(self._free_util) >= self._MAX_FREE_ENTRIES:
                self._free_util.clear()
            free_rate = self.compute_rate(
                kernel,
                sm_fraction=1.0,
                hbm_bytes_per_s=self.gpu.memory.effective_bandwidth,
                clock_frac=clock_frac,
            )
            value = self.sm_utilization(kernel, free_rate, 1.0, clock_frac)
            self._free_util[key] = value
        return value

"""Order statistics, output check and timing calibration of the benchmark."""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: tolerance of the reported final error against the independent one
REL_TOL = 1e-9


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it,
    but not below the median.

    Returns ``(value, percentile, n)``: the nearest-rank value with exactly
    ``beyond`` samples above it. With fewer than ``2 * beyond`` samples no
    percentile above the median has that many beyond it, and the lower
    median is returned instead: a maximum of ten or fewer solves is one
    sample, and a single stall of the shared host moved it by more than a
    third between runs of the same code. The caller reports the percentile
    and ``n`` next to the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - beyond, (n + 1) // 2)  # 1-based rank of the chosen sample
    return float(ordered[rank - 1]), 100.0 * rank / n, n


def plain_rel_error(tensor: np.ndarray, factors) -> float:
    """``||X - sum_r a_r o b_r o c_r|| / ||X||`` with plain numpy only."""
    letters = "abcdefghijklmnop"[: tensor.ndim]
    script = ",".join(f"{ch}z" for ch in letters) + "->" + letters
    full = np.einsum(script, *factors)
    return float(np.linalg.norm(tensor - full) / np.linalg.norm(tensor))


def check_model(tensor: np.ndarray, factors, reported: float) -> str | None:
    """Why a solve's output is wrong, or ``None`` when it passes.

    The model must be finite and nonnegative and its reported final error
    must match the independent one to ``REL_TOL`` relative. Two correct
    reconstructions of an R-term sum differ by rounding of up to about
    ``R * eps`` of ``||X||``, so that much absolute difference is allowed
    on top; it only matters for fits closer than ``1e-6``.
    """
    for n, f in enumerate(factors):
        if not np.isfinite(f).all():
            return f"factor {n} is not finite"
        if f.min(initial=0.0) < 0.0:
            return f"factor {n} has negative entries"
    if tensor.shape != tuple(f.shape[0] for f in factors):
        return f"model shape does not match tensor shape {tensor.shape}"
    independent = plain_rel_error(tensor, factors)
    rank = factors[0].shape[1]
    floor = 4.0 * rank * np.finfo(np.float64).eps
    if not math.isfinite(reported) or abs(reported - independent) > (
        REL_TOL * independent + floor
    ):
        return f"reported rel_error {reported!r} != independent {independent!r}"
    return None


class Calibration:
    """A fixed plain-numpy kernel, timed before the first solve of a run and
    after every solve.

    The host this benchmark was defined on (2 vCPUs shared with other
    tenants; CPUs cannot be pinned nor frequencies fixed) switches between
    a fast and a slow state, up to a factor of 1.6 apart, for spells of
    seconds to minutes, and every solver slows with it. The kernel is
    written with plain numpy (no ``neurocpd`` code, so no change to the
    program moves it) and mixes the two kinds of work the calibrated
    solvers do: an MTTKRP-shaped BLAS contraction of a 70^3 tensor and a
    loop of small rank-10 array calls, whose interpreter and dispatch
    overhead the host's state moves more than it moves BLAS. A sample is
    ``REPEATS`` kernel runs back to back, scored as ``REPEATS`` times their
    median, so that one stalled run does not count as a slow host. A
    solve's reference seconds are its measured seconds times
    :meth:`solve_factors`: the seconds it would take in the host state
    where a sample takes ``REFERENCE_S``, judged by the mean of the samples
    just before and just after it. Over 90 consecutive caseI-swarm solves
    the bracketing samples correlated at 0.6 with the solve's time, and
    the median of ten solves, scaled so, spread 0.043 (sd of its log)
    against 0.068 measured. Workloads use it only where it steadied the
    figures (see ``Workload.calibrated``); on m70-single, which is itself
    BLAS-bound, it helped in some sweeps and widened others.
    """

    REPEATS = 12
    #: a sample's time on that host in its fast state; fixes the unit only
    REFERENCE_S = 0.033

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tensor = rng.random((70, 70, 70))
        self._factor = rng.random((70, 75))
        self._small = rng.random((20, 10))
        self._weights = rng.random((10, 10)) + np.eye(10)
        self.samples: list[float] = []
        self._kernel()  # first-touch allocation is not part of a sample
        self.sample()

    def _kernel(self):
        tmp = np.tensordot(self._tensor, self._factor, axes=([2], [0]))
        np.einsum("ijr,jr->ir", tmp, self._factor)
        a = self._small
        for _ in range(60):
            gram = (a.T @ a) * self._weights
            np.linalg.solve(gram + np.eye(10), a.T)
            np.maximum(a - 0.1, 0.0)

    def sample(self) -> float:
        runs = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(self.REPEATS * median(runs))
        return self.samples[-1]

    def solve_factors(self) -> list[float]:
        """Factor from measured to reference seconds of each solve so far,
        from the samples on either side of it."""
        s = self.samples
        return [2.0 * self.REFERENCE_S / (a + b) for a, b in zip(s, s[1:])]

"""HALS and multiplicative-update baselines for nonnegative order-3 CPD.

Both work on the Gram/MTTKRP identities only; the rank-1 residual tensors of
the HALS subproblems are never formed densely, so a sweep costs O(nnz * R).
A HALS sweep makes one ``T x_3 C`` GEMM for modes 0 and 1 of every column,
plus one tensor pass per column for mode 2; a MUR sweep shares ``T x_3 C``
between modes 0 and 1 and contracts mode 2 slice by slice, with no tensor copy.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .driver import Stepper
from .model import kkt_residual
from .tensor_ops import KruskalModel, hadamard_gram, sweep_mttkrps
from .tensor_ops import mttkrp  # noqa: F401  (a binding the benchmark traces)

logger = logging.getLogger(__name__)

Array = np.ndarray

#: denominators at or below this are treated as exactly degenerate
DEGENERATE_EPS = 1e-30


def hals_sweep(t: Array, model: KruskalModel, rng=None) -> KruskalModel:
    """One hierarchical ALS sweep: columns r = 1..R, factors cycled per column.

    Each column solves its rank-1 nonnegative least-squares subproblem in
    closed form against the implicit residual. The sweep makes one GEMM
    ``T x_3 C`` at its start, whose slice r serves modes 0 and 1 of column r,
    and one tensor pass per column for mode 2. A degenerate subproblem
    (vanished companion columns) collapses the column to zero when the
    residual routed to it is also null (always the case in exact
    arithmetic), and otherwise re-seeds it uniformly in [0, 1).
    """
    t = np.ascontiguousarray(t)
    if t.ndim != 3:
        raise ValueError("hals_sweep expects an order-3 tensor")
    if t.shape != model.shape:
        raise ValueError(f"tensor shape {t.shape} != model shape {model.shape}")
    i, j, k = t.shape
    model = model.copy()
    factors = model.factors
    # t x_3 c_r of every column, for modes 0 and 1: column r of C changes only
    # in the last update of column r, so one GEMM serves the whole sweep
    tcs = (factors[2].T @ t.reshape(i * j, k).T).reshape(model.rank, i, j)
    for r, tc in enumerate(tcs):
        a, b = factors[0][:, r], factors[1][:, r]  # views: see updates in place
        for mode in range(3):
            if mode < 2:
                m_col = tc @ b if mode == 0 else a @ tc
            else:  # the one tensor pass of the column
                m_col = b @ (a @ t.reshape(i, j * k)).reshape(j, k)
            f1, f2 = factors[mode - 2], factors[mode - 1]  # the other two factors
            g_col = (f1.T @ f1[:, r]) * (f2.T @ f2[:, r])  # column r of G skipping mode
            denom = g_col[r]
            numer = m_col - factors[mode] @ g_col + factors[mode][:, r] * denom
            if denom <= DEGENERATE_EPS:
                if np.abs(numer).max(initial=0.0) <= DEGENERATE_EPS:
                    factors[mode][:, r] = 0.0
                else:
                    if rng is None:
                        rng = np.random.default_rng(0)
                    factors[mode][:, r] = rng.random(factors[mode].shape[0])
                    logger.info(
                        "hals: re-seeded degenerate column %d of factor %d", r, mode
                    )
                continue
            factors[mode][:, r] = np.maximum(numer / denom, 0.0)
    return model


def mur_sweep(t: Array, model: KruskalModel, eps: float = 1e-16) -> KruskalModel:
    """One cycle of multiplicative updates ``Z <- Z * M / (Z G + eps)``.

    Zeros are fixed points of the ratio update, so factors stay nonnegative
    and zero entries stay zero; start from a strictly positive model.
    """
    t = np.asarray(t)
    if t.shape != model.shape:
        raise ValueError(f"tensor shape {t.shape} != model shape {model.shape}")
    model = model.copy()
    for mode, numer in enumerate(sweep_mttkrps(t, model)):
        factor = model.factors[mode]
        denom = factor @ hadamard_gram(model, mode) + eps
        model.factors[mode] = factor * numer / denom
    return model


class SweepState(NamedTuple):
    """A baseline's model, and the generator HALS re-seeds columns from."""

    model: KruskalModel
    rng: np.random.Generator | None = None


# One sweep per driver step, looked up at call time; HALS re-seeds columns
# from the (seed, 7) stream. Both stop on the KKT residual.
HALS = Stepper(
    lambda model, params, seed: SweepState(model, np.random.default_rng([seed, 7])),
    lambda t, s: SweepState(hals_sweep(t, s.model, s.rng), s.rng),
    lambda t, s: (kkt_residual(t, s.model), s),
)
MUR = Stepper(
    lambda model, params, seed: SweepState(model),
    lambda t, s: SweepState(mur_sweep(t, s.model)),
    lambda t, s: (kkt_residual(t, s.model), s),
)

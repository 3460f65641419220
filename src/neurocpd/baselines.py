"""HALS and multiplicative-update baselines for nonnegative order-3 CPD.

Both work on the Gram/MTTKRP identities only; the rank-1 residual tensors of
the HALS subproblems are never formed densely, so a sweep costs O(nnz * R).
A HALS sweep makes one ``T x_3 C`` GEMM for modes 0 and 1 of every column,
plus one tensor pass per column for mode 2; a MUR sweep shares ``T x_3 C``
between modes 0 and 1 and contracts ``T x_3 C`` and mode 2 alike with one GEMM
per mode-0 slice, with no tensor copy.
"""

from __future__ import annotations

import logging

import numpy as np

from .driver import State, Stepper
from .model import kkt_residual
from .tensor_ops import KruskalModel, _check_shape, sweep_mttkrps
from .tensor_ops import mttkrp  # noqa: F401  (a binding the benchmark traces)

logger = logging.getLogger(__name__)

Array = np.ndarray

#: denominators at or below this are treated as exactly degenerate
DEGENERATE_EPS = 1e-30


def hals_sweep(t: Array, model: KruskalModel, rng=None) -> KruskalModel:
    """One hierarchical ALS sweep: columns r = 1..R, factors cycled per column.

    Each column solves its rank-1 nonnegative least-squares subproblem in
    closed form against the implicit residual. One GEMM ``T x_3 C`` at the
    start serves modes 0 and 1 of every column; column r then makes one
    tensor pass for mode 2 and four Gram matvecs: ``C^T c_r`` for modes 0
    and 1, ``A^T a_r`` (after a_r moves) for modes 1 and 2, and ``B^T b_r``
    before and after b_r moves. A degenerate subproblem (vanished companion
    columns) collapses the column to zero when the residual routed to it is
    also null (always so in exact arithmetic), and otherwise re-seeds it
    uniformly in [0, 1), from ``default_rng(0)`` if ``rng`` is ``None``.
    """
    t = np.ascontiguousarray(t)
    _check_shape(t.shape, model.shape)
    if t.ndim != 3:
        raise ValueError(f"hals_sweep needs an order-3 tensor, got order {t.ndim}")
    i, j, k = t.shape
    rng = np.random.default_rng(0) if rng is None else rng
    model = model.copy()
    fa, fb, fc = model.factors  # updated in place, column by column
    at, bt, ct = fa.T, fb.T, fc.T
    t0 = t.reshape(i, j * k)  # the mode-0 matricization, read by mode 2
    # t x_3 c_r of every column, for modes 0 and 1: column r of C changes only
    # in the last update of column r, so one GEMM serves the whole sweep
    tcs = (ct @ t.reshape(i * j, k).T).reshape(model.rank, i, j)
    for r, tc in enumerate(tcs):
        a, b, c = fa[:, r], fb[:, r], fc[:, r]  # views: see updates in place
        cc = ct.dot(c)
        _hals_column(fa, a, r, tc.dot(b), bt.dot(b) * cc, 0, rng)
        aa = at.dot(a)
        _hals_column(fb, b, r, a.dot(tc), cc * aa, 1, rng)
        m_col = b.dot(a.dot(t0).reshape(j, k))
        _hals_column(fc, c, r, m_col, aa * bt.dot(b), 2, rng)
    return model


def _hals_column(factor, column, r, m_col, g_col, mode, rng):
    """Update ``column``, column ``r`` of ``factor``, in place from its MTTKRP
    and Gram columns; a re-seed draws from ``rng``."""
    denom = g_col[r]
    numer = m_col - factor.dot(g_col) + column * denom
    if denom <= DEGENERATE_EPS:
        if np.abs(numer).max(initial=0.0) <= DEGENERATE_EPS:
            column[:] = 0.0
        else:
            column[:] = rng.random(len(column))
            logger.info("hals: re-seeded degenerate column %d of factor %d", r, mode)
    else:
        np.maximum(numer / denom, 0.0, out=column)


def mur_sweep(t: Array, model: KruskalModel, eps: float = 1e-16) -> KruskalModel:
    """One cycle of multiplicative updates ``Z <- Z * M / (Z G + eps)``.

    Zeros are fixed points of the ratio update, so factors stay nonnegative
    and zero entries stay zero; start from a strictly positive model.
    """
    model = model.copy()
    for mode, (_, gram_skip, numer) in enumerate(sweep_mttkrps(t, model)):
        factor = model.factors[mode]
        model.factors[mode] = factor * numer / (factor @ gram_skip + eps)
    return model


class SweepState(State):
    """A baseline's model, the generator HALS re-seeds columns from (one per
    run, shared by its states), and the KKT residual its last step measured."""

    def __init__(self, model: KruskalModel, rng: np.random.Generator | None = None):
        self.model, self.rng = model, rng


def _sweep_step(t, s: SweepState, tol: float, sweep, *args) -> SweepState:
    """One ``sweep(t, model, *args)``; none if the KKT residual, measured only
    for ``tol > 0``, is below ``tol``."""
    residual = kkt_residual(t, s.model) if tol > 0 else np.inf
    if residual < tol:
        return s.moved(residual=residual)
    return s.moved(model=sweep(t, s.model, *args), residual=residual, steps=s.steps + 1)


# One sweep per driver step, looked up at call time; HALS re-seeds columns
# from the (seed, 7) stream. Both stop on the KKT residual.
HALS = Stepper(
    lambda model, params, seed: SweepState(model, np.random.default_rng([seed, 7])),
    lambda t, s, tol: _sweep_step(t, s, tol, hals_sweep, s.rng),
)
MUR = Stepper(
    lambda model, params, seed: SweepState(model),
    lambda t, s, tol: _sweep_step(t, s, tol, mur_sweep),
)

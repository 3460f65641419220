"""Discrete-time projection neural network solvers for nonnegative CPD.

The steppers move along the projection direction ``[Z - G]_+ - Z``:

* :data:`EXPLICIT`: every factor moves from one snapshot by ``lam * d``, the
  Euler discretization of the continuous flow; it is the flow's step
  (:func:`~neurocpd.flow.flow_step`) with weights ``lam``.
* :data:`SEMI_IMPLICIT`: the added-implicitness update
  ``(Z + lam*[Z - G]_+) / (1 + lam)``, which is ``Z + lam/(1 + lam) * d``,
  the flow's step with weights ``lam/(1 + lam)``. It keeps the factors
  nonnegative for any ``lam > 0``.
* :data:`ARMIJO` (:func:`step_gauss_seidel_armijo`): factors updated in
  sequence, each block backtracking its step size until the
  sufficient-decrease inequality ``f(x+) - f(x) < alpha * lam * <grad, x+ -
  x>`` holds for that block.

The two Euler kinds are :class:`~neurocpd.flow.FlowState` trajectories whose
row weights are their step sizes and which stop on the KKT residual of the
plain gradients (``FlowSettings.kkt``), so a swarm of them runs as one flow
stack.
:func:`effective_step_map` rewrites a projected step as a plain per-entry
gradient step, and :func:`step_size_bound` evaluates the Lyapunov-stability
step-size interval ``[max(0, 1-sqrt(c)), 1+sqrt(c)]`` built from it.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .driver import State, Stepper, check_finite, drive
from .errors import ArmijoStallError, StepMapInconsistencyError
from .flow import FLOW, FlowState, _limits
from .model import (
    _parts,
    _positives,
    _real,
    _switch,
    objective,
    objective_from_parts,
    precondition,
    projected_direction,
    projection_bundle,
)
from .tensor_ops import KruskalModel, sweep_mttkrps
from .tensor_ops import mttkrp  # noqa: F401  (a binding the benchmark traces)

Array = np.ndarray

MAX_SHRINKAGES = 60


@dataclass(frozen=True)
class ArmijoParams:
    """Sufficient-decrease constant and step-shrink factor, both in (0, 1)."""

    alpha: float = 1e-4
    beta: float = 0.5

    def __post_init__(self):
        for key in ("alpha", "beta"):  # frozen: set as the dataclass does
            object.__setattr__(self, key, _real(key, getattr(self, key), "()", 0, 1))


#: An Armijo solver's settings, checked by :class:`DtpnnState`.
DtpnnSettings = namedtuple("DtpnnSettings", "initial_lambdas armijo precondition "
                           "ridge")


class DtpnnState(State):
    """An Armijo trajectory: ``settings``, checked here once, and the iterate:
    ``model``, the step sizes ``lambdas`` and the ``objective`` the last sweep
    accepted (``None`` before one), its count ``steps`` and ``residual``.
    A sweep starts its step sizes from ``initial_lambdas``;
    :func:`step_size_bound` reads the ``lambdas`` of an explicit step."""

    def __init__(self, model, lambdas=None, armijo=ArmijoParams(), precondition=True,
                 ridge=None):
        self.lambdas = _positives("lambdas", lambdas, model.order)
        if isinstance(armijo, dict):  # as a YAML config gives it
            if unknown := set(armijo) - {"alpha", "beta"}:
                raise ValueError(f"unknown armijo keys: {sorted(unknown)}")
            armijo = ArmijoParams(**armijo)
        elif not isinstance(armijo, ArmijoParams):
            raise ValueError(f"armijo must be a mapping, got {armijo!r}")
        self.settings = DtpnnSettings(
            self.lambdas.copy(),
            armijo,
            _switch("precondition", precondition),
            None if ridge is None else _real("ridge", ridge),
        )
        self.model, self.objective = model, None


def step_gauss_seidel_armijo(t: Array, s: DtpnnState, tol: float = 0.0) -> DtpnnState:
    """One Gauss-Seidel sweep with per-block Armijo backtracking.

    Blocks are updated in factor order; each block's step size starts from
    its initial value and is multiplied by beta until the sufficient-decrease
    inequality holds for that block, so the objective never increases. The
    search follows the preconditioned projected direction if it descends,
    and else, or if that search fails, the plain projected gradient. A block
    whose projected-gradient residual is below ``max(tol, 1e-10)`` (or at
    the float-precision floor) is left in place, so a sweep whose largest
    block ``residual`` is below ``tol`` is no step; a genuinely stuck block
    raises :class:`ArmijoStallError`.
    """
    t = np.asarray(t)
    settings = s.settings
    alpha, beta = settings.armijo.alpha, settings.armijo.beta
    model = s.model.copy()
    norm_x_sq = float(np.dot(t.ravel(), t.ravel()))
    lambdas = settings.initial_lambdas.copy()
    floor = max(tol, 1e-10)
    kkt_parts = []
    f_current = None
    eps_mach = float(np.finfo(float).eps)
    for mode, (gram, gram_skip, mtt) in enumerate(sweep_mttkrps(t, model)):
        factor = model.factors[mode]
        grad = factor @ gram_skip - mtt
        d_plain = projected_direction(factor, grad)
        residual = float(np.abs(d_plain).max())
        kkt_parts.append(residual)
        if residual < floor:
            continue  # block already at its KKT point
        # The block objective is quadratic along any direction, so the best
        # decrease the plain direction can offer is (g.d)^2 / (2 d'Hd). Once
        # that is at the cancellation noise of the expanded objective, the
        # block is converged to float precision, not stalled.
        gd_plain = float((grad * d_plain).sum())
        curvature = float((d_plain * (d_plain @ gram_skip)).sum())
        fit = float((gram * gram_skip).sum())
        cross = float((factor * mtt).sum())
        parts_scale = 0.5 * norm_x_sq + 0.5 * abs(fit) + abs(cross)
        best_decrease = (
            np.inf if curvature <= 0.0 else gd_plain * gd_plain / (2.0 * curvature)
        )
        if best_decrease <= 64.0 * eps_mach * parts_scale:
            continue
        if f_current is None:
            f_current = objective_from_parts(norm_x_sq, fit, cross)

        def backtrack(direction, lam):
            for _ in range(MAX_SHRINKAGES):
                trial = factor + lam * direction
                displacement = trial - factor
                parts = _parts(trial, gram_skip, mtt)
                f_trial = objective_from_parts(norm_x_sq, *parts)
                decrease_bound = alpha * lam * float((grad * displacement).sum())
                if f_trial - f_current < decrease_bound and f_trial <= f_current:
                    return trial, lam, f_trial
                lam *= beta
            return None

        hit = None
        if settings.precondition:
            step_grad = precondition(grad, gram_skip, settings.ridge, mode)
            direction = projected_direction(factor, step_grad)
            # on mixed active sets the preconditioned direction can ascend
            if float((grad * direction).sum()) < 0.0:
                hit = backtrack(direction, lambdas[mode])
        if hit is None:  # the plain projected gradient always descends
            hit = backtrack(d_plain, lambdas[mode])
        if hit is None:
            if best_decrease <= 1e6 * eps_mach * parts_scale:
                continue  # gray zone: decrease too close to noise to verify
            raise ArmijoStallError(mode, MAX_SHRINKAGES, residual)
        model.factors[mode], lambdas[mode], f_current = hit
    if max(kkt_parts) < tol:
        return s.moved(residual=max(kkt_parts))
    if f_current is None:
        f_current = s.objective if s.objective is not None else objective(t, model)
    check_finite(model.factors, s.steps + 1)
    return s.moved(model=model, lambdas=lambdas, steps=s.steps + 1,
                   residual=max(kkt_parts), objective=f_current)


def _euler(weights) -> Stepper:
    """An Euler kind: :data:`~neurocpd.flow.FLOW` with Euler weights
    ``weights(lambdas)`` on each factor's rows, stopping on the KKT residual."""

    def make_state(model, params, seed):
        params = dict(params)
        lambdas = _positives("lambdas", params.pop("lambdas", None), model.order)
        state = FlowState(model, **params)
        rows = np.repeat(weights(lambdas), model.shape)[None, :, None]
        return state.moved(settings=state.settings._replace(row_weights=rows, kkt=True))

    return Stepper(make_state, FLOW.step, frozenset({"lambdas", "precondition",
                                                     "ridge"}))


# Steps are looked up at call time, so rebinding one reaches the driver.
EXPLICIT = _euler(lambda lam: lam)
SEMI_IMPLICIT = _euler(lambda lam: lam / (1.0 + lam))
ARMIJO = Stepper(
    lambda model, params, seed: DtpnnState(model, **params),
    lambda t, s, tol: step_gauss_seidel_armijo(t, s, tol),
    frozenset({"lambdas", "armijo", "precondition", "ridge"}),
)


def solve(
    t: Array, s: DtpnnState, tol: float = 1e-6, max_steps: int = 10000
) -> tuple[DtpnnState, str]:
    """Armijo sweeps until the KKT residual drops below ``tol``.

    Each sweep measures the residual from the true (unpreconditioned)
    gradients at its point before it moves, so a converged return is a sweep
    that left every block in place. ``tol`` and ``max_steps`` are checked as
    :func:`~neurocpd.flow.solve_to_equilibrium`, the solve of the Euler
    kinds, checks them. Returns the final state and ``"converged"`` or
    ``"max_steps"``.
    """
    return drive(t, s, ARMIJO.step, *_limits(tol, max_steps))


@dataclass(frozen=True)
class StepBound:
    """Lyapunov step-size interval; ``lower``/``upper`` are NaN when the
    bound does not apply (``c < 0``) or the point is already an equilibrium.
    """

    c: float
    lower: float
    upper: float
    at_equilibrium: bool = False


def effective_step_map(
    before: KruskalModel, after: KruskalModel, grads: list[Array], lambdas
) -> list[Array]:
    """Per-entry step sizes ``gamma`` with ``after = before - gamma * grad``
    for a step projected onto the nonnegative orthant.

    Interior coordinates (``Z - G >= 0``) keep ``gamma = lam``; clamped
    coordinates get the constructive value ``lam*z/g``, whose sign analysis
    guarantees ``g != 0`` there. Raises :class:`StepMapInconsistencyError`
    if a clamped coordinate has zero gradient or the reconstruction fails.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    out = []
    for mode, (z, z_new, g) in enumerate(zip(before.factors, after.factors, grads)):
        lam = lambdas[mode]
        gamma = np.full_like(z, lam)
        clamped = z - g < 0.0
        if (g[clamped] == 0.0).any():
            raise StepMapInconsistencyError(
                f"factor {mode}: clamped coordinate with zero gradient"
            )
        gamma[clamped] = lam * z[clamped] / g[clamped]
        recon = z - gamma * g
        err = np.abs(recon - z_new)
        if (err > 1e-12 * np.maximum(1.0, np.abs(z))).any():
            raise StepMapInconsistencyError(
                f"factor {mode}: gamma reconstruction off by {err.max():.3e}"
            )
        out.append(gamma)
    return out


def interval_from_c(c: float) -> tuple[float, float]:
    """Stability interval ``[max(0, 1-sqrt(c)), 1+sqrt(c)]``; NaNs if c < 0."""
    if c < 0.0:
        return (np.nan, np.nan)
    return (max(0.0, 1.0 - math.sqrt(c)), 1.0 + math.sqrt(c))


def step_size_bound(t: Array, s: DtpnnState) -> StepBound:
    """Evaluate the stability interval for an explicit step at the state.

    Uses the unpreconditioned projection map, matching the analysis it comes
    from: ``c = (1 - 2*||[gamma.grad per factor]||^2) / ||stacked residual||^2``
    with ``gamma`` from :func:`effective_step_map`. At an equilibrium there
    is no bound to report and ``at_equilibrium`` is set instead.
    """
    directions, grads = projection_bundle(t, s.model, False, s.settings.ridge)
    denom = sum(float(np.sum(d * d)) for d in directions)  # ||Z - [Z - G]_+||^2
    if denom == 0.0:
        return StepBound(np.nan, np.nan, np.nan, at_equilibrium=True)
    after = KruskalModel(check_finite([f + lam * d for f, lam, d in zip(
        s.model.factors, s.lambdas, directions)], s.steps + 1))
    gammas = effective_step_map(s.model, after, grads, s.lambdas)
    dots = [float(np.sum(gm * g)) for gm, g in zip(gammas, grads)]
    c = (1.0 - 2.0 * sum(d * d for d in dots)) / denom
    lower, upper = interval_from_c(c)
    return StepBound(c, lower, upper)


def lyapunov_trace(trajectory, reference: KruskalModel) -> np.ndarray:
    """Squared distances ``||model_k - reference||^2`` along a trajectory."""
    ref = reference.flatten()
    return np.array([float(np.sum((m.flatten() - ref) ** 2)) for m in trajectory])

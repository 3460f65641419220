"""Discrete-time projection neural network solvers for nonnegative CPD.

Three steppers over the same projection direction ``[Z - G]_+ - Z``:

* :func:`step_explicit`: all factors advanced from one snapshot with fixed
  per-factor step sizes; identical to one Euler step of the continuous flow.
* :func:`step_gauss_seidel_armijo`: factors updated in sequence, each block
  backtracking its step size until the sufficient-decrease inequality
  ``f(x+) - f(x) < alpha * lam * <grad, x+ - x>`` holds for that block.
* :func:`step_semi_implicit`: the added-implicitness update; the default
  form is ``(Z + lam*[Z - G]_+) / (1 + lam)``, with the alternative
  ``(Z + [Z - G]_+) / (1 + lam)`` available behind a switch.

:func:`effective_step_map` rewrites a projected step as a plain per-entry
gradient step, and :func:`step_size_bound` evaluates the Lyapunov-stability
step-size interval ``[max(0, 1-sqrt(c)), 1+sqrt(c)]`` built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .driver import Stepper, check_finite, drive
from .errors import ArmijoStallError, StepMapInconsistencyError
from .flow import euler_update
from .model import (
    _choice,
    _positives,
    _real,
    _switch,
    max_abs,
    objective,
    objective_from_parts,
    precondition,
    projected_direction,
    projection_bundle,
)
from .tensor_ops import KruskalModel, hadamard_gram, sweep_mttkrps
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


@dataclass
class DtpnnState:
    """State of one discrete-time solver trajectory.

    ``lambdas`` holds the working per-factor step sizes; the Armijo stepper
    resets them to ``initial_lambdas`` at the start of every outer iteration.
    ``kkt_residual`` is the max-norm of the unpreconditioned projected
    gradient measured at the snapshot each stepper advanced from.
    ``directions`` keeps the directions the driver measured at ``model`` for
    the next explicit or semi-implicit step; every ``replace`` drops it.
    """

    model: KruskalModel
    lambdas: Array = None
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    iteration: int = 0
    objective_history: list[float] = field(default_factory=list)
    precondition: bool = True
    ridge: float | None = None
    semi_implicit_form: str = "corrected"  # or "paper"
    kkt_residual: float = np.inf
    initial_lambdas: Array = None
    directions: list | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.lambdas = _positives("lambdas", self.lambdas, self.model.order)
        if self.initial_lambdas is None:
            self.initial_lambdas = self.lambdas.copy()
        if isinstance(self.armijo, dict):  # as a YAML config gives it
            if unknown := set(self.armijo) - {"alpha", "beta"}:
                raise ValueError(f"unknown armijo keys: {sorted(unknown)}")
            self.armijo = ArmijoParams(**self.armijo)
        elif not isinstance(self.armijo, ArmijoParams):
            raise ValueError(f"armijo must be a mapping, got {self.armijo!r}")
        self.precondition = _switch("precondition", self.precondition)
        self.ridge = None if self.ridge is None else _real("ridge", self.ridge)
        self.semi_implicit_form = _choice(
            "semi_implicit_form", self.semi_implicit_form, ("corrected", "paper")
        )


def _measured(t: Array, s: DtpnnState):
    """Projection directions and KKT residual at the state's point."""
    if s.directions is not None:
        return s.directions, s.kkt_residual
    directions, grads = projection_bundle(t, s.model, s.precondition, s.ridge)
    kkt = max_abs(projected_direction(f, g) for f, g in zip(s.model.factors, grads))
    return directions, kkt


def _moved(s: DtpnnState, model: KruskalModel, kkt: float) -> DtpnnState:
    return replace(s, model=model, iteration=s.iteration + 1, kkt_residual=kkt)


def step_explicit(t: Array, s: DtpnnState) -> DtpnnState:
    """Fully explicit step: every factor moves from the same snapshot.

    With ``0 < lambda <= 1`` each update is a convex combination of the
    current (nonnegative) factor and a projected point, so nonnegativity is
    preserved. It is the flow's Euler update with weights ``lambda``.
    """
    directions, kkt = _measured(t, s)
    return _moved(
        s, euler_update(s.model.factors, s.lambdas, directions, s.iteration + 1), kkt
    )


def step_semi_implicit(t: Array, s: DtpnnState) -> DtpnnState:
    """Semi-implicit step ``(Z + lam*[Z - G]_+)/(1 + lam)`` (corrected form).

    ``semi_implicit_form="paper"`` selects ``(Z + [Z - G]_+)/(1 + lam)``
    instead. Both keep the factors entrywise nonnegative for any lam > 0.
    """
    directions, kkt = _measured(t, s)
    paper = s.semi_implicit_form == "paper"
    new_factors = [
        (f + (1.0 if paper else lam) * (f + d)) / (1.0 + lam)  # f + d = [Z - G]_+
        for f, lam, d in zip(s.model.factors, s.lambdas, directions)
    ]
    return _moved(s, KruskalModel(check_finite(new_factors, s.iteration + 1)), kkt)


def step_gauss_seidel_armijo(t: Array, s: DtpnnState, tol: float = 1e-10) -> DtpnnState:
    """One Gauss-Seidel sweep with per-block Armijo backtracking.

    Blocks are updated in factor order; each block's step size starts from
    its initial value and is multiplied by beta until the sufficient-decrease
    inequality holds for that block, so the objective never increases. A
    block whose projected-gradient residual is already below ``tol`` (or
    below the float-precision floor once backtracking can make no further
    progress) is left in place; a genuinely stuck block raises
    :class:`ArmijoStallError`.
    """
    t = np.asarray(t)
    alpha, beta = s.armijo.alpha, s.armijo.beta
    model = s.model.copy()
    norm_x_sq = float(np.dot(t.ravel(), t.ravel()))
    lambdas = s.initial_lambdas.copy()
    kkt_parts = []
    f_current = None
    eps_mach = float(np.finfo(float).eps)
    grams = [f.T @ f for f in model.factors]  # each rebuilt when its block moves
    mttkrps = sweep_mttkrps(t, model)
    for mode in range(model.order):
        factor = model.factors[mode]
        gram_skip = hadamard_gram(model, mode, grams)
        mtt = next(mttkrps)
        grad = factor @ gram_skip - mtt
        d_plain = projected_direction(factor, grad)
        residual = float(np.abs(d_plain).max())
        kkt_parts.append(residual)
        if residual < tol:
            continue  # block already at its KKT point
        # The block objective is quadratic along any direction, so the best
        # decrease the plain direction can offer is (g.d)^2 / (2 d'Hd). Once
        # that is at the cancellation noise of the expanded objective, the
        # block is converged to float precision, not stalled.
        gd_plain = float((grad * d_plain).sum())
        curvature = float((d_plain * (d_plain @ gram_skip)).sum())
        fit = abs(float((grams[mode] * gram_skip).sum()))
        parts_scale = 0.5 * norm_x_sq + 0.5 * fit + abs(float((factor * mtt).sum()))
        best_decrease = (
            np.inf if curvature <= 0.0 else gd_plain * gd_plain / (2.0 * curvature)
        )
        if best_decrease <= 64.0 * eps_mach * parts_scale:
            continue
        if f_current is None:
            f_current = objective_from_parts(norm_x_sq, factor, gram_skip, mtt)

        def backtrack(direction, lam):
            for _ in range(MAX_SHRINKAGES):
                trial = factor + lam * direction
                displacement = trial - factor
                f_trial = objective_from_parts(norm_x_sq, trial, gram_skip, mtt)
                decrease_bound = alpha * lam * float((grad * displacement).sum())
                if f_trial - f_current < decrease_bound and f_trial <= f_current:
                    return trial, lam, f_trial
                lam *= beta
            return None

        hit = None
        if s.precondition:
            step_grad = precondition(grad, gram_skip, s.ridge, mode)
            hit = backtrack(projected_direction(factor, step_grad), lambdas[mode])
        if hit is None:
            # Plain projected gradient is always a descent direction; the
            # preconditioned one can fail on mixed active sets.
            hit = backtrack(d_plain, lambdas[mode])
        if hit is None:
            if best_decrease <= 1e6 * eps_mach * parts_scale:
                continue  # gray zone: decrease too close to noise to verify
            raise ArmijoStallError(mode, MAX_SHRINKAGES, residual)
        model.factors[mode], lambdas[mode], f_current = hit
        grams[mode] = model.factors[mode].T @ model.factors[mode]
    if f_current is None:
        f_current = (
            s.objective_history[-1] if s.objective_history else objective(t, model)
        )
    check_finite(model.factors, s.iteration + 1)
    history = s.objective_history + [f_current]
    return replace(
        s, model=model, lambdas=lambdas, iteration=s.iteration + 1,
        kkt_residual=max(kkt_parts), objective_history=history,
    )


def _residual(t: Array, s: DtpnnState):
    directions, kkt = _measured(t, s)
    s = replace(s, kkt_residual=kkt)
    s.directions = directions
    return kkt, s


def _stepper(step, *settings, residual=_residual) -> Stepper:
    return Stepper(
        lambda model, params, seed: DtpnnState(model, **params),
        step,
        residual,
        frozenset({"lambdas", "precondition", "ridge", *settings}),
    )


# Steps are looked up at call time, so rebinding one reaches the driver. A
# Gauss-Seidel sweep measures its blocks as it goes: its residual is the one
# its last sweep recorded (infinite before the first).
STEPPERS = {
    "explicit": _stepper(lambda t, s: step_explicit(t, s)),
    "semi_implicit": _stepper(
        lambda t, s: step_semi_implicit(t, s), "semi_implicit_form"
    ),
    "armijo": _stepper(
        lambda t, s: step_gauss_seidel_armijo(t, s), "armijo",
        residual=lambda t, s: (s.kkt_residual, s),
    ),
}


def solve(
    t: Array,
    s: DtpnnState,
    variant: str = "armijo",
    tol: float = 1e-6,
    max_steps: int = 10000,
) -> tuple[DtpnnState, str]:
    """Iterate the chosen stepper until the KKT residual drops below ``tol``.

    The residual is evaluated from the true (unpreconditioned) gradients at
    the current point before each step, so a converged return is exactly the
    point at which the residual was measured; an Armijo sweep that records
    one below ``tol`` skipped every block. Returns the final state and
    ``"converged"`` or ``"max_steps"``.
    """
    stepper = STEPPERS[_choice("variant", variant, tuple(STEPPERS))]
    if variant == "armijo":
        stepper = stepper._replace(
            step=lambda t, s: step_gauss_seidel_armijo(t, s, tol=tol)
        )
    return drive(t, s, stepper, tol, max_steps)[:2]


@dataclass(frozen=True)
class StepBound:
    """Lyapunov step-size interval; ``lower``/``upper`` are NaN when the
    bound does not apply (``c < 0``) or the point is already an equilibrium.
    """

    c: float
    lower: float
    upper: float
    at_equilibrium: bool = False

    def contains(self, lam: float) -> bool:
        return (
            not self.at_equilibrium
            and math.isfinite(self.lower)
            and self.lower <= lam <= self.upper
        )


def effective_step_map(
    before: KruskalModel,
    after: KruskalModel,
    grads: list[Array],
    lambdas,
    lower: float = 0.0,
    upper: float = np.inf,
) -> list[Array]:
    """Per-entry step sizes ``gamma`` with ``after = before - gamma * grad``.

    Interior coordinates (``lower <= Z - G <= upper``) keep ``gamma = lam``;
    clamped coordinates get the constructive value ``lam*(z - bound)/g``,
    whose sign analysis guarantees ``g != 0`` there. Raises
    :class:`StepMapInconsistencyError` if a clamped coordinate has zero
    gradient or the reconstruction fails.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    out = []
    for mode, (z, z_new, g) in enumerate(zip(before.factors, after.factors, grads)):
        lam = lambdas[mode]
        q = z - g
        gamma = np.full_like(z, lam)
        clamp_hi = q > upper
        clamp_lo = q < lower
        if (g[clamp_hi | clamp_lo] == 0.0).any():
            raise StepMapInconsistencyError(
                f"factor {mode}: clamped coordinate with zero gradient"
            )
        if clamp_hi.any():
            gamma[clamp_hi] = lam * (z[clamp_hi] - upper) / g[clamp_hi]
        if clamp_lo.any():
            gamma[clamp_lo] = lam * (z[clamp_lo] - lower) / g[clamp_lo]
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
    directions, grads = projection_bundle(t, s.model, False, s.ridge)
    denom = sum(float(np.sum(d * d)) for d in directions)  # ||Z - [Z - G]_+||^2
    if denom == 0.0:
        return StepBound(np.nan, np.nan, np.nan, at_equilibrium=True)
    after = euler_update(s.model.factors, s.lambdas, directions, s.iteration + 1)
    gammas = effective_step_map(s.model, after, grads, s.lambdas)
    dots = [float(np.sum(gm * g)) for gm, g in zip(gammas, grads)]
    c = (1.0 - 2.0 * sum(d * d for d in dots)) / denom
    lower, upper = interval_from_c(c)
    return StepBound(c, lower, upper)


def lyapunov_trace(trajectory, reference: KruskalModel) -> np.ndarray:
    """Squared distances ``||model_k - reference||^2`` along a trajectory."""
    ref = reference.flatten()
    return np.array([float(np.sum((m.flatten() - ref) ** 2)) for m in trajectory])

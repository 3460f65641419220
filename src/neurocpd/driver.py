"""One driver loop for every single-trajectory solver, each given as a
:class:`Stepper` (see :data:`neurocpd.solvers.STEPPERS` for them by name)."""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError


class Stepper(NamedTuple):
    """``make_state(model, params, seed)`` builds a state at a start model from
    a mapping with keys among ``params``, the settings the solver reads;
    ``residual(t, state)`` returns the stopping residual at the point and the
    state, carrying what ``step`` reuses."""

    make_state: Callable
    step: Callable
    residual: Callable
    params: frozenset = frozenset()


class State:
    """A solver state; :meth:`moved` makes the next, unchecked and unmeasured."""

    def moved(self, **changes):
        new = object.__new__(type(self))
        new.__dict__ = {**self.__dict__, "directions": None, **changes}
        return new


def drive(
    t, state, stepper: Stepper, tol=0.0, budget=10000, deadline=None, observer=None
):
    """Advance ``state`` until it converges, runs out of steps or of time.

    With ``tol > 0`` the residual is measured at the current point before
    each step and a value below ``tol`` stops the run there, so a converged
    return is exactly the measured point and a start at an equilibrium takes
    no step. ``deadline`` is an absolute :func:`time.perf_counter` time,
    checked before each step; ``observer(steps, state)`` runs after each.
    Returns the state, ``"converged"``, ``"max_steps"`` or ``"wall_clock"``,
    and the number of steps taken.
    """
    for steps in range(budget):
        if tol > 0:
            value, state = stepper.residual(t, state)
            if value < tol:
                return state, "converged", steps
        if deadline is not None and time.perf_counter() > deadline:
            return state, "wall_clock", steps
        state = stepper.step(t, state)
        if observer is not None:
            observer(steps + 1, state)
    return state, "max_steps", budget


def check_finite(factors, iteration: int):
    """The factors, or :class:`DivergenceError` if one is not finite."""
    if not all(np.isfinite(f).all() for f in factors):
        raise DivergenceError("solver produced non-finite factors", iteration)
    return factors

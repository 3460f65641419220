"""One driver loop that advances every trajectory: each single-trajectory
solver's :class:`Stepper` step (see :data:`neurocpd.solvers.STEPPERS` for them
by name), the same flow step on the swarm's stack of several trajectories
(:meth:`neurocpd.flow.FlowState.stack`) and the swarm's outer iterations
(:func:`neurocpd.swarm.outer_step`), and the one :class:`Recorder` of a trace."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DivergenceError
from .tensor_ops import frobenius_norm, residual_fit


class Stepper(NamedTuple):
    """``make_state(model, params, seed)`` builds a state at a start model from
    a mapping with keys among ``params``, the settings the solver reads;
    ``step(t, state, tol)`` measures the residual at the state's point and,
    if it is below ``tol``, stays there with ``residual`` set, no step taken."""

    make_state: Callable
    step: Callable
    params: frozenset = frozenset()


class State:
    """A solver state; a step never writes it and makes the next by :meth:`moved`."""

    def moved(self, **changes):
        new = object.__new__(type(self))
        new.__dict__ = {**self.__dict__, **changes}
        return new


def drive(
    t, state, step: Callable, tol=0.0, budget=10000, deadline=None, observer=None
):
    """Advance ``state`` by ``step(t, state, tol)`` until it converges, runs
    out of steps or of time.

    Each step measures the point it leaves and stays there if its residual is
    below ``tol``, so a converged run ends at the point its last step measured
    and a start at an equilibrium takes no step. ``deadline`` is an absolute
    :func:`time.perf_counter` time, checked before each step, so a run past
    it stops unmeasured; ``observer(steps, state)`` runs after each step
    taken. Returns the state, ``"converged"``, ``"max_steps"`` or
    ``"wall_clock"``, and the number of steps taken.
    """
    for steps in range(budget):
        if deadline is not None and time.perf_counter() > deadline:
            return state, "wall_clock", steps
        state = step(t, state, tol)
        if state.residual < tol:
            return state, "converged", steps
        if observer is not None:
            observer(steps + 1, state)
    return state, "max_steps", budget


@dataclass
class TraceRow:
    """One recorded state: its model's dense objective and relative error, the
    milliseconds since its recorder started, and a swarm's diversity and mutation."""

    iteration: int
    objective: float
    rel_error: float
    wall_ms: float
    diversity: float | None = None
    mutated: bool | None = None


class Recorder:
    """The observer of :func:`drive` for ``neurocpd run`` and
    :func:`neurocpd.swarm.cno_run`: :meth:`observe` records every
    ``record_every``-th step, :meth:`record` any state. Its clock starts at
    construction and reads 0 under ``deterministic``."""

    def __init__(self, t, record_every: int = 1, deterministic: bool = False):
        self.t, self.norm, self.rows = t, frobenius_norm(t), []
        self.record_every, self.deterministic = record_every, deterministic
        self.started = time.perf_counter()

    def record(self, iteration: int, state):
        fit = residual_fit(self.t, state.model, self.norm)
        wall = 0.0 if self.deterministic else time.perf_counter() - self.started
        # a swarm's; no other state has them
        self.rows.append(TraceRow(iteration, *fit, wall * 1e3,
                                  getattr(state, "diversity", None),
                                  getattr(state, "mutated", None)))

    def observe(self, iteration: int, state):
        if iteration % self.record_every == 0:
            self.record(iteration, state)


def check_finite(factors, iteration: int):
    """The factors, or :class:`DivergenceError` if one is not finite."""
    if not all(np.isfinite(f).all() for f in factors):
        raise DivergenceError("solver produced non-finite factors", iteration)
    return factors

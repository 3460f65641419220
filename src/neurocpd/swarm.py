"""Collaborative layer: a population of independent solvers coupled by PSO.

The population is held as ``(P, D)`` arrays whose row ``p`` is
:meth:`~neurocpd.tensor_ops.KruskalModel.flatten` of particle ``p``. One outer
iteration solves every particle's inner dynamics to an approximate
equilibrium, refreshes personal and global bests by the dense objective the
trace reports (strict improvement only, so the global best is monotone),
re-seeds the solver initial conditions by the velocity/position update

    v' = inertia*v + b1*g1*(p_n - x) + b2*g2*(p_best - x),   x' = [x + v']_+

and, when the swarm diversity ``mean ||p_n - p_best||`` falls below the
threshold, kicks the positions with a decaying Gabor-wavelet mutation. Each
outer iteration is one :func:`outer_step` of a :class:`SwarmRun`, which
:func:`~neurocpd.driver.drive` advances as it advances every solver.

Randomness is drawn from per-(seed, particle, iteration) generator streams,
so results do not depend on scheduling order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .driver import Recorder, State, TraceRow, drive
from .errors import SOLVER_FAILURES, ConfigError
from .flow import FlowState
from .model import _choice, _integer, _real
from .solvers import STEPPERS, _check_params
from .tensor_ops import KruskalModel, frobenius_norm, residual_fit, tucker_compress

Array = np.ndarray

INNER_SOLVERS = tuple(kind for kind in STEPPERS if kind not in ("hals", "mur"))

# stream tags for derived RNGs
_INIT, _PSO, _MUTATE, _RESEED, _JITTER = range(5)


@dataclass
class SwarmConfig:
    """Population, PSO coefficients, mutation trigger, and inner-solver budget.

    Every particle runs the one ``inner_solver`` kind with the one
    ``inner_params`` mapping; a list for either is refused.
    """

    population: int = 5
    inertia: float = 0.5
    accel_personal: float = 0.01
    accel_global: float = 0.01
    diversity_threshold: float = 1e-2
    stop_tol: float = 0.0  # on |change of global best|; 0 runs to max_outer
    max_outer: int = 10
    seed: int = 0
    inner_solver: str = "flow"
    inner_params: dict = field(default_factory=dict)
    inner_tol: float = 1e-6
    inner_max_steps: int = 500

    def __post_init__(self):
        for key in ("population", "max_outer", "inner_max_steps"):
            setattr(self, key, _integer(key, getattr(self, key), 1))
        self.inertia = _real("inertia", self.inertia, "[]", 0.0, 1.0)
        for key in ("accel_personal", "accel_global", "inner_tol", "stop_tol"):
            setattr(self, key, _real(key, getattr(self, key)))
        self.diversity_threshold = _real(
            "diversity_threshold", self.diversity_threshold, "[]"
        )
        self.inner_solver = _choice("inner_solver", self.inner_solver, INNER_SOLVERS)
        if not isinstance(params := self.inner_params, dict):
            raise ValueError(f"inner_params must be one mapping, got {params!r}")
        _check_params(self.inner_solver, params)


@dataclass
class SwarmState:
    """The population as arrays: row ``p`` of each ``(P, D)`` matrix is
    particle ``p``'s flattened model, and row ``p`` of the ``(P, N)``
    ``time_constants`` its per-mode time constants (``None``: solver defaults).
    Best values are the dense objectives a :class:`~neurocpd.driver.TraceRow` reports."""

    positions: Array
    velocities: Array
    personal_bests: Array
    personal_best_values: Array
    global_best: Array | None
    global_best_value: float
    time_constants: Array | None = None


def _rng(cfg: SwarmConfig, tag: int, particle: int, iteration: int):
    return np.random.default_rng([cfg.seed, tag, particle, iteration])


def initial_model(shape, rank: int, seed: int, particle: int = 0) -> KruskalModel:
    """Uniform [0, 1) starting model on the particle-0 stream of ``seed``.

    Single-solver benchmark runs use this too, so a one-particle swarm and a
    bare solver with the same seed start from the same point.
    """
    return KruskalModel.random(
        shape, rank, np.random.default_rng([seed, _INIT, particle, 0])
    )


def check_memory(what: str, models: int, shape, rank: int) -> None:
    """Refuse ``what``, the float64 factors of ``models`` models, as a
    :class:`~neurocpd.errors.ConfigError` if they exceed physical memory."""
    needed = models * sum(shape) * rank * 8
    if needed > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"{what} needs {needed} bytes, more than physical memory")


def init_swarm(t: Array, rank: int, cfg: SwarmConfig) -> SwarmState:
    """Uniform-random particle positions; bests initialized in place. Either
    flow's particles draw time constants from U[0.5, 2] unless set. Before any
    draw, three ``(P, sum(I_n) * R)`` arrays are refused by :func:`check_memory`."""
    shape = np.shape(t)
    check_memory(f"a swarm of population {cfg.population}", 3 * cfg.population,
                 shape, rank)
    positions = np.stack([initial_model(shape, rank, cfg.seed, n).flatten()
                          for n in range(cfg.population)])
    eps = None
    if ("time_constants" in STEPPERS[cfg.inner_solver].params
            and "time_constants" not in cfg.inner_params):
        eps = np.stack([_rng(cfg, _JITTER, n, 0).uniform(0.5, 2.0, size=len(shape))
                        for n in range(cfg.population)])
    sw = SwarmState(positions, np.zeros_like(positions), positions.copy(),
                    np.full(cfg.population, np.inf), None, np.inf, eps)
    return update_bests(sw, _dense_objectives(t, positions, rank))


def _dense_objectives(t: Array, rows: Array, rank: int) -> list[float]:
    """The :func:`~neurocpd.tensor_ops.residual_fit` objective of each row."""
    norm = frobenius_norm(t)
    return [residual_fit(t, KruskalModel.unflatten(row, np.shape(t), rank), norm)[0]
            for row in rows]


def update_bests(sw: SwarmState, values) -> SwarmState:
    """Fold freshly evaluated particle positions into the bests.

    Personal bests move only on strict improvement (ties keep the
    incumbent); the global best is the first argmin of the personal bests and
    is therefore monotone non-increasing over outer iterations.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != sw.personal_best_values.shape:
        raise ValueError("need one evaluated value per particle")
    better = values < sw.personal_best_values
    sw.personal_bests[better] = sw.positions[better]
    sw.personal_best_values[better] = values[better]
    best = int(np.argmin(sw.personal_best_values))
    if sw.personal_best_values[best] < sw.global_best_value:
        sw.global_best = sw.personal_bests[best].copy()
        sw.global_best_value = float(sw.personal_best_values[best])
    return sw


def diversity(sw: SwarmState) -> float:
    """Mean Euclidean distance of personal bests to the global best."""
    # one norm per row: norm(..., axis=1) sums in another order
    return float(np.mean([np.linalg.norm(row - sw.global_best)
                          for row in sw.personal_bests]))


def pso_update(sw: SwarmState, cfg: SwarmConfig, k: int) -> SwarmState:
    """Velocity/position update; positions re-projected onto the orthant.

    The attraction weights g1, g2 are scalar uniform draws per particle in
    outer iteration ``k``. The updated positions are the solver initial
    conditions for the next outer iteration.
    """
    g1, g2 = np.stack([_rng(cfg, _PSO, n, k).random(2)
                       for n in range(len(sw.positions))]).T[:, :, None]
    sw.velocities = (
        cfg.inertia * sw.velocities
        + cfg.accel_personal * g1 * (sw.personal_bests - sw.positions)
        + cfg.accel_global * g2 * (sw.global_best - sw.positions)
    )
    sw.positions = np.maximum(sw.positions + sw.velocities, 0.0)
    return sw


def gabor_wavelet(phi: float, a: float) -> float:
    """Mutation amplitude ``exp(-phi/(2a)) * cos(5*phi/a) / sqrt(a)``."""
    return math.exp(-phi / (2.0 * a)) * math.cos(5.0 * phi / a) / math.sqrt(a)


def mutation_bounds(sw: SwarmState, shape, rank: int) -> tuple[Array, Array]:
    """Per-coordinate box for the mutation: lower 0, upper twice the largest
    global-best entry of the owning factor block (floor 1 for a zero block)."""
    sizes = [dim * rank for dim in shape]
    tops = [2.0 * float(block.max(initial=0.0))
            for block in np.split(sw.global_best, np.cumsum(sizes)[:-1])]
    upper = np.repeat([top if top > 0.0 else 1.0 for top in tops], sizes)
    return np.zeros_like(sw.global_best), upper


def wavelet_mutation(
    sw: SwarmState, cfg: SwarmConfig, k: int, k_max: int, shape, rank: int
) -> SwarmState:
    """Kick every particle toward a box bound by a decaying wavelet draw.

    ``a = exp(10*k/k_max)`` widens the wavelet domain as iterations progress,
    shrinking the typical amplitude. Positive amplitudes move coordinates
    toward the upper bound, nonpositive ones toward the lower bound; results
    are clipped to the box. Mutated particles restart with zero velocity.
    """
    lower, upper = mutation_bounds(sw, shape, rank)
    a = math.exp(10.0 * k / k_max)
    kappa = np.array([
        [gabor_wavelet(_rng(cfg, _MUTATE, n, k).uniform(-2.5 * a, 2.5 * a), a)]
        for n in range(len(sw.positions))
    ])
    toward = np.where(kappa > 0, upper - sw.positions, sw.positions - lower)
    sw.positions = np.clip(sw.positions + kappa * toward, lower, upper)
    sw.velocities = np.zeros_like(sw.velocities)
    return sw


def _solve_particles(
    t: Array, sw: SwarmState, cfg: SwarmConfig, rank: int, deadline=None,
    operand=None,
):
    """Inner solve of every particle from its position: the solved ``(P, D)``
    rows and the mask of particles whose solver failed (their rows are not
    solved points). Past ``deadline`` every solve stops where it is.

    Every solve goes through :func:`~neurocpd.driver.drive`. A population
    of flow states (flow, barrier flow and the explicit and semi-implicit
    DTPNN) advances as one stack of its particles' states
    (:meth:`~neurocpd.flow.FlowState.stack`); each particle keeps its own
    Euler weights, halvings and stopping point. The stack contracts
    ``operand``: ``t`` by default, or its
    :func:`~neurocpd.tensor_ops.tucker_compress` form. Armijo, and a stack
    whose step fails, runs each particle alone on ``t`` from its
    position, so only the particles that fail alone are marked.
    """
    shape = np.shape(t)
    stepper = STEPPERS[cfg.inner_solver]
    states = []
    for n, position in enumerate(sw.positions):
        params = dict(cfg.inner_params)
        if sw.time_constants is not None:
            params.setdefault("time_constants", sw.time_constants[n])
        model = KruskalModel.unflatten(position, shape, rank)
        states.append(stepper.make_state(model, params, cfg.seed))
    if isinstance(states[0], FlowState):
        try:
            stack, _ = drive(t if operand is None else operand, FlowState.stack(states),
                             stepper.step, cfg.inner_tol, cfg.inner_max_steps, deadline)
        except SOLVER_FAILURES:
            pass  # re-solved below, one particle at a time
        else:
            # (P, I_n, R) -> (P, R * I_n): the column-major ravel of flatten
            return np.hstack([f.transpose(0, 2, 1).reshape(len(f), -1)
                              for f in stack.factors]), np.zeros(len(states), bool)
    rows, failed = sw.positions.copy(), np.zeros(len(states), dtype=bool)
    for n, state in enumerate(states):
        try:
            state, _ = drive(t, state, stepper.step, cfg.inner_tol,
                             cfg.inner_max_steps, deadline)
        except SOLVER_FAILURES:
            failed[n] = True
        else:
            rows[n] = state.model.flatten()
    return rows, failed


class SwarmRun(State):
    """A :func:`cno_run` as a driver state: the swarm, its settings and
    operand, and the absolute ``deadline`` of its inner solves.

    A swarm of more than one particle compresses ``t`` once
    (:func:`~neurocpd.tensor_ops.tucker_compress`), and its stack contracts
    the core when there is one. All else reads the dense ``t``. One particle
    would not gain from the core, so it never compresses and a one-particle
    swarm stays a single run of its kind.
    """

    def __init__(self, t: Array, rank: int, cfg: SwarmConfig, deadline=None):
        self.swarm = init_swarm(t, rank, cfg)
        self.operand = tucker_compress(t) if cfg.population > 1 else None
        self.cfg, self.shape, self.rank = cfg, np.shape(t), rank
        self.deadline, self.change = deadline, np.inf

    @property
    def model(self) -> KruskalModel:
        """The global best."""
        return KruskalModel.unflatten(self.swarm.global_best, self.shape, self.rank)


def outer_step(t: Array, run: SwarmRun, tol: float) -> SwarmRun:
    """One outer iteration as a stepper step. Its residual is how far the
    global best's dense objective moved in the last outer iteration (``inf``
    until two have run); below ``tol`` the run stays put. A particle whose
    inner solver fails (any of :data:`~neurocpd.errors.SOLVER_FAILURES`) is
    re-seeded uniformly inside the mutation box and the run continues."""
    run = run.moved(residual=run.change)
    if run.residual < tol:
        return run
    sw, cfg, rank = replace(run.swarm), run.cfg, run.rank
    for key in ("velocities", "personal_bests", "personal_best_values"):
        setattr(sw, key, getattr(sw, key).copy())  # written in place below
    k, before = run.steps, sw.global_best_value
    sw.positions, failed = _solve_particles(t, sw, cfg, rank, run.deadline, run.operand)
    if failed.any():
        lower, upper = mutation_bounds(sw, run.shape, rank)
        sw.positions[failed] = [_rng(cfg, _RESEED, n, k).uniform(lower, upper)
                                for n in np.flatnonzero(failed)]
        sw.velocities[failed] = 0.0
    sw = update_bests(sw, _dense_objectives(t, sw.positions, rank))
    sw = pso_update(sw, cfg, k)
    spread = diversity(sw)
    mutated = spread < cfg.diversity_threshold
    if mutated:
        sw = wavelet_mutation(sw, cfg, k, cfg.max_outer, run.shape, rank)
    # measured by the next step, so that drive observes this one
    change = abs(sw.global_best_value - before) if k else np.inf
    return run.moved(swarm=sw, diversity=spread, mutated=mutated, change=change,
                     steps=k + 1)


def cno_run(
    t: Array, rank: int, cfg: SwarmConfig, deadline_s: float | None = None
) -> tuple[KruskalModel, list[TraceRow]]:
    """Full collaborative run; returns the best model and one trace row per
    outer iteration, its ``wall_ms`` counted from the call.

    Stops when the global best changes by less than ``stop_tol`` between
    outer iterations, at ``max_outer``, or once ``deadline_s`` of wall clock
    has elapsed since the call: the inner solves stop at their current points
    and their outer iteration is the last.
    """
    t = np.asarray(t)
    rec = Recorder(t)
    deadline = None if deadline_s is None else rec.started + deadline_s
    run, _ = drive(t, SwarmRun(t, rank, cfg, deadline), outer_step,
                   cfg.stop_tol, cfg.max_outer, deadline, rec.observe)
    return run.model, rec.rows

"""Collaborative layer: a population of independent solvers coupled by PSO.

Each particle owns a flattened factor model. One outer iteration solves every
particle's inner dynamics to an approximate equilibrium, refreshes personal
and global bests (strict improvement only, so the global best is monotone),
re-seeds the solver initial conditions by the velocity/position update

    v' = inertia*v + b1*g1*(p_n - x) + b2*g2*(p_best - x),   x' = [x + v']_+

and, when the swarm diversity ``mean ||p_n - p_best||`` falls below the
threshold, kicks the positions with a decaying Gabor-wavelet mutation.

Randomness is drawn from per-(seed, particle, iteration) generator streams,
so results do not depend on scheduling order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import flow as flow_mod
from .driver import drive
from .errors import SOLVER_FAILURES
from .model import _REALS, objective
from .solvers import STEPPERS
from .tensor_ops import KruskalModel, residual_fit, tucker_compress

Array = np.ndarray

INNER_SOLVERS = tuple(kind for kind in STEPPERS if kind not in ("hals", "mur"))

# stream tags for derived RNGs
_INIT, _PSO, _MUTATE, _RESEED, _JITTER = range(5)


@dataclass
class SwarmConfig:
    """Population, PSO coefficients, mutation trigger, and inner-solver budget.

    ``inner_solver`` may be a single kind or a list of kinds cycled over the
    particles, giving a heterogeneous swarm whose members explore with
    different dynamics. ``inner_params`` follows the same convention: one
    mapping shared by all particles, or a list cycled alongside.
    """

    population: int = 5
    inertia: float = 0.5
    accel_personal: float = 0.01
    accel_global: float = 0.01
    diversity_threshold: float = 1e-2
    stop_tol: float = 0.0  # on |change of global best|; 0 runs to max_outer
    max_outer: int = 10
    seed: int = 0
    inner_solver: str | list = "flow"
    inner_params: dict | list = field(default_factory=dict)
    inner_tol: float = 1e-6
    inner_max_steps: int = 500
    mutation: bool = True
    jitter_time_constants: bool = True  # per-particle eps ~ U[0.5, 2], flow only

    def __post_init__(self):
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if not 0.0 <= self.inertia <= 1.0:
            raise ValueError("inertia must lie in [0, 1]")
        if self.accel_personal < 0 or self.accel_global < 0:
            raise ValueError("acceleration constants must be >= 0")
        if self.diversity_threshold < 0:
            raise ValueError("diversity threshold must be >= 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not (isinstance(self.inner_max_steps, (int, np.integer))
                and self.inner_max_steps >= 1):
            raise ValueError(
                f"inner_max_steps must be an integer >= 1, got {self.inner_max_steps!r}"
            )
        for name in ("inner_tol", "stop_tol"):
            value = getattr(self, name)
            if not (isinstance(value, _REALS) and 0 <= value < math.inf):
                raise ValueError(f"{name} must be a finite value >= 0, got {value!r}")
        if [] in (self.inner_solver, self.inner_params):
            raise ValueError("inner_solver and inner_params must not be empty lists")
        for kind in self.solver_kinds():
            if kind not in INNER_SOLVERS:
                raise ValueError(f"unknown inner solver {kind!r}")
        for kind, params in map(self.solver_for, range(self.population)):
            if unknown := set(params) - STEPPERS[kind].params:
                raise ValueError(f"unknown inner_params for {kind}: {sorted(unknown)}")

    def solver_kinds(self) -> list[str]:
        if isinstance(self.inner_solver, str):
            return [self.inner_solver]
        return list(self.inner_solver)

    def solver_for(self, particle: int) -> tuple[str, dict]:
        kinds = self.solver_kinds()
        kind = kinds[particle % len(kinds)]
        if isinstance(self.inner_params, dict):
            params = self.inner_params
        else:
            params = self.inner_params[particle % len(self.inner_params)]
        return kind, dict(params)


@dataclass
class Particle:
    position: Array
    velocity: Array
    personal_best: Array
    personal_best_value: float
    time_constants: Array | None = None


@dataclass
class SwarmState:
    particles: list[Particle]
    global_best: Array
    global_best_value: float
    outer_iteration: int = 0
    diversity: float = np.inf


@dataclass
class OuterRecord:
    """One outer iteration of :func:`cno_run`, for traces and invariants."""

    iteration: int
    best_value: float  # the expanded objective the swarm compares
    objective: float  # of the best model, from the residual of ``rel_error``
    rel_error: float
    diversity: float
    mutated: bool
    wall_s: float


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


def init_swarm(t: Array, rank: int, cfg: SwarmConfig) -> SwarmState:
    """Uniform-random particle positions; bests initialized in place."""
    shape = np.shape(t)
    particles, values = [], []
    for n in range(cfg.population):
        model = initial_model(shape, rank, cfg.seed, n)
        position = model.flatten()
        eps = None
        kind = cfg.solver_for(n)[0]
        if cfg.jitter_time_constants and "time_constants" in STEPPERS[kind].params:
            eps = _rng(cfg, _JITTER, n, 0).uniform(0.5, 2.0, size=len(shape))
        particles.append(Particle(position, np.zeros_like(position), None, np.inf, eps))
        values.append(objective(t, model))
    return update_bests(SwarmState(particles, None, np.inf), values)


def update_bests(sw: SwarmState, values) -> SwarmState:
    """Fold freshly evaluated particle positions into the bests.

    Personal bests move only on strict improvement (ties keep the
    incumbent); the global best is the argmin of the personal bests and is
    therefore monotone non-increasing over outer iterations.
    """
    values = list(values)
    if len(values) != len(sw.particles):
        raise ValueError("need one evaluated value per particle")
    for p, value in zip(sw.particles, values):
        if value < p.personal_best_value:
            p.personal_best = p.position.copy()
            p.personal_best_value = value
    best = min(range(len(sw.particles)),
               key=lambda i: sw.particles[i].personal_best_value)
    if sw.particles[best].personal_best_value < sw.global_best_value:
        sw.global_best = sw.particles[best].personal_best.copy()
        sw.global_best_value = sw.particles[best].personal_best_value
    return sw


def diversity(sw: SwarmState) -> float:
    """Mean Euclidean distance of personal bests to the global best."""
    return float(
        np.mean(
            [np.linalg.norm(p.personal_best - sw.global_best) for p in sw.particles]
        )
    )


def pso_update(sw: SwarmState, cfg: SwarmConfig) -> SwarmState:
    """Velocity/position update; positions re-projected onto the orthant.

    The attraction weights g1, g2 are scalar uniform draws per particle per
    outer iteration. The updated positions are the solver initial conditions
    for the next outer iteration.
    """
    for n, p in enumerate(sw.particles):
        g1, g2 = _rng(cfg, _PSO, n, sw.outer_iteration).random(2)
        p.velocity = (
            cfg.inertia * p.velocity
            + cfg.accel_personal * g1 * (p.personal_best - p.position)
            + cfg.accel_global * g2 * (sw.global_best - p.position)
        )
        p.position = np.maximum(p.position + p.velocity, 0.0)
    return sw


def gabor_wavelet(phi: float, a: float) -> float:
    """Mutation amplitude ``exp(-phi/(2a)) * cos(5*phi/a) / sqrt(a)``."""
    return math.exp(-phi / (2.0 * a)) * math.cos(5.0 * phi / a) / math.sqrt(a)


def mutation_bounds(sw: SwarmState, shape, rank: int) -> tuple[Array, Array]:
    """Per-coordinate box for the mutation: lower 0, upper twice the largest
    global-best entry of the owning factor block (floor 1 for a zero block)."""
    lower = np.zeros_like(sw.global_best)
    upper = np.empty_like(sw.global_best)
    start = 0
    for dim in shape:
        size = dim * rank
        block = sw.global_best[start : start + size]
        top = 2.0 * float(block.max(initial=0.0))
        upper[start : start + size] = top if top > 0.0 else 1.0
        start += size
    return lower, upper


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
    for n, p in enumerate(sw.particles):
        phi = _rng(cfg, _MUTATE, n, k).uniform(-2.5 * a, 2.5 * a)
        kappa = gabor_wavelet(phi, a)
        if kappa > 0:
            p.position = p.position + kappa * (upper - p.position)
        else:
            p.position = p.position + kappa * (p.position - lower)
        p.position = np.clip(p.position, lower, upper)
        p.velocity = np.zeros_like(p.velocity)
    return sw


def _solve_particles(
    t: Array, sw: SwarmState, cfg: SwarmConfig, rank: int, deadline=None,
    operand=None,
):
    """Inner solve of every particle from its position; ``None`` marks one
    whose solver failed. Past ``deadline`` every solve stops where it is.

    Flow particles that share the kernel settings (preconditioning and ridge)
    advance together as one stack; each keeps its own step, time constants
    and stopping point. The stacks contract ``operand``: ``t`` by default,
    or its :func:`~neurocpd.tensor_ops.tucker_compress` form. The other kinds
    each run through the driver on ``t``.
    """
    shape = np.shape(t)
    solved = [None] * len(sw.particles)
    groups: dict = {}
    for n, p in enumerate(sw.particles):
        kind, params = cfg.solver_for(n)
        if p.time_constants is not None:
            params.setdefault("time_constants", p.time_constants)
        stepper = STEPPERS[kind]
        state = stepper.make_state(
            KruskalModel.unflatten(p.position, shape, rank), params, cfg.seed
        )
        if kind == "flow":
            groups.setdefault((state.precondition, state.ridge), []).append(
                (n, state)
            )
            continue
        try:
            state, _, _ = drive(
                t, state, stepper, cfg.inner_tol, cfg.inner_max_steps, deadline
            )
        except SOLVER_FAILURES:
            continue
        solved[n] = state.model
    for (use_precondition, ridge), members in groups.items():
        states = [state for _, state in members]
        factors, failed = flow_mod.solve_stack(
            t if operand is None else operand,
            [np.stack(fs) for fs in zip(*(s.model.factors for s in states))],
            np.array([s.step / s.time_constants for s in states]),
            use_precondition,
            ridge,
            tol=cfg.inner_tol,
            max_steps=cfg.inner_max_steps,
            deadline=deadline,
        )
        for i, (n, _) in enumerate(members):
            if not failed[i]:
                solved[n] = KruskalModel([f[i] for f in factors])
    return solved


def cno_run(
    t: Array, rank: int, cfg: SwarmConfig, deadline_s: float | None = None
) -> tuple[KruskalModel, list[OuterRecord]]:
    """Full collaborative run; returns the best model and per-iteration trace.

    A particle whose inner solver fails (any of
    :data:`~neurocpd.errors.SOLVER_FAILURES`) is re-seeded uniformly inside
    the mutation box and the run continues. Stops when the global best
    changes by less than ``stop_tol`` between outer iterations, at
    ``max_outer``, or once ``deadline_s`` of wall clock has elapsed: the inner
    solves stop at their current points and their outer iteration is the last.

    A swarm of more than one particle compresses ``t`` once
    (:func:`~neurocpd.tensor_ops.tucker_compress`), and its flow stacks
    contract the core when there is one. All else reads the dense ``t``. One
    particle would not gain from the core, so it never compresses and a
    one-particle swarm stays plain flow.
    """
    t = np.asarray(t)
    shape = t.shape
    sw = init_swarm(t, rank, cfg)
    operand = tucker_compress(t) if cfg.population > 1 else None
    trace: list[OuterRecord] = []
    started = time.perf_counter()
    deadline = None if deadline_s is None else started + deadline_s
    for k in range(cfg.max_outer):
        if deadline is not None and time.perf_counter() > deadline:
            break
        values = []
        for n, (p, solved) in enumerate(
            zip(sw.particles, _solve_particles(t, sw, cfg, rank, deadline, operand))
        ):
            if solved is None:
                lower, upper = mutation_bounds(sw, shape, rank)
                p.position = _rng(cfg, _RESEED, n, k).uniform(lower, upper)
                p.velocity = np.zeros_like(p.velocity)
                solved = KruskalModel.unflatten(p.position, shape, rank)
            else:
                p.position = solved.flatten()
            values.append(objective(t, solved))
        sw = update_bests(sw, values)
        sw = pso_update(sw, cfg)
        sw.diversity = diversity(sw)
        mutated = False
        if cfg.mutation and sw.diversity < cfg.diversity_threshold:
            sw = wavelet_mutation(sw, cfg, k, cfg.max_outer, shape, rank)
            mutated = True
        sw.outer_iteration = k + 1
        best_model = KruskalModel.unflatten(sw.global_best, shape, rank)
        objective_value, rel_error = residual_fit(t, best_model)
        trace.append(
            OuterRecord(
                iteration=k + 1,
                best_value=sw.global_best_value,
                objective=objective_value,
                rel_error=rel_error,
                diversity=sw.diversity,
                mutated=mutated,
                wall_s=time.perf_counter() - started,
            )
        )
        if _stalled(trace, cfg.stop_tol):
            break
    return KruskalModel.unflatten(sw.global_best, shape, rank), trace


def _stalled(trace: list[OuterRecord], tol: float) -> bool:
    """:func:`cno_run`'s ``stop_tol`` test: the global best moved by less than
    ``tol`` in the last of at least two outer iterations."""
    return len(trace) > 1 and abs(trace[-1].best_value - trace[-2].best_value) < tol

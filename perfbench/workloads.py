"""Workload definitions of the neurocpd benchmark.

Each workload is a closed loop of rounds: one client runs a fixed list of
solves one after another, each solve one ``neurocpd.bench.run`` call with one
seed and a scratch output directory, exactly as ``neurocpd run`` does. An
untraced run always runs the workload's fixed number of ``rounds`` and a
traced run its fixed number of ``trace_pairs`` (one untraced and one traced
round each), so every order statistic is taken over the same number of
solves on every commit, however fast the program is. The counts keep a
run within ``run_seconds`` of ``BENCHMARK.json`` (22-40 s of solves on the
2 vCPU Xeon 2.1 GHz host the benchmark was defined on); ``--seconds`` only
caps a run (see ``run.CAP_FACTOR``).

Seeds. ``--seed n`` makes the inputs of a run. Round ``k`` of a run uses

* problem seed ``PROBLEM_SEED_STRIDE * n + k`` for generated problems
  (``medium70`` is generated once per run from ``PROBLEM_SEED_STRIDE * n``),
* initialisation seed ``INIT_SEED_OFFSET + PROBLEM_SEED_STRIDE * n + k``.

``DEFAULT_SEEDS`` are the seeds the published figures use; ``HELD_OUT_SEED``
is kept out of any tuning and is used only to confirm a claimed gain.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 7919
PROBLEM_SEED_STRIDE = 1000
INIT_SEED_OFFSET = 500


@dataclass(frozen=True)
class Solve:
    """One ``bench.run`` call of a round: algorithm, budget and parameters."""

    algorithm: str
    iterations: int
    params: tuple = ()  # (key, value) pairs, kept hashable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problem: str  # datagen kind
    rank: int
    solves: tuple[Solve, ...]
    record_every: int
    target: float  # relative error counted as "reached"
    rounds: int  # untraced rounds of a run
    trace_pairs: int  # (untraced, traced) round pairs of a traced run
    from_file: bool = False  # tensor written once at set-up, loaded per solve
    #: times in reference seconds (``measure.Calibration``) rather than
    #: measured seconds; set on the two workloads that Python dispatch
    #: dominates, whose times the host's speed changes move most
    calibrated: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="d9-single",
            why=(
                "9x9x9 rank 10 > dimension, 5 solvers x 1000 iterations, "
                "every row recorded: Python dispatch, R x R solves, Armijo "
                "and the recorder dominate, MTTKRP is a small share"
            ),
            problem="difficult9",
            rank=10,
            solves=(
                Solve("flow", 1000),
                Solve("dtpnn-armijo", 1000),
                Solve("barrier-flow", 1000),
                Solve("hals", 1000),
                Solve("mur", 1000),
            ),
            record_every=1,
            target=1e-3,
            rounds=10,
            trace_pairs=4,
            calibrated=True,
        ),
        Workload(
            name="m70-single",
            why=(
                "70^3 rank 75 tensor loaded from a .bin file per solve, flow "
                "and MUR 100 iterations, HALS 20 sweeps: BLAS-bound MTTKRP, "
                "the other side of every small-R change"
            ),
            problem="medium70",
            rank=75,
            solves=(
                Solve("flow", 100),
                Solve("mur", 100),
                Solve("hals", 20),
            ),
            record_every=10,
            target=2e-2,
            rounds=6,
            trace_pairs=3,
            from_file=True,
        ),
        Workload(
            name="caseI-swarm",
            why=(
                "20^3 rank 10 with one collinear factor, CNO population 30, "
                "80 flow steps per particle, 4 outer iterations: per-particle "
                "dispatch and swarm bookkeeping, no per-step recorder"
            ),
            problem="caseI",
            rank=10,
            solves=(
                Solve(
                    "cno",
                    4,
                    (("population", 30), ("inner_solver", "flow"),
                     ("inner_max_steps", 80)),
                ),
            ),
            record_every=1,
            # Crossing times move in whole outer iterations (about 1 s each).
            # At 3e-3 nearly every solve crosses in its second outer
            # iteration; at 1e-4 solves split between the second, third and
            # fourth, and the median jumps by a third between seeds.
            target=3e-3,
            rounds=10,
            trace_pairs=3,
            calibrated=True,
        ),
    )
}


def round_seeds(workload: Workload, seed: int, k: int):
    """(problem seed, initialisation seed) of round ``k``."""
    base = PROBLEM_SEED_STRIDE * seed
    problem = base if workload.from_file else base + k
    return problem, INIT_SEED_OFFSET + base + k

"""Per-layer metrics of the traced run.

The layers are the ``neurocpd`` modules; a layer metric is named
``<module>.<function>.calls`` / ``.self_s`` for a wrapped public function,
or is derived from spans and probe counters (computed flops and bytes of
MTTKRP, Armijo acceptance, inner steps per swarm outer iteration, time the
single-run recorder spends, tracing overhead). Every figure is per round,
that is per pass over the workload's fixed list of solves.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Wrapped functions whose calls and self time the traced run reports.
LAYER_FUNCTIONS = (
    "tensor_ops.mttkrp",
    "tensor_ops.hadamard_gram",
    "tensor_ops.kruskal_full",
    "tensor_ops.relative_error",
    "model.precondition",
    "model.barrier_precondition",
    "model.barrier_gradient",
    "model.projection_bundle",
    "model.objective",
    "model.gradient",
    "model.objective_from_parts",
    "dtpnn.step_gauss_seidel_armijo",
    "flow.flow_step",
    "flow.barrier_flow_step",
    "flow.solve_to_equilibrium",
    "swarm.cno_run",
    "swarm.pso_update",
    "swarm.update_bests",
    "swarm.diversity",
    "swarm.wavelet_mutation",
    "baselines.hals_sweep",
    "baselines.mur_sweep",
    "datagen.gen_problem",
    "tensor_io.load_tensor",
    "bench.run_single",
    "bench.write_csv",
)

#: Which end-to-end metric each layer metric should move, on which workload,
#: and where the prediction is no change. Later changes cite these rows.
LAYER_MAP = (
    ("tensor_ops.mttkrp.* (+ computed .gflop, .mb)",
     "wall_s, time_to_target_s.p50", "m70-single", "d9-single (small share)"),
    ("tensor_ops.hadamard_gram.*", "wall_s",
     "d9-single (Armijo and barrier rebuild all N Grams per block)",
     "m70-single"),
    ("tensor_ops.kruskal_full.*, tensor_ops.relative_error.*, "
     "bench.recorder.total_s", "time_to_target_s.p50, wall_s",
     "d9-single, m70-single", "caseI-swarm"),
    ("model.precondition.* (R x R solve)", "solve_s.p50",
     "d9-single, caseI-swarm", "m70-single (must not worsen at R=75)"),
    ("model.barrier_precondition.*, model.barrier_gradient.*", "solve_s.tail",
     "d9-single", "m70-single, caseI-swarm"),
    ("model.projection_bundle.*, model.objective.*, model.gradient.*",
     "wall_s", "caseI-swarm, d9-single", "-"),
    ("model.objective_from_parts.calls, dtpnn.step_gauss_seidel_armijo.*, "
     "dtpnn.armijo.accept_ratio", "time_to_target_s.p50", "d9-single",
     "m70-single, caseI-swarm"),
    ("flow.flow_step.*, flow.barrier_flow_step.*, flow.solve_to_equilibrium.*",
     "solve_s.p50", "d9-single (flow), caseI-swarm (inner solve loop)",
     "m70-single"),
    ("swarm.cno_run.self_s, swarm.{pso_update,update_bests,diversity,"
     "wavelet_mutation}.*, swarm.inner_steps_per_outer", "solve_s.p50",
     "caseI-swarm", "d9-single, m70-single"),
    ("baselines.hals_sweep.*, baselines.mur_sweep.*", "wall_s",
     "m70-single (HALS ~106 ms/sweep)", "caseI-swarm"),
    ("datagen.gen_problem.*, tensor_io.load_tensor.*, bench.run_single.self_s, "
     "bench.write_csv.*", "solve_s.p50",
     "d9-single (generation, 1000-row CSV), m70-single (file load)", "-"),
    ("trace.overhead_frac", "traced wall_s / untraced wall_s - 1", "all", "-"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


@functools.lru_cache(maxsize=64)
def mttkrp_cost(shape: tuple, rank: int, mode: int) -> tuple[int, int]:
    """(flops, bytes) of one MTTKRP, computed from shapes.

    For order 3 the kernel contracts the tensor with one factor into an
    (I_a, I_b, R) intermediate, then reduces that against a second factor.
    Bytes count each array read or written once; cache misses are ignored.
    """
    size = math.prod(shape)
    if len(shape) == 3:
        i, j, k = shape
        # modes 0 and 1 contract mode 2 first, mode 2 contracts mode 1
        kept = i * j if mode < 2 else i * k
        first = k if mode < 2 else j
        other = sum(shape) - shape[mode] - first
        flops = 2 * size * rank + 2 * kept * rank
        words = size + (first + other + shape[mode]) * rank + 2 * kept * rank
    else:
        flops = 2 * size * rank
        words = size + sum(shape) * rank
    return flops, 8 * words


def _mttkrp_probe(counters, args, kwargs, result):
    flops, nbytes = mttkrp_cost(
        np.shape(_arg(args, kwargs, 0, "t")),
        _arg(args, kwargs, 1, "model").rank,
        _arg(args, kwargs, 2, "mode"),
    )
    counters["mttkrp.flop"] += flops
    counters["mttkrp.byte"] += nbytes


def _armijo_probe(counters, args, kwargs, result):
    before = _arg(args, kwargs, 1, "s").model.factors
    counters["armijo.accepted"] += sum(
        not np.array_equal(a, b) for a, b in zip(before, result.model.factors)
    )


def _inner_probe(counters, args, kwargs, result):
    before = _arg(args, kwargs, 1, "s")
    after = result[0]
    field = "iterations" if hasattr(after, "iterations") else "iteration"
    counters["swarm.inner_steps"] += getattr(after, field) - getattr(before, field)


def _cno_probe(counters, args, kwargs, result):
    counters["swarm.outer"] += len(result[1])


PROBES = {
    "tensor_ops.mttkrp": _mttkrp_probe,
    "dtpnn.step_gauss_seidel_armijo": _armijo_probe,
    "flow.solve_to_equilibrium": _inner_probe,
    "flow.solve_barrier": _inner_probe,
    "dtpnn.solve": _inner_probe,
    "swarm.cno_run": _cno_probe,
}


def round_layers(tracer, lo: int, hi: int, counters) -> dict:
    """Layer figures of one traced round: spans ``lo:hi`` and the probe
    counters it added. Counts are exact; times are seconds."""
    table = tracer.summary(lo, hi)
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = table[name]["calls"]
        out[f"{name}.self_s"] = table[name]["self_s"]
    out["tensor_ops.mttkrp.gflop"] = counters["mttkrp.flop"] / 1e9
    out["tensor_ops.mttkrp.mb"] = counters["mttkrp.byte"] / 1e6
    out["bench.recorder.total_s"] = tracer.child_time(
        {"model.objective", "tensor_ops.relative_error"}, "bench.run_single",
        lo, hi,
    )
    # a sweep that backtracks evaluates the objective at its base point once,
    # whether or not it then accepts a block; the other evaluations are trials
    evaluations = tracer.count_children(
        "model.objective_from_parts", "dtpnn.step_gauss_seidel_armijo", lo, hi
    )
    trials = evaluations - tracer.parents_with_child(
        "model.objective_from_parts", "dtpnn.step_gauss_seidel_armijo", lo, hi
    )
    out["dtpnn.armijo.accepted"] = counters["armijo.accepted"]
    out["dtpnn.armijo.trials"] = trials
    out["dtpnn.armijo.accept_ratio"] = (
        counters["armijo.accepted"] / trials if trials else 0.0
    )
    outer = counters["swarm.outer"]
    out["swarm.inner_steps_per_outer"] = (
        counters["swarm.inner_steps"] / outer if outer else 0.0
    )
    out["trace.spans"] = sum(v["calls"] for v in table.values())
    return out


def is_count(name: str) -> bool:
    """Layer figures that must repeat exactly for the same inputs."""
    return not name.endswith(("_s", ".overhead_frac"))

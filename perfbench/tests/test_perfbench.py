"""Tests of the benchmark's own machinery: run with

    python3 -m pytest perfbench/tests
"""

import json
import math
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import layers
import measure
import tracer as tracer_mod
from tracer import Tracer, self_times, unwrapped_left
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def traced_neurocpd():
    tr = Tracer(layers.PROBES)
    tr.install("neurocpd")
    try:
        yield tr
    finally:
        tr.uninstall()


def test_no_module_keeps_an_unwrapped_original(traced_neurocpd):
    import neurocpd
    from neurocpd import baselines, dtpnn, flow, model, tensor_ops

    assert unwrapped_left("neurocpd") == []
    # bindings copied by ``from .x import y`` share the one wrapper
    assert flow.projection_bundle is model.projection_bundle
    assert dtpnn.projection_bundle is model.projection_bundle
    mttkrp = tensor_ops.mttkrp
    assert hasattr(mttkrp, "__traced__")
    for mod in (model, dtpnn, baselines, neurocpd):
        assert mod.mttkrp is mttkrp


def test_uninstall_restores_every_original(traced_neurocpd):
    from neurocpd import model, tensor_ops

    wrapped = tensor_ops.mttkrp
    traced_neurocpd.uninstall()
    assert tensor_ops.mttkrp is wrapped.__traced__
    assert model.mttkrp is wrapped.__traced__
    traced_neurocpd.install("neurocpd")
    assert model.mttkrp is wrapped


def test_self_times_subtract_direct_children_only():
    # root [0, 10] with children [1, 4] and [5, 7]; [2, 3] nests in [1, 4]
    parent = [-1, 0, 1, 0]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 7.0])
    assert self_times(parent, end - start).tolist() == [5.0, 2.0, 1.0, 2.0]


def test_tracer_spans_and_window(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        def leaf():
            return 1

        def outer():
            return leaf() + leaf()
    """))
    (pkg / "b.py").write_text("from .a import leaf\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer_mod.time, "perf_counter", lambda: float(next(ticks)))
    tr = Tracer()
    tr.install("fakepkg")
    try:
        import fakepkg.a
        import fakepkg.b

        assert fakepkg.b.leaf is fakepkg.a.leaf
        tr.active = True
        fakepkg.a.outer()  # outer 0..5, leaf 1..2, leaf 3..4
        lo = tr.mark()
        fakepkg.a.outer()  # outer 6..11, leaf 7..8, leaf 9..10
        tr.active = False
        fakepkg.a.outer()  # not recorded
    finally:
        tr.uninstall()
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
            sys.modules.pop(name, None)
    whole = tr.summary()
    assert whole["a.outer"] == {"calls": 2, "self_s": 6.0}
    assert whole["a.leaf"] == {"calls": 4, "self_s": 4.0}
    second = tr.summary(lo)
    assert second["a.outer"] == {"calls": 1, "self_s": 3.0}
    assert tr.child_time({"a.leaf"}, "a.outer", lo) == 2.0
    assert tr.count_children("a.leaf", "a.outer") == 4
    assert tr.parents_with_child("a.leaf", "a.outer") == 2
    assert tr.parents_with_child("a.leaf", "a.outer", lo) == 1
    assert tr.parents_with_child("a.outer", "a.leaf") == 0


def _solve(bench, tmp_path, **raw):
    base = {"rank": 10, "seeds": [3], "output_dir": str(tmp_path)}
    return bench.run(bench.RunConfig.from_dict({**base, **raw}))[0]


CASES = {
    "armijo": dict(problem={"kind": "difficult9", "seed": 1},
                   algorithm="dtpnn-armijo", budget={"iterations": 40}),
    "barrier": dict(problem={"kind": "difficult9", "seed": 1},
                    algorithm="barrier-flow", budget={"iterations": 40}),
    "cno": dict(problem={"kind": "caseI", "seed": 2}, algorithm="cno",
                budget={"iterations": 2},
                params={"population": 3, "inner_max_steps": 15}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_solve_is_bit_identical_and_counts_repeat(case, tmp_path):
    from neurocpd import bench

    plain = _solve(bench, tmp_path, **CASES[case])
    tr = Tracer(layers.PROBES)
    tr.install("neurocpd")
    figures = []
    try:
        for _ in range(2):
            before, lo = tr.counters.copy(), tr.mark()
            tr.active = True
            traced = _solve(bench, tmp_path, **CASES[case])
            tr.active = False
            figures.append(layers.round_layers(tr, lo, tr.mark(), tr.counters - before))
            assert traced.final_rel_error == plain.final_rel_error
            assert [r.rel_error for r in traced.rows] == [r.rel_error for r in plain.rows]
            for a, b in zip(traced.final_model.factors, plain.final_model.factors):
                assert np.array_equal(a, b)
    finally:
        tr.uninstall()
    counts = [{k: v for k, v in f.items() if layers.is_count(k)} for f in figures]
    assert counts[0] == counts[1]
    assert counts[0]["bench.run_single.calls"] == 1
    assert counts[0]["tensor_ops.mttkrp.calls"] > 0


def test_mttkrp_cost_counts_both_contractions():
    flops, nbytes = layers.mttkrp_cost((2, 3, 4), 5, 0)
    # tensordot over mode 2 into (2, 3, 5), then the reduction against B
    assert flops == 2 * 24 * 5 + 2 * 6 * 5
    assert nbytes == 8 * (24 + (4 + 3 + 2) * 5 + 2 * 6 * 5)


def test_armijo_accept_ratio_counts_trials():
    from neurocpd import dtpnn, model

    t = np.random.default_rng(0).random((4, 4, 4))
    state = dtpnn.DtpnnState(model.KruskalModel.random((4, 4, 4), 2,
                                                       np.random.default_rng(1)))
    tr = Tracer(layers.PROBES)
    tr.install("neurocpd")
    try:
        tr.active = True
        dtpnn.step_gauss_seidel_armijo(t, state)
        tr.active = False
    finally:
        tr.uninstall()
    out = layers.round_layers(tr, 0, tr.mark(), tr.counters)
    assert out["dtpnn.armijo.accepted"] == 3
    assert out["dtpnn.armijo.trials"] >= 3
    assert out["dtpnn.armijo.accept_ratio"] == 3 / out["dtpnn.armijo.trials"]


def test_tail_is_nearest_rank_with_ten_beyond():
    assert measure.tail(range(1, 41)) == (30.0, 75.0, 40)
    assert measure.tail(range(1, 20)) == (10.0, 100.0 * 10 / 19, 19)
    assert measure.tail([4.0, 3.0, 1.0, 2.0]) == (2.0, 50.0, 4)


def test_check_model_rejects_bad_outputs():
    rng = np.random.default_rng(0)
    factors = [rng.random((4, 3)) for _ in range(3)]
    full = np.einsum("ir,jr,kr->ijk", *factors)
    tensor = full + 0.01 * rng.random(full.shape)
    err = measure.plain_rel_error(tensor, factors)
    assert measure.check_model(tensor, factors, err) is None
    assert "independent" in measure.check_model(tensor, factors, err * (1 + 1e-6))
    bad = [f.copy() for f in factors]
    bad[1][0, 0] = -1.0
    assert "negative" in measure.check_model(tensor, bad, err)
    bad[1][0, 0] = math.nan
    assert "finite" in measure.check_model(tensor, bad, err)


def test_calibration_brackets_each_solve():
    cal = measure.Calibration()
    assert len(cal.samples) == 1  # the sample before the first solve
    ref = cal.REFERENCE_S
    cal.samples = [ref, 1.5 * ref, 0.5 * ref]
    assert cal.solve_factors() == pytest.approx([0.8, 1.0])


def test_benchmark_json_matches_the_workloads_and_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    tr = Tracer()
    tr.names = list(layers.LAYER_FUNCTIONS)
    produced = set(layers.round_layers(tr, 0, 0, Counter())) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


class _FakeRunner:
    def __init__(self, workload):
        self.w = workload
        self.calls = []

    def run_round(self, k):
        self.calls.append(k)
        return [{"round": k, "wall_s": 1.0, "failure": None}]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_has_fixed_rounds_and_a_cap(name):
    import run

    runner = _FakeRunner(WORKLOADS[name])
    solves, cut = run.measure_untraced(runner, seconds=1e9)
    assert runner.calls == list(range(WORKLOADS[name].rounds))
    assert cut is None and len(solves) == WORKLOADS[name].rounds
    runner = _FakeRunner(WORKLOADS[name])
    solves, cut = run.measure_untraced(runner, seconds=1e-12)
    assert runner.calls == [0] and "overran" in cut


def test_end_to_end_scales_times_and_nothing_else():
    import run

    solves = [
        {"round": k, "wall_s": 1.0 + k, "time_to_target_s": 0.5,
         "final_rel_error": 0.1, "failure": None, "reference_factor": 2.0}
        for k in range(3)
    ]
    metrics, facts = run.end_to_end(solves, setup_s=0.2)
    values = {k: v for k, (v, _) in metrics.items()}
    assert values["setup_s"] == 0.4
    assert values["wall_s"] == values["solve_s.p50"] == 4.0
    assert values["solve_s.tail"] == 4.0  # three solves: the median
    assert values["time_to_target_s.p50"] == 1.0
    assert values["final_rel_error.p50"] == 0.1
    assert values["target_hit_frac"] == 1.0 and values["failed_frac"] == 0.0
    assert facts["solve_s.tail"] == {"percentile": 100.0 * 2 / 3, "samples": 3}

import importlib.util
import contextlib
import dataclasses
import inspect
import io
import itertools
import json
import os
import re
import sys
import tempfile
import time
import types
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import bench, cli, dtpnn, flow, swarm
from neurocpd.baselines import SweepState
from neurocpd.bench import (
    CSV_HEADER,
    RunConfig,
    apply_overrides,
    compare,
    compare_table,
    load_config,
    run,
    run_single,
    write_compare_csv,
    write_csv,
)
from neurocpd.datagen import gen_problem
from neurocpd.errors import (
    FAILURE_LABELS,
    ArmijoStallError,
    BoundaryStallError,
    ConfigError,
    DivergenceError,
    GammaScheduleError,
    SingularPreconditionerError,
)
from neurocpd.driver import Recorder, drive
from neurocpd.model import objective
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import INNER_SOLVERS, SwarmConfig, cno_run, init_swarm, initial_model
from neurocpd.tensor_io import load_tensor, save_tensor_bin
from neurocpd.tensor_ops import KruskalModel, relative_error


def base_config(**over):
    raw = {
        "problem": {"kind": "easy5", "seed": 0},
        "algorithm": "hals",
        "rank": 3,
        "budget": {"iterations": 50},
        "seeds": [0],
        "output_dir": "out",
        "deterministic_timing": True,
    }
    raw.update(over)
    return raw


def test_config_from_dict_and_validation():
    cfg = RunConfig.from_dict(base_config())
    assert cfg.algorithm == "hals" and cfg.label == "hals"
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(algorithm="newton"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(rank=0))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(base_config(typo=1))
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"algorithm": "hals", "rank": 3})  # no problem


def test_a_config_of_the_required_keys_takes_the_dataclass_defaults():
    cfg = RunConfig.from_dict({"algorithm": "flow", "rank": 3,
                               "problem": {"kind": "easy5"}})
    assert cfg == RunConfig("flow", 3, problem_kind="easy5")
    assert (cfg.problem_seed, cfg.iterations, cfg.tol, cfg.seeds) == (0, 1000, 0.0, [0])
    assert (cfg.output_dir, cfg.record_every, cfg.deterministic_timing) == (
        "out", 1, False)


@pytest.mark.parametrize("missing,message", [
    ("algorithm", f"algorithm must be one of {bench.ALGORITHMS}, got None"),
    ("rank", "rank must be an integer >= 1, got None"),
])
def test_a_config_without_algorithm_or_rank_is_a_config_error(
    tmp_path, monkeypatch, capsys, missing, message
):
    raw = base_config(output_dir=str(tmp_path / "out"))
    del raw[missing]
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err == f"config error: {message}\n"


def test_apply_overrides_dotted_paths():
    raw = base_config()
    apply_overrides(raw, ["budget.iterations=7", "problem.seed=3", "tol=1e-5"])
    cfg = RunConfig.from_dict(raw)
    assert cfg.iterations == 7 and cfg.problem_seed == 3 and cfg.tol == 1e-5
    with pytest.raises(ConfigError):
        apply_overrides(raw, ["no-equals-sign"])


def test_load_config_errors(tmp_path):
    for unreadable in (tmp_path / "missing.yaml", tmp_path):
        with pytest.raises(ConfigError, match=re.escape(str(unreadable))):
            load_config(unreadable)
    bad = tmp_path / "bad.yaml"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_hals_run_reaches_target_on_exact_rank3(tmp_path):
    raw = base_config(output_dir=str(tmp_path))
    raw["problem"]["seed"] = 2
    raw["budget"]["iterations"] = 2000
    raw["seeds"] = [2]
    records = run(RunConfig.from_dict(raw))
    assert records[0].final_rel_error <= 1e-4
    assert (tmp_path / "hals_seed2.csv").exists()
    assert (tmp_path / "hals_seed2.summary.txt").exists()


def test_csv_schema_and_final_row_consistency(tmp_path):
    raw = base_config(output_dir=str(tmp_path), algorithm="dtpnn-armijo")
    raw["budget"]["iterations"] = 40
    cfg = RunConfig.from_dict(raw)
    record = run_single(cfg, 0)
    t = cfg.load_problem()
    assert record.final_model is not None
    assert record.rows[-1].rel_error == pytest.approx(
        relative_error(t, record.final_model), abs=1e-12
    )
    iters = [r.iteration for r in record.rows]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    write_csv(record, tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(record.rows) + 1


def test_deterministic_timing_gives_byte_identical_csv(tmp_path):
    raw = base_config(output_dir=str(tmp_path / "a"))
    cfg = RunConfig.from_dict(raw)
    run(cfg)
    raw2 = base_config(output_dir=str(tmp_path / "b"))
    run(RunConfig.from_dict(raw2))
    a = (tmp_path / "a" / "hals_seed0.csv").read_bytes()
    b = (tmp_path / "b" / "hals_seed0.csv").read_bytes()
    assert a == b


def test_cno_single_particle_matches_flow_trace(tmp_path):
    common = {
        "problem": {"kind": "easy5", "seed": 1},
        "rank": 3,
        "seeds": [4],
        "output_dir": str(tmp_path),
        "deterministic_timing": True,
    }
    # every kind whose swarm runs as a flow stack, and Armijo, whose particle
    # runs alone; barrier-flow starts elsewhere (see the README)
    for kind, params in (("flow", {"time_constants": [1.0] * 3}),
                         ("dtpnn-explicit", {"lambdas": [0.5] * 3}),
                         ("dtpnn-semiimplicit", {}), ("dtpnn-armijo", {})):
        single_cfg = RunConfig.from_dict(
            {**common, "algorithm": kind, "params": params,
             "budget": {"iterations": 120}, "record_every": 30}
        )
        cno_cfg = RunConfig.from_dict(
            {
                **common,
                "algorithm": "cno",
                "budget": {"iterations": 4},
                "params": {
                    "population": 1,
                    "diversity_threshold": 0.0,
                    "inner_tol": 1e-300,
                    "inner_max_steps": 30,
                    "inner_solver": kind,
                    "inner_params": params,
                },
            }
        )
        single_record = run_single(single_cfg, 4)
        cno_record = run_single(cno_cfg, 4)
        single_by_iter = {r.iteration: r for r in single_record.rows}
        for row in cno_record.rows:
            mate = single_by_iter[row.iteration * 30]
            # both columns come from the dense residual of the same model
            assert row.objective == mate.objective
            assert row.rel_error == mate.rel_error
        for a, b in zip(cno_record.final_model.factors,
                        single_record.final_model.factors):
            assert np.array_equal(a, b)


def test_recorded_rel_error_is_relative_error_on_every_row():
    cfg = RunConfig.from_dict(base_config(algorithm="flow"))
    t = cfg.load_problem()
    rec = Recorder(t, cfg.record_every, cfg.deterministic_timing)
    models = []

    def observe(state):
        rec.observe(state)
        models.append(state.model)

    stepper = STEPPERS["flow"]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    drive(t, state, stepper.step, 0.0, 40, None, observe)
    assert len(rec.rows) == len(models) == 40
    for row, model in zip(rec.rows, models):
        assert row.rel_error == relative_error(t, model)
        assert row.objective == pytest.approx(objective(t, model), rel=1e-9)


def test_recorded_objective_is_accurate_at_an_exact_fit():
    rng = np.random.default_rng(0)
    truth = KruskalModel([rng.random((dim, 4)) for dim in (6, 7, 8)])
    t = np.einsum("ir,jr,kr->ijk", *truth.factors)  # noiseless rank 4
    half = 0.5 * float(np.sum(t * t))
    rec = Recorder(t)
    rec.record(SweepState(truth))
    assert 0.0 <= rec.rows[0].objective <= 1e-28 * half
    # the expanded Gram form cancels down to rounding noise of 0.5 ||X||^2
    assert abs(objective(t, truth)) > 1e-20 * half


def test_run_divergence_keeps_partial_trace(tmp_path):
    raw = base_config(algorithm="dtpnn-explicit", output_dir=str(tmp_path))
    raw["params"] = {"precondition": False, "lambdas": [1.0, 1.0, 1.0]}
    raw["problem"] = {"kind": "medium70", "seed": 0}
    raw["rank"] = 75
    raw["budget"]["iterations"] = 50
    cfg = RunConfig.from_dict(raw)
    with np.errstate(over="ignore", invalid="ignore"):
        record = run_single(cfg, 0)
    assert record.failed
    assert record.termination.startswith("diverged")


def test_singular_preconditioner_fails_one_seed_and_keeps_the_next(tmp_path):
    # rank 5 on a 2x2x2 tensor makes every Gram-skip singular; ridge 0
    # forbids the least-squares fallback
    path = tmp_path / "t.bin"
    save_tensor_bin(path, np.random.default_rng(0).random((2, 2, 2)))
    raw = base_config(algorithm="flow", output_dir=str(tmp_path / "out"))
    raw.update(problem={"path": str(path)}, rank=5, params={"ridge": 0.0},
               seeds=[0, 1])
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    for seed in (0, 1):
        assert (tmp_path / "out" / f"flow_seed{seed}.csv").exists()
        summary = (tmp_path / "out" / f"flow_seed{seed}.summary.txt").read_text()
        assert "singular with ridge=0" in summary
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.failed and record.final_model is None


def test_linalg_error_is_a_failed_seed_not_a_config_error(tmp_path, monkeypatch):
    def broken(t, state, tol=0.0):
        raise np.linalg.LinAlgError("singular barrier system at row 0")

    monkeypatch.setattr(flow, "flow_step", broken)
    raw = base_config(algorithm="flow", output_dir=str(tmp_path), seeds=[0, 1])
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2
    assert (tmp_path / "flow_seed1.summary.txt").exists()


def test_wall_clock_cap_terminates_early(tmp_path):
    raw = base_config(output_dir=str(tmp_path))
    raw["budget"] = {"iterations": 100000, "wall_clock_s": 0.2}
    raw["deterministic_timing"] = False
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == "wall_clock"


@pytest.mark.parametrize(
    "budget, tol, reason",
    [({"iterations": 100000, "wall_clock_s": 0.05}, 0.0, "wall_clock"),
     ({"iterations": 50}, 1e300, "converged"),
     ({"iterations": 2}, 0.0, "budget")],
)
def test_cno_termination_names_what_ended_the_run(tmp_path, budget, tol, reason):
    raw = base_config(
        problem={"kind": "caseI", "seed": 0},
        algorithm="cno",
        rank=10,
        budget=budget,
        tol=tol,
        params={"population": 10, "inner_max_steps": 20},
        output_dir=str(tmp_path),
        deterministic_timing=False,
    )
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == reason
    if reason == "converged":
        assert len(record.rows) == 2  # tol is first tested after iteration 2


def test_cno_wall_clock_cap_counts_the_swarm_set_up(tmp_path, monkeypatch):
    compress = swarm.tucker_compress

    def slow_compress(t):
        time.sleep(0.3)
        return compress(t)

    monkeypatch.setattr(swarm, "tucker_compress", slow_compress)
    raw = base_config(
        problem={"kind": "caseI", "seed": 0}, algorithm="cno", rank=10,
        budget={"iterations": 5, "wall_clock_s": 0.2},
        params={"population": 4, "inner_max_steps": 30},
        output_dir=str(tmp_path),
    )
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == "wall_clock"
    assert [row.iteration for row in record.rows] == [0]


@pytest.mark.parametrize("inner", ["flow", "dtpnn-armijo"])
@pytest.mark.parametrize("population", [1, 4])
def test_a_cli_swarm_run_is_the_library_swarm(tmp_path, inner, population):
    # neurocpd run and cno_run advance one swarm through the one driver: the
    # same rows at the recorded iterations, the same global best, and
    # converged exactly when the tol test ended the run short of its budget
    t, _ = gen_problem("easy5", 0)
    params = {"population": population, "inner_solver": inner,
              "inner_max_steps": 10}
    for record_every, tol in itertools.product((1, 2), (0.0, 1e300)):
        raw = base_config(algorithm="cno", params=params, tol=tol,
                          record_every=record_every, budget={"iterations": 4},
                          output_dir=str(tmp_path))
        record = run_single(RunConfig.from_dict(raw), 3)
        model, trace = cno_run(t, 3, SwarmConfig(seed=3, max_outer=4, stop_tol=tol,
                                                 **params))
        recorded = [r for r in trace
                    if r.iteration % record_every == 0 or r.iteration == len(trace)]
        # every field but the clock, which the run's deterministic timing zeroes
        assert [dataclasses.replace(r, wall_ms=0.0) for r in recorded] == record.rows
        assert {r.mutated for r in trace} == {population == 1}
        for a, b in zip(record.final_model.factors, model.factors):
            assert np.array_equal(a, b)
        assert len(trace) == (2 if tol else 4)
        assert record.termination == ("converged" if len(trace) < 4 else "budget")


def test_a_swarm_past_its_cap_ends_wall_clock_though_its_best_stalled(
    tmp_path, monkeypatch
):
    # the deadline is tested before the stop test, as for every algorithm:
    # outer iteration 2 runs past the cap and leaves the global best within
    # tol of iteration 1's, and the run ends wall_clock after its two rows
    solve, deadlines = swarm._solve_particles, []

    def slow(t, sw, cfg, rank, deadline=None, operand=None):
        deadlines.append(deadline)
        if len(deadlines) == 2:
            time.sleep(max(0.0, deadline - time.perf_counter()) + 0.01)
        return solve(t, sw, cfg, rank, deadline, operand)

    monkeypatch.setattr(swarm, "_solve_particles", slow)
    raw = base_config(algorithm="cno", tol=1e300,
                      budget={"iterations": 5, "wall_clock_s": 1.0},
                      params={"population": 2, "inner_max_steps": 10},
                      output_dir=str(tmp_path))
    record = run_single(RunConfig.from_dict(raw), 0)
    assert len(deadlines) == 2
    assert record.termination == "wall_clock"
    assert [row.iteration for row in record.rows] == [1, 2]


@pytest.mark.parametrize("key,value", [("stop_tol", 1e-3), ("mutation", False),
                                       ("jitter_time_constants", False)])
def test_removed_swarm_keys_are_unknown_params(
    tmp_path, monkeypatch, capsys, key, value
):
    # tol stops a swarm, diversity_threshold: 0 turns its mutation off and
    # unit inner_params.time_constants its jitter
    raw = base_config(
        algorithm="cno", params={key: value}, output_dir=str(tmp_path / "out")
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith(f"config error: unknown params for cno: ['{key}']")


def test_compare_single_run_and_permutation_invariance(tmp_path):
    raws = [
        base_config(algorithm="hals", label="hals", output_dir=str(tmp_path)),
        base_config(algorithm="mur", label="mur", output_dir=str(tmp_path)),
    ]
    cfgs = [RunConfig.from_dict(r) for r in raws]
    rows = compare(cfgs, seeds=[0, 1])
    rows_perm = compare(list(reversed(cfgs)), seeds=[0, 1])
    assert [(r.label, r.median, r.min, r.max) for r in rows] == [
        (r.label, r.median, r.min, r.max) for r in rows_perm
    ]
    single = compare([cfgs[0]], seeds=[0])
    record = run_single(cfgs[0], 0)
    assert single[0].median == pytest.approx(record.final_rel_error)
    table = compare_table(rows)
    assert "hals" in table and "mur" in table
    write_compare_csv(rows, tmp_path / "compare.csv")
    assert (tmp_path / "compare.csv").read_text().startswith("label,median")
    with pytest.raises(ConfigError):
        compare([])


def _no_libc():
    raise OSError("no C library")


def test_the_cli_sets_both_allocator_thresholds_once(tmp_path, monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(cli, "_libc", lambda: libc)
    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(base_config(output_dir=str(tmp_path / "out")), cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    # glibc's M_TRIM_THRESHOLD (-1) at 64 MiB and M_MMAP_THRESHOLD (-3) at 32 MiB
    assert sorted(calls) == [(-3, 32 << 20), (-1, 64 << 20)]


@pytest.mark.parametrize("libc", [types.SimpleNamespace, _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_neurocpd_run_works_without_mallopt(tmp_path, monkeypatch, libc):
    # the same trace as with the allocator tuned, byte for byte
    csvs = []
    for name, loader in (("tuned", cli._libc), ("plain", libc)):
        monkeypatch.setattr(cli, "_libc", loader)
        cfg_path = tmp_path / f"{name}.yaml"
        yaml.safe_dump(base_config(output_dir=str(tmp_path / name)), cfg_path.open("w"))
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        csvs.append((tmp_path / name / "hals_seed0.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_gen_run_compare_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "t.txt"
    assert cli.main(["gen", "--kind", "easy5", "--seed", "3", "--out", str(out)]) == 0
    expected, _ = gen_problem("easy5", 3)
    assert np.allclose(load_tensor(out), expected)
    assert (tmp_path / "t.txt.meta").exists()

    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(base_config(output_dir=str(tmp_path / "out")),
                   cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert cli.main(["run", "--config", str(cfg_path),
                     "--set", "budget.iterations=5"]) == 0

    missing = cli.main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert missing == 1
    assert cli.main(["gen", "--kind", "bogus", "--out", str(out)]) == 1

    cmp_path = tmp_path / "cmp.yaml"
    cmp_raw = {
        "problem": {"kind": "easy5", "seed": 0},
        "rank": 3,
        "budget": {"iterations": 30},
        "seeds": [0],
        "output_dir": str(tmp_path / "cmp_out"),
        "deterministic_timing": True,
        "algorithms": [
            {"label": "hals", "algorithm": "hals"},
            {"label": "mur", "algorithm": "mur"},
        ],
    }
    yaml.safe_dump(cmp_raw, cmp_path.open("w"))
    assert cli.main(["compare", "--config", str(cmp_path), "--seeds", "0..1"]) == 0
    assert (tmp_path / "cmp_out" / "compare.csv").exists()
    capsys.readouterr()


def test_cli_compare_with_a_negative_seed_is_a_config_error(
    tmp_path, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    cmp_path = tmp_path / "cmp.yaml"
    raw = base_config(output_dir=str(tmp_path / "out"))
    raw["algorithms"] = [{"label": "hals", "algorithm": "hals"}]
    yaml.safe_dump(raw, cmp_path.open("w"))
    assert cli.main(["compare", "--config", str(cmp_path), "--seeds=-1"]) == 1
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err == "config error: seeds must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("seeds", ["5..3", ",", ""])
def test_cli_compare_with_no_seed_is_a_config_error(tmp_path, monkeypatch, capsys, seeds):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    cmp_path = tmp_path / "cmp.yaml"
    raw = base_config(output_dir=str(tmp_path / "out"))
    raw["algorithms"] = [{"label": "hals", "algorithm": "hals"}]
    yaml.safe_dump(raw, cmp_path.open("w"))
    assert cli.main(["compare", "--config", str(cmp_path), "--seeds", seeds]) == 1
    assert not (tmp_path / "out").exists()  # no compare.csv was written
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_compare_with_an_unknown_kind_in_a_later_variant_runs_nothing(
    tmp_path, monkeypatch, capsys
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    cmp_path = tmp_path / "cmp.yaml"
    raw = base_config(output_dir=str(tmp_path / "out"))
    raw["algorithms"] = [
        {"label": "hals", "algorithm": "hals"},
        {"label": "mur", "algorithm": "mur", "problem": {"kind": "easy55"}},
    ]
    yaml.safe_dump(raw, cmp_path.open("w"))
    assert cli.main(["compare", "--config", str(cmp_path)]) == 1
    assert not (tmp_path / "out").exists()  # no compare.csv was written
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown problem kind 'easy55'")


@pytest.mark.parametrize(
    "algorithms,named", [(["flow"], "'flow'"), ({"flow": {}}, "{'flow': {}}"), (5, "5")]
)
def test_cli_compare_refuses_algorithms_that_are_not_a_list_of_mappings(
    tmp_path, monkeypatch, capsys, algorithms, named
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    cmp_path = tmp_path / "cmp.yaml"
    raw = base_config(output_dir=str(tmp_path / "out"), algorithms=algorithms)
    yaml.safe_dump(raw, cmp_path.open("w"))
    assert cli.main(["compare", "--config", str(cmp_path)]) == 1
    assert not (tmp_path / "out").exists()  # no compare.csv was written
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("params", [[], 0, False, ""])
def test_params_that_is_not_a_mapping_is_a_config_error(params):
    with pytest.raises(ConfigError, match="params must be a mapping"):
        RunConfig.from_dict(base_config(params=params))


def test_a_bare_params_key_reads_as_no_settings():
    assert RunConfig.from_dict(base_config(params=None)).params == {}


EIGHT_ALGORITHMS = [
    "flow",
    "barrier-flow",
    "dtpnn-explicit",
    "dtpnn-semiimplicit",
    "dtpnn-armijo",
    "hals",
    "mur",
    "cno",
]


def _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert not (tmp_path / "out").exists()  # no trace was written
    return capsys.readouterr().err


@pytest.mark.parametrize("algorithm", EIGHT_ALGORITHMS)
def test_unknown_params_key_is_a_config_error(tmp_path, monkeypatch, capsys, algorithm):
    assert set(EIGHT_ALGORITHMS) == set(bench.ALGORITHMS)
    raw = base_config(
        algorithm=algorithm, params={"bogus": 1}, output_dir=str(tmp_path / "out")
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and "bogus" in err and algorithm in err


SETTINGS = {
    "flow": {"time_constants", "step", "precondition", "ridge"},
    "barrier-flow": {"time_constants", "step", "ridge", "integrator", "gamma",
                     "gamma_decay", "decay_every"},
    "dtpnn-explicit": {"lambdas", "precondition", "ridge"},
    "dtpnn-semiimplicit": {"lambdas", "precondition", "ridge"},
    "dtpnn-armijo": {"lambdas", "precondition", "ridge"},
    "hals": set(),
    "mur": set(),
}


def test_each_solver_takes_exactly_the_settings_it_reads():
    assert {kind: set(stepper.params) for kind, stepper in STEPPERS.items()} == SETTINGS
    assert sum(len(keys) for keys in SETTINGS.values()) == 20


def _load_tool(name):
    # a tool sets the BLAS variables when it is imported, so the environment
    # is put back after loading it
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_the_digest_runs_every_algorithm():
    # tools/digest.py pins every solver bitwise
    digest = _load_tool("digest")
    algorithms = {raw["algorithm"] for _, _, _, raw, _ in digest.matrix()}
    assert {"cno", *STEPPERS} <= algorithms


def test_the_work_counts_make_each_benchmark_solve_and_repeat(tmp_path, capsys):
    work = _load_tool("work")
    workloads = work.load_workloads()
    for workload in workloads.WORKLOADS.values():
        made = list(work.round_configs(workloads, workload, 1, tmp_path))
        assert [(a, c.algorithm, c.iterations, c.rank) for a, c in made] == [
            (s.algorithm, s.algorithm, s.iterations, workload.rank)
            for s in workload.solves]
    cfg = RunConfig.from_dict(base_config(algorithm="mur", output_dir=str(tmp_path)))
    counts = work.count_calls(cfg)
    assert counts == work.count_calls(cfg) and min(counts.values()) > 0
    files = []
    for calls, peak in ((10, 100), (10, 101), (11, 99)):
        files.append(tmp_path / f"{calls}-{peak}.json")
        files[-1].write_text(json.dumps({"counts": {
            "w/mur/c_calls": calls, "w/mur/tracemalloc_peak_bytes": peak}}))
    capsys.readouterr()
    assert work.compare(files[0], files[1]) == 0  # bytes rose: listed only
    assert work.compare(files[0], files[2]) == 1  # a call count rose
    assert work.compare(files[2], files[0]) == 0  # what fell is not listed
    assert capsys.readouterr().out.splitlines() == [
        "w/mur/tracemalloc_peak_bytes: 100 -> 101 (+1, +1.00%)",
        "w/mur/c_calls: 10 -> 11 (+1, +10.00%)",
        "w/mur/tracemalloc_peak_bytes: 99 -> 100 (+1, +1.01%)",
    ]


# iterate fields, which the states make fresh and a config may not set, the
# removed step counts, switch between two semi-implicit forms, history and
# Armijo constants
FORMER_KEYWORDS = {
    flow.FlowState: {"residual", "steps", "iterations"},
    dtpnn.DtpnnState: {"steps", "iteration", "objective", "objective_history",
                       "kkt_residual", "initial_lambdas", "residual",
                       "semi_implicit_form", "armijo"},
    SweepState: {"residual", "steps"},
}


def _state_fields(kind):
    # an Euler DTPNN state is a flow state
    states = ([SweepState] if kind in ("hals", "mur") else
              [flow.FlowState] if kind in ("flow", "barrier-flow") else
              [dtpnn.DtpnnState] if kind == "dtpnn-armijo" else
              [flow.FlowState, dtpnn.DtpnnState])
    return set().union(*(
        set(inspect.signature(state).parameters) - {"model"} | FORMER_KEYWORDS[state]
        for state in states
    ))


NOT_SETTINGS = [
    (kind, key)
    for kind in SETTINGS
    for key in sorted(_state_fields(kind) - SETTINGS[kind])
]


@pytest.mark.parametrize(
    "algorithm,key", NOT_SETTINGS, ids=[f"{kind}-{key}" for kind, key in NOT_SETTINGS]
)
def test_a_state_field_that_is_not_a_setting_is_unknown_params(
    tmp_path, monkeypatch, capsys, algorithm, key
):
    raw = base_config(
        algorithm=algorithm, params={key: 0}, output_dir=str(tmp_path / "out")
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error: unknown params") and key in err
    if algorithm in INNER_SOLVERS:
        with pytest.raises(ValueError, match=f"unknown params for {algorithm}.*{key}"):
            SwarmConfig(inner_solver=algorithm, inner_params={key: 0})


@pytest.mark.parametrize("params", [{"seed": 3}, {"inner_params": {"bogus": 1}}])
def test_cno_params_the_runner_sets_or_its_inner_solver_rejects(
    tmp_path, monkeypatch, capsys, params
):
    raw = base_config(algorithm="cno", params=params, output_dir=str(tmp_path / "out"))
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:")
    assert ("seed" if "seed" in params else "bogus") in err


@pytest.mark.parametrize(
    "key,value",
    [
        pytest.param("inner_solver", [], id="inner_solver"),
        pytest.param("inner_params", [], id="inner_params"),
        pytest.param("inner_solver", ["flow"], id="inner_solver-list"),
        pytest.param("inner_params", [{}], id="inner_params-list"),
        pytest.param("inner_solver", 3, id="inner_solver-number"),
        pytest.param("inner_params", "step", id="inner_params-string"),
    ],
)
def test_cno_empty_inner_list_is_a_config_error(
    tmp_path, monkeypatch, capsys, key, value
):
    raw = base_config(
        algorithm="cno", params={key: value}, output_dir=str(tmp_path / "out")
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize(
    "setting",
    [
        "params.gamma=0",
        "params.gamma_decay=0",
        "params.decay_every=0",
        "params.gamma=.inf",
        "params.gamma=.nan",
        "params.gamma_decay=.inf",
        "params.gamma_decay=.nan",
        "params.decay_every=1.5",
    ],
)
def test_barrier_schedule_out_of_range_is_a_config_error(
    tmp_path, monkeypatch, capsys, setting
):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    barrier = STEPPERS["barrier-flow"]
    monkeypatch.setitem(STEPPERS, "barrier-flow", barrier._replace(step=no_step))
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(algorithm="barrier-flow", output_dir=str(tmp_path / "out"))
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path), "--set", setting]) == 1
    assert not list(tmp_path.rglob("*.csv"))  # no trace was written
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert setting.partition(".")[2].partition("=")[0] in err


@pytest.mark.parametrize(
    "key,value,named",
    [
        ("seeds", 3, "seeds"),
        ("budget", 100, "budget"),
        ("problem", "caseI", "problem"),
        ("rank", 2.5, "rank"),
        ("budget", {"iterations": 2.7}, "budget.iterations"),
        ("record_every", 1.9, "record_every"),
        ("problem", {"kind": "easy5", "seed": 1.5}, "problem.seed"),
        ("seeds", [1.5], "seeds"),
        ("seeds", [True], "seeds"),
        ("seeds", [-1], "seeds"),
        ("tol", -1, "tol"),
        ("tol", float("nan"), "tol"),
        ("params", {"population": 2.5}, "population"),
        ("params", {"population": True}, "population"),
        ("params", {"inner_max_steps": True}, "inner_max_steps"),
        ("params", {"inertia": "abc"}, "inertia"),
        ("params", {"accel_personal": float("nan")}, "accel_personal"),
        ("params", {"accel_global": float("inf")}, "accel_global"),
        ("params", {"diversity_threshold": float("nan")}, "diversity_threshold"),
        ("params", {"mutation": "no"}, "mutation"),
        ("params", {"jitter_time_constants": 1}, "jitter_time_constants"),
        ("noise_snr_db", "abc", "noise_snr_db"),
        ("noise_snr_db", float("nan"), "noise_snr_db"),
        ("params", {"decay_every": True}, "decay_every"),
        ("params", {"step": float("inf")}, "step"),
        ("params", {"precondition": "false"}, "precondition"),
        ("deterministic_timing", "false", "deterministic_timing"),
        ("params", {"lambdas": "x"}, "lambdas"),
        ("output_dir", 5, "output_dir"),
        ("label", 5, "label"),
        ("budget", {"iteration": 3}, "iteration"),
        ("problem", {"kind": "easy5", "kidn": "caseI"}, "kidn"),
        ("problem", {"kind": "easy55"}, "easy55"),
        ("problem", {"kind": ["easy5"]}, "problem kind"),
        ("problem", {"path": 0}, "problem.path"),
        ("problem", {"path": 5}, "problem.path"),
        ("problem", {"path": ["a"]}, "problem.path"),
        ("problem", {"path": {}}, "problem.path"),
        ("problem", {"path": True}, "problem.path"),
        ("problem", {"path": ""}, "problem.path"),
    ],
)
def test_config_entry_of_the_wrong_kind_is_a_config_error(
    tmp_path, monkeypatch, capsys, key, value, named
):
    raw = base_config(**{"output_dir": str(tmp_path / "out"), key: value})
    if key == "params":  # the bad entry, not an unknown key: a solver setting
        # goes to a solver that reads it, anything else to the swarm
        setting = next(iter(value))
        raw["algorithm"] = next(
            (kind for kind, keys in SETTINGS.items() if setting in keys), "cno"
        )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and named in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize(
    "key,value", [("kind", "caseI"), ("seed", 7), ("noise_snr_db", 10)]
)
def test_a_problem_file_with_generator_keys_is_a_config_error(
    tmp_path, monkeypatch, capsys, key, value
):
    path = tmp_path / "t.bin"
    save_tensor_bin(path, gen_problem("easy5", 0)[0])
    raw = base_config(output_dir=str(tmp_path / "out"), problem={"path": str(path)})
    (raw if key == "noise_snr_db" else raw["problem"])[key] = value
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error: a problem file takes no") and key in err


def test_a_run_refused_when_its_state_is_made_creates_no_output_dir(
    tmp_path, capsys
):
    # the per-factor list passes the config check; the state refuses it
    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(base_config(output_dir=str(tmp_path / "fresh_out")),
                   cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path), "--set", "algorithm=flow",
                     "--set", "params.time_constants=[1,2]"]) == 1
    assert capsys.readouterr().err.startswith("config error: time_constants")
    assert not (tmp_path / "fresh_out").exists()


@pytest.mark.parametrize("command", ["run", "compare", "gen"])
def test_an_output_path_that_cannot_be_written_is_a_config_error_before_any_solve(
    tmp_path, monkeypatch, capsys, command
):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(bench, "run_single", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    if command == "gen":  # a directory where the tensor file should go
        argv, named = ["gen", "--kind", "easy5", "--out", str(tmp_path)], tmp_path
    else:  # a directory under a regular file
        raw = base_config(output_dir=str(blocker / "sub"))
        if command == "compare":
            raw["algorithms"] = [{"label": "hals", "algorithm": "hals"}]
        yaml.safe_dump(raw, (tmp_path / "run.yaml").open("w"))
        argv, named = [command, "--config", str(tmp_path / "run.yaml")], blocker
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(named) in err
    assert {path.name for path in tmp_path.iterdir()} <= {"file", "run.yaml"}


@pytest.mark.parametrize("algorithm,setting", [
    ("flow", f"rank={2**40}"), ("dtpnn-armijo", f"rank={2**40}"),
    ("cno", f"params.population={2**40}"),
])
def test_a_run_too_large_for_memory_is_refused_before_its_first_draw(
    tmp_path, monkeypatch, capsys, algorithm, setting
):
    def spy(*args, **kwargs):
        raise AssertionError("a start model was drawn")

    for module in (bench, swarm):
        monkeypatch.setattr(module, "initial_model", spy)
    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(base_config(algorithm=algorithm, output_dir=str(tmp_path / "out")),
                   cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path), "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "more than physical memory" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="an older CPython caller "
                    "holds the arguments of a call until it returns")
@pytest.mark.parametrize("algorithm", ["flow", "dtpnn-armijo", "hals", "cno"])
def test_a_run_holds_its_start_state_no_longer_than_its_first_step(
    monkeypatch, algorithm
):
    # a step copies what it changes, so a start state kept alive holds a
    # second copy of the start (for a swarm, its population) through the run
    starts, alive = [], []

    def watch(step):
        def watched(t, s, tol):
            if starts:
                alive.append(starts[0]() is not None)
            else:
                starts.append(weakref.ref(s))
            return step(t, s, tol)
        return watched

    if algorithm == "cno":
        monkeypatch.setattr(bench, "outer_step", watch(bench.outer_step))
    else:
        stepper = STEPPERS[algorithm]
        monkeypatch.setattr(bench, "STEPPERS", {
            algorithm: stepper._replace(step=watch(stepper.step))})
    raw = base_config(algorithm=algorithm, budget={"iterations": 4},
                      params={"population": 3, "inner_max_steps": 5}
                      if algorithm == "cno" else {})
    assert run_single(RunConfig.from_dict(raw), 0).termination == "budget"
    assert alive == [False] * 3


@pytest.mark.parametrize(
    "algorithm,setting",
    [
        ("dtpnn-explicit", "params.lambdas=[true, 1, 1]"),
        ("dtpnn-explicit", "params.lambdas=[1.0, true, 0.5]"),
        ("flow", "params.time_constants=[1.0, true, 2]"),
        ("cno", "params.inner_params={time_constants: [1.0, true, 2]}"),
    ],
)
def test_a_bool_in_a_per_factor_list_is_a_config_error(
    tmp_path, capsys, algorithm, setting
):
    cfg_path = tmp_path / "run.yaml"
    yaml.safe_dump(base_config(algorithm=algorithm, output_dir=str(tmp_path / "out")),
                   cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path), "--set", setting]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "got True" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("snr", ["nan", "-inf", "inf", "-1e5", "1e308"])
def test_cli_gen_refuses_a_non_finite_noise_snr(tmp_path, capsys, snr):
    out = tmp_path / "t.txt"
    argv = ["gen", "--kind", "easy5", "--out", str(out), f"--noise-snr={snr}"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not list(tmp_path.iterdir())


def test_a_step_yaml_reads_as_a_string_gives_the_same_trace(tmp_path):
    blobs = []
    for value in ("1e-3", 1.0e-3):
        raw = base_config(algorithm="flow", params={"step": value},
                          output_dir=str(tmp_path / type(value).__name__))
        raw["budget"]["iterations"] = 20
        cfg = RunConfig.from_dict(raw)
        run(cfg)
        blobs.append((cfg.resolved_output_dir() / "flow_seed0.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_negative_noise_snr_and_unbounded_diversity_threshold_are_valid():
    raw = base_config(algorithm="cno", noise_snr_db=-5,
                      params={"diversity_threshold": float("inf")})
    cfg = RunConfig.from_dict(raw)
    assert np.isfinite(cfg.load_problem()).all()


@pytest.mark.parametrize("value", ["abc", -1, 0, float("nan"), float("inf")])
def test_wall_clock_out_of_range_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    raw = base_config(
        budget={"iterations": 50, "wall_clock_s": value},
        output_dir=str(tmp_path / "out"),
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and "wall_clock_s" in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("algorithm", ["cno", "flow"])
def test_a_deadline_before_the_first_step_records_the_start(tmp_path, algorithm):
    t, _ = gen_problem("easy5", 0)
    if algorithm == "cno":
        start = init_swarm(t, 3, SwarmConfig(population=2, seed=0)).global_best
        start = KruskalModel.unflatten(start, t.shape, 3)
    else:
        start = initial_model(t.shape, 3, 0)
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(
        algorithm=algorithm,
        params={"population": 2} if algorithm == "cno" else {},
        output_dir=str(tmp_path / "out"),
    )
    yaml.safe_dump(raw, cfg_path.open("w"))
    # YAML reads 1e-9 as a string; one nanosecond passes before any step
    setting = "budget.wall_clock_s=1e-9"
    assert cli.main(["run", "--config", str(cfg_path), "--set", setting]) == 0
    lines = (tmp_path / "out" / f"{algorithm}_seed0.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    assert float(lines[1].split(",")[2]) == relative_error(t, start)
    summary = (tmp_path / "out" / f"{algorithm}_seed0.summary.txt").read_text()
    assert "termination = wall_clock" in summary


@pytest.mark.parametrize(
    "key,value",
    [
        ("inner_max_steps", -3),
        ("inner_max_steps", 0),
        ("inner_tol", float("nan")),
        ("inner_tol", float("inf")),
        ("inner_tol", -1e-3),
        ("stop_tol", float("nan")),
        ("stop_tol", -1.0),
    ],
)
def test_swarm_budget_out_of_range_is_a_config_error(
    tmp_path, monkeypatch, capsys, key, value
):
    raw = base_config(
        algorithm="cno", params={key: value}, output_dir=str(tmp_path / "out")
    )
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and key in err


RIDGE_ALGORITHMS = [
    "flow",
    "barrier-flow",
    "dtpnn-explicit",
    "dtpnn-semiimplicit",
    "dtpnn-armijo",
    "cno",
]


@pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf"), "one"])
@pytest.mark.parametrize("algorithm", RIDGE_ALGORITHMS)
def test_ridge_out_of_range_is_a_config_error(
    tmp_path, monkeypatch, capsys, algorithm, ridge
):
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    for name in RIDGE_ALGORITHMS[:-1]:
        stepper = STEPPERS[name]
        monkeypatch.setitem(STEPPERS, name, stepper._replace(step=no_step))
    monkeypatch.setattr(flow, "flow_step", no_step)
    params = {"ridge": ridge}
    if algorithm == "cno":
        params = {"population": 2, "inner_params": params}
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(
        algorithm=algorithm, params=params, output_dir=str(tmp_path / "out")
    )
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))  # no trace was written
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "ridge" in err


def test_a_gamma_schedule_that_underflows_ends_as_a_solver_failure(tmp_path, capsys):
    # gamma 1e-3 scaled by 1e-200 every step reads 0.0 after the second
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(
        algorithm="barrier-flow",
        params={"gamma_decay": 1.0e-200, "decay_every": 1},
        output_dir=str(tmp_path / "out"),
    )
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 2  # every seed failed
    summary = (tmp_path / "out" / "barrier-flow_seed0.summary.txt").read_text()
    assert "termination = gamma_schedule: gamma 0.0 at step 2" in summary
    trace = (tmp_path / "out" / "barrier-flow_seed0.csv").read_text().splitlines()
    assert [row.partition(",")[0] for row in trace] == ["iter", "1"]
    capsys.readouterr()


def test_the_removed_armijo_constants_are_unknown_params(tmp_path, monkeypatch, capsys):
    raw = base_config(algorithm="dtpnn-armijo", params={"armijo": {"alpha": 0.1}},
                      output_dir=str(tmp_path / "out"))
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err == "config error: unknown params for dtpnn-armijo: ['armijo']\n"


def test_every_shipped_config_names_known_params():
    for path in sorted(Path(__file__).parent.parent.glob("configs/*.yaml")):
        raw = load_config(path)
        variants = raw.pop("algorithms", None) or [{}]
        for variant in variants:
            RunConfig.from_dict({**raw, **variant})


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("NEUROCPD_OUTPUT_ROOT", str(tmp_path))
    cfg = RunConfig.from_dict(base_config(output_dir="nested/out"))
    assert cfg.resolved_output_dir() == tmp_path / "nested" / "out"
    monkeypatch.delenv("NEUROCPD_OUTPUT_ROOT")
    assert RunConfig.from_dict(base_config()).resolved_output_dir().name == "out"


def _library_solve(algorithm, t, init, tol, budget):
    if algorithm == "flow":
        return flow.solve_to_equilibrium(t, flow.FlowState(init), tol, budget)
    if algorithm == "barrier-flow":
        interior = KruskalModel([0.1 + 0.9 * f for f in init.factors])
        return flow.solve_barrier(t, flow.FlowState(interior), tol, budget)
    if algorithm == "dtpnn-armijo":
        return dtpnn.solve(t, dtpnn.DtpnnState(init), tol, budget)
    state = STEPPERS[algorithm].make_state(init, {}, 0)  # an Euler DTPNN
    return flow.solve_to_equilibrium(t, state, tol, budget)


@pytest.mark.parametrize(
    "algorithm",
    ["flow", "barrier-flow", "dtpnn-explicit", "dtpnn-armijo", "dtpnn-semiimplicit"],
)
def test_early_stop_matches_the_library_solve(tmp_path, algorithm):
    # the run stops at the measured point, as the library solve does: no
    # step is taken past the iterate whose residual is below tol
    raw = base_config(algorithm=algorithm, output_dir=str(tmp_path), tol=1e-4)
    raw["problem"]["seed"] = 1
    raw["budget"]["iterations"] = 5000
    cfg = RunConfig.from_dict(raw)
    record = run_single(cfg, 3)
    t = cfg.load_problem()
    state, reason = _library_solve(
        algorithm, t, initial_model(t.shape, 3, 3), 1e-4, 5000
    )
    assert reason == "converged" and record.termination == "converged"
    assert record.rows[-1].iteration == state.steps
    assert record.rows[-1].rel_error == relative_error(t, state.model)
    for a, b in zip(record.final_model.factors, state.model.factors):
        assert np.array_equal(a, b)


FAILURES = [
    (DivergenceError("flow produced non-finite factors", 3), "diverged"),
    (SingularPreconditionerError(1), "singular_preconditioner"),
    (BoundaryStallError(3, 30), "boundary_stall"),
    (ArmijoStallError(0, 60, 1e-2), "armijo_stall"),
    (GammaScheduleError("gamma 0.0 at step 2"), "gamma_schedule"),
    (np.linalg.LinAlgError("singular barrier system at row 0"), "linalg_error"),
]


@pytest.mark.parametrize("error,label", FAILURES, ids=[f[1] for f in FAILURES])
@pytest.mark.parametrize("algorithm", ["flow", "cno"])
def test_each_solver_failure_is_labelled_by_kind(
    tmp_path, monkeypatch, error, label, algorithm
):
    def broken(*args, **kwargs):
        raise error

    if algorithm == "cno":
        monkeypatch.setattr(bench, "outer_step", broken)
    else:
        monkeypatch.setattr(flow, "flow_step", broken)
    raw = base_config(algorithm=algorithm, output_dir=str(tmp_path))
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == f"{label}: {error}"
    assert record.failed and record.final_model is None


#: ``cno`` keys that each behaviour's one setting replaced
REMOVED_SWARM_KEYS = {"stop_tol", "mutation", "jitter_time_constants"}

# Boundary values of every kind a config can hold. Integer settings draw only
# small integers: the config check takes any size, and a run then takes time
# and memory in proportion (only a swarm too large for memory is refused).
_EDGES = st.sampled_from([0, 0.0, 1e-300, 1e300, float("inf"), float("-inf"),
                          float("nan"), True, False, "abc", "1e-3", -1, 0.5, 2])
_SMALL = st.one_of(st.integers(-1, 4), st.sampled_from([1.5, True, "2", float("nan")]))
_PER_FACTOR = st.one_of(_EDGES, st.lists(_EDGES, max_size=4))


def _setting(key):
    if key in ("population", "inner_max_steps", "decay_every"):
        return _SMALL
    if key in ("time_constants", "lambdas"):
        return _PER_FACTOR
    if key == "inner_params":
        inner = STEPPERS["flow"].params | STEPPERS["dtpnn-armijo"].params
        return st.one_of(_EDGES, st.fixed_dictionaries(
            {}, optional={k: _setting(k) for k in sorted(inner)}))
    if key in ("inner_solver", "integrator"):
        return st.one_of(_EDGES, st.sampled_from([*bench.ALGORITHMS, "euler", "rk4"]))
    return _EDGES


# Placeholders for tensor files that the run test writes into its output
# directory: a small tensor, a missing file, malformed text and binary files,
# and a directory.
_PROBLEM_FILES = ("<tensor>", "<missing>", "<malformed>", "<malformed-bin>", "<dir>")
_GENERATOR_KEYS = {
    "kind": st.one_of(st.sampled_from(["easy5", "difficult9", "caseI", "nope", ""]),
                      _EDGES),
    "seed": st.one_of(st.integers(-2, 3), _EDGES),
}
_PATHS = st.one_of(st.sampled_from(_PROBLEM_FILES), _EDGES,
                   st.sampled_from([None, "", ["a"], {}]))
# a generated problem, a file alone, and a file mixed with generator keys
_PROBLEMS = st.one_of(
    st.fixed_dictionaries({}, optional=_GENERATOR_KEYS),
    st.fixed_dictionaries({"path": _PATHS}),
    st.fixed_dictionaries({"path": _PATHS}, optional=_GENERATOR_KEYS),
)
_SNRS = st.sampled_from([30.0, 0.0, -20.0, 1e300, -1e300, float("inf"),
                         float("-inf"), float("nan"), "abc", "30"])


def _problem_file(root: Path, placeholder: str) -> str:
    files = root / "files"
    files.mkdir()
    if placeholder == "<dir>":
        return str(files)
    path = files / ("t.txt" if placeholder == "<malformed>" else "t.bin")
    if placeholder == "<tensor>":
        save_tensor_bin(path, gen_problem("easy5", 0)[0])
    elif placeholder == "<malformed>":
        path.write_text("3\n5 5\nabc\n")
    elif placeholder == "<malformed-bin>":
        path.write_bytes(b"NCPDTNSR\x01")
    return str(path)


@st.composite
def _run_configs(draw):
    algorithm = draw(st.sampled_from(bench.ALGORITHMS))
    keys = STEPPERS[algorithm].params if algorithm != "cno" else (
        bench.SWARM_PARAMS | REMOVED_SWARM_KEYS)
    # a few keys at a time, so that some configs pass the check and run
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True)
                  if keys else st.just([]))
    params = {key: draw(_setting(key)) for key in chosen}
    if algorithm == "cno" and draw(st.booleans()):
        params["diversity_threshold"] = 0
    budget = {"iterations": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        budget["wall_clock_s"] = draw(_EDGES)
    raw = base_config(algorithm=algorithm, params=params, budget=budget)
    if draw(st.booleans()):
        raw["tol"] = draw(_EDGES)
    if algorithm == "cno":
        params.setdefault("population", draw(st.integers(1, 4)))
        params.setdefault("inner_max_steps", draw(st.integers(1, 5)))
    if draw(st.booleans()):
        raw["problem"] = draw(_PROBLEMS)
    if draw(st.booleans()):
        raw["noise_snr_db"] = draw(_SNRS)
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=_run_configs())
def test_every_cli_run_ends_in_a_trace_a_config_error_or_a_failure_label(raw):
    algorithm, params = raw["algorithm"], raw["params"]
    with tempfile.TemporaryDirectory() as out:
        raw["output_dir"] = out
        if raw["problem"].get("path") in _PROBLEM_FILES:
            raw["problem"]["path"] = _problem_file(Path(out), raw["problem"]["path"])
        path = Path(out) / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main(["run", "--config", str(path)])
        removed = algorithm == "cno" and REMOVED_SWARM_KEYS & params.keys()
        if code == 1 or removed:
            assert code == 1 and err.getvalue().startswith("config error:")
            assert not [*Path(out).glob("*.csv"), *Path(out).glob("*.summary.txt")]
            return
        summary = (Path(out) / f"{algorithm}_seed0.summary.txt").read_text()
        termination = re.search(r"^termination = ([a-z_]+)", summary, re.M)[1]
        if code == 0:
            assert termination in ("budget", "converged", "wall_clock")
            rows = (Path(out) / f"{algorithm}_seed0.csv").read_text().splitlines()
            assert rows[0] == CSV_HEADER and len(rows) > 1
        else:
            assert code == 2 and termination in FAILURE_LABELS.values()


_SEED_TEXTS = st.one_of(
    st.none(),
    st.builds("{}..{}".format, st.integers(-1, 2), st.integers(-1, 2)),
    st.lists(st.integers(-1, 3), max_size=3).map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["", ",", "..", "a", "1.5", "0..1..2", " 1", "0x1"]),
)


# a variant that passes the config check and runs in a few milliseconds
_VARIANTS = st.builds(
    lambda algorithm, n: {"algorithm": algorithm, "budget": {"iterations": n},
                          "params": {"population": 2, "inner_max_steps": 5}
                          if algorithm == "cno" else {}},
    st.sampled_from(bench.ALGORITHMS), st.integers(1, 3),
)


@st.composite
def _compare_configs(draw):
    entry = st.one_of(
        _VARIANTS,
        _run_configs(),
        st.sampled_from([*bench.ALGORITHMS, "", "flow: {}"]),
        _EDGES,
        st.lists(st.one_of(st.sampled_from(bench.ALGORITHMS), _EDGES), max_size=2),
    )
    raw = base_config()
    raw["algorithms"] = draw(st.one_of(st.lists(_VARIANTS, min_size=1, max_size=3),
                                       st.lists(entry, max_size=3), entry))
    return raw, draw(_SEED_TEXTS)


@settings(max_examples=100, deadline=None)
@given(drawn=_compare_configs())
def test_every_cli_compare_ends_in_a_table_a_config_error_or_a_failure(drawn):
    raw, seeds = drawn
    for variant in raw["algorithms"] if isinstance(raw["algorithms"], list) else []:
        if isinstance(variant, dict):
            variant.pop("output_dir", None)  # the table goes to the temporary one
    with tempfile.TemporaryDirectory() as out:
        raw["output_dir"] = out
        path = Path(out) / "compare.yaml"
        path.write_text(yaml.safe_dump(raw))
        argv = ["compare", "--config", str(path)]
        if seeds is not None:
            argv.append(f"--seeds={seeds}")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main(argv)
        table = Path(out) / "compare.csv"
        if code == 1:
            assert err.getvalue().startswith("config error:") and not table.exists()
        else:
            assert code in (0, 2) and table.exists()

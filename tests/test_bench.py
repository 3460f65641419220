import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from neurocpd import bench, cli, dtpnn, flow
from neurocpd.bench import (
    CSV_HEADER,
    RunConfig,
    apply_overrides,
    compare,
    compare_table,
    emit_gnuplot,
    load_config,
    run,
    run_single,
    write_compare_csv,
    write_csv,
)
from neurocpd.datagen import gen_problem
from neurocpd.errors import (
    ArmijoStallError,
    BoundaryStallError,
    ConfigError,
    DivergenceError,
    SingularPreconditionerError,
)
from neurocpd.driver import drive
from neurocpd.model import objective
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import SwarmConfig, init_swarm, initial_model
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
    flow_cfg = RunConfig.from_dict(
        {**common, "algorithm": "flow", "budget": {"iterations": 120},
         "record_every": 30}
    )
    cno_cfg = RunConfig.from_dict(
        {
            **common,
            "algorithm": "cno",
            "budget": {"iterations": 4},
            "params": {
                "population": 1,
                "mutation": False,
                "jitter_time_constants": False,
                "inner_tol": 1e-300,
                "inner_max_steps": 30,
            },
        }
    )
    flow_record = run_single(flow_cfg, 4)
    cno_record = run_single(cno_cfg, 4)
    flow_by_iter = {r.iteration: r for r in flow_record.rows}
    for row in cno_record.rows:
        mate = flow_by_iter[row.iteration * 30]
        # both columns come from the dense residual of the same model
        assert row.objective == mate.objective
        assert row.rel_error == mate.rel_error
    for a, b in zip(cno_record.final_model.factors, flow_record.final_model.factors):
        assert np.array_equal(a, b)


def test_recorded_rel_error_is_relative_error_on_every_row():
    cfg = RunConfig.from_dict(base_config(algorithm="flow"))
    t = cfg.load_problem()
    rec = bench._Recorder(t, cfg)
    models = []

    def observe(steps, state):
        rec.observe(steps, state)
        models.append(state.model)

    stepper = STEPPERS["flow"]
    state = stepper.make_state(initial_model(t.shape, 3, 0), {}, 0)
    drive(t, state, stepper, 0.0, 40, None, observe)
    assert len(rec.rows) == len(models) == 40
    for row, model in zip(rec.rows, models):
        assert row.rel_error == relative_error(t, model)
        assert row.objective == pytest.approx(objective(t, model), rel=1e-9)


def test_recorded_objective_is_accurate_at_an_exact_fit():
    rng = np.random.default_rng(0)
    truth = KruskalModel([rng.random((dim, 4)) for dim in (6, 7, 8)])
    t = np.einsum("ir,jr,kr->ijk", *truth.factors)  # noiseless rank 4
    half = 0.5 * float(np.sum(t * t))
    rec = bench._Recorder(t, RunConfig.from_dict(base_config()))
    rec.record_model(0, truth)
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
    def broken(t, state):
        raise np.linalg.LinAlgError("singular barrier system at row 0")

    monkeypatch.setattr(bench.flow_mod, "flow_step", broken)
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
    "budget, stop_tol, reason",
    [({"iterations": 100000, "wall_clock_s": 0.05}, 0.0, "wall_clock"),
     ({"iterations": 50}, 1e300, "early_stop"),
     ({"iterations": 2}, 0.0, "budget")],
)
def test_cno_termination_names_what_ended_the_run(tmp_path, budget, stop_tol, reason):
    raw = base_config(
        problem={"kind": "caseI", "seed": 0},
        algorithm="cno",
        rank=10,
        budget=budget,
        params={"population": 10, "stop_tol": stop_tol, "inner_max_steps": 20},
        output_dir=str(tmp_path),
        deterministic_timing=False,
    )
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == reason
    if reason == "early_stop":
        assert len(record.rows) == 2  # stop_tol is first tested after iteration 2


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


def test_emit_gnuplot(tmp_path):
    emit_gnuplot([tmp_path / "a.csv"], ["flow"], tmp_path / "plot.gp", "demo")
    script = (tmp_path / "plot.gp").read_text()
    assert "set logscale y" in script and "using 1:3" in script


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


@pytest.mark.parametrize("params", [{"seed": 3}, {"inner_params": {"bogus": 1}}])
def test_cno_params_the_runner_sets_or_its_inner_solver_rejects(
    tmp_path, monkeypatch, capsys, params
):
    raw = base_config(algorithm="cno", params=params, output_dir=str(tmp_path / "out"))
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:")
    assert ("seed" if "seed" in params else "bogus") in err


@pytest.mark.parametrize("key", ["inner_solver", "inner_params"])
def test_cno_empty_inner_list_is_a_config_error(tmp_path, monkeypatch, capsys, key):
    raw = base_config(algorithm="cno", params={key: []}, output_dir=str(tmp_path / "out"))
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
    [("seeds", 3, "seeds"), ("budget", 100, "budget"), ("problem", "caseI", "problem")],
)
def test_config_entry_of_the_wrong_kind_is_a_config_error(
    tmp_path, monkeypatch, capsys, key, value, named
):
    raw = base_config(output_dir=str(tmp_path / "out"), **{key: value})
    err = _refused_before_any_solve(tmp_path, monkeypatch, capsys, raw)
    assert err.startswith("config error:") and named in err
    assert not list(tmp_path.rglob("*.csv"))


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
    monkeypatch.setattr(flow, "solve_stack", no_step)
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


def test_armijo_params_from_a_config_mapping(tmp_path, capsys):
    state = STEPPERS["dtpnn-armijo"].make_state(
        initial_model((3, 3, 3), 2, 0), {"armijo": {"alpha": 0.1}}, 0
    )
    assert state.armijo == dtpnn.ArmijoParams(alpha=0.1)
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(
        algorithm="dtpnn-armijo",
        params={"armijo": {"alpha": 0.1}},
        output_dir=str(tmp_path / "out"),
    )
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    summary = (tmp_path / "out" / "dtpnn-armijo_seed0.summary.txt").read_text()
    assert "termination = budget" in summary
    capsys.readouterr()


@pytest.mark.parametrize(
    "armijo,named", [({"alpha": 0.1, "bogus": 1}, "bogus"), ({"beta": 1.5}, "(0, 1)")]
)
def test_armijo_params_unknown_or_out_of_range_is_a_config_error(
    tmp_path, capsys, armijo, named
):
    cfg_path = tmp_path / "run.yaml"
    raw = base_config(
        algorithm="dtpnn-armijo",
        params={"armijo": armijo},
        output_dir=str(tmp_path / "out"),
    )
    yaml.safe_dump(raw, cfg_path.open("w"))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert not list(tmp_path.rglob("*.csv"))
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


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
    return dtpnn.solve(t, dtpnn.DtpnnState(init), "explicit", tol, budget)


@pytest.mark.parametrize("algorithm", ["flow", "barrier-flow", "dtpnn-explicit"])
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
    steps = getattr(state, "iterations", getattr(state, "iteration", None))
    assert reason == "converged" and record.termination == "converged"
    assert record.rows[-1].iteration == steps
    assert record.rows[-1].rel_error == relative_error(t, state.model)
    for a, b in zip(record.final_model.factors, state.model.factors):
        assert np.array_equal(a, b)


FAILURES = [
    (DivergenceError("flow produced non-finite factors", 3), "diverged"),
    (SingularPreconditionerError(1), "singular_preconditioner"),
    (BoundaryStallError(3, 30), "boundary_stall"),
    (ArmijoStallError(0, 60, 1e-2), "armijo_stall"),
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
        monkeypatch.setattr(bench, "cno_run", broken)
    else:
        monkeypatch.setattr(flow, "flow_step", broken)
    raw = base_config(algorithm=algorithm, output_dir=str(tmp_path))
    record = run_single(RunConfig.from_dict(raw), 0)
    assert record.termination == f"{label}: {error}"
    assert record.failed and record.final_model is None

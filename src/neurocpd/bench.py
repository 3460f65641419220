"""Configuration-driven experiment runner.

A run config names a problem (generator kind + seed, or a tensor file), an
algorithm, a rank, a budget, and a list of initialization seeds. Each
(config, seed) run produces a per-iteration trace written as CSV with the
schema

    iter,objective,rel_error,wall_ms,diversity

plus a plain-text summary. Config files are YAML mappings (see the README
for the documented keys); ``--set a.b=c`` style dotted overrides are applied
on top. Traces are reproducible: all randomness derives from the seeds, and
``deterministic_timing: true`` zeroes the wall-clock column so repeated runs
are byte-identical.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import flow as flow_mod  # noqa: F401  (steps rebound here reach runs)
from .datagen import gen_problem
from .driver import drive, keywords
from .errors import FAILURE_LABELS, SOLVER_FAILURES, ConfigError, describe_failure
from .solvers import STEPPERS
from .swarm import SwarmConfig, _stalled, cno_run, initial_model
from .tensor_io import load_tensor
from .tensor_ops import KruskalModel, frobenius_norm, residual_fit

#: the ``params`` keys of each algorithm; the runner sets the swarm's seed and budget
PARAMS = {"cno": keywords(SwarmConfig, "seed", "max_outer")}
PARAMS.update((name, stepper.params) for name, stepper in STEPPERS.items())
ALGORITHMS = tuple(PARAMS)

OUTPUT_ROOT_ENV = "NEUROCPD_OUTPUT_ROOT"

CSV_HEADER = "iter,objective,rel_error,wall_ms,diversity"


@dataclass
class RunRow:
    iteration: int
    objective: float
    rel_error: float
    wall_ms: float
    diversity: float | None = None


@dataclass
class RunRecord:
    """Trace plus outcome of one (config, seed) run."""

    config: dict
    seed: int
    rows: list[RunRow]
    final_model: KruskalModel | None
    termination: str

    @property
    def final_rel_error(self) -> float:
        return self.rows[-1].rel_error if self.rows else np.inf

    @property
    def best_rel_error(self) -> float:
        return min((r.rel_error for r in self.rows), default=np.inf)

    @property
    def failed(self) -> bool:
        return self.termination.partition(":")[0] in FAILURE_LABELS.values()


@dataclass
class RunConfig:
    algorithm: str
    rank: int
    problem_kind: str | None = None
    problem_seed: int = 0
    problem_path: str | None = None
    noise_snr_db: float | None = None
    params: dict = field(default_factory=dict)
    iterations: int = 1000
    wall_clock_s: float | None = None
    tol: float = 0.0  # early-stop residual; 0 runs the full budget
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
    record_every: int = 1
    deterministic_timing: bool = False
    label: str | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHMS}"
            )
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if self.iterations < 1:
            raise ConfigError("budget.iterations must be >= 1")
        if self.wall_clock_s is not None:
            self.wall_clock_s = _positive_seconds(self.wall_clock_s)
        if self.record_every < 1:
            raise ConfigError("record_every must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        if self.problem_kind is None and self.problem_path is None:
            raise ConfigError("problem needs either a generator kind or a file path")
        if unknown := set(self.params) - PARAMS[self.algorithm]:
            raise ConfigError(f"unknown params for {self.algorithm}: {sorted(unknown)}")
        if self.algorithm == "cno":
            SwarmConfig(**self.params)  # checks its values before any solve runs
        if self.label is None:
            self.label = self.algorithm

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        problem = raw.pop("problem", {})
        budget = raw.pop("budget", {})
        seeds = raw.pop("seeds", [0])
        for key, value in (("problem", problem), ("budget", budget)):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a mapping, got {value!r}")
        if not isinstance(seeds, (list, tuple)):
            raise ConfigError(f"seeds must be a list, got {seeds!r}")
        known = dict(
            algorithm=raw.pop("algorithm", None),
            rank=raw.pop("rank", None),
            problem_kind=problem.get("kind"),
            problem_seed=int(problem.get("seed", 0)),
            problem_path=problem.get("path"),
            noise_snr_db=raw.pop("noise_snr_db", None),
            params=raw.pop("params", {}) or {},
            iterations=int(budget.get("iterations", 1000)),
            wall_clock_s=budget.get("wall_clock_s"),
            tol=float(raw.pop("tol", 0.0)),
            seeds=list(seeds),
            output_dir=raw.pop("output_dir", "out"),
            record_every=int(raw.pop("record_every", 1)),
            deterministic_timing=bool(raw.pop("deterministic_timing", False)),
            label=raw.pop("label", None),
        )
        if raw:
            raise ConfigError(f"unknown config keys: {sorted(raw)}")
        if known["algorithm"] is None or known["rank"] is None:
            raise ConfigError("config needs 'algorithm' and 'rank'")
        known["rank"] = int(known["rank"])
        try:
            return cls(**known)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def load_problem(self) -> np.ndarray:
        if self.problem_path is not None:
            try:
                return load_tensor(self.problem_path)
            except OSError as exc:  # its message names the path
                raise ConfigError(f"could not read tensor file: {exc}") from exc
        tensor, _ = gen_problem(self.problem_kind, self.problem_seed,
                                self.noise_snr_db)
        return tensor

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        path = Path(self.output_dir)
        if root and not path.is_absolute():
            path = Path(root) / path
        return path


def _positive_seconds(value) -> float:
    """``float(value)`` for a wall-clock cap; :class:`ConfigError` unless it is
    finite and positive (YAML reads ``1e-6`` as a string, which this accepts)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise ConfigError(
            f"budget.wall_clock_s must be a finite value > 0, got {value!r}"
        )
    return seconds


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:  # its message names the path
        raise ConfigError(f"could not read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def _parse_value(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


def apply_overrides(raw: dict, sets: list[str]) -> dict:
    """Apply ``a.b.c=value`` overrides on top of a config mapping."""
    for item in sets:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        node = raw
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a mapping")
        node[parts[-1]] = _parse_value(value)
    return raw


class _Recorder:
    """Collects trace rows; wall clock is zeroed under deterministic timing."""

    def __init__(self, t, cfg: RunConfig):
        self.t = t
        self.norm = frobenius_norm(t)
        self.cfg = cfg
        self.rows: list[RunRow] = []
        self.started = time.perf_counter()

    def wall_ms(self) -> float:
        if self.cfg.deterministic_timing:
            return 0.0
        return (time.perf_counter() - self.started) * 1e3

    def record_model(self, iteration: int, model: KruskalModel):
        fit = residual_fit(self.t, model, self.norm)
        self.rows.append(RunRow(iteration, *fit, self.wall_ms()))

    def observe(self, iteration: int, state):
        if iteration % self.cfg.record_every == 0:
            self.record_model(iteration, state.model)


def _run_stepwise(t, cfg: RunConfig, seed: int, rec: _Recorder):
    """One single-trajectory run through the driver; returns (model, reason)."""
    init = initial_model(t.shape, cfg.rank, seed)
    if cfg.algorithm == "barrier-flow":
        # the barrier needs a strictly interior start
        init = KruskalModel([0.1 + 0.9 * f for f in init.factors])
    stepper = STEPPERS[cfg.algorithm]
    deadline = None if cfg.wall_clock_s is None else rec.started + cfg.wall_clock_s
    state = stepper.make_state(init, dict(cfg.params), seed)
    state, reason, steps = drive(
        t, state, stepper, cfg.tol, cfg.iterations, deadline, rec.observe
    )
    if not rec.rows or rec.rows[-1].iteration != steps:
        rec.record_model(steps, state.model)
    return state.model, "budget" if reason == "max_steps" else reason


def _run_cno(t, cfg: RunConfig, seed: int, rec: _Recorder):
    sw_cfg = SwarmConfig(seed=seed, max_outer=cfg.iterations, **cfg.params)
    model, trace = cno_run(t, cfg.rank, sw_cfg, deadline_s=cfg.wall_clock_s)
    if not trace:  # the deadline passed before the first outer iteration
        rec.record_model(0, model)
    for r in trace:
        if r.iteration % cfg.record_every == 0 or r.iteration == len(trace):
            wall_ms = 0.0 if cfg.deterministic_timing else r.wall_s * 1e3
            rec.rows.append(
                RunRow(r.iteration, r.objective, r.rel_error, wall_ms, r.diversity)
            )
    if len(trace) == cfg.iterations:
        return model, "budget"
    # short of the budget, cno_run stopped on its stop_tol test or on the deadline
    return model, "early_stop" if _stalled(trace, sw_cfg.stop_tol) else "wall_clock"


def run_single(cfg: RunConfig, seed: int) -> RunRecord:
    """One (config, seed) run; a solver failure keeps the partial trace."""
    t = cfg.load_problem()
    rec = _Recorder(t, cfg)
    snapshot = config_snapshot(cfg)
    run_algorithm = _run_cno if cfg.algorithm == "cno" else _run_stepwise
    try:
        model, reason = run_algorithm(t, cfg, seed, rec)
    except SOLVER_FAILURES as exc:
        return RunRecord(snapshot, seed, rec.rows, None, describe_failure(exc))
    return RunRecord(snapshot, seed, rec.rows, model, reason)


def config_snapshot(cfg: RunConfig) -> dict:
    return {
        "algorithm": cfg.algorithm,
        "label": cfg.label,
        "rank": cfg.rank,
        "problem": cfg.problem_path
        or f"{cfg.problem_kind}(seed={cfg.problem_seed})",
        "iterations": cfg.iterations,
        "params": dict(cfg.params),
    }


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_atomic(path, lines) -> None:
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("".join(line + "\n" for line in lines))
    os.replace(tmp, path)


def write_csv(record: RunRecord, path) -> None:
    """Atomic CSV write of one run trace."""
    lines = [CSV_HEADER]
    for r in record.rows:
        lines.append(
            f"{r.iteration},{_format(r.objective)},{_format(r.rel_error)},"
            f"{_format(r.wall_ms)},{_format(r.diversity)}"
        )
    _write_atomic(path, lines)


def write_summary(record: RunRecord, path) -> None:
    entries = {
        "label": record.config["label"],
        "algorithm": record.config["algorithm"],
        "seed": record.seed,
        "rows": len(record.rows),
        "final_rel_error": record.final_rel_error,
        "best_rel_error": record.best_rel_error,
        "termination": record.termination,
    }
    _write_atomic(path, (f"{k} = {v}" for k, v in entries.items()))


def run(cfg: RunConfig) -> list[RunRecord]:
    """Run every seed of the config, writing one CSV + summary per seed."""
    out = cfg.resolved_output_dir()
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for seed in cfg.seeds:
        record = run_single(cfg, seed)
        stem = f"{cfg.label}_seed{seed}"
        write_csv(record, out / f"{stem}.csv")
        write_summary(record, out / f"{stem}.summary.txt")
        records.append(record)
    return records


@dataclass
class CompareRow:
    label: str
    median: float
    min: float
    max: float
    completed: int
    failed: int


def compare(cfgs: list[RunConfig], seeds: list[int] | None = None) -> list[CompareRow]:
    """Run each config over the seeds; summarize final relative errors.

    Failed runs are counted and excluded; rows come back sorted by label so
    the table content does not depend on config order.
    """
    if not cfgs:
        raise ConfigError("compare needs at least one run config")
    if seeds is not None and not seeds:
        raise ConfigError("compare needs at least one seed")
    rows = []
    for cfg in cfgs:
        use_seeds = seeds if seeds is not None else cfg.seeds
        finals, failed = [], 0
        for seed in use_seeds:
            record = run_single(cfg, seed)
            if record.failed:
                failed += 1
            else:
                finals.append(record.final_rel_error)
        rows.append(
            CompareRow(
                cfg.label,
                statistics.median(finals) if finals else np.nan,
                min(finals) if finals else np.nan,
                max(finals) if finals else np.nan,
                len(finals),
                failed,
            )
        )
    return sorted(rows, key=lambda r: r.label)


def compare_table(rows: list[CompareRow]) -> str:
    header = f"{'label':<24} {'median':>12} {'min':>12} {'max':>12} {'ok':>4} {'fail':>5}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.label:<24} {r.median:>12.4e} {r.min:>12.4e} {r.max:>12.4e} "
            f"{r.completed:>4d} {r.failed:>5d}"
        )
    return "\n".join(lines)


def write_compare_csv(rows: list[CompareRow], path) -> None:
    lines = ["label,median_rel_error,min_rel_error,max_rel_error,completed,failed"]
    for r in rows:
        lines.append(
            f"{r.label},{_format(r.median)},{_format(r.min)},{_format(r.max)},"
            f"{r.completed},{r.failed}"
        )
    _write_atomic(path, lines)


def emit_gnuplot(csv_paths: list, labels: list[str], out_path, title: str = "") -> None:
    """Gnuplot script plotting rel_error curves from run CSVs."""
    out_path = Path(out_path)
    plots = ", \\\n    ".join(
        f'"{Path(p)}" using 1:3 with lines title "{lab}"'
        for p, lab in zip(csv_paths, labels)
    )
    script = (
        "set datafile separator ','\n"
        "set logscale y\n"
        "set xlabel 'iteration'\n"
        "set ylabel 'relative error'\n"
        f"set title '{title}'\n"
        f"plot {plots}\n"
        "pause -1\n"
    )
    out_path.write_text(script)

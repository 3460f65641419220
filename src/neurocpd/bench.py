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
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .datagen import _spec, gen_problem
from .driver import Recorder, TraceRow, drive
from .errors import FAILURE_LABELS, SOLVER_FAILURES, ConfigError, describe_failure
from .model import _choice, _integer, _real, _switch
from .solvers import STEPPERS, _check_params
from .swarm import SwarmConfig, SwarmRun, check_memory, initial_model, outer_step
from .tensor_io import load_tensor
from .tensor_ops import KruskalModel

#: the ``params`` keys of ``cno``; the run's seed, budget and tol set the rest
SWARM_PARAMS = {f.name for f in fields(SwarmConfig)} - {"seed", "max_outer", "stop_tol"}
ALGORITHMS = ("cno", *STEPPERS)

OUTPUT_ROOT_ENV = "NEUROCPD_OUTPUT_ROOT"

CSV_HEADER = "iter,objective,rel_error,wall_ms,diversity"


@dataclass
class RunRecord:
    """Trace plus outcome of one (config, seed) run."""

    config: RunConfig
    seed: int
    rows: list[TraceRow]
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
    tol: float = 0.0  # early-stop test; 0 runs the full budget
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "out"
    record_every: int = 1
    deterministic_timing: bool = False
    label: str | None = None

    def __post_init__(self):
        self.algorithm = _choice("algorithm", self.algorithm, ALGORITHMS)
        self.rank = _integer("rank", self.rank, 1)
        self.problem_seed = _integer("problem.seed", self.problem_seed, 0)
        self.iterations = _integer("budget.iterations", self.iterations, 1)
        if self.wall_clock_s is not None:
            self.wall_clock_s = _real("budget.wall_clock_s", self.wall_clock_s, "()")
        self.tol = _real("tol", self.tol)
        if (snr := self.noise_snr_db) is not None:
            self.noise_snr_db = _real("noise_snr_db", snr, "()", -math.inf)
        self.record_every = _integer("record_every", self.record_every, 1)
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        self.seeds = [_integer("seeds", seed, 0) for seed in self.seeds]
        if self.problem_kind is None and self.problem_path is None:
            raise ConfigError("problem needs either a generator kind or a file path")
        if self.problem_kind is not None:
            _spec(self.problem_kind)
        self.deterministic_timing = _switch(
            "deterministic_timing", self.deterministic_timing
        )
        if self.label is None:
            self.label = self.algorithm
        for key in ("output_dir", "label"):
            if not isinstance(value := getattr(self, key), str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        if self.label.splitlines() != [self.label] or set(self.label) & set("/\\,"):
            raise ConfigError("label must be non-empty, with no path separator, comma "
                              f"or line break, got {self.label!r}")
        if not isinstance(path := self.problem_path, str | None) or path == "":
            raise ConfigError(f"problem.path must be a non-empty string, got {path!r}")
        # every value is checked before any solve runs
        if self.algorithm != "cno":
            _check_params(self.algorithm, self.params)
        elif unknown := set(self.params) - SWARM_PARAMS:
            raise ConfigError(f"unknown params for cno: {sorted(unknown)}")
        else:
            SwarmConfig(**self.params)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        raw = dict(raw)
        if "algorithms" in raw:
            raise ConfigError("a run config takes no 'algorithms' list; "
                              "use the compare subcommand")
        problem, budget = raw.pop("problem", {}), raw.pop("budget", {})
        if "params" in raw and raw["params"] is None:  # a bare YAML ``params:``
            raw["params"] = {}
        for key, value in dict(problem=problem, budget=budget,
                               params=raw.get("params", {})).items():
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be a mapping, got {value!r}")
        if not isinstance(seeds := raw.get("seeds", []), (list, tuple)):
            raise ConfigError(f"seeds must be a list, got {seeds!r}")
        problem, budget = dict(problem), dict(budget)
        clash = {"kind", "seed"} & problem.keys() | {"noise_snr_db"} & raw.keys()
        if problem.get("path") is not None and clash:
            raise ConfigError(f"a problem file takes no {sorted(clash)}")
        # only the keys given; a missing algorithm or rank fails its own check
        known = dict(algorithm=None, rank=None)
        known.update({key: raw.pop(key) for key in (
            "algorithm", "rank", "noise_snr_db", "params", "tol", "seeds",
            "output_dir", "record_every", "deterministic_timing", "label",
        ) if key in raw})
        known.update({f"problem_{key}": problem.pop(key)
                      for key in ("kind", "seed", "path") if key in problem})
        known.update({key: budget.pop(key)
                      for key in ("iterations", "wall_clock_s") if key in budget})
        for key, rest in dict(config=raw, problem=problem, budget=budget).items():
            if rest:
                raise ConfigError(f"unknown {key} keys: {sorted(rest)}")
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
        """``output_dir``, under ``$NEUROCPD_OUTPUT_ROOT`` if relative; refused, and
        not made, unless the nearest part of it that exists is a writable directory."""
        root = os.environ.get(OUTPUT_ROOT_ENV)
        path = Path(self.output_dir)
        if root and not path.is_absolute():
            path = Path(root) / path
        known = path if path.exists() else next(p for p in path.parents if p.exists())
        if known.is_dir() and os.access(known, os.W_OK):
            return path
        raise ConfigError(f"output_dir {path}: {known} is not a writable directory")


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


def _start(cfg: RunConfig, t, seed: int, deadline):
    """The start state of a (config, seed) run, its size checked before any draw."""
    if cfg.algorithm == "cno":
        sw_cfg = SwarmConfig(seed=seed, max_outer=cfg.iterations, **cfg.params)
        return SwarmRun(t, cfg.rank, sw_cfg, deadline)
    check_memory(f"a model of rank {cfg.rank}", sum(t.shape) * cfg.rank)
    init = initial_model(t.shape, cfg.rank, seed)
    if cfg.algorithm == "barrier-flow":  # the barrier needs a strictly interior start
        init = KruskalModel([0.1 + 0.9 * f for f in init.factors])
    return STEPPERS[cfg.algorithm].make_state(init, dict(cfg.params), seed)


def run_single(cfg: RunConfig, seed: int) -> RunRecord:
    """One (config, seed) run; a solver failure keeps the partial trace."""
    t = cfg.load_problem()
    rec = Recorder(t, cfg.record_every, cfg.deterministic_timing)
    deadline = None if cfg.wall_clock_s is None else rec.started + cfg.wall_clock_s
    step = outer_step if cfg.algorithm == "cno" else STEPPERS[cfg.algorithm].step
    try:  # the start is made in the call: nothing keeps it past the first step
        state, reason = drive(t, _start(cfg, t, seed, deadline), step, cfg.tol,
                              cfg.iterations, deadline, rec.observe)
        if not rec.rows or rec.rows[-1].iteration != state.steps:
            rec.record(state)
    except SOLVER_FAILURES as exc:
        return RunRecord(cfg, seed, rec.rows, None, describe_failure(exc))
    return RunRecord(cfg, seed, rec.rows, state.model,
                     "budget" if reason == "max_steps" else reason)


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_atomic(path, lines) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
        "label": record.config.label,
        "algorithm": record.config.algorithm,
        "seed": record.seed,
        "rows": len(record.rows),
        "final_rel_error": record.final_rel_error,
        "best_rel_error": record.best_rel_error,
        "termination": record.termination,
    }
    _write_atomic(path, (f"{k} = {v}" for k, v in entries.items()))


def run(cfg: RunConfig) -> list[RunRecord]:
    """Run every seed of the config, writing one CSV + summary per seed; an
    output directory it could not write is refused before the first solve."""
    out = cfg.resolved_output_dir()
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


def compare(cfgs: list[RunConfig]) -> list[CompareRow]:
    """Run each config over its seeds; summarize final relative errors.

    Failed runs are counted and excluded; rows come back sorted by label so
    the table content does not depend on config order.
    """
    if not cfgs:
        raise ConfigError("compare needs at least one run config")
    rows = []
    for cfg in cfgs:
        finals, failed = [], 0
        for seed in cfg.seeds:
            record = run_single(cfg, seed)
            if record.failed:
                failed += 1
            else:
                finals.append(record.final_rel_error)
        spread = [np.nan] * 3
        if finals:
            spread = [statistics.median(finals), min(finals), max(finals)]
        rows.append(CompareRow(cfg.label, *spread, len(finals), failed))
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


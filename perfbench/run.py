"""neurocpd benchmark: one workload per process, closed loop, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload d9-single --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload's fixed rounds with tracing off and reports
the end-to-end metrics. ``--trace 1`` wraps every public ``neurocpd``
function from outside, alternates untraced and traced rounds on the same
inputs, and reports the per-layer metrics. Every solve goes through
``neurocpd.bench.run`` (the entry point of ``neurocpd run``) and its output
is checked against an independent plain numpy computation; a solve that
raises or fails the check counts as failed. The rounds of a run are fixed
per workload (see ``workloads.py``); ``--seconds`` only caps a run: one
whose rounds take more than ``CAP_FACTOR`` times that long stops early and
is reported incorrect. End-to-end times of calibrated workloads are
reference seconds (``measure.Calibration``); per-layer times are measured
seconds.

A table of every metric goes to standard output, a results file with the
machine block, per-solve records, seeds and the layer map to
``perfbench/out/``, and the last line of standard output is the JSON
result. The program is imported from ``src/`` of the checkout and nowhere
else; without it the run exits with an error before measuring.
"""

import os
import time

T_START = time.perf_counter()
# One BLAS thread, set before numpy is imported: with two threads on two
# cores the timings measure the scheduler, not the program.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401
import yaml  # noqa: E402,F401

from layers import LAYER_MAP, PROBES, is_count, round_layers  # noqa: E402
from measure import Calibration, check_model, median, tail  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEEDS, HELD_OUT_SEED, WORKLOADS, round_seeds  # noqa: E402

#: Third-party imports (about 0.35 s here) are paid once per process, so
#: they give one sample that no change to the program moves and would hide a
#: doubling of the program's own set-up; they go to the results file, not
#: into setup_s.
IMPORT_S = time.perf_counter() - T_START

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "neurocpd"
SETUP_REPS = 21
CAP_FACTOR = 2


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Fresh import of the package from ``src/``; returns its ``bench``,
    ``datagen`` and ``tensor_io`` modules."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / PACKAGE} not found; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise SystemExit(f"error: imported {pkg.__file__}, not the checkout's")
    return tuple(
        importlib.import_module(f"{PACKAGE}.{m}") for m in ("bench", "datagen", "tensor_io")
    )


@dataclasses.dataclass
class Program:
    bench: object
    datagen: object
    templates: list  # one RunConfig per solve of a round
    tensor: object = None  # the file workload's tensor


def set_up(workload, seed, work: Path) -> Program:
    """One set-up as ``setup_s`` times it: a fresh import of the program,
    the problem file and the run configs."""
    bench, datagen, tensor_io = import_program()
    problem_seed, _ = round_seeds(workload, seed, 0)
    if workload.from_file:
        tensor, _ = datagen.gen_problem(workload.problem, problem_seed)
        path = work / f"{workload.problem}.bin"
        tensor_io.save_tensor(path, tensor)
        problem = {"path": str(path)}
    else:
        tensor, problem = None, {"kind": workload.problem, "seed": problem_seed}
    templates = [
        bench.RunConfig.from_dict(
            {
                "problem": problem,
                "rank": workload.rank,
                "algorithm": s.algorithm,
                "budget": {"iterations": s.iterations},
                "params": dict(s.params),
                "record_every": workload.record_every,
                "seeds": [0],
                "output_dir": str(work / "solves"),
            }
        )
        for s in workload.solves
    ]
    return Program(bench, datagen, templates, tensor)


class Runner:
    """Runs rounds of a workload and checks every solve."""

    def __init__(self, workload, program: Program, seed):
        self.w = workload
        self.p = program
        self.seed = seed
        self._tensor = (None, None)  # (problem seed, tensor) of the last round
        self.tracer = None  # set in traced runs; active only inside solves
        # sampled before the first solve and after every solve of a
        # calibrated workload
        self.cal = Calibration() if workload.calibrated else None

    def tensor(self, problem_seed):
        if self.p.tensor is not None:
            return self.p.tensor
        if self._tensor[0] != problem_seed:
            tensor, _ = self.p.datagen.gen_problem(self.w.problem, problem_seed)
            self._tensor = (problem_seed, tensor)
        return self._tensor[1]

    def run_round(self, k: int, traced: bool = False) -> list[dict]:
        problem_seed, init_seed = round_seeds(self.w, self.seed, k)
        out = []
        for template in self.p.templates:
            cfg = dataclasses.replace(template, seeds=[init_seed])
            if not self.w.from_file:
                cfg = dataclasses.replace(cfg, problem_seed=problem_seed)
            record, failure = None, None
            if traced:
                self.tracer.active = True
            t0 = time.perf_counter()
            try:
                record = self.p.bench.run(cfg)[0]
            except Exception as exc:  # any raise is a failed solve, not a crash
                failure = "".join(traceback.format_exception_only(exc)).strip()
            wall = time.perf_counter() - t0
            if traced:
                self.tracer.active = False
            if self.cal:
                self.cal.sample()
            if failure is None:
                if record.failed or record.final_model is None:
                    failure = record.termination
                else:
                    failure = check_model(
                        self.tensor(problem_seed),
                        record.final_model.factors,
                        record.final_rel_error,
                    )
            ttt = None
            if failure is None:
                ttt = next(
                    (r.wall_ms / 1e3 for r in record.rows if r.rel_error <= self.w.target),
                    None,
                )
            out.append(
                {
                    "round": k,
                    "algorithm": cfg.algorithm,
                    "problem_seed": problem_seed,
                    "init_seed": init_seed,
                    "wall_s": wall,
                    "final_rel_error": None if failure else record.final_rel_error,
                    "time_to_target_s": ttt,
                    "failure": failure,
                }
            )
        return out


def machine_block() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "pinning": "CPUs cannot be pinned and frequency cannot be fixed here",
    }


def end_to_end(solves, setup_s) -> tuple[dict, dict]:
    """The nine end-to-end metrics and the facts behind the tail figure.
    Each solve's measured seconds are multiplied by its
    ``reference_factor`` (see ``Calibration``), set-up's by their median."""
    ok = [s for s in solves if s["failure"] is None]
    times = [s["wall_s"] * s["reference_factor"] for s in solves]
    rounds = {}
    for s, t in zip(solves, times):
        rounds[s["round"]] = rounds.get(s["round"], 0.0) + t
    hits = [
        s["time_to_target_s"] * s["reference_factor"]
        for s in ok
        if s["time_to_target_s"] is not None
    ]
    factor = median([s["reference_factor"] for s in solves])
    tail_value, pct, n = tail(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s * factor, "s"),
        "wall_s": (median(rounds.values()), "s"),
        "solve_s.p50": (median(times), "s"),
        "solve_s.tail": (tail_value, "s"),
        "time_to_target_s.p50": (median(hits) if hits else None, "s"),
        "target_hit_frac": (len(hits) / len(solves), "1"),
        "final_rel_error.p50": (
            median([s["final_rel_error"] for s in ok]) if ok else None, "1"
        ),
        "failed_frac": ((len(solves) - len(ok)) / len(solves), "1"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    facts = {
        "solve_s.tail": {"percentile": pct, "samples": n},
        "solves": len(solves),
        "rounds": len(rounds),
        "reference_factor.p50": factor,
    }
    return metrics, facts


def overrun(started, seconds) -> str | None:
    elapsed = time.perf_counter() - started
    if elapsed > CAP_FACTOR * seconds:
        return f"rounds overran {CAP_FACTOR} x --seconds {seconds:g} ({elapsed:.1f} s); run cut"
    return None


def measure_untraced(runner, seconds):
    """The workload's fixed rounds, stopped early (and reported) only if
    they overrun the cap."""
    solves = []
    started = time.perf_counter()
    for k in range(runner.w.rounds):
        solves.extend(runner.run_round(k))
        cut = overrun(started, seconds)
        if cut:
            return solves, cut
    return solves, None


def measure_traced(runner, seconds):
    """The workload's fixed number of pairs of an untraced and a traced
    round, all on round 0's inputs."""
    tracer = Tracer(PROBES)
    runner.tracer = tracer
    plain, traced, per_round, finals, failures = [], [], [], [], []
    cut = None
    started = time.perf_counter()
    for _ in range(runner.w.trace_pairs):
        batch = runner.run_round(0)
        tracer.install(PACKAGE)
        before, lo = tracer.counters.copy(), tracer.mark()
        batch_t = runner.run_round(0, traced=True)
        per_round.append(round_layers(tracer, lo, tracer.mark(), tracer.counters - before))
        tracer.uninstall()
        plain.append(sum(s["wall_s"] for s in batch))
        traced.append(sum(s["wall_s"] for s in batch_t))
        finals += [[s["final_rel_error"] for s in b] for b in (batch, batch_t)]
        failures += [s for s in batch + batch_t if s["failure"]]
        cut = overrun(started, seconds)
        if failures or cut:
            break
    return tracer, plain, traced, per_round, finals, failures, cut


def layer_metrics(plain, traced, per_round) -> tuple[dict, list[str]]:
    """Per-layer figures: counts from the first traced round (and checked
    equal in the others), times as medians over traced rounds."""
    problems = []
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if is_count(name):
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    metrics["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    return metrics, problems


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith((".calls", ".accepted", ".trials", ".spans")):
        return "count"
    if name.endswith("per_outer"):
        return "steps/outer"
    return "1"


def contract_metrics(trace: int) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv=None) -> int:
    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    contract = contract_metrics(args.trace)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        reps = []
        for _ in range(SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            program = set_up(workload, args.seed, work)
            reps.append(time.perf_counter() - t0)
        setup_s = median(reps)
        runner = Runner(workload, program, args.seed)
        if args.trace:
            tracer, plain, traced, per_round, finals, failures, cut = measure_traced(
                runner, args.seconds
            )
            metrics, problems = layer_metrics(plain, traced, per_round)
            if any(f != finals[0] for f in finals):
                problems.append(f"final errors differ between rounds: {finals}")
            problems += [f"{s['algorithm']}: {s['failure']}" for s in failures]
            table = {k: (v, layer_unit(k)) for k, v in metrics.items()}
            attempted = sum(len(f) for f in finals)
            failed = len(failures)
            facts = {"untraced_rounds": plain, "traced_rounds": traced,
                     "per_round": per_round}
            tracer.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
            solves = []
        else:
            solves, cut = measure_untraced(runner, args.seconds)
            factors = runner.cal.solve_factors() if runner.cal else [1.0] * len(solves)
            for s, f in zip(solves, factors):
                s["reference_factor"] = f
            table, facts = end_to_end(solves, setup_s)
            attempted = len(solves)
            failed = sum(s["failure"] is not None for s in solves)
            problems = [f"{s['algorithm']}: {s['failure']}" for s in solves if s["failure"]]
        if cut:
            problems.append(cut)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name, _ in contract if table.get(name, (None,))[0] is None]
    if missing:
        problems.append(f"no value for {missing}")
    width = max(len(k) for k in table)
    for name, (value, unit) in table.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<{width}}  {shown:>14} {unit}")
    for line in problems:
        print(f"problem: {line}")
    results = {
        "workload": args.workload,
        "why": workload.why,
        "target": workload.target,
        "seed": args.seed,
        "third_party_import_s": IMPORT_S,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "facts": facts,
        "problems": problems,
        "solves": solves,
        "default_seeds": DEFAULT_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "layer_map": LAYER_MAP,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    final = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": table[name][0] if name in table else None, "unit": unit}
            for name, unit in contract
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

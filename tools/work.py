"""Deterministic work counts of one round of each benchmark workload.

Usage, from the root of a checkout:

    python tools/work.py > a.json
    python tools/work.py --compare a.json b.json

The first form runs round 0 of every workload of ``perfbench/workloads.py``
(read, never changed) once, untimed, each solve one ``neurocpd.bench.run``
call as the benchmark makes it, and prints one JSON object. For each solve
it gives the Python calls and the calls of C functions that
``sys.setprofile`` sees, and, from a second run of the same solve, the peak
bytes that ``tracemalloc`` traced. The second form prints the counts that
rose from file A to file B, with both values, and exits 1 if a call count
rose.

Call counts repeat exactly on one machine and are the no-regression evidence
for a change that claims no gain: a refactor whose counts do not rise does
no more work. They do not measure time: a C call that runs a GEMM counts one,
like one that reads an attribute. Peak bytes may differ by a few bytes
between runs. The package is imported from ``src/`` next to this script, so
running the script inside another checkout counts that checkout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy is imported

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from neurocpd import bench, datagen, tensor_io  # noqa: E402

CALLS = ("python_calls", "c_calls")


def load_workloads():
    """The benchmark's ``workloads`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def round_configs(workloads, workload, seed: int, scratch: Path):
    """The run configs of round 0 of ``workload`` at ``seed``, as the
    benchmark makes them; a file workload's tensor is written first."""
    problem_seed, init_seed = workloads.round_seeds(workload, seed, 0)
    problem = {"kind": workload.problem, "seed": problem_seed}
    if workload.from_file:
        tensor, _ = datagen.gen_problem(workload.problem, problem_seed)
        path = scratch / f"{workload.problem}.bin"
        tensor_io.save_tensor(path, tensor)
        problem = {"path": str(path)}
    for solve in workload.solves:
        yield solve.algorithm, bench.RunConfig.from_dict({
            "problem": problem, "rank": workload.rank, "algorithm": solve.algorithm,
            "budget": {"iterations": solve.iterations}, "params": dict(solve.params),
            "record_every": workload.record_every, "seeds": [init_seed],
            "output_dir": str(scratch / "solves"),
        })


def count_calls(cfg) -> dict:
    """Python and C calls of one ``bench.run`` of ``cfg``."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        bench.run(cfg)
    finally:
        sys.setprofile(None)
    return {"python_calls": counts["call"], "c_calls": counts["c_call"]}


def peak_bytes(cfg) -> int:
    """The peak of the bytes ``tracemalloc`` traced over one ``bench.run``."""
    tracemalloc.start()
    try:
        bench.run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def work(seed: int) -> dict:
    """``{"<workload>/<algorithm>/<count>": value}`` of every solve of round 0."""
    workloads, out = load_workloads(), {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, workload in workloads.WORKLOADS.items():
            for algorithm, cfg in round_configs(workloads, workload, seed, Path(scratch)):
                key = f"{name}/{algorithm}"
                for count, value in count_calls(cfg).items():
                    out[f"{key}/{count}"] = value
                out[f"{key}/tracemalloc_peak_bytes"] = peak_bytes(cfg)
    return out


def compare(path_a, path_b) -> int:
    """Print the counts that rose from ``path_a`` to ``path_b``; 1 if a call
    count rose."""
    a, b = (json.loads(Path(p).read_text())["counts"] for p in (path_a, path_b))
    risen = False
    for key in sorted(a.keys() | b.keys()):
        old, new = a.get(key), b.get(key)
        if old is None or new is None:
            print(f"{key}: only in {path_a if new is None else path_b}")
            risen = True
        elif new > old:
            print(f"{key}: {old} -> {new} (+{new - old}, {(new - old) / old:+.2%})")
            risen = risen or key.endswith(CALLS)
    return int(risen)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, help="benchmark seed of round 0")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print the counts that rose from file A to file B")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    out = {"seed": args.seed, "counts": work(args.seed)}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

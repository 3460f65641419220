"""Bitwise digests of a fixed matrix of neurocpd runs.

Usage, from the root of a checkout:

    python tools/digest.py > a.json
    python tools/digest.py --compare a.json b.json

The first form runs every entry of the matrix below through
``neurocpd.bench.run_single`` with deterministic timing and prints one JSON
line per entry: its name, the sha256 of the final factors and of the trace
CSV that ``neurocpd.bench.write_csv`` writes, the termination, the step count
of the last trace row and the final ``rel_error``. The second form prints the
entries whose digest or termination moved between two such files (and those
present in only one), each with its final ``rel_error`` on both sides and their
relative difference, and exits 1 if there are any.

The package is imported from ``src/`` next to this script, so running the
script inside another checkout digests that checkout. Hashes depend on the
BLAS build and the CPU; compare files made on one machine only.

The matrix: on easy5, difficult9 and caseI, two seeds each,

* ``flow`` at its defaults, with ``ridge: 1e-6`` and with
  ``precondition: false``, and at ``tol`` 1e-2;
* ``barrier-flow`` with Euler, with RK4, with a gamma decay and an
  explicit ridge, at ``tol`` 1e-2, and failing by a boundary stall and by a
  gamma schedule that underflows;
* ``dtpnn-explicit``, ``dtpnn-semiimplicit`` and ``dtpnn-armijo``, the last
  also at ``tol`` 1e-3;
* ``hals`` and ``mur``, each also at ``tol`` 1e-2, where every sweep first
  measures the KKT residual;
* ``dtpnn-explicit`` at step sizes 0.3, 0.5 and 0.9, each with and without
  ``precondition``, and ``dtpnn-semiimplicit`` at 0.5 and 2.5;
* ``dtpnn-explicit`` (step size 0.5) and ``dtpnn-semiimplicit`` at ``tol``
  1e-4 and 1e-6, where they stop on the KKT residual, within 4000 steps;
* ``cno`` with flow particles (at the default ``inner_tol`` and at 1e-2),
  with barrier-flow particles, with barrier-flow particles that all fail,
  and with one flow particle;
* ``cno`` with ``dtpnn-explicit`` (step size 0.5), ``dtpnn-semiimplicit``
  and ``dtpnn-armijo`` particles, one and four of each;

plus the easy5 swarm whose particles diverge (``step: 1.5`` without
preconditioning) at seeds 0 and 3, and the barrier swarms of
``BARRIER_SWARMS``, two outer iterations each:

* caseII (rank 10, seeds 0 and 1) on criterion 8's schedule (``gamma``
  1e-3 halved every 120 inner steps, ``inner_tol`` 1e-9), cut to 300 inner
  steps, with one and with five particles;
* the same five-particle caseII swarm, seed 0, with RK4 for 100 inner steps;
* easy5 seed 0 with three particles at ``step: 1.0`` for 20 inner steps,
  whose particles halve their step on different inner steps: a spy on the
  halvings of the one-particle-at-a-time solves found the three particles of
  the first outer iteration halving on steps 0-4, 13 and 18, on 0-2, and on
  1-2.

and medium70 (70^3, rank 75, seed 0), the size at which a BLAS kernel that
rounds differently at large shapes shows: ``flow`` for 20 steps, ``mur`` for
20 sweeps, ``hals`` for 5 sweeps, and a two-particle flow swarm for one outer
iteration of 10 inner steps. medium70 has full multilinear rank, so that
swarm steps the dense stack, both particles' factors side by side.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one BLAS thread, set before numpy is imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from neurocpd.bench import RunConfig, run_single, write_csv  # noqa: E402

PROBLEMS = (("easy5", 3, 200), ("difficult9", 10, 200), ("caseI", 10, 60))
SEEDS = (0, 1)
SINGLE = (
    ("flow", "flow", {}, 0.0),
    ("flow-ridge", "flow", {"ridge": 1e-6}, 0.0),
    ("flow-plain", "flow", {"precondition": False}, 0.0),
    ("flow-tol", "flow", {}, 1e-2),
    ("barrier-euler", "barrier-flow", {}, 0.0),
    ("barrier-rk4", "barrier-flow", {"integrator": "rk4"}, 0.0),
    ("barrier-decay", "barrier-flow",
     {"gamma": 1e-2, "gamma_decay": 0.5, "decay_every": 20, "ridge": 1e-6}, 0.0),
    ("barrier-tol", "barrier-flow", {}, 1e-2),
    ("barrier-stall", "barrier-flow", {"step": 1e12}, 0.0),
    ("barrier-gamma", "barrier-flow", {"gamma_decay": 1e-200, "decay_every": 1}, 0.0),
    ("dtpnn-explicit", "dtpnn-explicit", {}, 0.0),
    ("dtpnn-semiimplicit", "dtpnn-semiimplicit", {}, 0.0),
    ("dtpnn-armijo", "dtpnn-armijo", {}, 0.0),
    ("dtpnn-armijo-tol", "dtpnn-armijo", {}, 1e-3),
    ("hals", "hals", {}, 0.0),
    ("hals-tol", "hals", {}, 1e-2),
    ("mur", "mur", {}, 0.0),
    ("mur-tol", "mur", {}, 1e-2),
    *((f"dtpnn-explicit-{lam}{plain}", "dtpnn-explicit",
       {"lambdas": [lam] * 3, **({"precondition": False} if plain else {})}, 0.0)
      for lam in (0.3, 0.5, 0.9) for plain in ("", "-plain")),
    *((f"dtpnn-semiimplicit-{lam}", "dtpnn-semiimplicit", {"lambdas": [lam] * 3},
       0.0) for lam in (0.5, 2.5)),
)
#: run for up to 4000 steps, so that most stop at their ``tol``
KKT_STOPS = tuple(
    (f"{name}-tol-{tol:g}", name, params, tol)
    for name, params in (("dtpnn-explicit", {"lambdas": [0.5] * 3}),
                         ("dtpnn-semiimplicit", {}))
    for tol in (1e-4, 1e-6)
)
SWARMS = (
    ("cno-flow", {"population": 4, "inner_max_steps": 30}),
    ("cno-flow-tol", {"population": 4, "inner_max_steps": 30, "inner_tol": 1e-2}),
    ("cno-barrier", {"population": 3, "inner_solver": "barrier-flow",
                     "inner_max_steps": 20}),
    ("cno-barrier-stall", {"population": 3, "inner_solver": "barrier-flow",
                           "inner_max_steps": 20, "inner_params": {"step": 1e12}}),
    ("cno-one", {"population": 1, "inner_max_steps": 30}),
    *((f"cno-{kind}-{population}", {
        "population": population, "inner_solver": kind, "inner_max_steps": 30,
        "inner_params": {"lambdas": [0.5] * 3} if kind == "dtpnn-explicit" else {},
    }) for kind in ("dtpnn-explicit", "dtpnn-semiimplicit", "dtpnn-armijo")
      for population in (1, 4)),
)
DIVERGING = {"population": 4, "inner_max_steps": 30,
             "inner_params": {"step": 1.5, "precondition": False}}
CASE_II = {"inner_solver": "barrier-flow", "inner_tol": 1e-9, "inner_max_steps": 300,
           "inner_params": {"gamma": 1e-3, "gamma_decay": 0.5, "decay_every": 120}}
#: (name, problem, rank, seed, swarm params) of the barrier swarms
BARRIER_SWARMS = (
    *((f"caseII/{seed}/cno-barrier-{population}", "caseII", 10, seed,
       {**CASE_II, "population": population})
      for seed in SEEDS for population in (1, 5)),
    ("caseII/0/cno-barrier-rk4-5", "caseII", 10, 0,
     {**CASE_II, "population": 5, "inner_max_steps": 100,
      "inner_params": {**CASE_II["inner_params"], "integrator": "rk4"}}),
    ("easy5/0/cno-barrier-halving", "easy5", 3, 0,
     {"population": 3, "inner_solver": "barrier-flow", "inner_max_steps": 20,
      "inner_params": {"step": 1.0}}),
)
#: (name, algorithm, params, iterations) of the medium70 seed-0 entries
MEDIUM70 = (
    ("flow", "flow", {}, 20),
    ("mur", "mur", {}, 20),
    ("hals", "hals", {}, 5),
    ("cno-flow-2", "cno", {"population": 2, "inner_max_steps": 10}, 1),
)


def matrix():
    """(name, problem, rank, raw run config, seed) of every entry, in order."""
    for kind, rank, iterations in PROBLEMS:
        for seed in SEEDS:
            problem = {"kind": kind, "seed": seed}
            for entries, steps in ((SINGLE, iterations), (KKT_STOPS, 4000)):
                for name, algorithm, params, tol in entries:
                    raw = {"algorithm": algorithm, "params": params, "tol": tol,
                           "budget": {"iterations": steps}}
                    yield f"{kind}/{seed}/{name}", problem, rank, raw, seed
            for name, params in SWARMS:
                raw = {"algorithm": "cno", "params": params,
                       "budget": {"iterations": 3}}
                yield f"{kind}/{seed}/{name}", problem, rank, raw, seed
    for seed in (0, 3):
        raw = {"algorithm": "cno", "params": DIVERGING, "budget": {"iterations": 2}}
        problem = {"kind": "easy5", "seed": 0}
        yield f"easy5/0/cno-diverging-{seed}", problem, 3, raw, seed
    for name, kind, rank, seed, params in BARRIER_SWARMS:
        raw = {"algorithm": "cno", "params": params, "budget": {"iterations": 2}}
        yield name, {"kind": kind, "seed": seed}, rank, raw, seed
    for name, algorithm, params, iterations in MEDIUM70:
        raw = {"algorithm": algorithm, "params": params,
               "budget": {"iterations": iterations}}
        yield f"medium70/0/{name}", {"kind": "medium70", "seed": 0}, 75, raw, 0


def _relative_change(old, new) -> float:
    """``|new - old| / |old|`` of two final errors (0 when both are 0)."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else float("inf")


def digest(name, problem, rank, raw, seed, scratch: Path) -> dict:
    cfg = RunConfig.from_dict({**raw, "problem": problem, "rank": rank,
                               "seeds": [seed], "deterministic_timing": True})
    record = run_single(cfg, seed)
    path = scratch / "trace.csv"
    write_csv(record, path)
    sha = hashlib.sha256(path.read_bytes())
    if record.final_model is not None:
        for f in record.final_model.factors:
            sha.update(f.tobytes(order="C"))
    return {
        "name": name,
        "sha256": sha.hexdigest(),
        "termination": record.termination,
        "steps": record.rows[-1].iteration if record.rows else 0,
        "rel_error": record.final_rel_error,
    }


def compare(a_path, b_path) -> int:
    def load(path):
        lines = Path(path).read_text().splitlines()
        return {e["name"]: e for e in map(json.loads, filter(None, lines))}

    a, b = load(a_path), load(b_path)
    moved = 0
    for name in list(a) + [n for n in b if n not in a]:
        old, new = a.get(name), b.get(name)
        if old is None or new is None:
            print(f"{name}: only in {a_path if new is None else b_path}")
        elif (old["sha256"], old["termination"]) != (new["sha256"], new["termination"]):
            print(f"{name}: rel_error {old['rel_error']!r} -> {new['rel_error']!r} "
                  f"(relative change {_relative_change(old['rel_error'], new['rel_error']):.3g}), "
                  f"termination {old['termination']} -> {new['termination']}")
        else:
            continue
        moved += 1
    print(f"{moved} of {len(set(a) | set(b))} entries moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="print the entries that moved from file A to file B")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as scratch:
        for entry in matrix():
            print(json.dumps(digest(*entry, Path(scratch))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

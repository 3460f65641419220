"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from neurocpd.baselines import hals_sweep, mur_sweep
from neurocpd.bench import RunConfig, run_single, write_csv
from neurocpd.datagen import gen_problem
from neurocpd.dtpnn import (
    DtpnnState,
    lyapunov_trace,
    solve as dtpnn_solve,
    step_gauss_seidel_armijo,
    step_size_bound,
)
from neurocpd.flow import FlowState, flow_step, solve_to_equilibrium
from neurocpd.model import (
    barrier_gradient,
    barrier_objective,
    gradient,
    gradients,
    kkt_residual,
    objective,
    projection_bundle,
)
from neurocpd.solvers import STEPPERS
from neurocpd.swarm import (
    SwarmConfig,
    SwarmState,
    cno_run,
    diversity,
    initial_model,
)
from neurocpd.tensor_ops import (
    KruskalModel,
    hadamard_gram,
    khatri_rao_list,
    kruskal_full,
    mttkrp,
    relative_error,
    unfold,
)


def report(num, text):
    print(f"PASS criterion {num}: {text}")


# --------------------------------------------------------------------------
# 1. kernel oracles
# --------------------------------------------------------------------------


def test_criterion_01_kernel_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    for trial in range(50):
        shape = tuple(rng.integers(2, 7, size=3))
        rank = int(rng.integers(1, 5))
        model = KruskalModel([rng.random((d, rank)) for d in shape])
        t = rng.random(shape)
        for mode in range(3):
            others = [m for m in range(3) if m != mode]
            kr = khatri_rao_list([model.factors[m] for m in reversed(others)])
            assert np.abs(hadamard_gram(model, mode) - kr.T @ kr).max() <= 1e-12
            assert np.abs(mttkrp(t, model, mode) - unfold(t, mode) @ kr).max() <= 1e-12
        full = kruskal_full(model)
        loop = np.zeros(shape)
        for r in range(rank):
            loop += np.einsum(
                "i,j,k->ijk",
                model.factors[0][:, r],
                model.factors[1][:, r],
                model.factors[2][:, r],
            )
        assert np.abs(full - loop).max() <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"kernel oracles on 50 instances, max dev <= 1e-12 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 2. gradient correctness
# --------------------------------------------------------------------------


def central_fd(func, model, mode, h=1e-6):
    base = model.factors[mode]
    out = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        for sign in (+1, -1):
            probe = model.copy()
            probe.factors[mode][idx] += sign * h
            out[idx] += sign * func(probe)
    return out / (2 * h)


def test_criterion_02_gradients_vs_finite_differences():
    started = time.perf_counter()
    gamma = 1e-2
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = rng.random((4, 4, 4))
        model = KruskalModel([rng.random((4, 3)) for _ in range(3)])
        interior = KruskalModel([0.1 + 0.9 * rng.random((4, 3)) for _ in range(3)])
        for mode in range(3):
            g = gradient(t, model, mode)
            fd = central_fd(lambda m: objective(t, m), model, mode)
            assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)
            gb = barrier_gradient(t, interior, mode, gamma)
            fdb = central_fd(lambda m: barrier_objective(t, m, gamma), interior, mode)
            assert np.linalg.norm(gb - fdb) <= 1e-6 * np.linalg.norm(fdb)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(2, f"plain and barrier gradients match FD on 20 instances ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 3. Armijo monotonicity
# --------------------------------------------------------------------------


def test_criterion_03_armijo_monotone_2000_iterations():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        t = rng.random((4, 4, 4))
        s = DtpnnState(
            KruskalModel([rng.random((4, 3)) for _ in range(3)]), precondition=False
        )
        history = []
        for _ in range(2000):
            s = step_gauss_seidel_armijo(t, s)
            history.append(s.objective)
        hist = np.array(history)
        assert len(hist) == 2000
        violations += int(((hist[1:] - hist[:-1]) > 1e-12).sum())
    assert violations == 0
    report(3, "objective non-increasing over 2000 iterations x 20 seeds")


# --------------------------------------------------------------------------
# 4. nonnegativity invariance
# --------------------------------------------------------------------------


def test_criterion_04_nonnegativity_invariance():
    checks = 0
    for seed in range(5):
        t, _ = gen_problem("easy5", seed)
        init = initial_model(t.shape, 3, seed)
        fs = FlowState(init.copy(), step=0.4)
        states = [
            STEPPERS["dtpnn-semiimplicit"].make_state(
                init.copy(), {"lambdas": [0.8] * 3}, seed),
            STEPPERS["dtpnn-explicit"].make_state(
                init.copy(), {"lambdas": [0.15] * 3, "precondition": False}, seed),
            DtpnnState(init.copy()),
        ]
        for _ in range(150):
            fs = flow_step(t, fs)
            states[0] = flow_step(t, states[0])
            states[1] = flow_step(t, states[1])
            states[2] = step_gauss_seidel_armijo(t, states[2])
            for model in [fs.model] + [s.model for s in states]:
                for f in model.factors:
                    assert f.min() >= 0.0
                    checks += 1
    report(4, f"all {checks} factor iterates entrywise >= 0")


# --------------------------------------------------------------------------
# 5. equilibrium equivalence (continuous vs discrete)
# --------------------------------------------------------------------------


def test_criterion_05_equilibrium_equivalence():
    t, _ = gen_problem("easy5", 7)
    init = initial_model(t.shape, 3, 7)
    fs = FlowState(init.copy(), step=0.4)
    fs, reason_f = solve_to_equilibrium(t, fs, tol=1e-8, max_steps=60000)
    ds = STEPPERS["dtpnn-explicit"].make_state(init.copy(), {"lambdas": [0.5] * 3}, 7)
    ds, reason_d = solve_to_equilibrium(t, ds, tol=1e-8, max_steps=60000)
    assert reason_f == "converged" and reason_d == "converged"
    kkts = []
    for model in (fs.model, ds.model):
        # discrete-side residual map
        kkts.append(kkt_residual(t, model))
        # continuous-side residual map (plain flow rhs, no preconditioning)
        rhs = projection_bundle(t, model, False, None)[0]
        kkts.append(max(np.abs(r).max() for r in rhs))
    assert max(kkts) < 1e-6
    report(5, f"cross-evaluated KKT residuals {max(kkts):.2e} < 1e-6")


# --------------------------------------------------------------------------
# 6. exact recovery on rank-5 9x9x9
# --------------------------------------------------------------------------


def test_criterion_06_exact_recovery():
    started = time.perf_counter()
    armijo_ok = cno_ok = 0
    for seed in range(10):
        t, _ = gen_problem("easy9", seed)
        s = DtpnnState(initial_model(t.shape, 5, seed))
        s, _ = dtpnn_solve(t, s, tol=1e-9, max_steps=5000)
        armijo_ok += relative_error(t, s.model) <= 1e-3
        cfg = SwarmConfig(population=5, seed=seed, max_outer=10, inner_max_steps=500)
        _, trace = cno_run(t, 5, cfg)
        cno_ok += trace[-1].rel_error <= 1e-3
    elapsed = time.perf_counter() - started
    assert armijo_ok >= 9
    assert cno_ok >= 9
    assert elapsed < 120.0
    report(6, f"armijo {armijo_ok}/10, cno {cno_ok}/10 reach 1e-3 ({elapsed:.0f}s)")


# --------------------------------------------------------------------------
# 7. Example-1 regime: flow vs better of HALS / MUR
# --------------------------------------------------------------------------


def test_criterion_07_flow_beats_baselines_on_difficult9():
    wins = 0
    for seed in range(10):
        t, _ = gen_problem("difficult9", seed)
        init = initial_model(t.shape, 10, seed)
        fs = FlowState(init.copy())
        for _ in range(1000):
            fs = flow_step(t, fs)
        rel_flow = relative_error(t, fs.model)
        hals_model, rng = init.copy(), np.random.default_rng(seed)
        for _ in range(1000):
            hals_model = hals_sweep(t, hals_model, rng)
        mur_model = init.copy()
        for _ in range(1000):
            mur_model = mur_sweep(t, mur_model)
        best_baseline = min(
            relative_error(t, hals_model), relative_error(t, mur_model)
        )
        wins += rel_flow <= best_baseline
    assert wins >= 7
    report(7, f"continuous flow at or below best baseline on {wins}/10 seeds")


# --------------------------------------------------------------------------
# 8. Example-2 collinear regimes: CNO vs wall-matched HALS
# --------------------------------------------------------------------------


def _collinear_case(kind, seeds, swarm_kw):
    ok = 0
    for seed in seeds:
        t, _ = gen_problem(kind, seed)
        t0 = time.perf_counter()
        cfg = SwarmConfig(population=5, seed=seed, **swarm_kw)
        _, trace = cno_run(t, 10, cfg)
        budget = time.perf_counter() - t0
        rel_cno = trace[-1].rel_error
        model, rng = initial_model(t.shape, 10, seed), np.random.default_rng(seed)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < budget:
            model = hals_sweep(t, model, rng)
        rel_hals = relative_error(t, model)
        ok += rel_cno <= 1e-3 and rel_hals >= 10.0 * rel_cno
    return ok


def test_criterion_08_collinear_regimes():
    started = time.perf_counter()
    # one collinear factor: projected-flow swarm members suffice
    ok_i = _collinear_case(
        "caseI", range(10), dict(max_outer=6, inner_max_steps=250)
    )
    # two collinear factors: barrier-flow members, whose per-row diagonal
    # damping handles the near-singular Grams of this regime
    barrier_kw = dict(
        max_outer=2,
        inner_solver="barrier-flow",
        inner_params={"gamma": 1e-3, "gamma_decay": 0.5, "decay_every": 120},
        inner_max_steps=2600,
        inner_tol=1e-9,
    )
    ok_ii = _collinear_case("caseII", range(10), barrier_kw)
    assert ok_i >= 6
    assert ok_ii >= 6
    report(
        8,
        f"caseI {ok_i}/10, caseII {ok_ii}/10: cno <= 1e-3 with HALS >= 10x worse "
        f"at equal wall clock ({time.perf_counter() - started:.0f}s)",
    )


# --------------------------------------------------------------------------
# 9. population-size trend
# --------------------------------------------------------------------------


def test_criterion_09_population_size_trend():
    started = time.perf_counter()
    medians = []
    for q in (5, 10, 15, 20, 25, 30):
        finals = []
        for seed in range(10):
            t, _ = gen_problem("caseI", seed)
            cfg = SwarmConfig(population=q, seed=seed, max_outer=4,
                              inner_max_steps=80)
            _, trace = cno_run(t, 10, cfg)
            finals.append(trace[-1].rel_error)
        medians.append(float(np.median(finals)))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    assert inversions <= 1
    report(
        9,
        f"medians {['%.1e' % m for m in medians]} with {inversions} inversion(s) "
        f"({time.perf_counter() - started:.0f}s)",
    )


# --------------------------------------------------------------------------
# 10. swarm invariants
# --------------------------------------------------------------------------


def test_criterion_10_swarm_invariants():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = int(rng.integers(1, 6))
        rows = [(rng.random(8), rng.random(8), float(rng.random())) for _ in range(q)]
        positions, personal_bests, values = map(np.array, zip(*rows))
        gbest = rng.random(8)
        sw = SwarmState(positions, np.zeros((q, 8)), personal_bests, values, gbest, 0.0)
        brute = sum(np.linalg.norm(p - gbest) for p in personal_bests) / q
        assert abs(diversity(sw) - brute) <= 1e-12
    t, _ = gen_problem("easy5", 2)
    for delta in (1e12, 1e-9):
        cfg = SwarmConfig(population=3, seed=2, max_outer=4, inner_max_steps=40,
                          diversity_threshold=delta)
        _, trace = cno_run(t, 3, cfg)
        best = [r.objective for r in trace]
        assert all(b <= a for a, b in zip(best, best[1:]))
        for row in trace:
            assert row.mutated == (row.diversity < delta)
    report(10, "global-best monotone, diversity brute-force, mutation trigger")


# --------------------------------------------------------------------------
# 11. step-size diagnostic and Lyapunov behavior
# --------------------------------------------------------------------------


def _independent_c(t, model, lambdas):
    grads = gradients(t, model)
    denom, dots = 0.0, []
    for f, g, lam in zip(model.factors, grads, lambdas):
        proj = np.maximum(f - g, 0.0)
        denom += float(np.sum((f - proj) ** 2))
        gamma = np.where((f - g) >= 0.0, lam,
                         lam * f / np.where(g == 0.0, 1.0, g))
        dots.append(float(np.sum(gamma * g)))
    return (1.0 - 2.0 * sum(d * d for d in dots)) / denom


def test_criterion_11_step_bound_and_lyapunov():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = rng.random((4, 4, 4))
        model = KruskalModel([rng.random((4, 3)) for _ in range(3)])
        s = DtpnnState(model, lambdas=[0.5, 0.7, 0.9], precondition=False)
        bound = step_size_bound(t, s)
        oracle = _independent_c(t, s.model, s.lambdas)
        assert abs(bound.c - oracle) <= 1e-12 * max(1.0, abs(oracle))

    t, _ = gen_problem("easy5", 8)
    s = DtpnnState(initial_model(t.shape, 3, 8), precondition=False)
    trajectory, in_bound = [s.model], []
    for _ in range(500):
        bound = step_size_bound(t, s)
        s = step_gauss_seidel_armijo(t, s)
        trajectory.append(s.model)
        in_bound.append(
            (not bound.at_equilibrium)
            and np.isfinite(bound.lower)
            and all(bound.lower <= lam <= bound.upper for lam in s.lambdas)
        )
    trace = lyapunov_trace(trajectory, s.model)
    diffs = np.diff(trace)
    flagged = np.array(in_bound)
    assert flagged.sum() > 50
    frac = float((diffs[flagged] <= 1e-12).mean())
    assert frac >= 0.95
    report(11, f"c matches re-assembly; Lyapunov non-increasing on {frac:.1%} "
               "of within-bound steps")


# --------------------------------------------------------------------------
# 12. determinism
# --------------------------------------------------------------------------


def test_criterion_12_byte_identical_traces(tmp_path):
    for algorithm, params in [
        ("flow", {}),
        ("dtpnn-armijo", {}),
        ("cno", {"population": 3, "inner_max_steps": 30}),
    ]:
        raw = {
            "problem": {"kind": "easy5", "seed": 1},
            "algorithm": algorithm,
            "rank": 3,
            "params": params,
            "budget": {"iterations": 25 if algorithm != "cno" else 4},
            "seeds": [3],
            "output_dir": str(tmp_path),
            "deterministic_timing": True,
        }
        cfg = RunConfig.from_dict(raw)
        blobs = []
        for attempt in range(2):
            record = run_single(cfg, 3)
            path = tmp_path / f"{algorithm}_{attempt}.csv"
            write_csv(record, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
    report(12, "repeated (config, seed) runs give byte-identical CSV traces")

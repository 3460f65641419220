import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd.baselines import DEGENERATE_EPS, HALS, hals_sweep, mur_sweep
from neurocpd.datagen import gen_problem
from neurocpd.model import kkt_residual, objective
from neurocpd.swarm import initial_model
from neurocpd.tensor_ops import (
    KruskalModel,
    hadamard_gram,
    kruskal_full,
    mttkrp,
    mttkrp_stack,
    relative_error,
    sweep_mttkrps,
)

Array = np.ndarray
logger = logging.getLogger(__name__)

#: Tolerance of the HALS comparison, fixed before comparing and relative to
#: the larger of 1 and the entry: the sweep and the reference contract the
#: same products in another order, so each column update agrees to a few
#: units in the last place, and one sweep divides by R column denominators.
HALS_TOL = 1e-10

#: Tolerance of the MTTKRP comparisons, fixed before comparing and relative
#: to the larger of 1 and the entry: each entry is a sum of at most 49
#: nonnegative products, which any summation order gets to within 49 ulps.
MTTKRP_TOL = 1e-12

shapes = st.tuples(*[st.integers(1, 7)] * 3)


def instance(shape, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.random(shape), KruskalModel.random(shape, rank, rng)


def mur_reference(t, model, eps=1e-16):
    """One multiplicative-update sweep with its own MTTKRP per block."""
    model = model.copy()
    for mode in range(model.order):
        factor = model.factors[mode]
        numer = mttkrp(t, model, mode)
        denom = factor @ hadamard_gram(model, mode) + eps
        model.factors[mode] = factor * numer / denom
    return model


_COLUMN_MTTKRP = ("ijk,j,k->i", "ijk,i,k->j", "ijk,i,j->k")


def hals_reference(t, model, rng):
    """One HALS sweep with a three-operand einsum per column update."""
    model = model.copy()
    factors = model.factors
    for r in range(model.rank):
        for mode in range(3):
            others = [f[:, r] for m, f in enumerate(factors) if m != mode]
            m_col = np.einsum(_COLUMN_MTTKRP[mode], t, *others)
            pieces = [f.T @ f[:, r] for m, f in enumerate(factors) if m != mode]
            g_col = pieces[0] * pieces[1]
            denom = g_col[r]
            numer = m_col - factors[mode] @ g_col + factors[mode][:, r] * denom
            if denom <= DEGENERATE_EPS:
                if np.abs(numer).max() <= DEGENERATE_EPS:
                    factors[mode][:, r] = 0.0
                else:
                    factors[mode][:, r] = rng.random(factors[mode].shape[0])
                continue
            factors[mode][:, r] = np.maximum(numer / denom, 0.0)
    return model


def hals_column_loop(t: Array, model: KruskalModel, rng=None) -> KruskalModel:
    """``hals_sweep`` as it stood before its Gram columns were shared within a
    column, kept verbatim: the sweep must equal it bitwise."""
    t = np.ascontiguousarray(t)
    if t.ndim != 3:
        raise ValueError("hals_sweep expects an order-3 tensor")
    if t.shape != model.shape:
        raise ValueError(f"tensor shape {t.shape} != model shape {model.shape}")
    i, j, k = t.shape
    model = model.copy()
    factors = model.factors
    # t x_3 c_r of every column, for modes 0 and 1: column r of C changes only
    # in the last update of column r, so one GEMM serves the whole sweep
    tcs = (factors[2].T @ t.reshape(i * j, k).T).reshape(model.rank, i, j)
    for r, tc in enumerate(tcs):
        a, b = factors[0][:, r], factors[1][:, r]  # views: see updates in place
        for mode in range(3):
            if mode < 2:
                m_col = tc @ b if mode == 0 else a @ tc
            else:  # the one tensor pass of the column
                m_col = b @ (a @ t.reshape(i, j * k)).reshape(j, k)
            f1, f2 = factors[mode - 2], factors[mode - 1]  # the other two factors
            g_col = (f1.T @ f1[:, r]) * (f2.T @ f2[:, r])  # column r of G skipping mode
            denom = g_col[r]
            numer = m_col - factors[mode] @ g_col + factors[mode][:, r] * denom
            if denom <= DEGENERATE_EPS:
                if np.abs(numer).max(initial=0.0) <= DEGENERATE_EPS:
                    factors[mode][:, r] = 0.0
                else:
                    if rng is None:
                        rng = np.random.default_rng(0)
                    factors[mode][:, r] = rng.random(factors[mode].shape[0])
                    logger.info(
                        "hals: re-seeded degenerate column %d of factor %d", r, mode
                    )
                continue
            factors[mode][:, r] = np.maximum(numer / denom, 0.0)
    return model


def assert_bitwise(model, expected):
    for a, b in zip(model.factors, expected.factors):
        assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(shape=shapes, rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_mur_sweep_equals_per_block_mttkrps_bitwise(shape, rank, seed):
    t, model = instance(shape, rank, seed)
    for _ in range(3):
        expected = mur_reference(t, model)
        model = mur_sweep(t, model)
        for a, b in zip(model.factors, expected.factors):
            assert np.array_equal(a, b)


def test_order4_mur_sweep_falls_back_to_per_block_mttkrps():
    t, model = instance((3, 4, 2, 5), 3, 8)
    prev = objective(t, model)
    for _ in range(20):
        expected = mur_reference(t, model)
        model = mur_sweep(t, model)
        for a, b in zip(model.factors, expected.factors):
            assert np.array_equal(a, b)
        assert objective(t, model) <= prev + 1e-12
        prev = objective(t, model)


def assert_hals_close(model, expected):
    for a, b in zip(model.factors, expected.factors):
        assert (np.abs(a - b) <= HALS_TOL * np.maximum(1.0, np.abs(b))).all()


@settings(max_examples=60, deadline=None)
@given(shape=shapes, rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_hals_sweep_matches_the_einsum_formulation(shape, rank, seed):
    t, model = instance(shape, rank, seed)
    for _ in range(3):
        expected = hals_reference(t, model, np.random.default_rng(1))
        model = hals_sweep(t, model, np.random.default_rng(1))
        assert_hals_close(model, expected)


def test_hals_rank1_recovery_in_one_sweep():
    rng = np.random.default_rng(0)
    truth = KruskalModel([rng.random((6, 1)) + 0.1 for _ in range(3)])
    t = kruskal_full(truth)
    model = hals_sweep(t, KruskalModel.random(t.shape, 1, np.random.default_rng(5)))
    assert relative_error(t, model) <= 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_hals_objective_monotone_over_sweeps(seed):
    rng = np.random.default_rng(seed)
    t = rng.random((5, 5, 5))
    model = KruskalModel.random(t.shape, 3, rng)
    prev = objective(t, model)
    for _ in range(200):
        model = hals_sweep(t, model, rng)
        cur = objective(t, model)
        assert cur <= prev + 1e-12
        assert all(f.min() >= 0.0 for f in model.factors)
        prev = cur


def test_hals_zero_tensor_collapses_all_columns():
    model = KruskalModel.random((4, 4, 4), 2, np.random.default_rng(1))
    out = hals_sweep(np.zeros((4, 4, 4)), model)
    assert all((f == 0.0).all() for f in out.factors)
    assert_hals_close(out, hals_reference(np.zeros((4, 4, 4)), model, None))
    assert_bitwise(out, hals_column_loop(np.zeros((4, 4, 4)), model))


def test_hals_drops_eight_terms_of_casei_for_good_in_its_first_sweep():
    # A known defect of the baseline, pinned as it stands: from the uniform
    # start (22x the tensor's norm), the first sweep clips a_r to zero for 8
    # of the 10 terms, b_r and c_r follow, and no term comes back.
    t, _ = gen_problem("caseI", 0)
    state = HALS.make_state(initial_model(t.shape, 10, 0), {}, 0)
    dropped = []
    for sweep in range(50):
        state = HALS.step(t, state, 0.0)
        if sweep in (0, 49):
            zero = [not any(f[:, r].any() for f in state.model.factors)
                    for r in range(10)]
            dropped.append([r for r, z in enumerate(zero) if z])
    assert dropped == [list(range(8))] * 2


@pytest.mark.parametrize("rng_seed", [None, 11])
def test_hals_reseeds_a_column_whose_companions_nearly_vanish(rng_seed):
    # column 0 of B at 1e-20 makes the mode-0 denominator ~1e-40 while the
    # residual routed to column 0 of A is ~1e-20: not null, so it re-seeds
    t, model = instance((4, 5, 6), 2, 4)
    model.factors[1][:, 0] = 1e-20
    seed = 0 if rng_seed is None else rng_seed  # without a generator: stream 0
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    out = hals_sweep(t, model, rng)
    assert np.array_equal(out.factors[0][:, 0], np.random.default_rng(seed).random(4))
    assert_hals_close(out, hals_reference(t, model, np.random.default_rng(seed)))
    loop_rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    assert_bitwise(out, hals_column_loop(t, model, loop_rng))


def test_hals_shape_checks():
    model = KruskalModel([np.ones((2, 2))] * 3)
    with pytest.raises(ValueError):
        hals_sweep(np.zeros((2, 2)), KruskalModel([np.ones((2, 1))] * 2))
    with pytest.raises(ValueError):
        hals_sweep(np.zeros((3, 2, 2)), model)


def test_mur_zero_entries_stay_zero():
    rng = np.random.default_rng(2)
    t = rng.random((4, 4, 4))
    model = KruskalModel.random(t.shape, 3, rng)
    model.factors[0][1, 2] = 0.0
    for _ in range(50):
        model = mur_sweep(t, model)
        assert model.factors[0][1, 2] == 0.0
        assert all(f.min() >= 0.0 for f in model.factors)


def test_mur_exact_fit_is_fixed_point():
    rng = np.random.default_rng(3)
    truth = KruskalModel([rng.random((4, 2)) + 0.1 for _ in range(3)])
    t = kruskal_full(truth)
    out = mur_sweep(t, truth)
    for a, b in zip(out.factors, truth.factors):
        assert np.abs(a - b).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_mur_objective_monotone_over_sweeps(seed):
    rng = np.random.default_rng(seed)
    t = rng.random((5, 5, 5))
    model = KruskalModel.random(t.shape, 3, rng)
    prev = objective(t, model)
    for _ in range(500):
        model = mur_sweep(t, model)
        cur = objective(t, model)
        assert cur <= prev + 1e-12
        prev = cur


@pytest.mark.parametrize(
    "algo,seed", [("hals", 2), ("hals", 3), ("mur", 2)]
)
def test_baselines_reach_small_kkt_on_exact_data(algo, seed):
    t, _ = gen_problem("easy5", seed)
    model = KruskalModel.random(t.shape, 3, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    for _ in range(5000):
        model = hals_sweep(t, model, rng) if algo == "hals" else mur_sweep(t, model)
    assert kkt_residual(t, model) < 1e-4


def layouts(base):
    """The values of ``base`` held C-ordered, Fortran-ordered and as a
    non-contiguous view with a reversed axis."""
    i, j, k = base.shape
    big = np.zeros((i, j, k + 1))
    big[:, ::-1, 1:] = base
    return {
        "C": np.ascontiguousarray(base),
        "F": np.asfortranarray(base),
        "strided": big[:, ::-1, 1:],
    }


_STACK_MTTKRP = ("ijk,pjr,pkr->pir", "ijk,pir,pkr->pjr", "ijk,pir,pjr->pkr")


def assert_mttkrp_close(got, expected):
    assert got.shape == expected.shape
    assert (np.abs(got - expected) <= MTTKRP_TOL * np.maximum(1.0, expected)).all()


@settings(max_examples=60, deadline=None)
@given(
    shape=shapes,
    rank=st.integers(1, 6),
    count=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_contractions_read_every_tensor_layout(shape, rank, count, seed):
    rng = np.random.default_rng(seed)
    base = rng.random(shape)
    stacks = [rng.random((count, dim, rank)) for dim in shape]
    start = KruskalModel.random(shape, rank, rng)
    updates = [rng.random((dim, rank)) for dim in shape]
    for t in layouts(base).values():
        assert np.array_equal(t, base)
        for mode, got in enumerate(mttkrp_stack(t, stacks)):
            others = [f for n, f in enumerate(stacks) if n != mode]
            assert_mttkrp_close(got, np.einsum(_STACK_MTTKRP[mode], base, *others))
        # a Gauss-Seidel sweep: factor n changes before mode n + 1 is asked for
        model = start.copy()
        for mode, (_, _, got) in enumerate(sweep_mttkrps(t, model)):
            others = [f[None] for n, f in enumerate(model.factors) if n != mode]
            expected = np.einsum(_STACK_MTTKRP[mode], base, *others)[0]
            assert_mttkrp_close(got, expected)
            model.factors[mode] = updates[mode]
        out = hals_sweep(t, start, np.random.default_rng(1))
        assert_hals_close(out, hals_reference(base, start, np.random.default_rng(1)))


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_hals_reseeds_a_column_of_c_mid_sweep(layout, caplog):
    # slab k = 0 of t is zero but for t[0, 0, 0] = 1 and c_0 = e_0, so the
    # residual routed to column 0 of A is the 1e-17 in b_0[0]; a_0 comes out
    # near 1e-17, which leaves the denominators of b_0 and then c_0 below
    # DEGENERATE_EPS while their residuals are not null: both are re-seeded,
    # and column 1 is then swept against the re-seeded c_0
    rng = np.random.default_rng(5)
    base = rng.random((3, 4, 5))
    base[:, :, 0] = 0.0
    base[0, 0, 0] = 1.0
    model = KruskalModel.random(base.shape, 2, rng)
    model.factors[0][:, 0] = 0.0
    model.factors[1][:, 0] = [1e-17, 1.0, 1.0, 1.0]
    model.factors[2][:, 0] = [1.0, 0.0, 0.0, 0.0, 0.0]
    model.factors[2][0, 1] = 0.0  # c_1 orthogonal to c_0
    with caplog.at_level(logging.INFO, logger="neurocpd.baselines"):
        out = hals_sweep(layouts(base)[layout], model, np.random.default_rng(3))
    assert [r.getMessage() for r in caplog.records] == [
        "hals: re-seeded degenerate column 0 of factor 1",
        "hals: re-seeded degenerate column 0 of factor 2",
    ]
    stream = np.random.default_rng(3)
    stream.random(4)
    assert np.array_equal(out.factors[2][:, 0], stream.random(5))
    assert_hals_close(out, hals_reference(base, model, np.random.default_rng(3)))
    t = layouts(base)[layout]
    assert_bitwise(out, hals_column_loop(t, model, np.random.default_rng(3)))


@settings(max_examples=60, deadline=None)
@given(
    shape=shapes,
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    reseed=st.booleans(),
)
def test_hals_sweep_equals_the_column_loop_bitwise(shape, rank, seed, reseed):
    base, start = instance(shape, rank, seed)
    if reseed:
        # b_0 at 1e-20 leaves the mode-0 denominator of column 0 near 1e-40
        # while its residual is near 1e-20: a_0 is re-seeded mid-sweep
        start.factors[1][:, 0] = 1e-20
    for t in layouts(base).values():
        model, expected = start, start
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            model = hals_sweep(t, model, rng)
            expected = hals_column_loop(t, expected, loop_rng)
            assert_bitwise(model, expected)
        # both drew the same number of re-seeds from their streams
        assert rng.random() == loop_rng.random()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(1, 12)] * 3),
    rank=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_hals_sweep_matrix_vector_products_equal_matmul_bitwise(shape, rank, seed):
    # the sweep takes its column products with ndarray.dot; the reference
    # takes every one with @
    t, model = instance(shape, rank, seed)
    expected = model
    for _ in range(3):
        model = hals_sweep(t, model)
        expected = hals_column_loop(t, expected)
        assert_bitwise(model, expected)

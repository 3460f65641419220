import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neurocpd.datagen import gen_problem
from neurocpd.tensor_ops import (
    KruskalModel,
    frobenius_norm,
    hadamard_gram,
    hadamard_skip,
    khatri_rao,
    khatri_rao_list,
    kruskal_full,
    mttkrp,
    mttkrp_stack,
    relative_error,
    residual_fit,
    sweep_mttkrps,
    tucker_compress,
    unfold,
)


def brute_force_unfold(t, mode):
    """Index-by-index oracle for the unfolding layout."""
    shape = t.shape
    rest = [m for m in range(t.ndim) if m != mode]
    cols = int(np.prod([shape[m] for m in rest]))
    out = np.zeros((shape[mode], cols))
    for idx in np.ndindex(*shape):
        col, stride = 0, 1
        for m in rest:
            col += idx[m] * stride
            stride *= shape[m]
        out[idx[mode], col] = t[idx]
    return out


def naive_mttkrp(t, model, mode):
    others = [m for m in range(t.ndim) if m != mode]
    kr = khatri_rao_list([model.factors[m] for m in reversed(others)])
    return unfold(t, mode) @ kr


def triple_loop_full(model):
    a, b, c = model.factors
    out = np.zeros((a.shape[0], b.shape[0], c.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            for k in range(c.shape[0]):
                out[i, j, k] = sum(
                    a[i, r] * b[j, r] * c[k, r] for r in range(model.rank)
                )
    return out


def test_unfold_2x2x2_layout():
    t = np.arange(1, 9, dtype=float).reshape((2, 2, 2), order="F")
    assert np.array_equal(unfold(t, 0), [[1, 3, 5, 7], [2, 4, 6, 8]])


@pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (3, 2, 4, 2)])
def test_unfold_matches_brute_force(shape):
    t = np.random.default_rng(hash(shape) % 2**32).random(shape)
    for mode in range(len(shape)):
        assert np.array_equal(unfold(t, mode), brute_force_unfold(t, mode))


def fold(m, mode, shape):
    """The inverse of :func:`unfold`: the tensor of ``shape`` whose mode-``mode``
    unfolding is ``m``."""
    rest = tuple(s for i, s in enumerate(shape) if i != mode)
    return np.moveaxis(np.reshape(m, (shape[mode],) + rest, order="F"), 0, mode)


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 2, 4, 2), (5, 1, 3)])
def test_fold_unfold_identity(shape):
    t = np.random.default_rng(0).random(shape)
    for mode in range(len(shape)):
        assert np.array_equal(fold(unfold(t, mode), mode, shape), t)


def test_unfold_degenerate_and_errors():
    t = np.array([[[5.0]]])
    for mode in range(3):
        assert np.array_equal(unfold(t, mode), [[5.0]])
    with pytest.raises(ValueError):
        unfold(t, 3)
    with pytest.raises(ValueError):
        unfold(t, -1)


def test_khatri_rao_unit_columns():
    eye = np.eye(2)
    assert np.array_equal(
        khatri_rao(eye, eye), [[1, 0], [0, 0], [0, 0], [0, 1]]
    )


def test_khatri_rao_hand_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(khatri_rao(a, b), [[0, 2], [1, 0], [0, 4], [3, 0]])


def test_khatri_rao_per_column_kron_oracle():
    rng = np.random.default_rng(1)
    a, b = rng.random((4, 3)), rng.random((5, 3))
    out = khatri_rao(a, b)
    for r in range(3):
        assert np.array_equal(out[:, r], np.kron(a[:, r], b[:, r]))


def test_khatri_rao_single_column_is_kron():
    rng = np.random.default_rng(2)
    a, b = rng.random((3, 1)), rng.random((4, 1))
    assert np.allclose(khatri_rao(a, b)[:, 0], np.kron(a[:, 0], b[:, 0]))


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 2)), np.ones((2, 3)))


def test_hadamard_gram_orthonormal_columns():
    rng = np.random.default_rng(3)
    factors = [np.linalg.qr(rng.normal(size=(6, 4)))[0] for _ in range(3)]
    model = KruskalModel(factors)
    for skip in range(3):
        assert np.allclose(hadamard_gram(model, skip), np.eye(4), atol=1e-12)


def test_hadamard_gram_vs_explicit_khatri_rao():
    rng = np.random.default_rng(4)
    model = KruskalModel([rng.random((4, 4)), rng.random((6, 4)), rng.random((5, 4))])
    kr = khatri_rao(model.factors[2], model.factors[1])
    assert np.abs(hadamard_gram(model, 0) - kr.T @ kr).max() <= 1e-12


def test_hadamard_gram_rank1_hand_value():
    ones = np.ones((2, 1))
    model = KruskalModel([ones, ones, ones])
    assert hadamard_gram(model, 0) == pytest.approx(4.0)


def ones_seeded_hadamard_gram(model, skip, grams=None):
    """The product of the other Grams multiplied onto ones, in factor order."""
    out = np.ones((model.rank, model.rank))
    for n, f in enumerate(model.factors):
        if n != skip:
            out *= f.T @ f if grams is None else grams[n]
    return out


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_hadamard_gram_equals_the_ones_seeded_product_bitwise(dims, rank, seed):
    rng = np.random.default_rng(seed)
    model = KruskalModel([rng.normal(size=(d, rank)) for d in dims])
    grams = [f.T @ f for f in model.factors]
    kept = [g.copy() for g in grams]
    for skip in range(model.order):
        for got in (hadamard_gram(model, skip),
                    hadamard_skip(grams, skip, np.empty((rank, rank)))):
            assert np.array_equal(got, ones_seeded_hadamard_gram(model, skip, grams))
            got += 1.0  # a new array: the caller's Grams are not shared
            assert all(np.array_equal(g, k) for g, k in zip(grams, kept))


@pytest.mark.parametrize("rank", [1, 4])
def test_hadamard_gram_of_an_order1_model_is_the_empty_product(rank):
    model = KruskalModel([np.random.default_rng(rank).random((3, rank))])
    grams = [model.factors[0].T @ model.factors[0]]
    for got in (hadamard_gram(model, 0), hadamard_skip(grams, 0, np.empty((rank, rank)))):
        assert got.shape == (rank, rank) and (got == 1.0).all()


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    rank=st.integers(1, 6),
    replaced=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_reads_the_factors_as_they_stand_bitwise(dims, rank, replaced, seed):
    # a Gauss-Seidel sweep that replaces some factors and keeps others, as
    # MUR and Armijo do, against products formed afresh for each block
    rng = np.random.default_rng(seed)
    t = rng.random(dims)
    model = KruskalModel.random(dims, rank, rng)
    blocks = 0
    for mode, (gram, skip, mtt) in enumerate(sweep_mttkrps(t, model)):
        factor = model.factors[mode]
        assert np.array_equal(gram, factor.T @ factor)
        assert np.array_equal(skip, hadamard_gram(model, mode))
        assert np.array_equal(mtt, mttkrp(t, model, mode))
        if replaced[mode]:
            model.factors[mode] = rng.random(factor.shape)
        blocks += 1
    assert blocks == len(dims)


@pytest.mark.parametrize("seed", range(5))
def test_mttkrp_vs_naive(seed):
    rng = np.random.default_rng(seed)
    t = rng.random((5, 6, 7))
    model = KruskalModel([rng.random((d, 4)) for d in t.shape])
    for mode in range(3):
        assert np.abs(mttkrp(t, model, mode) - naive_mttkrp(t, model, mode)).max() <= 1e-12


#: Tolerance of the order-3 kernel against the unfold-and-Khatri-Rao oracle at
#: 30x40x50 rank 35, relative to the oracle's max-norm: fixed before comparing,
#: far above the few units of rounding two summation orders of 2000 positive
#: terms differ by.
LARGE_SHAPE_TOL = 1e-13


def _assert_near_oracle(got, t, factors, mode):
    ref = naive_mttkrp(t, KruskalModel(factors), mode)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= LARGE_SHAPE_TOL * np.abs(ref).max()


def _large_problem(count):
    # the slice GEMMs of T x_3 C round differently from one (I*J, K) GEMM at
    # this shape, while at 5x6x7 the two give the same bits
    rng = np.random.default_rng(30)
    t = rng.random((30, 40, 50))
    return t, [rng.random((count, d, 35)) for d in t.shape]


@pytest.mark.parametrize("count", [1, 2], ids=["one-model", "two-models"])
def test_mttkrp_stack_vs_naive_at_a_large_shape(count):
    t, stacks = _large_problem(count)
    got = mttkrp_stack(t, stacks)
    for mode, stack in enumerate(got):
        for p in range(count):
            _assert_near_oracle(stack[p], t, [s[p] for s in stacks], mode)


def test_compressed_mttkrp_stack_vs_naive_at_a_large_shape():
    rng = np.random.default_rng(31)
    # nonnegative, of multilinear rank (20, 25, 30) below every dimension
    core = rng.random((20, 25, 30))
    mats = [rng.random((d, r)) for d, r in zip((30, 40, 50), core.shape)]
    t = np.einsum("abc,ia,jb,kc->ijk", core, *mats)
    form = tucker_compress(t)
    assert form is not None and form.core.shape == core.shape
    stacks = [rng.random((1, d, 35)) for d in t.shape]
    for mode, stack in enumerate(mttkrp_stack(form, stacks)):
        _assert_near_oracle(stack[0], t, [s[0] for s in stacks], mode)


def test_sweep_mttkrps_vs_naive_at_a_large_shape():
    t, stacks = _large_problem(1)
    factors = [s[0] for s in stacks]
    for mode, (_, _, mtt) in enumerate(sweep_mttkrps(t, KruskalModel(factors))):
        _assert_near_oracle(mtt, t, factors, mode)


def test_mttkrp_order4_vs_naive():
    rng = np.random.default_rng(11)
    t = rng.random((3, 4, 2, 5))
    model = KruskalModel([rng.random((d, 3)) for d in t.shape])
    for mode in range(4):
        assert np.abs(mttkrp(t, model, mode) - naive_mttkrp(t, model, mode)).max() <= 1e-12


def test_mttkrp_zero_tensor():
    model = KruskalModel([np.ones((2, 3))] * 3)
    assert np.array_equal(mttkrp(np.zeros((2, 2, 2)), model, 1), np.zeros((2, 3)))


def test_mttkrp_scalar_case():
    x, a, b, c = 3.0, 2.0, 5.0, 7.0
    t = np.full((1, 1, 1), x)
    model = KruskalModel([[[a]], [[b]], [[c]]])
    assert mttkrp(t, model, 0) == pytest.approx(x * b * c)


def test_mttkrp_shape_mismatch():
    model = KruskalModel([np.ones((2, 2))] * 3)
    with pytest.raises(ValueError):
        mttkrp(np.zeros((2, 2, 3)), model, 0)


def test_mttkrp_stack_refuses_a_tensor_of_another_shape_dense_or_compressed():
    rng = np.random.default_rng(9)
    t = kruskal_full(KruskalModel.random((4, 4, 4), 2, rng))
    stack = [f[None] for f in KruskalModel.random((4, 4, 3), 2, rng).factors]
    for tensor in (t, tucker_compress(t)):
        with pytest.raises(ValueError, match=r"^tensor shape \(4, 4, 4\) != "
                                             r"model shape \(4, 4, 3\)$"):
            mttkrp_stack(tensor, stack)


def test_kruskal_full_rank1_ones():
    ones = np.ones((2, 1))
    assert np.array_equal(kruskal_full(KruskalModel([ones] * 3)), np.ones((2, 2, 2)))


def test_kruskal_full_multilinearity():
    rng = np.random.default_rng(5)
    factors = [rng.random((3, 2)) for _ in range(3)]
    whole = kruskal_full(KruskalModel(factors))
    parts = sum(
        kruskal_full(KruskalModel([f[:, r : r + 1] for f in factors]))
        for r in range(2)
    )
    assert np.abs(whole - parts).max() <= 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_kruskal_full_vs_triple_loop(seed):
    rng = np.random.default_rng(seed)
    model = KruskalModel([rng.random((4, 3)) for _ in range(3)])
    assert np.abs(kruskal_full(model) - triple_loop_full(model)).max() <= 1e-12


def test_norm_gram_identity():
    rng = np.random.default_rng(6)
    model = KruskalModel([rng.random((5, 3)) for _ in range(3)])
    norm_sq = frobenius_norm(kruskal_full(model)) ** 2
    grams = np.ones((3, 3))
    for f in model.factors:
        grams = grams * (f.T @ f)
    assert abs(norm_sq - grams.sum()) <= 1e-10 * norm_sq


def test_frobenius_norm_all_ones():
    assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))


def test_relative_error_exact_and_zero_model():
    rng = np.random.default_rng(7)
    model = KruskalModel([rng.random((3, 2)) for _ in range(3)])
    t = kruskal_full(model)
    assert relative_error(t, model) <= 1e-12
    zero = KruskalModel([np.zeros((2, 1))] * 3)
    assert relative_error(np.ones((2, 2, 2)), zero) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(np.zeros((2, 2, 2)), zero)


@pytest.mark.parametrize("dims", [(5, 5, 1), (1, 5, 5), (5, 1), (1, 1, 1)])
def test_a_model_of_another_shape_is_refused_not_broadcast(dims):
    # each of these models' tensors broadcasts against a 5 x 5 x 5 tensor
    t = np.random.default_rng(8).random((5, 5, 5))
    model = KruskalModel([np.ones((d, 2)) for d in dims])
    message = re.escape(f"tensor shape (5, 5, 5) != model shape {dims}")
    for fit in (relative_error, residual_fit):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit(t, model)


def test_kruskal_model_validation():
    with pytest.raises(ValueError):
        KruskalModel([])
    with pytest.raises(ValueError):
        KruskalModel([np.ones((2, 2)), np.ones((2, 3))])
    with pytest.raises(ValueError):
        KruskalModel([np.ones(3), np.ones(3)])


def test_kruskal_model_flatten_roundtrip():
    rng = np.random.default_rng(8)
    model = KruskalModel([rng.random((d, 2)) for d in (3, 4, 2)])
    back = KruskalModel.unflatten(model.flatten(), model.shape, model.rank)
    for f, g in zip(model.factors, back.factors):
        assert np.array_equal(f, g)
    with pytest.raises(ValueError):
        KruskalModel.unflatten(np.zeros(5), (3, 4, 2), 2)


#: Tolerance of the compressed contraction, fixed before comparing, relative
#: to ``||t||_F`` times the Frobenius norms of the contracted factor stacks:
#: each singular value the compression drops is below ``s_max * max(m, n) *
#: eps <= 64 * eps * ||t||_F`` at these sizes (at most 7 per mode), and the
#: projections and lifts add a few units of rounding, all far below 1e-12.
COMPRESSED_TOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 8)] * 3),
    count=st.integers(1, 6),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_compressed_mttkrp_stack_matches_the_dense_one(dims, count, rank, seed, data):
    ranks = tuple(data.draw(st.integers(1, d)) for d in dims)
    assume(ranks != dims)  # some unfolding is rank deficient
    modes = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    rng = np.random.default_rng(seed)
    # small integers keep every product exact, so t has multilinear rank at
    # most ``ranks`` in float64 too
    core = rng.integers(-3, 4, size=ranks).astype(float)
    mats = [rng.integers(-3, 4, size=(d, r)).astype(float) for d, r in zip(dims, ranks)]
    t = np.einsum("abc,ia,jb,kc->ijk", core, *mats)
    assume(t.any())
    form = tucker_compress(t)
    assert form is not None
    assert all(c <= r for c, r in zip(form.core.shape, ranks))
    for basis in form.bases:  # LAPACK's singular vectors: a few eps off at n <= 8
        assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-14
    stacks = [rng.random((count, d, rank)) for d in dims]
    got = mttkrp_stack(form, stacks, modes)
    ref = mttkrp_stack(t, stacks, modes)
    for mode, g, r in zip(modes, got, ref):
        others = math.prod(np.linalg.norm(s) for n, s in enumerate(stacks) if n != mode)
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= COMPRESSED_TOL * np.linalg.norm(t) * others


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_problem("difficult9", 0)[0],  # rank 10 > every dimension
        lambda: np.random.default_rng(3).random((8, 9, 10)),
        lambda: np.zeros((4, 5, 6)),
        lambda: np.ones((2, 3, 4, 5)),  # multilinear rank 1, but order 4
    ],
    ids=["difficult9", "dense-8x9x10", "zero", "order4"],
)
def test_tucker_compress_declines_what_it_cannot_shrink(make):
    assert tucker_compress(make()) is None

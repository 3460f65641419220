import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neurocpd import model as model_mod
from neurocpd.errors import BarrierDomainError, SingularPreconditionerError
from neurocpd.model import (
    AUTO_RIDGE_SCALE,
    barrier_gradient,
    barrier_objective,
    barrier_precondition,
    gradient,
    gradients,
    objective,
    precondition,
    projected_direction,
    projection_bundle,
)
from neurocpd.tensor_ops import KruskalModel, kruskal_full


def random_instance(seed, shape=(4, 4, 4), rank=3):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    model = KruskalModel([rng.random((d, rank)) for d in shape])
    return t, model


def fd_gradient(func, model, mode, h=1e-6):
    """Central finite differences of a scalar function of one factor."""
    base = model.factors[mode]
    out = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        for sign in (+1, -1):
            probe = model.copy()
            probe.factors[mode][idx] += sign * h
            out[idx] += sign * func(probe)
    return out / (2 * h)


def test_objective_exact_fit_is_zero():
    _, model = random_instance(0)
    t = kruskal_full(model)
    assert objective(t, model) <= 1e-12


def test_objective_all_ones_zero_factors():
    model = KruskalModel([np.zeros((2, 2))] * 3)
    assert objective(np.ones((2, 2, 2)), model) == pytest.approx(4.0)


@pytest.mark.parametrize("seed", range(20))
def test_objective_expanded_equals_direct(seed):
    t, model = random_instance(seed)
    direct = 0.5 * np.linalg.norm(t - kruskal_full(model)) ** 2
    assert abs(objective(t, model) - direct) <= 1e-10 * max(1.0, direct)


def test_gradient_zero_at_exact_fit():
    _, model = random_instance(1)
    t = kruskal_full(model)
    for mode in range(3):
        assert np.abs(gradient(t, model, mode)).max() <= 1e-10


def test_gradient_scalar_hand_case():
    t = np.full((1, 1, 1), 2.0)
    model = KruskalModel([[[1.0]], [[1.0]], [[1.0]]])
    assert gradient(t, model, 0) == pytest.approx(-1.0)


@pytest.mark.parametrize("seed", range(20))
def test_gradient_matches_finite_differences(seed):
    t, model = random_instance(seed)
    for mode in range(3):
        g = gradient(t, model, mode)
        fd = fd_gradient(lambda m: objective(t, m), model, mode)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gradients_match_single_mode():
    t, model = random_instance(2)
    for mode, g in enumerate(gradients(t, model)):
        assert np.array_equal(g, gradient(t, model, mode))


def test_precondition_identity_and_scaling():
    rng = np.random.default_rng(3)
    grad = rng.random((5, 3))
    assert np.allclose(precondition(grad, np.eye(3), 0.0), grad)
    assert np.allclose(precondition(grad, 2 * np.eye(3), 0.0), grad / 2)


@pytest.mark.parametrize("seed", range(5))
def test_precondition_residual_check(seed):
    rng = np.random.default_rng(seed)
    base = rng.random((3, 3))
    gram = base @ base.T + 0.5 * np.eye(3)
    grad = rng.random((6, 3))
    out = precondition(grad, gram, 1e-3, 1)
    assert np.abs(out @ (gram + 1e-3 * np.eye(3)) - grad).max() <= 1e-10


def test_precondition_singular_raises_with_mode():
    grad = np.ones((2, 2))
    with pytest.raises(SingularPreconditionerError) as err:
        precondition(grad, np.zeros((2, 2)), 0.0, 2)
    assert err.value.mode == 2


def test_precondition_auto_ridge_and_pseudo_solve():
    grad = np.ones((2, 2))
    out = precondition(grad, np.zeros((2, 2)))
    assert np.isfinite(out).all()  # falls back to least squares


def test_projection_bundle_consistency():
    t, model = random_instance(4)
    dirs, grads = projection_bundle(t, model, False, None)
    for mode, (d, g) in enumerate(zip(dirs, grads)):
        assert np.array_equal(g, gradient(t, model, mode))
        assert np.array_equal(d, projected_direction(model.factors[mode], g))


def interior_instance(seed, shape=(4, 4, 4), rank=3):
    rng = np.random.default_rng(seed)
    t = rng.random(shape)
    model = KruskalModel([0.1 + 0.9 * rng.random((d, rank)) for d in shape])
    return t, model


def test_barrier_reduction_identity():
    t, model = interior_instance(5)
    gamma = 0.37
    logs = sum(np.log(f).sum() for f in model.factors)
    assert barrier_objective(t, model, gamma) == pytest.approx(
        objective(t, model) - gamma * logs
    )
    for mode in range(3):
        assert np.allclose(
            barrier_gradient(t, model, mode, gamma) + gamma / model.factors[mode],
            gradient(t, model, mode),
        )


def test_barrier_unit_entries_contribution():
    t = np.random.default_rng(6).random((2, 2, 2))
    model = KruskalModel([np.ones((2, 2))] * 3)
    for mode in range(3):
        barrier_term = barrier_gradient(t, model, mode, 1.0) - gradient(t, model, mode)
        assert np.abs(np.abs(barrier_term) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_barrier_gradient_matches_finite_differences(seed):
    t, model = interior_instance(seed)
    for mode in range(3):
        g = barrier_gradient(t, model, mode, 1e-2)
        fd = fd_gradient(lambda m: barrier_objective(t, m, 1e-2), model, mode)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


def test_barrier_rejects_nonpositive_entries():
    t, model = interior_instance(7)
    model.factors[1][0, 0] = 0.0
    with pytest.raises(BarrierDomainError):
        barrier_objective(t, model, 1e-3)


@pytest.mark.parametrize("gamma", [0.0, -1e-3, math.inf, math.nan, None])
def test_every_barrier_function_rejects_a_gamma_not_finite_and_positive(gamma):
    t, model = interior_instance(7)
    calls = [
        lambda: barrier_objective(t, model, gamma),
        lambda: barrier_gradient(t, model, 0, gamma),
        lambda: barrier_precondition(
            np.ones((4, 3)), np.eye(3), model.factors[0], gamma
        ),
        lambda: model_mod.preconditioned_barrier_gradients(t, model, gamma),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="gamma must be a finite value > 0"):
            call()


def dense_barrier_solve(grad, gram, ridge, entries, gamma):
    """Kronecker-built oracle for the decoupled barrier solve."""
    rows, rank = entries.shape
    dense = np.kron(gram + ridge * np.eye(rank), np.eye(rows))
    dense += gamma * np.diag(1.0 / entries.ravel(order="F") ** 2)
    vec = np.linalg.solve(dense, grad.ravel(order="F"))
    return vec.reshape(entries.shape, order="F")


def test_barrier_precondition_tiny_gamma_matches_plain():
    t, model = interior_instance(8)
    grad = gradient(t, model, 0)
    gram = np.ones((3, 3)) * 0.5 + np.eye(3)
    plain = precondition(grad, gram, 1e-8)
    tiny = barrier_precondition(grad, gram, model.factors[0], 1e-14, 1e-8)
    assert np.abs(plain - tiny).max() <= 1e-8


def test_barrier_precondition_single_row_vs_dense():
    rng = np.random.default_rng(9)
    gram = rng.random((3, 3))
    gram = gram @ gram.T + np.eye(3)
    grad = rng.random((1, 3))
    entries = 0.2 + rng.random((1, 3))
    out = barrier_precondition(grad, gram, entries, 0.05, 1e-6)
    oracle = dense_barrier_solve(grad, gram, 1e-6, entries, 0.05)
    assert np.abs(out - oracle).max() <= 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_barrier_precondition_vs_dense_kronecker(seed):
    rng = np.random.default_rng(seed)
    gram = rng.random((3, 3))
    gram = gram @ gram.T + 0.5 * np.eye(3)
    grad = rng.random((4, 3))
    entries = 0.1 + rng.random((4, 3))
    out = barrier_precondition(grad, gram, entries, 0.02, 1e-7, 1)
    oracle = dense_barrier_solve(grad, gram, 1e-7, entries, 0.02)
    assert np.abs(out - oracle).max() <= 1e-9


def test_singular_barrier_row_names_its_row_and_factor():
    # gamma / entry**2 is 4 on rows 0, 1, 3 and 1 on row 2, where it cancels
    # the base of -1 exactly
    entries = np.array([[0.5], [0.5], [1.0], [0.5]])
    with pytest.raises(np.linalg.LinAlgError, match="row 2 of factor 1"):
        barrier_precondition(np.ones((4, 1)), np.array([[-1.0]]), entries, 1.0, 0.0, 1)


def identity_product_ridged(grams, ridge):
    """``P + ridge*I`` as ``_ridged`` formed it from full and identity arrays."""
    if ridge is None:
        delta = AUTO_RIDGE_SCALE * np.trace(grams, axis1=-2, axis2=-1) / grams.shape[-1]
    else:
        delta = np.full(grams.shape[:-2], float(ridge))
    return grams + delta[..., None, None] * np.eye(grams.shape[-1])


def ones_seeded_gram_skips(grams):
    ones = np.ones_like(grams[0])
    return [
        reduce(np.multiply, grams[:n] + grams[n + 1 :], ones) for n in range(len(grams))
    ]


@settings(max_examples=80, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    count=st.integers(1, 3),
    rank=st.integers(1, 6),
    ridge=st.sampled_from([None, 0.0, 1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ridged_gram_skips_equal_the_ones_and_identity_products_bitwise(
    dims, count, rank, ridge, seed
):
    rng = np.random.default_rng(seed)
    stacks = [rng.normal(size=(count, d, rank)) for d in dims]
    grams = [np.matmul(f.transpose(0, 2, 1), f) for f in stacks]
    kept = [g.copy() for g in grams]
    skips = model_mod._gram_skips(grams)
    ref = ones_seeded_gram_skips(grams)
    assert len(skips) == len(dims)
    for got, want in zip(skips, ref):
        assert got.shape == want.shape and np.array_equal(got, want)
        assert not any(np.shares_memory(got, g) for g in grams)
    if len(dims) == 1:  # the empty product
        assert np.array_equal(skips[0], np.ones((count, rank, rank)))
    stacked = np.stack(skips)
    for systems in (stacked, stacked[0, 0]):  # a stack and one Gram
        got = model_mod._ridged(systems, ridge)
        assert np.array_equal(got, identity_product_ridged(systems, ridge))
        assert not np.shares_memory(got, systems)
    assert all(np.array_equal(g, k) for g, k in zip(grams, kept))  # inputs kept

import numpy as np
import pytest

from neurocpd.datagen import (
    KINDS,
    collinearity,
    gen_collinear_factor,
    gen_problem,
    problem_metadata,
)
from neurocpd.errors import CollinearityInfeasibleError
from neurocpd.tensor_ops import relative_error


def offdiag(mu):
    return mu[~np.eye(mu.shape[0], dtype=bool)]


def test_collinearity_orthogonal_columns():
    mu = collinearity(np.eye(4)[:, :3])
    assert np.allclose(np.diag(mu), 1.0)
    assert np.abs(offdiag(mu)).max() == 0.0


def test_collinearity_duplicated_column():
    col = np.array([[1.0], [2.0], [0.5]])
    mu = collinearity(np.hstack([col, col]))
    assert mu[0, 1] == pytest.approx(1.0)


def test_collinearity_hand_value():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert collinearity(m)[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))


@pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9])
def test_collinearity_is_bitwise_that_of_linalg_norm(sparsity):
    # the norms skip np.linalg.norm's wrapper, not its arithmetic
    rng = np.random.default_rng(7)
    for shape in [(20, 10), (9, 16), (70, 3)]:
        m = np.maximum(rng.random(shape) - sparsity, 0.0)
        m[0] += 1e-3  # no zero column
        scaled = m / np.linalg.norm(m, axis=0)
        assert np.array_equal(collinearity(m), scaled.T @ scaled)


def test_collinearity_zero_column_raises():
    with pytest.raises(ValueError):
        collinearity(np.array([[0.0, 1.0], [0.0, 2.0]]))


@pytest.mark.parametrize("mu_range", [(0.96, 0.99), (0.4, 0.6)])
def test_gen_collinear_factor_membership_50_seeds(mu_range):
    for seed in range(50):
        f = gen_collinear_factor(20, 10, mu_range, np.random.default_rng(seed))
        assert f.shape == (20, 10)
        assert f.min() >= 0.0
        off = offdiag(collinearity(f))
        assert off.min() >= mu_range[0] and off.max() <= mu_range[1]


def test_gen_collinear_factor_near_one_limit():
    f = gen_collinear_factor(10, 4, (0.995, 0.9999), np.random.default_rng(0))
    off = offdiag(collinearity(f))
    assert off.min() >= 0.995


def test_gen_collinear_factor_validation_and_infeasible():
    with pytest.raises(ValueError):
        gen_collinear_factor(5, 3, (0.7, 0.2), 0)
    with pytest.raises(ValueError):
        gen_collinear_factor(5, 3, (0.2, 1.0), 0)
    # dim <= rank leaves no room for the exact fallback construction
    with pytest.raises(CollinearityInfeasibleError):
        gen_collinear_factor(3, 5, (0.01, 0.02), np.random.default_rng(0))


def test_gen_problem_difficult9():
    t, truth = gen_problem("difficult9", 0)
    assert t.shape == (9, 9, 9)
    assert truth.rank == 10
    assert relative_error(t, truth) == 0.0
    assert t.min() >= 0.0


def test_gen_problem_caseI_collinearity_regime():
    t, truth = gen_problem("caseI", 3)
    assert t.shape == (20, 20, 20) and truth.rank == 10
    high = offdiag(collinearity(truth.factors[2]))
    assert high.min() >= 0.96 and high.max() <= 0.99
    for n in (0, 1):
        low = offdiag(collinearity(truth.factors[n]))
        assert low.min() >= 0.4 and low.max() <= 0.6


def test_gen_problem_caseII_collinearity_regime():
    _, truth = gen_problem("caseII", 1)
    for n in (1, 2):
        high = offdiag(collinearity(truth.factors[n]))
        assert high.min() >= 0.96 and high.max() <= 0.99
    low = offdiag(collinearity(truth.factors[0]))
    assert low.min() >= 0.4 and low.max() <= 0.6


def test_gen_problem_rank_ladder_kinds():
    for r in range(11, 17):
        _, truth = gen_problem(f"difficult9_R{r}", 0)
        assert truth.rank == r
    assert KINDS["medium70"].shape == (70, 70, 70)
    assert KINDS["medium70"].rank == 75


def test_gen_problem_deterministic_and_unknown_kind():
    a, _ = gen_problem("easy5", 9)
    b, _ = gen_problem("easy5", 9)
    assert np.array_equal(a, b)
    c, _ = gen_problem("easy5", 10)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        gen_problem("enormous", 0)


def test_gen_problem_noise_snr():
    clean, truth = gen_problem("easy5", 0)
    noisy, _ = gen_problem("easy5", 0, noise_snr_db=20.0)
    assert noisy.min() >= 0.0
    snr = 20.0 * np.log10(np.linalg.norm(clean) / np.linalg.norm(noisy - clean))
    assert snr == pytest.approx(20.0, abs=0.5)
    assert np.isfinite(gen_problem("easy5", 0, noise_snr_db=-40.0)[0]).all()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="noise_snr_db"):
            gen_problem("easy5", 0, noise_snr_db=bad)


def test_problem_metadata_fields():
    meta = problem_metadata("caseI", 7)
    assert meta["kind"] == "caseI"
    assert meta["rank"] == 10
    assert meta["mu_range"] == "0.96..0.99"
    assert meta["mu_other_range"] == "0.4..0.6"
    assert "noise_snr_db" in problem_metadata("easy5", 0, noise_snr_db=10.0)

"""Synthetic problem generators for the benchmark regimes.

Problems are exact nonnegative rank-R tensors built from uniform factors,
optionally post-processed so the pairwise column collinearity

    mu(r, s) = <a_r, a_s> / (||a_r|| * ||a_s||)

of selected factors lands inside a requested range. Collinear factors are
built as ``w + eta * u_r`` with a shared nonnegative direction ``w`` and
unit-normalized per-column directions ``u_r``; ``eta`` is bisected until all
pairwise mu values sit in range. The ``u_r`` are sparsified by thresholding
when the requested range lies below the natural collinearity of dense
nonnegative vectors (about 0.75), which ``eta`` alone cannot reach.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CollinearityInfeasibleError
from .tensor_ops import KruskalModel, kruskal_full

Array = np.ndarray

MAX_BISECTION_ITERS = 200

_SPARSITY_GRID = (0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class CollinearitySpec:
    """Target collinearity ranges: ``factors`` get ``mu_range``, the rest
    get ``other_range``. Each range is checked where
    :func:`gen_collinear_factor` uses it."""

    mu_range: tuple[float, float]
    factors: tuple[int, ...]
    other_range: tuple[float, float]


def collinearity(m: Array) -> Array:
    """Matrix of pairwise column collinearities, unit diagonal."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.sqrt(np.add.reduce(m * m, axis=0))  # norm(m, axis=0), unwrapped
    if (norms == 0.0).any():
        raise ValueError("collinearity is undefined for zero columns")
    scaled = m / norms
    return scaled.T @ scaled


@lru_cache(maxsize=None)
def _offdiag_mask(rank: int) -> Array:
    """The read-only mask of the off-diagonal entries of a ``rank x rank`` matrix."""
    mask = ~np.eye(rank, dtype=bool)
    mask.flags.writeable = False
    return mask


def _mu_window(factor: Array) -> tuple[float, float]:
    off = collinearity(factor)[_offdiag_mask(factor.shape[1])]
    return float(off.min()), float(off.max())


def _orthogonal_support_factor(dim: int, rank: int, lo: float, hi: float, rng) -> Array:
    """Exact-collinearity fallback: every pair shares one mu value.

    Columns are ``sqrt(mu)*w + sqrt(1-mu)*u_r`` with ``w`` a random positive
    unit vector and ``u_r`` single-coordinate spikes on coordinates disjoint
    from each other and from ``w``'s support, so all pairwise collinearities
    equal ``mu`` exactly. Needs ``dim >= rank + 1``.
    """
    mu = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)) if hi > lo else lo
    perm = rng.permutation(dim)
    w = np.zeros(dim)
    w[perm[: dim - rank]] = rng.random(dim - rank) + 0.05
    w /= np.linalg.norm(w)
    factor = np.sqrt(mu) * w[:, None] * np.ones((1, rank))
    factor[perm[dim - rank :], np.arange(rank)] += np.sqrt(1.0 - mu)
    return factor * rng.uniform(0.5, 1.5, size=rank)


def gen_collinear_factor(dim: int, rank: int, mu_range, rng) -> Array:
    """Nonnegative ``dim x rank`` factor with all pairwise mu in ``mu_range``.

    ``rng`` is a seed or a ``numpy.random.Generator``. Generic random draws
    with eta bisection are tried first; if their pairwise spread cannot fit
    the window within the bisection budget, the orthogonal-support
    construction (exact, identical pairwise mu) is used instead. Raises
    :class:`CollinearityInfeasibleError` only when that also is impossible
    (``dim <= rank``).
    """
    lo, hi = float(mu_range[0]), float(mu_range[1])
    if not 0.0 <= lo <= hi < 1.0:
        raise ValueError("need 0 <= mu_low <= mu_high < 1")
    rng = np.random.default_rng(rng)  # a Generator comes back unaltered
    if rank < 2:
        return rng.random((dim, rank))  # no pairs to constrain
    target = 0.5 * (lo + hi)
    budget = MAX_BISECTION_ITERS
    while budget > 0:
        w = rng.random(dim)
        w /= np.linalg.norm(w)
        base = rng.random((dim, rank))
        directions = None
        for tau in _SPARSITY_GRID:
            cand = np.maximum(base - tau, 0.0)
            norms = np.linalg.norm(cand, axis=0)
            if (norms == 0.0).any():
                break  # sparser grids only lose more columns
            cand = cand / norms
            directions = cand
            if _mu_window(cand)[1] < lo:
                break  # sparse enough for eta to reach the range from above
        if directions is None:
            budget -= 1
            continue

        def window(eta):
            return _mu_window(w[:, None] + eta * directions)

        eta_lo, eta_hi = 0.0, 1.0
        ok = True
        while 0.5 * sum(window(eta_hi)) > target:
            eta_hi *= 2.0
            budget -= 1
            if budget <= 0 or eta_hi > 1e8:
                ok = False
                break
        while ok and budget > 0:
            eta = 0.5 * (eta_lo + eta_hi)
            mu_min, mu_max = window(eta)
            budget -= 1
            if lo <= mu_min and mu_max <= hi:
                return w[:, None] + eta * directions
            if 0.5 * (mu_min + mu_max) > target:
                eta_lo = eta
            else:
                eta_hi = eta
            if eta_hi - eta_lo < 1e-14:
                break  # spread wider than the window; redraw
    if dim >= rank + 1:
        return _orthogonal_support_factor(dim, rank, lo, hi, rng)
    raise CollinearityInfeasibleError(
        f"could not place all pairwise mu of a {dim}x{rank} factor in "
        f"[{lo}, {hi}] within {MAX_BISECTION_ITERS} bisection steps"
    )


_CASE_I = CollinearitySpec((0.96, 0.99), factors=(2,), other_range=(0.4, 0.6))
_CASE_II = CollinearitySpec((0.96, 0.99), factors=(1, 2), other_range=(0.4, 0.6))


@dataclass(frozen=True)
class ProblemKind:
    shape: tuple[int, ...]
    rank: int
    collinearity: CollinearitySpec | None = None


KINDS: dict[str, ProblemKind] = {
    "easy5": ProblemKind((5, 5, 5), 3),
    "easy9": ProblemKind((9, 9, 9), 5),
    "difficult9": ProblemKind((9, 9, 9), 10),
    "medium70": ProblemKind((70, 70, 70), 75),
    "caseI": ProblemKind((20, 20, 20), 10, _CASE_I),
    "caseII": ProblemKind((20, 20, 20), 10, _CASE_II),
}
for _r in range(11, 17):
    KINDS[f"difficult9_R{_r}"] = ProblemKind((9, 9, 9), _r)


def _spec(kind: str) -> ProblemKind:
    """The generator of ``kind``; an unknown kind is a ValueError."""
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}; known: {sorted(KINDS)}")
    return KINDS[kind]


def gen_problem(
    kind: str, seed: int, noise_snr_db: float | None = None
) -> tuple[Array, KruskalModel]:
    """Deterministic (kind, seed) -> (tensor, ground-truth model).

    The tensor is the exact reconstruction of uniform [0, 1) ground-truth
    factors (collinearity-shaped where the kind requests it), plus optional
    additive nonnegative uniform noise at the given SNR in dB, which must be
    finite and give a finite noise scale and tensor.
    """
    spec = _spec(kind)
    tag = zlib.crc32(kind.encode())
    factors, col = [], spec.collinearity
    for n, dim in enumerate(spec.shape):
        rng = np.random.default_rng([seed, tag, n])
        if col is None:
            factors.append(rng.random((dim, spec.rank)))
        else:
            mu_range = col.mu_range if n in col.factors else col.other_range
            factors.append(gen_collinear_factor(dim, spec.rank, mu_range, rng))
    truth = KruskalModel(factors)
    tensor = kruskal_full(truth)
    if noise_snr_db is not None:
        noise = np.random.default_rng([seed, tag, 999]).random(spec.shape)
        with np.errstate(all="ignore"):  # an extreme SNR is refused below
            ratio = np.float64(10.0) ** (noise_snr_db / 20.0)  # signal / noise norm
            noise *= np.linalg.norm(tensor) / (ratio * np.linalg.norm(noise))
            tensor = np.maximum(tensor + noise, 0.0)
        if not (np.isfinite(ratio) and np.isfinite(tensor).all()):
            raise ValueError(f"noise_snr_db {noise_snr_db} gives a non-finite noise")
    return tensor, truth


def problem_metadata(kind: str, seed: int, noise_snr_db: float | None = None) -> dict:
    """Sidecar record describing a generated problem."""
    spec = KINDS[kind]
    meta = {
        "kind": kind,
        "seed": seed,
        "shape": "x".join(str(d) for d in spec.shape),
        "rank": spec.rank,
    }
    if (col := spec.collinearity) is not None:
        meta["mu_factors"] = ",".join(str(i) for i in col.factors)
        meta["mu_range"] = f"{col.mu_range[0]}..{col.mu_range[1]}"
        meta["mu_other_range"] = f"{col.other_range[0]}..{col.other_range[1]}"
    if noise_snr_db is not None:
        meta["noise_snr_db"] = noise_snr_db
    return meta

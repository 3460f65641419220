"""Dense tensor kernels shared by every solver in the package.

Tensors are plain ``numpy.ndarray`` objects of any order; rank-R models are
held in :class:`KruskalModel`. Two layout conventions are fixed once here and
relied on everywhere else:

* linearization is first-index-fastest (Fortran ravel order), both in the
  on-disk formats (:mod:`neurocpd.tensor_io`) and in flattened model vectors;
* the mode-``n`` unfolding orders its columns by the remaining indices in
  increasing mode order with the smallest mode fastest, so that for an
  order-3 model ``unfold(full, 0) == A @ khatri_rao(C, B).T`` holds exactly.

An order-3 tensor of lower multilinear rank, such as a noiseless CP tensor of
rank below a dimension, can also be held as :func:`tucker_compress` forms it:
a small core and an orthonormal basis per mode. :func:`mttkrp_stack` takes
its MTTKRPs on the core and lifts them back to the original space.

All kernels are pure functions of their inputs and operate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

Array = np.ndarray


@dataclass
class KruskalModel:
    """Rank-R model ``sum_r a_r outer b_r outer c_r`` held as factor matrices.

    Factor ``n`` has shape ``(I_n, R)``; all factors share the column count R.
    """

    factors: list[Array]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("KruskalModel needs at least one factor")
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        ranks = {f.shape[1] if f.ndim == 2 else -1 for f in self.factors}
        if len(ranks) != 1 or -1 in ranks:
            raise ValueError("factors must be 2-D with a common column count")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def copy(self) -> "KruskalModel":
        return KruskalModel([f.copy() for f in self.factors])

    def flatten(self) -> Array:
        """Concatenate the column-major vectorizations of all factors."""
        return np.concatenate([f.ravel(order="F") for f in self.factors])

    @classmethod
    def unflatten(cls, vec: Array, shape, rank: int) -> "KruskalModel":
        """Inverse of :meth:`flatten` for the given dimensions and rank."""
        vec = np.asarray(vec, dtype=np.float64)
        sizes = [dim * rank for dim in shape]
        if vec.size != sum(sizes):
            raise ValueError(f"expected vector of length {sum(sizes)}, got {vec.size}")
        out, start = [], 0
        for dim, size in zip(shape, sizes):
            out.append(vec[start : start + size].reshape((dim, rank), order="F"))
            start += size
        return cls(out)

    @classmethod
    def random(cls, shape, rank: int, rng: np.random.Generator) -> "KruskalModel":
        """I.i.d. uniform [0, 1) factors, the stock nonnegative initialization."""
        return cls([rng.random((dim, rank)) for dim in shape])


def _check_mode(ndim: int, mode: int) -> None:
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for order-{ndim} tensor")


def _check_shape(shape: tuple, model_shape: tuple) -> None:
    """Refuse a tensor whose shape (and so order) is not the model's."""
    if shape != model_shape:
        raise ValueError(f"tensor shape {shape} != model shape {model_shape}")


def unfold(t: Array, mode: int) -> Array:
    """Mode-``mode`` unfolding of a dense tensor, of shape ``(I_mode, prod of
    the other I_m)``: rows are indexed by mode ``mode``, columns by the
    remaining indices in increasing mode order, smallest mode fastest."""
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")


def khatri_rao(a: Array, b: Array) -> Array:
    """Column-wise Kronecker product; column r is ``kron(a[:, r], b[:, r])``.

    The first argument varies slowest, matching the unfolding convention:
    ``unfold(full([A, B, C]), 0) == A @ khatri_rao(C, B).T``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(
            f"khatri_rao needs matching column counts, got {a.shape} and {b.shape}"
        )
    return (a[:, None, :] * b[None, :, :]).reshape(a.shape[0] * b.shape[0], a.shape[1])


def khatri_rao_list(mats) -> Array:
    """Khatri-Rao product of several matrices, first argument slowest."""
    mats = list(mats)
    if not mats:
        raise ValueError("khatri_rao_list expects at least one matrix")
    out = mats[0]
    for m in mats[1:]:
        out = khatri_rao(out, m)
    return out


def hadamard_gram(model: KruskalModel, skip: int) -> Array:
    """Hadamard product of the factor Grams, skipping factor ``skip``.

    Equals ``K.T @ K`` for ``K`` the Khatri-Rao product of the non-skipped
    factors: :func:`hadamard_skip`, which takes formed Grams, of their ``F.T @ F``.
    """
    _check_mode(model.order, skip)
    grams = [None if n == skip else f.T @ f for n, f in enumerate(model.factors)]
    return hadamard_skip(grams, skip, np.empty((model.rank, model.rank)))


def hadamard_skip(grams, skip: int, out: Array) -> Array:
    """Into ``out``, the Hadamard product of the ``grams`` (or of stacks of them)
    but ``grams[skip]``, which it never reads: in factor order, bitwise as onto ones."""
    rest = grams[:skip] + grams[skip + 1 :]
    if len(rest) > 1:
        np.multiply(rest[0], rest[1], out=out)
    else:
        out[...] = rest[0] if rest else 1.0
    for g in rest[2:]:
        out *= g
    return out


def mttkrp(t: Array, model: KruskalModel, mode: int) -> Array:
    """Matricized-tensor times Khatri-Rao product for the given mode.

    Returns ``unfold(t, mode) @ khatri_rao(factors except mode, decreasing
    mode order)`` without materializing the Khatri-Rao matrix. This is the
    one-model, one-mode case of :func:`mttkrp_stack`, which refuses a tensor
    of another shape than the model's.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, mode)
    return mttkrp_stack(t, [f[None] for f in model.factors], (mode,))[0][0]


def sweep_mttkrps(t: Array, model: KruskalModel):
    """The ``(gram, gram_skip, mttkrp)`` of each block of a Gauss-Seidel sweep,
    mode 0 first: ``F.T @ F``, :func:`hadamard_gram` and :func:`mttkrp` bitwise,
    at the factors as they stand when the block is requested (the caller
    replaces factor ``n`` before asking for block ``n + 1``). All Grams are
    formed at the start, factor ``n - 1``'s again for block ``n``; for order 3
    the MTTKRPs are :func:`_mttkrps3`'s, one ``T x_3 C``, a GEMM per mode-0
    slice, serving modes 0 and 1.
    A tensor of another shape than the model's is refused at the first block."""
    _check_shape(np.shape(t), model.shape)
    factors = model.factors
    grams = [f.T @ f for f in factors]
    mttkrps = (_mttkrps3(t, factors, (0, 1, 2)) if np.ndim(t) == 3
               else (mttkrp(t, model, mode) for mode in range(model.order)))
    for n, mtt in enumerate(mttkrps):
        if n:
            grams[n - 1] = factors[n - 1].T @ factors[n - 1]
        yield grams[n], hadamard_skip(grams, n, np.empty_like(grams[n])), mtt


def _mttkrps3(t: Array, mats, modes):
    """MTTKRPs of an order-3 ``t`` for ``modes``, in increasing order, against
    the ``(I_n, Q)`` matrices ``mats``, each read when its mode is requested.
    Each tensor contraction takes one GEMM per mode-0 slice, read in place with
    no copy of the tensor: with ``mats[2]`` for modes 0 and 1, which share it,
    and with ``mats[1]`` for mode 2. At 70^3 the slice GEMMs run faster than
    one ``(I*J, K)`` GEMM of the same flops."""
    t = np.ascontiguousarray(t)
    if 0 in modes or 1 in modes:
        tc = np.matmul(t, mats[2])  # (I, J, Q)
        if 0 in modes:
            yield np.einsum("ijq,jq->iq", tc, mats[1])
        if 1 in modes:
            tc = np.einsum("ijq,iq->jq", tc, mats[0])
            yield tc
        # one tensor-sized intermediate at a time: three live at once made the
        # allocator return and re-fault them on every call at 70^3
        del tc
    if 2 in modes:
        tb = np.matmul(t.transpose(0, 2, 1), mats[1])  # (I, K, Q)
        yield np.einsum("ikq,iq->kq", tb, mats[0])


class TuckerForm(NamedTuple):
    """An order-3 tensor as ``core`` times an orthonormal basis per mode,
    ``t[i, j, k] = sum core[a, b, c] * U0[i, a] * U1[j, b] * U2[k, c]`` for
    ``bases = (U0, U1, U2)``; see :func:`tucker_compress`."""

    core: Array
    bases: tuple


def tucker_compress(t: Array) -> TuckerForm | None:
    """The exact compressed form of an order-3 tensor, or ``None`` if none pays.

    The basis of mode ``n`` holds the left singular vectors of ``unfold(t, n)``
    whose singular values exceed :func:`numpy.linalg.matrix_rank`'s tolerance
    ``s_max * max(m, n) * eps``, and the core is ``t`` projected onto the
    bases. So the form reproduces ``t`` up to singular values at rounding level.
    Returns ``None`` for a zero tensor, a tensor not of order 3, or one whose
    every unfolding has full numerical rank.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3 or not t.any():
        return None
    bases = []
    for mode in range(3):
        m = unfold(t, mode)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        kept = int((s > s[0] * max(m.shape) * np.finfo(np.float64).eps).sum())
        bases.append(u[:, :kept])
    if all(b.shape[1] == dim for b, dim in zip(bases, t.shape)):
        return None
    core = np.einsum("ijk,ia,jb,kc->abc", t, *bases, optimize=True)
    return TuckerForm(np.ascontiguousarray(core), tuple(bases))


def mttkrp_stack(t: Array | TuckerForm, factors, modes=None) -> list[Array]:
    """MTTKRPs of a stack of P models that share the tensor ``t``.

    ``factors[n]`` has shape ``(P, I_n, R)``; entry ``i`` of the result is
    the ``(P, I_m, R)`` stack of MTTKRPs of mode ``m = modes[i]`` (all modes
    by default), slice ``p`` belonging to model ``p``. For order 3 each factor
    stack is laid out as ``(I_n, P*R)`` and contracted as in
    :func:`sweep_mttkrps`: one GEMM per mode-0 slice of the tensor, with no
    copy of it, against the mode-2 layout for modes 0 and 1 and against the
    mode-1 layout for mode 2.

    ``t`` may also be a :class:`TuckerForm`. Each layout is then projected
    onto its mode's basis with one GEMM, the MTTKRPs are taken on the core,
    and each is lifted back with one GEMM. This equals the dense contraction
    up to rounding and the singular values :func:`tucker_compress` dropped.
    A tensor (a TuckerForm by its bases' row counts) of another shape than
    the models' ``(I_0, I_1, ...)`` is refused.
    """
    compressed = isinstance(t, TuckerForm)
    t = t if compressed else np.asarray(t)
    _check_shape(tuple(len(b) for b in t.bases) if compressed else t.shape,
                 tuple(f.shape[1] for f in factors))
    count, _, rank = factors[0].shape
    if compressed or t.ndim == 3:
        wanted = range(len(factors)) if modes is None else sorted(set(modes))
        mats = [f[0] if count == 1 else f.transpose(1, 0, 2).reshape(-1, count * rank)
                for f in factors]
        if compressed:
            core, bases = t
            low = _mttkrps3(core, [b.T @ m for b, m in zip(bases, mats)], wanted)
            found = [bases[m] @ x for m, x in zip(wanted, low)]
        else:
            found = _mttkrps3(t, mats, wanted)
        found = [x[None] if count == 1
                 else x.reshape(-1, count, rank).transpose(1, 0, 2) for x in found]
        return found if modes is None else [found[wanted.index(m)] for m in modes]
    # generic order-N fallback
    letters = "abcdefghijklmnoq"[: t.ndim]
    out = []
    for mode in range(len(factors)) if modes is None else modes:
        operands, script = [t], letters
        for n, f in enumerate(factors):
            if n != mode:
                operands.append(f)
                script += f",p{letters[n]}z"
        out.append(
            np.einsum(script + f"->p{letters[mode]}z", *operands, optimize=True)
        )
    return out


def kruskal_full(model: KruskalModel) -> Array:
    """Dense reconstruction ``sum_r`` of the rank-1 terms of the model."""
    if model.order == 3:
        a, b, c = model.factors
        ab = (a[:, None, :] * b[None, :, :]).reshape(-1, c.shape[1])
        return (ab @ c.T).reshape(len(a), len(b), len(c))
    letters = "abcdefghijklmnop"[: model.order]
    script = ",".join(f"{ch}z" for ch in letters) + "->" + letters
    return np.einsum(script, *model.factors, optimize=True)


def frobenius_norm(t: Array) -> float:
    """Frobenius norm of a dense tensor."""
    return float(np.linalg.norm(np.asarray(t)))


def residual_fit(t: Array, model: KruskalModel, norm: float | None = None):
    """``(0.5 * ||t - full(model)||_F^2, ||t - full(model)||_F / ||t||_F)`` from
    one dense residual, the root taken of the same dot as :func:`numpy.linalg.norm`
    takes. ``norm`` is ``||t||_F`` if known; it must be positive. A tensor of
    another shape than the model's is refused, not broadcast."""
    norm = frobenius_norm(t) if norm is None else norm
    if norm == 0.0:
        raise ValueError("relative_error is undefined for a zero-norm tensor")
    full = kruskal_full(model)
    _check_shape(np.shape(t), full.shape)
    r = (t - full).ravel(order="K")
    sq = float(r.dot(r))
    return 0.5 * sq, float(np.sqrt(sq)) / norm


def relative_error(t: Array, model: KruskalModel) -> float:
    """``||t - full(model)||_F / ||t||_F``; the norm of ``t`` must be positive."""
    return residual_fit(t, model)[1]

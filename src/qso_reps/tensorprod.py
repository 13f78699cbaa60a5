"""Vector representation, tensor products with it, and the quantum sl_n
embedding cross-check.

Generator k acts on the product space slot by slot.  With the vector slot
outermost, each of the n slots is a copy of the inner space; the generator
applies the inner generator t to every slot, scales slot k by q and slot
k+1 by 1/q, and moves -q^(1/2) times slot k into slot k+1 and q^(-1/2)
times slot k+1 into slot k.  `tensor_action` applies this to a matrix
without forming the (n*d)^2 product-space generator; `tensor_rep` builds
that dense matrix, as the same action on the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qarith import HalfInt, QContext, ValidationError
from .gtbasis import CLASSICAL, IrrepLabel
from .reps import GeneratorMatrix, RelationReport, check_relations


def vector_label(n: int) -> IrrepLabel:
    """Label of the n-dimensional vector irrep, weight (1,0,...,0)."""
    return IrrepLabel(n, CLASSICAL,
                      tuple(HalfInt(2 if i == 0 else 0) for i in range(n // 2)))


def vector_rep(n: int, ctx: QContext) -> list[GeneratorMatrix]:
    """The n-dimensional vector representation on the coordinate basis:
    generator k sends e_k to -q^(1/2) e_{k+1} and e_{k+1} to q^(-1/2) e_k."""
    if n < 2:
        raise ValidationError(f"rank must be >= 2, got n={n}")
    label = vector_label(n)
    sq = ctx.q ** 0.5
    out = []
    for k in range(1, n):
        mat = np.zeros((n, n), dtype=complex)
        mat[k, k - 1] = -sq
        mat[k - 1, k] = 1.0 / sq
        out.append(GeneratorMatrix(label, f"I({k + 1},{k})", mat))
    return out


def tensor_action(t: np.ndarray, k: int, mat: np.ndarray,
                  ctx: QContext) -> np.ndarray:
    """Generator k of the tensor product with the vector representation,
    applied to `mat`, whose rows are the product basis (vector slot
    outermost); `t` is generator k of the inner representation."""
    d = t.shape[0]
    slots = mat.reshape(-1, d, mat.shape[1])
    out = t @ slots
    out[k - 1] *= ctx.q
    out[k] /= ctx.q
    sq = ctx.q ** 0.5
    out[k] += -sq * slots[k - 1]
    out[k - 1] += slots[k] / sq
    return out.reshape(mat.shape)


def tensor_rep(t_mats: list[GeneratorMatrix], ctx: QContext) -> list[GeneratorMatrix]:
    """Dense generators of the tensor of the vector representation with the
    representation given by `t_mats` (generators 1..n-1 of rank n = len+1):
    `tensor_action` on the identity of the product space."""
    n = len(t_mats) + 1
    eye = np.eye(n * t_mats[0].dim, dtype=complex)
    label = t_mats[0].label
    # stored as nonzeros, so an exact zero BLAS returns as -0.0 is dropped
    return [GeneratorMatrix(label, f"Ix({k + 1},{k})",
                            tensor_action(t_mats[k - 1].mat, k, eye, ctx))
            for k in range(1, n)]


@dataclass(frozen=True)
class SlnGenerators:
    """Chevalley generators of quantum sl_n on the n-dimensional space."""

    n: int
    e: tuple[np.ndarray, ...]
    f: tuple[np.ndarray, ...]
    k: tuple[np.ndarray, ...]
    kinv: tuple[np.ndarray, ...]


def sl_generators(n: int, ctx: QContext) -> SlnGenerators:
    """Vector representation of quantum sl_n: e_i lowers index i+1 -> i with
    weight -q^(-1/2), f_i raises i -> i+1 with -q^(1/2), k_i is diagonal."""
    es, fs, ks, kis = [], [], [], []
    for i in range(1, n):
        e = np.zeros((n, n), dtype=complex)
        e[i - 1, i] = -ctx.q ** -0.5
        f = np.zeros((n, n), dtype=complex)
        f[i, i - 1] = -ctx.q ** 0.5
        kd = np.ones(n, dtype=complex)
        kd[i - 1] = ctx.q
        kd[i] = 1.0 / ctx.q
        es.append(e)
        fs.append(f)
        ks.append(np.diag(kd))
        kis.append(np.diag(1.0 / kd))
    return SlnGenerators(n, tuple(es), tuple(fs), tuple(ks), tuple(kis))


@dataclass(frozen=True)
class EmbeddingReport:
    """Residuals of the quantum sl_n embedding cross-check."""

    relations: RelationReport
    hopf_residual: float       # k k^-1 = 1 and [e_i, f_i] = (k_i - k_i^-1)/(q - 1/q)
    vector_residual: float     # embedded generators match the vector representation

    @property
    def passed(self) -> bool:
        return (self.relations.all_passed and self.hopf_residual <= 1e-12
                and self.vector_residual <= 1e-12)


def embedding_check(n: int, ctx: QContext) -> EmbeddingReport:
    """Verify that f_i - q^-1 k_i e_i realises the orthogonal-algebra
    generators inside quantum sl_n on the vector representation.

    The embedded generators coincide entrywise with the closed form of
    `vector_rep`; `vector_residual` is the largest entry of the difference.
    """
    sl = sl_generators(n, ctx)
    hopf = 0.0
    for i in range(n - 1):
        hopf = max(hopf, float(np.abs(sl.k[i] @ sl.kinv[i] - np.eye(n)).max()))
        comm = sl.e[i] @ sl.f[i] - sl.f[i] @ sl.e[i]
        target = (sl.k[i] - sl.kinv[i]) / (ctx.q - 1.0 / ctx.q)
        hopf = max(hopf, float(np.abs(comm - target).max()))
    embedded = [sl.f[i] - (sl.k[i] @ sl.e[i]) / ctx.q for i in range(n - 1)]
    label = vector_label(n)
    gens = [GeneratorMatrix(label, f"Iemb({i + 2},{i + 1})", m)
            for i, m in enumerate(embedded)]
    relations = check_relations(gens, ctx)
    vec = vector_rep(n, ctx)
    vector_residual = max(float(np.abs(embedded[i] - vec[i].mat).max())
                          for i in range(n - 1))
    return EmbeddingReport(relations, hopf, vector_residual)

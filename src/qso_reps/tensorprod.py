"""Tensor products with the vector representation.

Generator k acts on the product space slot by slot.  With the vector slot
outermost, each of the n slots is a copy of the inner space; the generator
applies the inner generator t to every slot, scales slot k by q and slot
k+1 by 1/q, and moves -q^(1/2) times slot k into slot k+1 and q^(-1/2)
times slot k+1 into slot k.  `tensor_action` applies this to a matrix
without forming the (n*d)^2 product-space generator; `tensor_rep` builds
that matrix, as the same action on the identity.
"""

from __future__ import annotations

import numpy as np

from .qarith import QContext
from .reps import GeneratorMatrix, Sparse


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
    """Generators of the tensor of the vector representation with the
    representation given by `t_mats` (generators 1..n-1 of rank n = len+1):
    `tensor_action` on the identity of the product space."""
    n = len(t_mats) + 1
    eye = np.eye(n * t_mats[0].dim, dtype=complex)
    label = t_mats[0].label
    # stored as nonzeros, so an exact zero BLAS returns as -0.0 is dropped
    return [GeneratorMatrix(label, Sparse.of(
                tensor_action(t_mats[k - 1].mat, k, eye, ctx)))
            for k in range(1, n)]

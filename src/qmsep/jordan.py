"""Joint block decomposition of a projector pair.

Any two projectors decompose the space into one- and two-dimensional
invariant subspaces.  Each two-dimensional block carries a direction v in
range(Pi1), a direction w in range(Pi2), and the overlap p = |<v|w>|^2;
the p values are exactly the eigenvalues of Pi1 Pi2 Pi1 restricted to
range(Pi1), which is how they are computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import Projector

SNAP_TOL = 1e-10     # overlaps this close to 0/1 become one-dimensional blocks
DEFAULT_DIM_CAP = 256


class JordanError(ValueError):
    pass


@dataclass(frozen=True)
class JordanBlock:
    dim: int
    p: float
    v: np.ndarray | None   # unit vector in range(Pi1), None if Pi1 rank-0 here
    w: np.ndarray | None   # unit vector in range(Pi2), None if Pi2 rank-0 here


@dataclass(frozen=True)
class JordanDecomposition:
    blocks: tuple
    dimension: int

    @property
    def kernel_dim(self) -> int:
        """Dimension of the joint kernel (not enumerated as blocks)."""
        return self.dimension - sum(b.dim for b in self.blocks)


def _range_basis(pi: Projector) -> np.ndarray:
    """Columns form an orthonormal basis of range(pi)."""
    w, vec = np.linalg.eigh(pi.matrix)
    cols = vec[:, w > 0.5]
    return cols


def jordan_decompose(p1: Projector, p2: Projector,
                     dim_cap: int = DEFAULT_DIM_CAP) -> JordanDecomposition:
    if p1.dim != p2.dim:
        raise JordanError("projectors live on different spaces")
    if p1.dim > dim_cap:
        raise JordanError(f"dimension {p1.dim} exceeds cap {dim_cap}")
    n = p1.dim
    basis1 = _range_basis(p1)
    blocks = []
    if basis1.shape[1] > 0:
        # Pi1 Pi2 Pi1 restricted to range(Pi1)
        a = basis1.conj().T @ p2.matrix @ basis1
        vals, vecs = np.linalg.eigh(a)
        order = np.argsort(-vals)
        for idx in order:
            p = float(vals[idx])
            v = basis1 @ vecs[:, idx]
            if p > 1.0 - SNAP_TOL:
                blocks.append(JordanBlock(1, 1.0, v, v))
            elif p < SNAP_TOL:
                blocks.append(JordanBlock(1, 0.0, v, None))
            else:
                w = p2.matrix @ v
                w = w / np.linalg.norm(w)
                blocks.append(JordanBlock(2, p, v, w))
    # leftover range(Pi2) directions orthogonal to every block: Pi1 rank-0 there
    resid = p2.matrix.copy()
    for b in blocks:
        if b.w is not None:
            resid -= np.outer(b.w, b.w.conj())
    vals, vecs = np.linalg.eigh(resid)
    for p_val, col in zip(vals, vecs.T):
        if p_val > 0.5:
            blocks.append(JordanBlock(1, 0.0, None, col))
    total = sum(b.dim for b in blocks)
    if total > n + 1e-9:
        raise JordanError("block dimensions exceed ambient dimension")
    return JordanDecomposition(tuple(blocks), n)


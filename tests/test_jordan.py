import numpy as np
import pytest

from reference import max_overlap

from qmsep.hilbert import Projector, haar_unitary
from qmsep.jordan import JordanError, jordan_decompose
from qmsep.streams import Stream


def random_projector(dim, rank, stream):
    u = haar_unitary(dim, stream.gen)
    cols = u[:, :rank]
    return Projector(cols @ cols.conj().T)


def reconstruct(decomp, which):
    dim = decomp.dimension
    out = np.zeros((dim, dim), dtype=np.complex128)
    for b in decomp.blocks:
        vec = b.v if which == 1 else b.w
        if vec is not None:
            out += np.outer(vec, vec.conj())
    return out


def test_equal_projectors_single_p1_block():
    pi = Projector(np.diag([1.0, 0]).astype(np.complex128))
    d = jordan_decompose(pi, pi)
    assert len(d.blocks) == 1
    b = d.blocks[0]
    assert b.dim == 1 and b.p == 1.0
    assert np.allclose(np.abs(b.v), [1, 0])
    assert d.kernel_dim == 1


def test_zero_plus_gives_half_overlap():
    p1 = Projector(np.diag([1.0, 0]).astype(np.complex128))
    p2 = Projector(np.full((2, 2), 0.5, dtype=np.complex128))
    d = jordan_decompose(p1, p2)
    assert len(d.blocks) == 1
    b = d.blocks[0]
    assert b.dim == 2
    assert abs(b.p - 0.5) < 1e-12
    assert abs(abs(np.vdot(b.v, b.w)) ** 2 - 0.5) < 1e-12


def test_orthogonal_projectors_one_dim_blocks():
    p1 = Projector(np.diag([1.0, 0]).astype(np.complex128))
    p2 = Projector(np.diag([0, 1.0]).astype(np.complex128))
    d = jordan_decompose(p1, p2)
    assert sorted(b.p for b in d.blocks) == [0.0, 0.0]
    assert {b.dim for b in d.blocks} == {1}
    # one block carries only v, the other only w
    assert sorted((b.v is None, b.w is None) for b in d.blocks) == \
        [(False, True), (True, False)]


def test_random_pairs_reconstruction_invariance_spectrum():
    stream = Stream(77)
    for trial in range(100):
        dim = int(stream.integers(2, 17))
        r1 = int(stream.integers(1, dim))
        r2 = int(stream.integers(1, dim))
        p1 = random_projector(dim, r1, stream)
        p2 = random_projector(dim, r2, stream)
        d = jordan_decompose(p1, p2)

        assert np.abs(reconstruct(d, 1) - p1.matrix).max() < 1e-8
        assert np.abs(reconstruct(d, 2) - p2.matrix).max() < 1e-8

        # each block span is invariant under both projectors
        for blk in d.blocks:
            if blk.dim == 1:
                vecs = [blk.v if blk.v is not None else blk.w]
            else:
                vecs = [blk.v, blk.w]
            basis, _ = np.linalg.qr(np.stack(vecs, axis=1))
            bp = basis @ basis.conj().T
            for pi in (p1, p2):
                assert np.abs(pi.matrix @ bp - bp @ pi.matrix @ bp).max() < 1e-8

        # multiset of p over v-blocks matches spec(P1 P2 P1) restricted
        # to range(P1); zero rows of the product are p=0 blocks
        h = p1.matrix @ p2.matrix @ p1.matrix
        want = np.sort(np.linalg.eigvalsh(h))[-r1:]
        got = np.sort([b.p for b in d.blocks if b.v is not None])
        assert len(got) == r1
        assert np.abs(got - want).max() < 1e-8

        # dimension accounting
        assert sum(b.dim for b in d.blocks) + d.kernel_dim == dim
        assert d.kernel_dim >= 0


def test_block_vectors_orthogonal_across_blocks():
    stream = Stream(5)
    p1 = random_projector(8, 3, stream)
    p2 = random_projector(8, 4, stream)
    d = jordan_decompose(p1, p2)
    vs = [b.v for b in d.blocks if b.v is not None]
    ws = [b.w for b in d.blocks if b.w is not None]
    for vecs in (vs, ws):
        g = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.abs(g - np.eye(len(vecs))).max() < 1e-8


def test_max_overlap_examples():
    p1 = Projector(np.diag([1.0, 0]).astype(np.complex128))
    p2 = Projector(np.full((2, 2), 0.5, dtype=np.complex128))
    p, v = max_overlap(jordan_decompose(p1, p2))
    assert abs(p - 0.5) < 1e-12
    assert abs(abs(v[0]) - 1) < 1e-12  # |0> up to phase

    d = jordan_decompose(Projector(np.eye(2)), Projector(np.diag([1.0, 0])))
    p, _ = max_overlap(d)
    assert p == 1.0


def test_max_overlap_matches_top_eigenvalue():
    stream = Stream(13)
    for _ in range(20):
        p1 = random_projector(6, 3, stream)
        p2 = random_projector(6, 2, stream)
        p, v = max_overlap(jordan_decompose(p1, p2))
        h = p1.matrix @ p2.matrix @ p1.matrix
        top = float(np.linalg.eigvalsh(h)[-1])
        assert abs(p - top) < 1e-8
        assert abs(float(np.vdot(v, h @ v).real) - top) < 1e-8


def test_max_overlap_requires_v_blocks():
    zero = Projector(np.zeros((2, 2)))
    some = Projector(np.diag([1.0, 0]).astype(np.complex128))
    with pytest.raises(JordanError):
        max_overlap(jordan_decompose(zero, some))


def test_dimension_mismatch_and_cap():
    p2 = Projector(np.eye(2))
    p4 = Projector(np.eye(4))
    with pytest.raises(JordanError):
        jordan_decompose(p2, p4)
    with pytest.raises(JordanError):
        jordan_decompose(p4, p4, dim_cap=2)


def test_near_degenerate_overlaps_snap():
    eps = 1e-12
    c, s = np.sqrt(1 - eps), np.sqrt(eps)
    w = np.array([c, s])
    p1 = Projector(np.diag([1.0, 0]).astype(np.complex128))
    p2 = Projector(np.outer(w, w))
    d = jordan_decompose(p1, p2)
    assert all(b.dim == 1 for b in d.blocks)
    assert any(b.p == 1.0 for b in d.blocks)

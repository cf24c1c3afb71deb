import hashlib
import itertools

import numpy as np
import pytest

import oracle_reference as ref
from reference import (
    FACTOR_NAMES,
    QState,
    RegisterLayout,
    check_norm,
    max_entangled,
    measure_coherently,
    measure_projective,
)

from qmsep.hilbert import (
    DensityOp,
    HilbertError,
    Projector,
    embed_unitary,
    ginibre,
    haar_unitary,
    kron,
    partial_trace,
)
from qmsep.harness import _matrix_td
from qmsep.money import _factor
from qmsep.streams import Stream

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=np.complex128)
NOTC = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                dtype=np.complex128)  # control on second qubit


def qubits(n, name="R"):
    return RegisterLayout(((name, n),))


def basis_state(layout, idx):
    a = np.zeros(layout.dim, dtype=np.complex128)
    a[idx] = 1.0
    return QState(layout, a)


def _sub(idx, n, axes):
    """The listed qubits of an n-qubit basis index, read big-endian."""
    out = 0
    for a in axes:
        out = (out << 1) | ((idx >> (n - 1 - a)) & 1)
    return out


def random_state(layout, stream):
    a = stream.gen.normal(size=layout.dim) + 1j * stream.gen.normal(size=layout.dim)
    return QState(layout, a / np.linalg.norm(a))


# ---------------------------------------------------------------- layouts


def test_layout_rejects_duplicates_and_zero_width():
    with pytest.raises(HilbertError):
        RegisterLayout((("A", 1), ("A", 2)))
    with pytest.raises(HilbertError):
        RegisterLayout((("A", 0),))


def test_layout_axes_are_big_endian_in_declared_order():
    lay = RegisterLayout((("A", 2), ("B", 1)))
    assert lay.axes("A") == [0, 1]
    assert lay.axes("B") == [2]
    assert lay.axes(["B", "A"]) == [2, 0, 1]
    assert lay.dim == 8


# ---------------------------------------------------------- max_entangled


def test_max_entangled_dim2_is_bell():
    psi = max_entangled(2)
    expect = np.zeros(4)
    expect[0] = expect[3] = 1 / np.sqrt(2)
    assert np.allclose(psi.amplitudes, expect)


def test_max_entangled_dim4_uniform_diagonal():
    psi = max_entangled(4)
    for i in range(4):
        assert abs(psi.amplitudes[4 * i + i] - 0.5) < 1e-12
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


def test_max_entangled_rejects_non_power_of_two():
    with pytest.raises(HilbertError):
        max_entangled(3)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_max_entangled_basis_invariance(dim):
    # sum_i U|i> (x) conj(U)|i> equals sum_i |i>|i> for any unitary U
    stream = Stream(40 + dim)
    psi = max_entangled(dim)
    for _ in range(5):
        u = haar_unitary(dim, stream.gen)
        rot = np.kron(u, u.conj())
        assert np.linalg.norm(rot @ psi.amplitudes - psi.amplitudes) < 1e-9


# ----------------------------------------------------------- embed_unitary


def apply_on(psi, g, targets):
    lay = psi.layout
    out = embed_unitary(g, lay.axes(targets), lay.total_qubits, psi.amplitudes)
    return check_norm(QState(lay, out))


def test_apply_h_on_zero():
    psi = apply_on(basis_state(qubits(1), 0), H, "R")
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_identity_is_noop():
    psi = random_state(qubits(3), Stream(1))
    out = apply_on(psi, np.eye(8), "R")
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(HilbertError):
        apply_on(basis_state(qubits(2), 0), H, "R")
    with pytest.raises(HilbertError):
        embed_unitary(np.eye(2, 4), [0], 2, np.eye(4))


def test_fourier_conjugation_swaps_cnot_direction():
    # (H (x) H) CNOT (H (x) H) equals CNOT with control and target exchanged
    hh = np.kron(H, H)
    assert np.allclose(hh @ CNOT @ hh, NOTC, atol=1e-12)
    # and on the state |10>, conjugated CNOT acts as the swapped gate
    psi = basis_state(qubits(2), 2)
    out = apply_on(apply_on(apply_on(psi, hh, "R"), CNOT, "R"), hh, "R")
    assert np.allclose(out.amplitudes, NOTC @ psi.amplitudes)


def test_apply_on_subset_register():
    lay = RegisterLayout((("A", 1), ("B", 1)))
    psi = apply_on(basis_state(lay, 0), H, "B")
    assert np.allclose(psi.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])


def _kron_embedding(g, axes, n):
    """E(g) by index loops: entry (i, j) is g[i_axes, j_axes] when i and j
    agree off the listed axes, else 0."""
    dim = 1 << n
    rest = [a for a in range(n) if a not in axes]
    e = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            if _sub(i, n, rest) == _sub(j, n, rest):
                e[i, j] = g[_sub(i, n, axes), _sub(j, n, axes)]
    return e


@pytest.mark.parametrize("axes", [[0], [2], [1, 3], [3, 0], [2, 0, 3]])
def test_embed_unitary_is_the_big_endian_embedding(axes):
    n = 4
    stream = Stream(40 + len(axes))
    g = haar_unitary(1 << len(axes), stream.gen)
    e = _kron_embedding(g, axes, n)
    assert np.abs(embed_unitary(g, axes, n, np.eye(1 << n)) - e).max() < 1e-12
    x = stream.gen.normal(size=(1 << n, 3)) + 1j * stream.gen.normal(size=(1 << n, 3))
    assert np.abs(embed_unitary(g, axes, n, x) - e @ x).max() < 1e-12
    assert np.abs(embed_unitary(g, axes, n, x[:, 0]) - e @ x[:, 0]).max() < 1e-12


def _embed_cases(n):
    """Every ordered list of up to three of n axes, each with a Haar gate
    and a vector, a 3-column matrix and the identity as inputs."""
    rng = np.random.default_rng(100 + n)
    for t in range(1, min(n, 3) + 1):
        for axes in itertools.permutations(range(n), t):
            g = haar_unitary(1 << t, rng)
            vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            mat = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
            for x in (vec, mat, np.eye(1 << n, dtype=np.complex128)):
                yield g, list(axes), x


# sha256 of embed_unitary's outputs over _embed_cases(n), recorded while it
# moved the gate's axes to the front with np.moveaxis
EMBED_SHA256 = {
    1: "87b7b02e6895399a509c9fe1a5ea1c9d3bc918a3233cf5e473e9f1047d2c4bc9",
    2: "604a598e0dd7560a81bb0afce8dbbc44223223ea0cd461e25d34c6d9178f9e04",
    3: "f30c6e820798f18a20062107b1856b743b3d089bb7753617272564313d734a65",
    4: "d028a2a47798ff02770105da6f5c5e6a1d65f7af63017447b59681908e4310df",
    5: "473560dd6ba1f71c5e89d911688defa79adc07d0bb2aa90454d29e6933e695bf",
}


@pytest.mark.parametrize("n", list(EMBED_SHA256))
def test_embed_unitary_bytes_are_pinned(n):
    h = hashlib.sha256()
    for g, axes, x in _embed_cases(n):
        h.update(embed_unitary(g, axes, n, x).tobytes())
    assert h.hexdigest() == EMBED_SHA256[n]


def test_kron_is_byte_equal_to_np_kron_on_check_projector_chains():
    factors = [_factor(f) for f in FACTOR_NAMES]
    stream = Stream(61)
    for _ in range(20):
        ours = ref = np.ones((1, 1), dtype=np.complex128)
        for _ in range(8):  # 1x1 up to 2^8 x 2^8
            f = factors[int(stream.integers(0, len(factors)))]
            ours, ref = kron(ours, f), np.kron(ref, f)
            assert ours.tobytes() == ref.tobytes()


def test_kron_is_byte_equal_to_np_kron_on_random_shapes():
    stream = Stream(62)
    for _ in range(50):
        sa, sb = stream.integers(1, 6, 2), stream.integers(1, 6, 2)
        a = stream.gen.normal(size=sa) + 1j * stream.gen.normal(size=sa)
        b = stream.gen.normal(size=sb) + 1j * stream.gen.normal(size=sb)
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


# ------------------------------------------------------------ partial trace


def _pt_oracle(amps, n, keep_axes):
    """Brute-force partial trace by index loops."""
    other = [a for a in range(n) if a not in keep_axes]
    dk = 1 << len(keep_axes)
    rho = np.zeros((dk, dk), dtype=np.complex128)
    for i in range(1 << n):
        for j in range(1 << n):
            if _sub(i, n, other) == _sub(j, n, other):
                rho[_sub(i, n, keep_axes), _sub(j, n, keep_axes)] += \
                    amps[i] * np.conj(amps[j])
    return rho


def test_partial_trace_product_state():
    lay = RegisterLayout((("A", 1), ("B", 1)))
    amps = np.kron([1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    rho = partial_trace(QState(lay, amps).amplitudes, lay.axes("A"), 2)
    assert np.allclose(rho.matrix, [[1, 0], [0, 0]])


def test_partial_trace_bell_is_maximally_mixed():
    psi = max_entangled(2)
    for side in ("M", "Aux"):
        rho = partial_trace(psi.amplitudes, psi.layout.axes(side), 2)
        assert np.allclose(rho.matrix, np.eye(2) / 2)


def test_partial_trace_matches_index_loop_oracle():
    stream = Stream(9)
    for trial in range(100):
        n = int(stream.integers(2, 6))
        widths = []
        left = n
        while left:
            w = int(stream.integers(1, left + 1))
            widths.append(w)
            left -= w
        lay = RegisterLayout(tuple((f"R{i}", w) for i, w in enumerate(widths)))
        psi = random_state(lay, stream)
        n_keep = int(stream.integers(1, len(widths) + 1))
        keep = [f"R{i}" for i in sorted(
            stream.choice(len(widths), size=n_keep, replace=False))]
        got = partial_trace(psi.amplitudes, lay.axes(keep), n)
        want = _pt_oracle(psi.amplitudes, n, lay.axes(keep))
        assert np.abs(got.matrix - want).max() < 1e-9
        got.check()


def test_partial_trace_of_density_matches_state_path():
    psi = random_state(RegisterLayout((("A", 2), ("B", 1))), Stream(3))
    a = partial_trace(psi.amplitudes, psi.layout.axes("A"), 3).matrix
    rho = DensityOp(np.outer(psi.amplitudes, psi.amplitudes.conj()))
    b = partial_trace(rho.matrix, psi.layout.axes("A"), 3).matrix
    assert np.abs(a - b).max() < 1e-10


def test_partial_trace_unknown_register():
    with pytest.raises(HilbertError):
        psi = max_entangled(2)
        partial_trace(psi.amplitudes, psi.layout.axes("Nope"), 2)


# ------------------------------------------------------------- measurement


def test_measure_projective_deterministic_cases():
    pi0 = Projector(np.array([[1, 0], [0, 0]], dtype=np.complex128))
    out, post, p = measure_projective(basis_state(qubits(1), 0), pi0, Stream(0))
    assert out == 1 and p == 1.0
    assert np.allclose(post.amplitudes, [1, 0])


def test_measure_projective_plus_state_half():
    pi0 = Projector(np.array([[1, 0], [0, 0]], dtype=np.complex128))
    plus = QState(qubits(1), np.array([1, 1]) / np.sqrt(2))
    _, _, p = measure_projective(plus, pi0, Stream(0))
    assert abs(p - 0.5) < 1e-12


def test_measure_projective_monte_carlo_frequency():
    stream = Stream(14)
    psi = random_state(qubits(3), stream)
    u = haar_unitary(2, stream.gen)
    pi = Projector(np.kron(u @ np.diag([1.0, 0]) @ u.conj().T, np.eye(4)))
    p_exact = float(np.vdot(psi.amplitudes, pi.matrix @ psi.amplitudes).real)
    n = 10_000
    hits = sum(measure_projective(psi, pi, stream)[0] for _ in range(n))
    sigma = np.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(hits / n - p_exact) < 3 * sigma + 1e-12


def test_measure_coherently_plus_state():
    lay = RegisterLayout((("A", 1), ("Y", 1)))
    plus = QState(lay, np.kron([1, 1], [1, 0]) / np.sqrt(2))
    pi0 = Projector(np.array([[1, 0], [0, 0]], dtype=np.complex128))
    out = measure_coherently(plus, pi0, "Y", targets=["A"])
    # |0>_A flips Y to 1, |1>_A leaves Y at 0
    expect = np.zeros(4)
    expect[0b01] = expect[0b10] = 1 / np.sqrt(2)
    assert np.allclose(out.amplitudes, expect)


def test_measure_coherently_identity_projector():
    lay = RegisterLayout((("A", 1), ("Y", 1)))
    psi = QState(lay, np.kron([0.6, 0.8], [1, 0]))
    out = measure_coherently(psi, Projector(np.eye(2)), "Y", targets=["A"])
    odd = out.amplitudes.reshape(2, 2)[:, 1]
    assert np.allclose(np.abs(odd) ** 2, [0.36, 0.64])


def test_measure_coherently_requires_fresh_qubit():
    lay = RegisterLayout((("A", 1), ("Y", 1)))
    bad = QState(lay, np.kron([1, 0], [0, 1]).astype(np.complex128))
    with pytest.raises(HilbertError):
        measure_coherently(bad, Projector(np.eye(2)), "Y", targets=["A"])


def test_measure_coherently_traced_equals_dephasing():
    stream = Stream(21)
    lay = RegisterLayout((("A", 2), ("Y", 1)))
    amps = np.zeros(lay.dim, dtype=np.complex128)
    base = stream.gen.normal(size=4) + 1j * stream.gen.normal(size=4)
    base /= np.linalg.norm(base)
    amps[::2] = base  # Y fresh |0>
    psi = QState(lay, amps)
    u = haar_unitary(4, stream.gen)
    pi = Projector(u @ np.diag([1.0, 1.0, 0, 0]) @ u.conj().T)
    out = measure_coherently(psi, pi, "Y", targets=["A"])
    got = partial_trace(out.amplitudes, lay.axes("A"), lay.total_qubits).matrix
    rho = np.outer(base, base.conj())
    rest = np.eye(4) - pi.matrix
    want = pi.matrix @ rho @ pi.matrix + rest @ rho @ rest
    assert np.abs(got - want).max() < 1e-9


def test_coherent_vs_projective_outcome_distribution():
    stream = Stream(33)
    lay = RegisterLayout((("A", 2), ("Y", 1)))
    base = stream.gen.normal(size=4) + 1j * stream.gen.normal(size=4)
    base /= np.linalg.norm(base)
    amps = np.zeros(lay.dim, dtype=np.complex128)
    amps[::2] = base
    psi = QState(lay, amps)
    u = haar_unitary(4, stream.gen)
    pi = Projector(u @ np.diag([1.0, 0, 0, 0]) @ u.conj().T)
    coh = measure_coherently(psi, pi, "Y", targets=["A"])
    p_coh = float((np.abs(coh.amplitudes.reshape(4, 2)[:, 1]) ** 2).sum())
    n = 10_000
    small = QState(RegisterLayout((("A", 2),)), base)
    hits = sum(measure_projective(small, pi, stream)[0] for _ in range(n))
    assert abs(hits / n - p_coh) <= 0.02


# ---------------------------------------------------------- trace distance


def test_trace_distance_examples():
    z0 = np.diag([1.0, 0]).astype(np.complex128)
    z1 = np.diag([0, 1.0]).astype(np.complex128)
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    assert _matrix_td(z0, z0) == 0.0
    assert abs(_matrix_td(z0, z1) - 1.0) < 1e-12
    assert abs(_matrix_td(z0, plus) - 1 / np.sqrt(2)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 5, 64, 512])
def test_trace_distance_is_the_svd_reference(d):
    """eigvalsh's trace distance of two random density matrices equals half
    the singular-value sum of their difference within 1e-12."""
    gen = np.random.default_rng(d)
    a, b = (w @ w.conj().T for w in (ginibre(d, gen), ginibre(d, gen)))
    a, b = a / np.trace(a).real, b / np.trace(b).real
    assert abs(_matrix_td(a, b) - ref.matrix_td_by_svd(a, b)) <= 1e-12


# -------------------------------------------------------------- validators


def test_projector_rejects_non_idempotent():
    with pytest.raises(HilbertError):
        Projector(np.diag([0.5, 0.5]))


def test_density_check_rejects_bad_trace():
    with pytest.raises(HilbertError):
        DensityOp(np.eye(2)).check()


def test_density_check_rejects_a_non_hermitian_matrix():
    # trace 1 and eigenvalues 1/2, 1/2: only the Hermitian test fails
    with pytest.raises(HilbertError, match="not Hermitian"):
        DensityOp(np.array([[0.5, 0.5], [0.0, 0.5]])).check()


def test_density_check_rejects_a_negative_eigenvalue():
    # Hermitian with trace 1, but eigenvalues 1.5 and -0.5
    with pytest.raises(HilbertError, match="eigenvalue -0.5"):
        DensityOp(np.diag([1.5, -0.5])).check()


def test_state_norm_check():
    with pytest.raises(HilbertError):
        check_norm(QState(qubits(1), np.array([1.0, 1.0])))


def test_haar_unitary_is_unitary():
    u = haar_unitary(8, Stream(2).gen)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


# sha256 of haar_unitary(dim, Stream(seed).gen) bytes, recorded while it
# drew and finished one matrix in one call
HAAR_SHA256 = {
    (2, 0): "78186e17e8f9e4faa588b33f8b5581f3df8f277e6a07b1ac1db4927dc778d074",
    (2, 7): "7d57f3663ab5d047b1fe63b7fb501ab0cae4567313fbcc3358d0c7de2f656b20",
    (4, 3): "44dacf32ae668646e1ed5cb5458f7d0ddde622831fe7f5c4f6c37b2b534a1912",
    (8, 11): "10e936e29ae5e911857e0b9ace7e9f2021fa38cd9956830f7455e57a4542afcb",
}


@pytest.mark.parametrize("dim, seed", list(HAAR_SHA256))
def test_haar_unitary_bytes_are_pinned(dim, seed):
    u = haar_unitary(dim, Stream(seed).gen)
    assert hashlib.sha256(u.tobytes()).hexdigest() == HAAR_SHA256[dim, seed]

"""Dense state-vector simulation over named qubit registers.

Index arithmetic is big-endian over the declared register order: the first
register holds the most significant bits of the computational-basis index,
and the first qubit inside a register is that register's most significant
bit.  This ordering is the single source of truth: RegisterLayout.axes
turns register names into qubit axes, and embed_unitary and partial_trace
act on those axes.  Measurements on QState live in tests/reference.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

QUBIT_CAP = 22       # widest register layout a dense state may have
STRUCT_TOL = 1e-9    # structural invariants: norms, hermiticity, idempotence
UNITARY_TOL = 1e-6   # admission threshold for user-supplied unitaries

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


class HilbertError(ValueError):
    pass


@dataclass(frozen=True)
class RegisterLayout:
    registers: tuple

    def __post_init__(self):
        regs = tuple((str(n), int(w)) for n, w in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise HilbertError(f"duplicate register names in {names}")
        if any(w < 1 for _, w in regs):
            raise HilbertError("register widths must be >= 1")
        if self.total_qubits > QUBIT_CAP:
            raise HilbertError(
                f"layout needs {self.total_qubits} qubits, cap is {QUBIT_CAP}")

    @property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.registers)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    def axes(self, names) -> list:
        """Global qubit axes occupied by the named registers, in order."""
        if isinstance(names, str):
            names = [names]
        offsets = {}
        pos = 0
        for n, w in self.registers:
            offsets[n] = (pos, w)
            pos += w
        out = []
        for name in names:
            if name not in offsets:
                raise HilbertError(f"unknown register {name!r}")
            o, w = offsets[name]
            out.extend(range(o, o + w))
        return out


@dataclass(frozen=True)
class QState:
    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.dim,):
            raise HilbertError(
                f"amplitude vector has shape {amps.shape}, layout dim {self.layout.dim}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityOp:
    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise HilbertError(f"density matrix shape {m.shape}, expected {(d, d)}")
        object.__setattr__(self, "matrix", m)

    def check(self) -> "DensityOp":
        m = self.matrix
        if np.abs(m - m.conj().T).max() > STRUCT_TOL:
            raise HilbertError("density matrix not Hermitian")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > STRUCT_TOL:
            raise HilbertError(f"density matrix trace {tr}, not 1")
        w = np.linalg.eigvalsh(m)
        if w.min() < -STRUCT_TOL:
            raise HilbertError(f"density matrix has eigenvalue {w.min()} < 0")
        return self


@dataclass(frozen=True)
class Projector:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise HilbertError("projector must be square")
        if np.abs(m - m.conj().T).max() > STRUCT_TOL:
            raise HilbertError("projector not Hermitian")
        if np.abs(m @ m - m).max() > STRUCT_TOL:
            raise HilbertError("projector not idempotent")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def index_bits(index, n: int, qubits) -> int:
    """The listed qubits of an n-qubit basis index, read big-endian.

    index may also be a numpy integer array, read element-wise.
    """
    out = 0
    for q in qubits:
        out = (out << 1) | ((index >> (n - 1 - q)) & 1)
    return out


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, byte-equal to np.kron(a, b).

    It makes the same one multiplication per entry as np.kron, without
    np.kron's general-rank set-up, which dominates on the 2x2 factors the
    attack multiplies: 2.6-2.9 us a call against 22-31 us on a 2-core
    Xeon host.
    """
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def embed_unitary(g: np.ndarray, qubit_axes, n: int, x: np.ndarray) -> np.ndarray:
    """E(g) x, where E(g) applies gate g to the listed qubit axes of n
    qubits and the identity elsewhere.

    x is a 2^n vector or a matrix with 2^n rows.  g acts on the axes of x's
    qubit-tensor view, so E(g) itself is never built; pass the identity to
    get E(g) as a matrix.
    """
    t = len(qubit_axes)
    if g.shape != (1 << t, 1 << t):
        raise HilbertError(f"gate of shape {g.shape} cannot act on {t} qubits")
    front, back = _front_perms(tuple(qubit_axes), n + x.ndim - 1)
    tensor = x.reshape((2,) * n + x.shape[1:]).transpose(front)
    shape = tensor.shape
    tensor = (g @ tensor.reshape(1 << t, -1)).reshape(shape)
    return tensor.transpose(back).reshape(x.shape)


@functools.lru_cache(maxsize=1024)
def _front_perms(axes: tuple, ndim: int) -> tuple:
    """The transpose that moves axes, in order, to the front of an ndim
    tensor, keeping the rest in order, and its inverse: the permutations
    np.moveaxis(x, axes, range(len(axes))) builds on every call."""
    front = axes + tuple(a for a in range(ndim) if a not in axes)
    return front, tuple(np.argsort(front).tolist())


def partial_trace(state, keep) -> DensityOp:
    if isinstance(keep, str):
        keep = [keep]
    layout = state.layout
    keep_axes = layout.axes(keep)
    n = layout.total_qubits
    other_axes = [a for a in range(n) if a not in keep_axes]
    dk = 1 << len(keep_axes)
    dt = 1 << len(other_axes)
    widths = dict(layout.registers)
    sub = RegisterLayout(tuple((nm, widths[nm]) for nm in keep))
    if isinstance(state, QState):
        tensor = state.amplitudes.reshape((2,) * n)
        tensor = np.moveaxis(tensor, keep_axes, range(len(keep_axes)))
        mat = tensor.reshape(dk, dt)
        rho = mat @ mat.conj().T
    else:
        perm = keep_axes + other_axes
        tensor = state.matrix.reshape((2,) * (2 * n))
        tensor = tensor.transpose(perm + [n + p for p in perm])
        tensor = tensor.reshape(dk, dt, dk, dt)
        rho = np.einsum("itjt->ij", tensor)
    return DensityOp(sub, rho)


def ginibre(dim: int, rng) -> np.ndarray:
    """A dim x dim complex Ginibre matrix: haar_unitary's draw."""
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2)


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """haar_unitary's finish: Q of z's QR, times the phases of R's diagonal.
    On a stack of matrices, one batched QR gives each its own QR's bytes."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, rng))

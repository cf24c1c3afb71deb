"""Oracle-aided public-key quantum money as tag templates.

A scheme is its template tags(m): one (serial index k, basis tag, bit tag)
triple per note qubit.  A note draws one serial per index, and tag t of
slot k names the oracle position (serial[k] << tag_bits) | t, so
checks(serial) gives each qubit a (basis, bit) pair of positions; a basis
tag of None stands for the computational basis.  Qubit i of a valid note is
|R(bit)>, with H applied when R(basis) = 1.  Verification queries each
check's positions classically, in check order (basis first), and measures
qubit i with the projector onto that state, so valid notes are perfectly
correct and perfectly reusable.  One basis change, the check frame
U = (x)_i H^R(basis_i), turns every check into a computational-basis one
(Wiesner's conjugate coding), so verify reads all m outcomes off the
diagonal of U rho U.  MoneyScheme derives everything else from
the template: the serial and tag widths, the query positions of verify,
which are mint's too, and their count q = q', mint, verify, the verifier
simulated from a partial database D (an unknown position becomes a fresh
|+> ancilla) as a circuit and as the 2^m x 2^m operator synthesis reads,
the factor key that names that operator by one of seven 2x2 factors per
check, and the exact acceptance probability of a note.  The three toy schemes
differ only in their templates, for i < m:

hash-tag        [(0, None, i)]
conjugate       [(0, 2i, 2i+1)]
counterexample  [(0, None, 0)] + [(1, 1+2i, 2+2i)]: the bit R(s) of a first
                serial s, then the conjugate checks of a second serial s';
                mint learns R(s) with one quantum query on a uniform serial
                superposition whose serial register it then measures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import HADAMARD, DensityOp, embed_unitary, index_bits, kron
from .oracle import ORACLE_L_CAP
from .synth import ReducedVerifier, VerifierSpec, note_layout

_CH = np.eye(4, dtype=np.complex128)
_CH[2:, 2:] = HADAMARD  # controlled-H, control qubit first


class MoneyError(ValueError):
    pass


@dataclass(frozen=True)
class Banknote:
    serial: tuple
    state: DensityOp


class WorldHandle:
    """Answers oracle queries from one bit map and records the classical
    ones in dr.

    A world built from a table, the (2^l,) 0/1 array sample_oracle returns,
    holds every bit from the start; a lazy world draws each position from
    stream on first use, which reproduces the purified oracle's statistics
    for the query patterns used here (the one quantum query any scheme
    makes is immediately followed by a measurement of its input register,
    so sampling it eagerly commutes with the rest of the run).
    """

    def __init__(self, l: int, stream=None, table: np.ndarray | None = None):
        if table is None and stream is None:
            raise MoneyError("a world needs a table or a stream")
        self.l = l
        self.bits = {} if table is None else dict(enumerate(table.tolist()))
        self.stream = stream
        self.dr = []  # append-only classical query record

    def _bit(self, x: int) -> int:
        if not (0 <= x < (1 << self.l)):
            raise MoneyError(f"oracle position {x} out of range for l = {self.l}")
        if x not in self.bits:
            self.bits[x] = int(self.stream.integers(0, 2))
        return self.bits[x]

    def query(self, x: int, quantum: bool = False) -> int:
        z = self._bit(x)
        if not quantum:
            self.dr.append((x, z))
        return z


# the two one-qubit check frames: row z of _FRAMES[b] is the state a check
# in basis b (1 the Hadamard basis) holds for bit z
_FRAMES = (np.eye(2, dtype=np.complex128), HADAMARD)
# every 2x2 factor of a note operator, by factor id: 3 + 2b + z projects
# onto row z of frame b, 1 + z is the mean over both bases at bit z, and 0
# is I/2, the mean over both bits
_PROJ = [np.outer(f[z], f[z].conj()) for f in _FRAMES for z in (0, 1)]
_FACTORS = (_FRAMES[0] / 2, *((_PROJ[z] + _PROJ[2 + z]) / 2 for z in (0, 1)),
            *_PROJ)


@functools.lru_cache(maxsize=64)  # 1 MB each, 64 MB, at the 8-qubit note cap
def _product(ids: tuple, frames: bool = False) -> np.ndarray:
    """(x)_i T[ids[i]] for T = _FRAMES if frames else _FACTORS: a note, a
    simulated verifier's A or a check frame.  Notes and verifiers share
    it, so it is read-only."""
    out = np.ones((1, 1), dtype=np.complex128)
    for f in ids:
        out = kron(out, (_FRAMES if frames else _FACTORS)[f])
    out.flags.writeable = False
    return out


class MoneyScheme:
    """A scheme given by its tag template; subclasses define tags(m)."""

    quantum_mint = False  # mint learns the first check's bit quantumly

    @staticmethod
    def tags(m: int) -> list:
        """One (serial index, basis tag or None, bit tag) triple per note
        qubit of the scheme of size m."""
        raise NotImplementedError

    def __init__(self, l: int = 6, m: int = 2):
        if l > ORACLE_L_CAP:
            raise MoneyError(f"l = {l} exceeds cap {ORACLE_L_CAP}")
        if m < 1:
            raise MoneyError(f"m must be >= 1, got {m}")
        if m > 2 ** l:  # m bit tags cannot fit; bounds what tags(m) builds
            raise MoneyError("l too small for the requested m")
        self.template = self.tags(m)
        tags = [t for _, *pair in self.template for t in pair if t is not None]
        # checks share a position for some serial exactly when they share a tag
        if len(set(tags)) < len(tags):
            raise MoneyError("checks must not share a tag")
        self.l = l
        self.m = len(self.template)
        self.serials = 1 + max(k for k, _, _ in self.template)
        self.tag_bits = max(1, max(tags).bit_length())
        self.s_bits = l - self.tag_bits
        if self.s_bits < 1:
            raise MoneyError("l too small for the requested m")

    def checks(self, serial) -> list:
        """One (basis, bit) pair of oracle positions per note qubit."""
        tb = self.tag_bits
        return [(None if basis is None else (serial[k] << tb) | basis,
                 (serial[k] << tb) | bit) for k, basis, bit in self.template]

    def verify_positions(self, serial) -> list:
        """The positions verify queries, in query order."""
        return [x for check in self.checks(serial) for x in check if x is not None]

    @property
    def queries(self) -> int:
        """q = q': the queries verify makes on a note, and mint to mint it."""
        return len(self.verify_positions((0,) * self.serials))

    def _read_checks(self, serial, world, record=True, quantum_first=False):
        """The world's (basis, bit) at each check, b = 0 for a basis of
        None, read basis then bit, check by check, so a lazy world draws in
        one order whoever reads it.  Each read is a classical query that
        world.dr records, or with record off a plain read; quantum_first
        reads the first bit with a quantum query, as a quantum mint does."""
        read = world.query if record else world._bit
        pairs = []
        for i, (basis, bit) in enumerate(self.checks(serial)):
            b = 0 if basis is None else read(basis)
            quantum = quantum_first and i == 0
            z = world.query(bit, quantum=True) if quantum else read(bit)
            pairs.append((b, z))
        return pairs

    def mint(self, world, stream) -> Banknote:
        serial = tuple(int(stream.integers(0, 1 << self.s_bits))
                       for _ in range(self.serials))
        # a quantum mint's query register is measured at once, so sampling
        # s first is equivalent
        pairs = self._read_checks(serial, world, quantum_first=self.quantum_mint)
        mat = _product(tuple(3 + 2 * b + z for b, z in pairs))
        return Banknote(serial=serial, state=DensityOp(note_layout(self.m), mat))

    def verify(self, note: Banknote, world: WorldHandle, stream):
        """Measure qubit i with check i's projector, for i = 0..m-1 in turn,
        after querying every check's positions; returns (all checks hit,
        post-measurement note).

        In the check frame U each projector is |z_i><z_i| on qubit i, so the
        outcome probabilities are sums over the diagonal of U rho U: check i
        hits with probability the surviving mass whose bit i is z_i, over
        all surviving mass.  Each outcome fixes one bit, so one index j
        survives all m checks, and the post-measurement state is U|j><j|U,
        the product of the checks' outcome projectors.  Draw i decides
        check i, as when each qubit was measured on its own.
        """
        pairs = self._read_checks(note.serial, world)
        frame = _product(tuple(b for b, _ in pairs), True)
        # diag(U rho U), U symmetric: row j of U rho times row j of U
        mass = ((frame @ note.state.matrix) * frame).sum(axis=1).real.tolist()
        ok, outcome = True, []
        for (b, z), draw in zip(pairs, stream.random(self.m).tolist()):
            half = len(mass) >> 1
            p1 = sum(mass[half:] if z else mass[:half]) / max(sum(mass), 1e-300)
            hit = draw < min(max(p1, 0.0), 1.0)
            c = z if hit else 1 - z
            mass = mass[half:] if c else mass[:half]
            outcome.append(3 + 2 * b + c)
            ok = ok and hit
        post = _product(tuple(outcome))
        return ok, Banknote(note.serial, DensityOp(note_layout(self.m), post))

    def sim_verifier(self, pk, serial, d: dict) -> VerifierSpec:
        """The verifier with oracle answers taken from d.  pk is ignored:
        perfbench/workloads.py still passes it, and ROADMAP item 1 drops it.

        Each position d lacks becomes an ancilla in |+>, allocated in query
        order; qubit i is then rotated into its check's basis and the answer
        qubit (last) flips when every note qubit holds its check's bit.
        """
        m = self.m
        checks = self.checks(serial)
        anc = {}  # unknown position -> ancilla qubit
        for x in self.verify_positions(serial):
            if x not in d:
                anc.setdefault(x, m + len(anc))
        n = m + len(anc) + 1
        v = np.eye(1 << n, dtype=np.complex128)
        for a in anc.values():
            v = embed_unitary(HADAMARD, [a], n, v)
        for i, (basis, _) in enumerate(checks):
            if basis in anc:
                v = embed_unitary(_CH, [anc[basis], i], n, v)
            elif basis is not None and d[basis] == 1:
                v = embed_unitary(HADAMARD, [i], n, v)
        idx = np.arange(1 << n)
        holds = np.ones(1 << n, dtype=bool)
        for i, (_, bit) in enumerate(checks):
            want = index_bits(idx, n, [anc[bit]]) if bit in anc else d[bit]
            holds &= index_bits(idx, n, [i]) == want
        v = v[np.where(holds, idx ^ 1, idx)]
        return VerifierSpec(m=m, k=len(anc) + 1, v_hat=v, ans_index=n - 1)

    def factor_key(self, serial, d: dict) -> tuple:
        """The factor id of each check in sim_operator(serial, d)'s A: 0
        (I/2) when d lacks the bit, 1 + z (the mean over both bases) when
        it knows bit z but not the basis, and 3 + 2b + z (the projector)
        when it knows both, b = 0 for the computational basis.  Equal keys
        give byte-equal operators, whatever the serial."""
        key = []
        for basis, bit in self.checks(serial):
            if bit not in d:
                key.append(0)
            elif basis is None or basis in d:
                key.append(3 + 2 * (0 if basis is None else d[basis]) + d[bit])
            else:
                key.append(1 + d[bit])
        return tuple(key)

    def sim_operator(self, serial, d: dict) -> ReducedVerifier:
        """A = P1 Q1 P1 of sim_verifier(serial, d) on range(P1), from the
        checks alone.

        The ancillas make each unknown position a uniform bit, so A is the
        mean of the checks' projector product over the unknown bits.  No two
        checks share a position (the constructor rejects a shared tag), so
        that mean factors into one 2x2 operator per check, the one its
        factor_key id names.
        """
        a = _product(self.factor_key(serial, d))
        unknown = sum(x not in d for x in self.verify_positions(serial))
        return ReducedVerifier(m=self.m, k=unknown + 1, a=a)

    def answer_key(self, serial, world: WorldHandle) -> tuple:
        """The factor ids of the true verifier's checks, 3 + 2b + z for the
        world's (basis, bit) at each, read without recording a query."""
        return tuple(3 + 2 * b + z for b, z in
                     self._read_checks(serial, world, record=False))

    def accept_prob(self, note: Banknote, world: WorldHandle) -> float:
        """Exact probability that verify accepts note.

        The checks' projectors commute, so this is Tr(Pi rho) for their
        product Pi, applied to rho one qubit at a time.  The oracle is read
        through answer_key, so it depends on note.state and that key alone.
        """
        rho = note.state.matrix
        for i, f in enumerate(self.answer_key(note.serial, world)):
            rho = embed_unitary(_FACTORS[f], [i], self.m, rho)
        return float(np.trace(rho).real)


class HashTagScheme(MoneyScheme):
    """Classical banknote: the oracle's bits at m serial-derived points."""

    @staticmethod
    def tags(m: int) -> list:
        return [(0, None, i) for i in range(m)]

    # bound in each class body: perfbench/tracer.py spans the methods it
    # finds in a scheme class's own __dict__
    mint = MoneyScheme.mint
    verify = MoneyScheme.verify
    sim_verifier = MoneyScheme.sim_verifier


class ConjugateScheme(MoneyScheme):
    """Conjugate-coding banknote: oracle-derived bases and bits per qubit."""

    @staticmethod
    def tags(m: int) -> list:
        return [(0, 2 * i, 2 * i + 1) for i in range(m)]

    mint = MoneyScheme.mint
    verify = MoneyScheme.verify
    sim_verifier = MoneyScheme.sim_verifier


class CounterexampleScheme(MoneyScheme):
    """Quantum-mint wrapper: serial from a measured quantum query, note
    carries the bit R(s) plus an inner conjugate banknote of m qubits."""

    quantum_mint = True

    @staticmethod
    def tags(m: int) -> list:
        return [(0, None, 0)] + [(1, 1 + 2 * i, 2 + 2 * i) for i in range(m)]

    mint = MoneyScheme.mint
    verify = MoneyScheme.verify
    sim_verifier = MoneyScheme.sim_verifier


SCHEMES = {
    "hash-tag": HashTagScheme,
    "conjugate": ConjugateScheme,
    "counterexample": CounterexampleScheme,
}


def make_scheme(name: str, l: int = 6, m: int = 2) -> MoneyScheme:
    if name not in SCHEMES:
        raise MoneyError(f"unknown scheme {name!r}")
    return SCHEMES[name](l=l, m=m)


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
the factor key that names that operator by one 2x2 factor per check, each
named by what D knows of its check's (basis, bit) (_factor), and the exact
acceptance probability of a note, Tr(Pi rho) for the product Pi of the true
checks' projectors.  Every note the eigen attack holds is a ProductState,
one factor name per qubit: the minted note, named by its checks' (basis,
bit) values, each post-verify note (its checks' outcome projectors) and the
eigen witness against a factor key (witness).  On such a note check i hits
independently, with probability _HIT[s_i][a_i] = Tr(F_a F_s), so verify and
accept_prob read that table and build no 2^m x 2^m matrix, and a
verification whose table entries are all 0 or 1 draws nothing; a dense note,
such as a trial-backend state, goes through the check frame.  The three toy
schemes differ only in their templates, for i < m:

hash-tag        [(0, None, i)]
conjugate       [(0, 2i, 2i+1)]
counterexample  [(0, None, 0)] + [(1, 1+2i, 2+2i)]: the bit R(s) of a first
                serial s, then the conjugate checks of a second serial s';
                mint learns R(s) with one quantum query on a uniform serial
                superposition whose serial register it then measures.
"""

from __future__ import annotations

import functools
import math
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
    state: ProductState | DensityOp


class WorldHandle:
    """Answers oracle queries from one bit source and records the classical
    ones in dr.

    Each position is read once, on first use, as source(x), and kept in
    bits.  The attack's source is drawn_bits, a draw in query order; a
    table's entries serve as well.
    """

    def __init__(self, l: int, source):
        self.l = l
        self.source = source  # position -> its 0/1 int
        self.bits = {}
        self.dr = []  # append-only classical query record

    def _bit(self, x: int) -> int:
        if not (0 <= x < (1 << self.l)):
            raise MoneyError(f"oracle position {x} out of range for l = {self.l}")
        z = self.bits.get(x)
        if z is None:
            z = self.bits[x] = self.source(x)
        return z

    def query(self, x: int, quantum: bool = False) -> int:
        z = self._bit(x)
        if not quantum:
            self.dr.append((x, z))
        return z


def drawn_bits(stream):
    """A bit source that draws each position from stream when it is first
    read, so a world's bits follow its query order.  This is lazy sampling
    of a uniform oracle: exact under classical queries, and for the query
    patterns used here under quantum ones too (the one quantum query any
    scheme makes is immediately followed by a measurement of its input
    register, so sampling it eagerly commutes with the rest of the run)."""
    return lambda x: int(stream.integers(0, 2))


# the two one-qubit check frames: row z of _FRAMES[b] is the state a check
# in basis b (1 the Hadamard basis) holds for bit z
_FRAMES = (np.eye(2, dtype=np.complex128), HADAMARD)


@functools.lru_cache(maxsize=None)
def _factor(name: tuple) -> np.ndarray:
    """The 2x2 factor that name gives a check: (b, z) projects onto row z
    of frame b, (None, z) is the mean over both bases at bit z, (None, None)
    is I/2, the mean over both bits, and ("top", z) is (I + (-1)^z H)/2,
    the top eigenprojector of (None, z) = (I + (-1)^z H / sqrt 2)/2."""
    b, z = name
    if b == "top":
        return (_FRAMES[0] + (-1) ** z * HADAMARD) / 2
    if b is None:
        return _FRAMES[0] / 2 if z is None else (_factor((0, z)) + _factor((1, z))) / 2
    return np.outer(_FRAMES[b][z], _FRAMES[b][z].conj())


# _HIT[s][a] = Tr(F_a F_s): the probability that a qubit in state s (every
# factor has trace 1) passes check a = (basis, bit), taken as the nearest of
# _EXACT, which the float traces miss by a few ulps (1 - 4e-16 at
# s = a = (1, 0)): a valid note then passes with probability exactly 1
_CHECKS = ((0, 0), (0, 1), (1, 0), (1, 1))
_EXACT = (0.0, 0.25, 0.5, 0.75, 1.0, *((2 + s * math.sqrt(2)) / 4 for s in (-1, 1)))
_HIT = {s: {a: min(_EXACT, key=lambda e: abs(e - np.vdot(_factor(a), _factor(s)).real))
            for a in _CHECKS}
        for s in ((None, None), (None, 0), (None, 1), *_CHECKS, ("top", 0), ("top", 1))}


# 1 MB each at an 8-qubit note; nothing on the eigen attack path builds one
@functools.lru_cache(maxsize=64)
def _product(names: tuple, frames: bool = False) -> np.ndarray:
    """(x)_i _FRAMES[names[i]] if frames else _factor(names[i]): a note, a
    simulated verifier's A or a check frame, shared, so read-only."""
    out = np.ones((1, 1), dtype=np.complex128)
    for f in names:
        out = kron(out, _FRAMES[f] if frames else _factor(f))
    out.flags.writeable = False
    return out


# a scheme has 2^(serials * s_bits) serials, at most 256 at ORACLE_L_CAP, so
# every serial of a few schemes fits
@functools.lru_cache(maxsize=1024)
def _serial_checks(template: tuple, tag_bits: int, serial: tuple) -> tuple:
    """(checks, verify positions, their set) of serial under template, for
    MoneyScheme.checks, verify_positions and position_set.  The table lives
    outside the scheme, so a scheme pickles the same warm or cold."""
    checks = tuple((None if basis is None else (serial[k] << tag_bits) | basis,
                    (serial[k] << tag_bits) | bit) for k, basis, bit in template)
    positions = tuple(x for check in checks for x in check if x is not None)
    return checks, positions, frozenset(positions)


@dataclass(frozen=True)
class ProductState:
    """The note (x)_i _factor(factors[i]), a product of one-qubit factors.
    It reads as a DensityOp: its matrix is the shared, read-only
    _product(factors), built only when something reads it."""
    factors: tuple

    @property
    def layout(self):
        return note_layout(len(self.factors))

    @property
    def matrix(self) -> np.ndarray:
        return _product(self.factors)

    check = DensityOp.check


@functools.lru_cache(maxsize=64)
def witness(key: tuple) -> ProductState:
    """The eigen witness against the A that factor key names: the normalized
    projector onto A's top eigenspace.  A is the product of one positive
    2x2 factor per check, so that eigenspace is the product of the factors'
    own, and the witness is the product of their normalized projectors:
    ("top", z) for a mean (None, z), and each other factor itself."""
    return ProductState(tuple(("top", z) if b is None and z is not None else (b, z)
                              for b, z in key))


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
        self.template = tuple(self.tags(m))
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

    def _table(self, serial) -> tuple:
        return _serial_checks(self.template, self.tag_bits, serial)

    def checks(self, serial) -> list:
        """One (basis, bit) pair of oracle positions per note qubit."""
        return list(self._table(serial)[0])

    def verify_positions(self, serial) -> list:
        """The positions verify queries, in query order."""
        return list(self._table(serial)[1])

    def position_set(self, serial) -> frozenset:
        """verify_positions(serial) as a set."""
        return self._table(serial)[2]

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
        for i, (basis, bit) in enumerate(self._table(serial)[0]):
            b = 0 if basis is None else read(basis)
            quantum = quantum_first and i == 0
            z = world.query(bit, quantum=True) if quantum else read(bit)
            pairs.append((b, z))
        return tuple(pairs)

    def mint(self, world, stream) -> Banknote:
        serial = tuple(int(stream.integers(0, 1 << self.s_bits))
                       for _ in range(self.serials))
        # a quantum mint's query register is measured at once, so sampling
        # s first is equivalent
        return Banknote(serial, ProductState(
            self._read_checks(serial, world, quantum_first=self.quantum_mint)))

    def verify(self, note: Banknote, world: WorldHandle, stream):
        """Measure qubit i with check i's projector, for i = 0..m-1 in turn,
        after querying every check's positions; returns (all checks hit,
        post-measurement note).  Draw i of m uniforms decides check i.

        On a ProductState the checks act on separate factors, so check i
        hits with probability _HIT[s_i][a_i] whatever the others give; when
        each is exactly 0 or 1, as for a valid note, no draw in [0, 1)
        could change an outcome, so none is made.  The attack gives each
        verification a stream that nothing draws from after it, so the
        skipped draws change no output.  On a dense state, in the check
        frame U each projector is |z_i><z_i| on qubit i, so the outcome
        probabilities are sums over the diagonal of U rho U: check i hits
        with probability the surviving mass whose bit i is z_i, over all
        surviving mass.  Either way the post-measurement state is the
        product of the checks' outcome projectors.
        """
        pairs = self._read_checks(note.serial, world)
        state = note.state
        if isinstance(state, ProductState):
            probs = [_HIT[s][a] for s, a in zip(state.factors, pairs)]
            if all(p in (0.0, 1.0) for p in probs):
                hits = [p == 1.0 for p in probs]
            else:
                hits = [draw < p for p, draw in zip(probs, stream.random(self.m).tolist())]
        else:
            draws = stream.random(self.m).tolist()
            frame = _product(tuple(b for b, _ in pairs), True)
            # diag(U rho U), U symmetric: row j of U rho times row j of U
            mass = ((frame @ state.matrix) * frame).sum(axis=1).real.tolist()
            hits = []
            for (b, z), draw in zip(pairs, draws):
                half = len(mass) >> 1
                p1 = sum(mass[half:] if z else mass[:half]) / max(sum(mass), 1e-300)
                hit = draw < min(max(p1, 0.0), 1.0)
                c = z if hit else 1 - z
                mass = mass[half:] if c else mass[:half]
                hits.append(hit)
        outcome = tuple((b, z if hit else 1 - z) for (b, z), hit in zip(pairs, hits))
        return all(hits), Banknote(note.serial, ProductState(outcome))

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
        """The factor name of each check in sim_operator(serial, d)'s A, what
        d knows of its (basis, bit): (b, z) when it knows both, b = 0 for
        the computational basis, (None, z) when it knows bit z but not the
        basis, and (None, None) when it lacks the bit.  Equal keys give
        byte-equal operators, whatever the serial."""
        return tuple([(0 if basis is None else d.get(basis), d[bit]) if bit in d
                      else (None, None) for basis, bit in self._table(serial)[0]])

    def sim_operator(self, serial, d: dict) -> ReducedVerifier:
        """A = P1 Q1 P1 of sim_verifier(serial, d) on range(P1), from the
        checks alone.

        The ancillas make each unknown position a uniform bit, so A is the
        mean of the checks' projector product over the unknown bits.  No two
        checks share a position (the constructor rejects a shared tag), so
        that mean factors into one 2x2 operator per check, the one its
        factor_key name gives it.
        """
        a = _product(self.factor_key(serial, d))
        unknown = sum(x not in d for x in self._table(serial)[1])
        return ReducedVerifier(m=self.m, k=unknown + 1, a=a)

    def answer_key(self, serial, world: WorldHandle) -> tuple:
        """The factor names of the true verifier's checks: the world's
        (basis, bit) at each, read without recording a query."""
        return self._read_checks(serial, world, record=False)

    def accept_prob(self, note: Banknote, world: WorldHandle) -> float:
        """Exact probability that verify accepts note.

        The checks' projectors commute, so this is Tr(Pi rho) for their
        product Pi, the factor product of the answer key.  On a
        ProductState that trace is the product of the qubits' _HIT entries;
        on a dense state, with Pi Hermitian, it is vdot(Pi, rho).  The
        oracle is read through answer_key, so it depends on note.state and
        that key alone.
        """
        key = self.answer_key(note.serial, world)
        if isinstance(note.state, ProductState):
            return math.prod(_HIT[s][a] for s, a in zip(note.state.factors, key))
        return float(np.vdot(_product(key), note.state.matrix).real)


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


"""Random-oracle machinery in three interchangeable representations.

A 1-bit random oracle on l-bit inputs is simulated either as a sampled
truth table, as a purified truth-table register F in uniform superposition,
or in the compressed view where F is replaced by the sparse database D_F of
non-|0^> Fourier positions.  Classical queries copy their answer into an
append-only database register D_R (and optionally D_A for the recording
variant); quantum queries XOR the oracle bit into an answer qubit.

The joint state is stored sparsely as a map from structured basis labels
(plain-register index, F content, D_R content, D_A content) to amplitudes.
Plain registers are ordinary qubits (big-endian, qubit 0 most significant);
the database contents are tuples.  This is a faithful encoding of the
fixed-capacity slot registers: every reachable basis state of those
registers corresponds to exactly one label, so inner products, reduced
densities, and unitarity are preserved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import embed_unitary, index_bits

ORACLE_L_CAP = 6
PRUNE_TOL = 1e-14
STRUCT_TOL = 1e-9


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class TruthTable:
    l: int
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != 1 << self.l:
            raise OracleError(f"truth table needs {1 << self.l} bits")
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))

    def __call__(self, x: int) -> int:
        return self.bits[x]


@dataclass(frozen=True)
class ClassicalDB:
    entries: tuple  # ordered (x, z) pairs, duplicates allowed

    def __post_init__(self):
        ent = tuple((int(x), int(z)) for x, z in self.entries)
        object.__setattr__(self, "entries", ent)
        seen = {}
        for x, z in ent:
            if seen.setdefault(x, z) != z:
                raise OracleError(f"inconsistent database: position {x}")

    def as_dict(self) -> dict:
        return {x: z for x, z in self.entries}

    def positions(self) -> set:
        return {x for x, _ in self.entries}


def sample_oracle(l: int, rng) -> TruthTable:
    if l > ORACLE_L_CAP:
        raise OracleError(f"l = {l} exceeds cap {ORACLE_L_CAP}")
    bits = tuple(int(b) for b in rng.integers(0, 2, size=1 << l))
    return TruthTable(l, bits)


def _dr_dict(dr: tuple) -> dict:
    return {x: z for x, z in dr}


class OracleWorld:
    """Sparse pure state over (plain registers, F, D_R, D_A)."""

    def __init__(self, mode: str, l: int, n_plain: int, amps: dict):
        if mode not in ("purified", "compressed"):
            raise OracleError(f"unknown mode {mode!r}")
        if l > ORACLE_L_CAP:
            raise OracleError(f"l = {l} exceeds cap {ORACLE_L_CAP}")
        self.mode = mode
        self.l = l
        self.n_plain = n_plain
        self.amps = amps

    # -- construction -----------------------------------------------------

    @classmethod
    def purified_init(cls, l: int, n_plain: int = 0) -> "OracleWorld":
        n_pos = 1 << l
        amp = 2.0 ** (-n_pos / 2)
        amps = {(0, f, (), ()): amp for f in itertools.product((0, 1), repeat=n_pos)}
        return cls("purified", l, n_plain, amps)

    @classmethod
    def compressed_init(cls, l: int, n_plain: int = 0) -> "OracleWorld":
        return cls("compressed", l, n_plain, {(0, (), (), ()): 1.0 + 0.0j})

    def _with(self, amps: dict) -> "OracleWorld":
        amps = {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}
        return OracleWorld(self.mode, self.l, self.n_plain, amps)

    # -- generic helpers ---------------------------------------------------

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def inner(self, other: "OracleWorld") -> complex:
        total = 0.0 + 0.0j
        for k, a in self.amps.items():
            b = other.amps.get(k)
            if b is not None:
                total += np.conj(a) * b
        return complex(total)

    def _set_bit(self, plain: int, qubit: int, value: int) -> int:
        mask = 1 << (self.n_plain - 1 - qubit)
        return (plain | mask) if value else (plain & ~mask)

    def _check_fresh(self, a_qubit: int):
        for (plain, _, _, _), amp in self.amps.items():
            if abs(amp) > STRUCT_TOL and index_bits(plain, self.n_plain, [a_qubit]):
                raise OracleError(f"answer qubit {a_qubit} is not fresh |0>")

    # -- plain-register circuit operations ---------------------------------

    def apply_plain_gate(self, u: np.ndarray, qubits) -> "OracleWorld":
        t = len(qubits)
        u = np.asarray(u, dtype=np.complex128)
        if u.shape != (1 << t, 1 << t):
            raise OracleError("gate dimension does not match target count")
        groups = {}
        for (plain, f, dr, da), amp in self.amps.items():
            sub = index_bits(plain, self.n_plain, qubits)
            base = plain
            for q in qubits:
                base = self._set_bit(base, q, 0)
            vec = groups.setdefault((base, f, dr, da),
                                    np.zeros(1 << t, dtype=np.complex128))
            vec[sub] += amp
        out = {}
        for (base, f, dr, da), vec in groups.items():
            new = u @ vec
            for sub in range(1 << t):
                if abs(new[sub]) <= PRUNE_TOL:
                    continue
                plain = base
                for pos, q in enumerate(qubits):
                    plain = self._set_bit(plain, q, (sub >> (t - 1 - pos)) & 1)
                key = (plain, f, dr, da)
                out[key] = out.get(key, 0.0) + new[sub]
        return self._with(out)

    def plain_distribution(self) -> dict:
        probs = {}
        for (plain, *_), amp in self.amps.items():
            probs[plain] = probs.get(plain, 0.0) + abs(amp) ** 2
        return probs

    def reduced_density_plain(self) -> np.ndarray:
        groups = {}
        for (plain, f, dr, da), amp in self.amps.items():
            groups.setdefault((f, dr, da), {})[plain] = amp
        d = 1 << self.n_plain
        rho = np.zeros((d, d), dtype=np.complex128)
        for vec in groups.values():
            items = list(vec.items())
            for i, ai in items:
                for j, aj in items:
                    rho[i, j] += ai * np.conj(aj)
        return rho

    # -- query unitaries ----------------------------------------------------

    def apply_quantum_query(self, q_qubits, a_qubit) -> "OracleWorld":
        """U_Q: |x>|y>|f> -> |x>|y xor f(x)>|f>."""
        if self.mode != "purified":
            raise OracleError("quantum queries act on the purified view")
        out = {}
        for (plain, f, dr, da), amp in self.amps.items():
            x = index_bits(plain, self.n_plain, q_qubits)
            y = index_bits(plain, self.n_plain, [a_qubit])
            plain2 = self._set_bit(plain, a_qubit, y ^ f[x])
            out[(plain2, f, dr, da)] = out.get((plain2, f, dr, da), 0.0) + amp
        return self._with(out)

    def apply_classical_query(self, q_qubits, a_qubit,
                              record: bool = False) -> "OracleWorld":
        """U_C (record=False) / U_R (record=True) on the purified view."""
        if self.mode != "purified":
            raise OracleError("classical queries here act on the purified view")
        self._check_fresh(a_qubit)
        out = {}
        for (plain, f, dr, da), amp in self.amps.items():
            x = index_bits(plain, self.n_plain, q_qubits)
            z = f[x]
            plain2 = self._set_bit(plain, a_qubit, z)
            dr2 = dr + ((x, z),)
            da2 = da + ((x, z),) if record else da
            key = (plain2, f, dr2, da2)
            out[key] = out.get(key, 0.0) + amp
        return self._with(out)

    def apply_db_query(self, q_qubits, a_qubit, db: str = "dr") -> "OracleWorld":
        """U_D: answer from the chosen database, recording the pair into it.

        With db="dr" this is the U_D' variant that simulates the oracle with
        D_R; it never touches F / D_F.
        """
        if db not in ("dr", "da"):
            raise OracleError("db must be 'dr' or 'da'")
        self._check_fresh(a_qubit)
        out = {}
        for (plain, f, dr, da), amp in self.amps.items():
            store = dr if db == "dr" else da
            known = _dr_dict(store)
            x = index_bits(plain, self.n_plain, q_qubits)
            if x in known:
                answers = ((known[x], amp),)
            else:
                answers = ((0, amp / math.sqrt(2)), (1, amp / math.sqrt(2)))
            for z, a in answers:
                plain2 = self._set_bit(plain, a_qubit, z)
                store2 = store + ((x, z),)
                dr2, da2 = (store2, da) if db == "dr" else (dr, store2)
                key = (plain2, f, dr2, da2)
                out[key] = out.get(key, 0.0) + a
        return self._with(out)

    def compressed_classical_query(self, q_qubits, a_qubit,
                                   record: bool = False) -> "OracleWorld":
        """The compressed-view classical query (three-case unitary)."""
        if self.mode != "compressed":
            raise OracleError("compressed query requires compressed mode")
        self._check_fresh(a_qubit)
        out = {}
        for (plain, df, dr, da), amp in self.amps.items():
            known = _dr_dict(dr)
            x = index_bits(plain, self.n_plain, q_qubits)
            if x in known:
                branches = ((known[x], df, amp),)
            elif x not in df:
                branches = tuple((z, df, amp / math.sqrt(2)) for z in (0, 1))
            else:
                df2 = tuple(p for p in df if p != x)
                # the removed position carries Fourier value 1^: phase (-1)^z
                branches = tuple((z, df2, amp * ((-1) ** z) / math.sqrt(2))
                                 for z in (0, 1))
            for z, df2, a in branches:
                plain2 = self._set_bit(plain, a_qubit, z)
                dr2 = dr + ((x, z),)
                da2 = da + ((x, z),) if record else da
                key = (plain2, df2, dr2, da2)
                out[key] = out.get(key, 0.0) + a
        return self._with(out)

    def compressed_quantum_query(self, q_qubits, a_qubit) -> "OracleWorld":
        """Quantum query in the compressed view via Decomp, U_Q, Comp."""
        return self.decomp().apply_quantum_query(q_qubits, a_qubit).comp()

    # -- view changes --------------------------------------------------------

    def decomp(self) -> "OracleWorld":
        """Fill the truth table register from (D_F, D_R)."""
        if self.mode != "compressed":
            raise OracleError("decomp requires compressed mode")
        n_pos = 1 << self.l
        out = {}
        for (plain, df, dr, da), amp in self.amps.items():
            known = _dr_dict(dr)
            if set(df) & set(known):
                raise OracleError("D_F overlaps D_R positions")
            free = [p for p in range(n_pos) if p not in known]
            scale = amp * 2.0 ** (-len(free) / 2)
            for bits in itertools.product((0, 1), repeat=len(free)):
                f = [0] * n_pos
                sign = 1
                for p, z in known.items():
                    f[p] = z
                for p, b in zip(free, bits):
                    f[p] = b
                    if p in df and b == 1:
                        sign = -sign  # |1^> = (|0> - |1>)/sqrt(2)
                key = (plain, tuple(f), dr, da)
                out[key] = out.get(key, 0.0) + sign * scale
        return OracleWorld("purified", self.l, self.n_plain, out)

    def comp(self) -> "OracleWorld":
        """Inverse of decomp: rotate non-D_R positions to the Fourier basis."""
        if self.mode != "purified":
            raise OracleError("comp requires purified mode")
        n_pos = 1 << self.l
        out = {}
        for (plain, f, dr, da), amp in self.amps.items():
            known = _dr_dict(dr)
            for p, z in known.items():
                if f[p] != z:
                    raise OracleError(
                        "state outside the valid subspace: F disagrees with D_R")
            free = [p for p in range(n_pos) if p not in known]
            scale = amp * 2.0 ** (-len(free) / 2)
            for bits in itertools.product((0, 1), repeat=len(free)):
                sign = 1
                for p, b in zip(free, bits):
                    if f[p] == 1 and b == 1:
                        sign = -sign
                df = tuple(p for p, b in zip(free, bits) if b == 1)
                key = (plain, df, dr, da)
                out[key] = out.get(key, 0.0) + sign * scale
        amps = {k: a for k, a in out.items() if abs(a) > PRUNE_TOL}
        return OracleWorld("compressed", self.l, self.n_plain, amps)

    # -- observables ----------------------------------------------------------

    def pair_count_expectation(self) -> float:
        """Tr(O rho) for O = sum |D_F| |D_F><D_F|."""
        if self.mode != "compressed":
            raise OracleError("pair count is defined on the compressed view")
        return float(sum(abs(a) ** 2 * len(df)
                         for (_, df, _, _), a in self.amps.items()))

    def bad_query_weight(self, q_qubits) -> float:
        """Weight of branches whose pending query position lies in D_F."""
        if self.mode != "compressed":
            raise OracleError("bad-query weight is defined on the compressed view")
        total = 0.0
        for (plain, df, _, _), amp in self.amps.items():
            if index_bits(plain, self.n_plain, q_qubits) in df:
                total += abs(amp) ** 2
        return float(total)

    def f_vector(self) -> np.ndarray:
        """Dense amplitude vector of F alone (requires unentangled F)."""
        if self.mode != "purified":
            raise OracleError("f_vector requires purified mode")
        n_pos = 1 << self.l
        vec = np.zeros(1 << n_pos, dtype=np.complex128)
        for (plain, f, dr, da), amp in self.amps.items():
            if plain != 0 or dr != () or da != ():
                raise OracleError("F is entangled with other registers")
            idx = 0
            for b in f:
                idx = (idx << 1) | b
            vec[idx] += amp
        return vec


class SampledExecutor:
    """Dense circuit execution against one sampled truth table.

    Classical queries measure the query register and look the answer up in
    the table; quantum queries apply the table-controlled XOR unitary.
    Averaging runs over fresh tables reproduces the purified view's reduced
    state on the plain registers.
    """

    def __init__(self, table: TruthTable, n_plain: int):
        self.table = table
        self.n_plain = n_plain
        self.state = np.zeros(1 << n_plain, dtype=np.complex128)
        self.state[0] = 1.0
        self.db = []

    def apply_gate(self, u: np.ndarray, qubits):
        self.state = embed_unitary(u, list(qubits), self.n_plain, self.state)

    def quantum_query(self, q_qubits, a_qubit):
        d = len(self.state)
        out = np.zeros_like(self.state)
        shift = self.n_plain - 1 - a_qubit
        for idx in range(d):
            if abs(self.state[idx]) == 0:
                continue
            x = index_bits(idx, self.n_plain, q_qubits)
            out[idx ^ (self.table(x) << shift)] += self.state[idx]
        self.state = out

    def classical_query(self, q_qubits, a_qubit, rng):
        # measure the query register, then answer from the table
        probs = {}
        for idx, amp in enumerate(self.state):
            w = abs(amp) ** 2
            if w == 0:
                continue
            probs.setdefault(index_bits(idx, self.n_plain, q_qubits), 0.0)
            probs[index_bits(idx, self.n_plain, q_qubits)] += w
        values = sorted(probs)
        weights = np.array([probs[v] for v in values])
        weights = weights / weights.sum()
        x = values[int(rng.choice(len(values), p=weights))]
        keep = np.array([index_bits(i, self.n_plain, q_qubits) == x
                         for i in range(len(self.state))])
        self.state = np.where(keep, self.state, 0.0)
        self.state = self.state / np.linalg.norm(self.state)
        z = self.table(x)
        if z:
            shift = self.n_plain - 1 - a_qubit
            out = np.zeros_like(self.state)
            for idx in range(len(self.state)):
                if abs(self.state[idx]) > 0:
                    out[idx ^ (1 << shift)] += self.state[idx]
            self.state = out
        self.db.append((x, z))

    def measure_all(self, rng) -> int:
        probs = np.abs(self.state) ** 2
        probs = probs / probs.sum()
        return int(rng.choice(len(probs), p=probs))

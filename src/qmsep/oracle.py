"""Random-oracle machinery in three interchangeable representations.

A 1-bit random oracle on l-bit inputs is simulated either as a sampled
truth table (a 0/1 array indexed by input), as a purified truth-table
register F in uniform superposition, or in the compressed view where F is
replaced by the sparse database D_F of non-|0^> Fourier positions.
Classical queries copy their answer into an append-only database register
D_R (and optionally D_A for the recording variant); quantum queries XOR the
oracle bit into an answer qubit.  A plain gate acts on one qubit.

An OracleWorld holds one entry per basis label in two arrays, `amp` and an
int64 `key` packing `rec << (2^l + n_plain) | fb << n_plain | plain`: an
interned (D_R, D_A) record id, F (D_F in the compressed view) as a bitmask
whose bit p is oracle position p, and the plain-register index (big-endian,
qubit 0 most significant).  Operations group labels on masked keys with
`_group`, a stable-sort np.unique.  Every reachable basis state of the
fixed-capacity slot registers is exactly one label, so inner products,
reduced densities, and unitarity are preserved.  Compression is Zhandry's
Fourier transform on each output register, for 1-bit outputs H on every
position D_R does not pin: `decomp` and `comp` are the full view changes,
which set (or clear) F's D_R positions and apply H (hilbert.embed_unitary)
to each free position axis of a (plain, D_R, D_A) × 2^(2^l) block.  A
compressed query acts only at its queried position, so neither runs on the
query path.  `_with` prunes every derived world at PRUNE_TOL.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import repeat

import numpy as np

from .hilbert import HADAMARD, STRUCT_TOL, embed_unitary, index_bits

ORACLE_L_CAP = 6   # sampled truth tables
WORLD_L_CAP = 4    # OracleWorld: 2^(2^l) purified labels, 2^l-bit F masks
KEY_BITS = 62      # (rec, fb, plain) packed into one int64 sort key
PRUNE_TOL = 1e-14


class OracleError(ValueError):
    pass


def sample_oracle(l: int, rng) -> np.ndarray:
    """A uniformly random truth table on l-bit inputs: the (2^l,) 0/1
    array whose entry x is the oracle's bit at x."""
    if l > ORACLE_L_CAP:
        raise OracleError(f"l = {l} exceeds cap {ORACLE_L_CAP}")
    return rng.integers(0, 2, size=1 << l)


def _group(a: np.ndarray):
    """np.unique(a, return_index=True, return_inverse=True) of a 1-D int64
    array, without np.unique's per-call set-up: the sorted distinct values,
    each one's first index, and each entry's group."""
    order = a.argsort(kind="stable")
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    inv = np.empty(len(a), dtype=np.intp)
    inv[order] = new.cumsum() - 1
    return s[new], order[new], inv


class _Records:
    """(D_R, D_A) contents as a trie of appends, shared by a world and the
    worlds derived from it.  Record 0 is ((), ()); record r > 0 appends
    (x, z), any x < n_pos, to the D_R (flag 1) and/or D_A (flag 2) of its
    parent, and row r of `steps` is (parent, x, z, flag).  A world's labels
    share one history of queries, so equal contents have equal ids, and one
    call's new records take the next ids in (parent, x, z) order.  Row r of
    `masks` holds D_R's known-position and known-value masks, then D_A's.  A
    world packs record ids into the high bits of its label keys, so the
    table's size is checked wherever ids enter a key."""

    def __init__(self, n_pos: int):
        self.n_pos, self._ids = n_pos, {}
        self.masks, self.steps = np.zeros((1, 4), np.int64), np.zeros((1, 4), np.int64)

    def extend(self, rec, x, z, flag: int) -> np.ndarray:
        """Ids of the records that append (x, z) to rec's databases named by
        flag.  `_ids` is keyed by a step's sort key, which is never decoded."""
        keys, first, inv = _group(((rec * self.n_pos + x) * 2 + z) * 4 + flag)
        ids = np.fromiter(map(self._ids.get, keys.tolist(), repeat(-1)), np.int64, len(keys))
        fresh = ids < 0
        if fresh.any():
            at = first[fresh]
            ids[fresh] = np.arange(len(self.steps), len(self.steps) + len(at))
            self._ids.update(zip(keys[fresh].tolist(), ids[fresh].tolist()))
            parent, x, z = rec[at], x[at], z[at]
            step = np.stack([parent, x, z, np.full_like(x, flag)], axis=1)
            self.steps = np.concatenate([self.steps, step])
            rows, bit = self.masks[parent], 1 << x
            for c, db in ((0, 1), (2, 2)):  # D_R's two masks, then D_A's
                if flag & db:
                    rows[:, c] |= bit
                    rows[:, c + 1] = (rows[:, c + 1] & ~bit) | (z * bit)
            self.masks = np.concatenate([self.masks, rows])
        return ids[inv]

    def intern(self, dr, da) -> int:
        """Id of the record that appends dr's pairs to D_R, then da's to D_A."""
        r = np.zeros(1, dtype=np.int64)
        for x, z, flag in [(x, z, 1) for x, z in dr] + [(x, z, 2) for x, z in da]:
            r = self.extend(r, np.array([x]), np.array([z]), flag)
        return int(r[0])

    def contents(self, r: int) -> tuple:
        """(D_R, D_A) of record r, as tuples of (x, z) pairs."""
        steps = []
        while r:
            r, *step = self.steps[r].tolist()
            steps.insert(0, step)
        return tuple(tuple((x, z) for x, z, f in steps if f & flag) for flag in (1, 2))


class _Labels(Mapping):
    """Read-only {(plain, F or D_F, D_R, D_A): amp} view of a world; its
    length is the label count, and the tuples are built on first lookup."""

    def __init__(self, world: "OracleWorld"):
        self._w, self._d = world, None

    def __len__(self):
        return len(self._w.amp)

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, label):
        return self._dict()[label]

    def _dict(self) -> dict:
        if self._d is None:
            w, bits = self._w, range(self._w.n_pos)
            fs = [tuple((f >> p) & 1 for p in bits) if w.mode == "purified"
                  else tuple(p for p in bits if (f >> p) & 1) for f in w.fb.tolist()]
            dbs = {r: w.records.contents(r) for r in set(w.rec.tolist())}
            self._d = {(p, f, *dbs[r]): a for p, f, r, a in zip(
                w.plain.tolist(), fs, w.rec.tolist(), w.amp.tolist())}
        return self._d


class OracleWorld:
    """Sparse pure state over (plain registers, F, D_R, D_A)."""

    def __init__(self, mode: str, l: int, n_plain: int, amps: dict):
        """amps maps labels (plain, F or D_F, D_R, D_A) to amplitudes: F is
        a tuple of 2^l bits in the purified view, D_F a tuple of positions in
        the compressed one, and D_R and D_A are tuples of (x, z) pairs.  The
        world starts its own record table; the worlds derived from it share
        that table and are built by `_with`, with no re-check."""
        if mode not in ("purified", "compressed"):
            raise OracleError(f"unknown mode {mode!r}")
        if l > WORLD_L_CAP or n_plain + (1 << l) > KEY_BITS:
            raise OracleError(f"OracleWorld needs l <= {WORLD_L_CAP} and n_plain + "
                              f"2^l <= {KEY_BITS}; got l = {l}, n_plain = {n_plain}")
        self.mode, self.l, self.n_plain, self.n_pos = mode, l, n_plain, 1 << l
        self.records = _Records(self.n_pos)
        cols = list(zip(*[(p, sum(b << i for i, b in enumerate(f)) if mode == "purified"
                           else sum(1 << i for i in f), self.records.intern(dr, da), a)
                          for (p, f, dr, da), a in amps.items()])) or [()] * 4
        self.key = self._key(*(np.asarray(c, dtype=np.int64) for c in cols[:3]))
        self.amp = np.asarray(cols[3], dtype=np.complex128)
        self.amps = _Labels(self)

    # the label fields, read off the packed keys
    plain = property(lambda w: w.key & ((1 << w.n_plain) - 1))
    fb = property(lambda w: (w.key >> w.n_plain) & ((1 << w.n_pos) - 1))
    rec = property(lambda w: w.key >> (w.n_plain + w.n_pos))

    # -- construction -----------------------------------------------------

    @classmethod
    def purified_init(cls, l: int, n_plain: int = 0) -> "OracleWorld":
        return cls.compressed_init(l, n_plain).decomp()  # an empty database

    @classmethod
    def compressed_init(cls, l: int, n_plain: int = 0) -> "OracleWorld":
        return cls("compressed", l, n_plain, {(0, (), (), ()): 1.0 + 0.0j})

    def _with(self, key, amp, mode=None) -> "OracleWorld":
        """A world on our records with the given int64 and complex128
        columns, less the labels with |amp| <= PRUNE_TOL: the one pruning rule."""
        k = np.abs(amp) > PRUNE_TOL
        w = object.__new__(OracleWorld)
        w.mode, w.l, w.n_plain, w.n_pos = mode or self.mode, self.l, self.n_plain, self.n_pos
        w.records, w.key, w.amp = self.records, key[k], amp[k]
        w.amps = _Labels(w)
        return w

    def _key(self, plain, fb, rec) -> np.ndarray:
        """One int64 per label, equal exactly when the labels are; it fails
        once the record table has outgrown the key's high bits."""
        shift = self.n_pos + self.n_plain
        if len(self.records.masks) > 1 << (KEY_BITS - shift):
            raise OracleError("too many database records to pack labels in int64")
        return (rec << shift) | (fb << self.n_plain) | plain

    def aligned(self, other: "OracleWorld"):
        """Both worlds' amplitudes over the union of their labels; `other`
        must derive from the same start, so that its records are ours."""
        if other.records is not self.records:
            raise OracleError("worlds from different starts share no records")
        keys, _, inv = _group(np.concatenate([self.key, other.key]))
        a, b = np.zeros((2, len(keys)), dtype=np.complex128)
        a[inv[:len(self.key)]] = self.amp
        b[inv[len(self.key):]] = other.amp
        return a, b

    # -- plain-register circuit operations ---------------------------------

    def apply_plain_gate(self, u: np.ndarray, qubits) -> "OracleWorld":
        """The 2x2 gate u on the one plain qubit in `qubits`.  Labels that
        differ only in that qubit's bit form one row of a (G, 2) block; row
        g of block @ u.T holds base_g's new amplitudes at bit 0, then 1."""
        u = np.asarray(u, dtype=np.complex128)
        if len(qubits) != 1 or u.shape != (2, 2):
            raise OracleError("a plain gate is a 2x2 matrix on one qubit")
        shift = self.n_plain - 1 - qubits[0]
        base, _, inv = _group(self.key & ~(1 << shift))
        block = np.zeros((len(base), 2), dtype=np.complex128)
        block[inv, (self.key >> shift) & 1] = self.amp
        return self._with((base[:, None] | (0, 1 << shift)).ravel(), (block @ u.T).ravel())

    def plain_distribution(self) -> dict:
        values, _, inv = _group(self.plain)
        probs = np.bincount(inv, np.abs(self.amp) ** 2)
        return dict(zip(values.tolist(), probs.tolist()))

    def reduced_density_plain(self) -> np.ndarray:
        groups, _, row = _group(self.key >> self.n_plain)
        d = 1 << self.n_plain
        rho = np.zeros((d, d), dtype=np.complex128)
        for chunk in range((len(groups) + 255) >> 8):  # 256 groups at a time bound memory
            k = row >> 8 == chunk
            vec = np.zeros((min(256, len(groups) - 256 * chunk), d), dtype=np.complex128)
            vec[row[k] & 255, self.plain[k]] = self.amp[k]
            rho += vec.T @ vec.conj()
        return rho

    # -- query unitaries ----------------------------------------------------

    def apply_quantum_query(self, q_qubits, a_qubit) -> "OracleWorld":
        """U_Q: |x>|y>|f> -> |x>|y xor f(x)>|f>."""
        if self.mode != "purified":
            raise OracleError("quantum queries act on the purified view")
        x = index_bits(self.key, self.n_plain, q_qubits)
        flip = ((self.key >> (self.n_plain + x)) & 1) << (self.n_plain - 1 - a_qubit)
        return self._with(self.key ^ flip, self.amp)

    def _answer(self, x, a_qubit, known, z_known, fb_free, sign,
                flag: int) -> "OracleWorld":
        """Answer each label's query at x into the fresh answer qubit and
        append (x, z) to D_R (flag 1), D_A (flag 2) or both (flag 3).  Where
        `known`, z is z_known; elsewhere both answers appear with amplitude
        1/sqrt(2), the z = 1 one times sign, on D_F mask fb_free.  Colliding
        output labels are summed."""
        shift = self.n_plain - 1 - a_qubit
        if np.any((self.key >> shift) & 1 & (np.abs(self.amp) > STRUCT_TOL)):
            raise OracleError(f"answer qubit {a_qubit} is not fresh |0>")
        k, u = np.flatnonzero(known), np.flatnonzero(~known)
        idx = np.concatenate([k, u, u])
        z = np.concatenate([z_known[k], np.zeros_like(u), np.ones_like(u)])
        keys, _, inv = _group(self._key(
            (self.plain[idx] & ~(1 << shift)) | (z << shift),
            np.concatenate([self.fb[k], fb_free[u], fb_free[u]]),
            self.records.extend(self.rec[idx], x[idx], z, flag)))
        half = self.amp / math.sqrt(2)
        amp = np.concatenate([self.amp[k], half[u], (half * sign)[u]])
        return self._with(keys, np.bincount(inv, amp.real) + 1j * np.bincount(inv, amp.imag))

    def apply_classical_query(self, q_qubits, a_qubit,
                              record: bool = False) -> "OracleWorld":
        """U_C (record=False) / U_R (record=True) on the purified view."""
        if self.mode != "purified":
            raise OracleError("classical queries here act on the purified view")
        x, fb = index_bits(self.key, self.n_plain, q_qubits), self.fb
        return self._answer(x, a_qubit, np.ones(len(x), dtype=bool),
                            (fb >> x) & 1, fb, 1, 1 + 2 * record)

    def apply_db_query(self, q_qubits, a_qubit, db: str = "dr") -> "OracleWorld":
        """U_D: answer from the chosen database, recording the pair into it.
        With db="dr" this is U_D', which simulates the oracle with D_R and
        never touches F / D_F."""
        if db not in ("dr", "da"):
            raise OracleError("db must be 'dr' or 'da'")
        m = self.records.masks[self.rec][:, (0, 1) if db == "dr" else (2, 3)]
        x = index_bits(self.key, self.n_plain, q_qubits)
        return self._answer(x, a_qubit, (m[:, 0] >> x) & 1 == 1, (m[:, 1] >> x) & 1,
                            self.fb, 1, 1 if db == "dr" else 2)

    def compressed_classical_query(self, q_qubits, a_qubit,
                                   record: bool = False) -> "OracleWorld":
        """The compressed-view classical query (three-case unitary)."""
        if self.mode != "compressed":
            raise OracleError("compressed query requires compressed mode")
        m, fb = self.records.masks[self.rec], self.fb
        x = index_bits(self.key, self.n_plain, q_qubits)
        # a position leaving D_F carries Fourier value 1^: phase (-1)^z
        return self._answer(x, a_qubit, (m[:, 0] >> x) & 1 == 1, (m[:, 1] >> x) & 1,
                            fb & ~(1 << x), 1 - 2 * ((fb >> x) & 1), 1 + 2 * record)

    def compressed_quantum_query(self, q_qubits, a_qubit) -> "OracleWorld":
        """Comp U_Q Decomp, acting only at each label's queried position x.
        Conjugated by the Fourier transform at x, U_Q is H_y CNOT(y -> D_F
        bit x) H_y where D_R leaves x free, and X_y^z = H_y Z_y^z H_y where
        D_R pins x to z; y is the answer qubit.  No other position moves, so
        no purified world is built."""
        if self.mode != "compressed":
            raise OracleError("compressed query requires compressed mode")
        w = self.apply_plain_gate(HADAMARD, [a_qubit])
        m = w.records.masks[w.rec]
        x = index_bits(w.key, w.n_plain, q_qubits)
        y = (w.key >> (w.n_plain - 1 - a_qubit)) & 1
        pinned = (m[:, 0] >> x) & 1
        flip = (y & (1 - pinned)) << (w.n_plain + x)
        amp = np.where(y & pinned & (m[:, 1] >> x) == 1, -w.amp, w.amp)
        return w._with(w.key ^ flip, amp).apply_plain_gate(HADAMARD, [a_qubit])

    # -- view changes --------------------------------------------------------

    def _hadamard(self, mode: str) -> "OracleWorld":
        """XOR each label's recorded D_R values into fb, then apply H with
        embed_unitary on the qubit axis of every position D_R leaves free, one
        (plain, rec) group per row; `_with` prunes the nonzero entries."""
        rec, n = self.rec, self.n_pos
        group, first, inv = _group(self.key & ~(((1 << n) - 1) << self.n_plain))
        block = np.zeros((len(group), 1 << n), dtype=np.complex128)
        block[inv, self.fb ^ self.records.masks[rec, 1]] = self.amp
        pinned = self.records.masks[rec[first], 0]
        for p in range(n):  # column bit p holds position p, qubit axis n - 1 - p
            rows = ((pinned >> p) & 1 == 0).nonzero()[0]
            block[rows] = embed_unitary(HADAMARD, [n - 1 - p], n, block[rows].T).T
        g, f = np.nonzero(block)
        return self._with(group[g] | (f << self.n_plain), block[g, f], mode)

    def decomp(self) -> "OracleWorld":
        """Fill the truth table register from (D_F, D_R)."""
        if self.mode != "compressed":
            raise OracleError("decomp requires compressed mode")
        if np.any(self.fb & self.records.masks[self.rec, 0]):
            raise OracleError("D_F overlaps D_R positions")
        return self._hadamard("purified")

    def comp(self) -> "OracleWorld":
        """Inverse of decomp: rotate non-D_R positions to the Fourier basis."""
        if self.mode != "purified":
            raise OracleError("comp requires purified mode")
        m = self.records.masks[self.rec]
        if np.any(self.fb & m[:, 0] != m[:, 1]):
            raise OracleError(
                "state outside the valid subspace: F disagrees with D_R")
        return self._hadamard("compressed")

    # -- observables ----------------------------------------------------------

    def pair_count_expectation(self) -> float:
        """Tr(O rho) for O = sum |D_F| |D_F><D_F|."""
        if self.mode != "compressed":
            raise OracleError("pair count is defined on the compressed view")
        size = sum((self.fb >> p) & 1 for p in range(self.n_pos))
        return float(np.sum(np.abs(self.amp) ** 2 * size))

    def bad_query_weight(self, q_qubits) -> float:
        """Weight of branches whose pending query position lies in D_F."""
        if self.mode != "compressed":
            raise OracleError("bad-query weight is defined on the compressed view")
        x = index_bits(self.key, self.n_plain, q_qubits)
        return float(np.sum(np.abs(self.amp[(self.fb >> x) & 1 == 1]) ** 2))


class SampledExecutor:
    """Dense circuit execution against one sampled truth table.

    Classical queries measure the query register and look the answer up in
    the table; quantum queries apply the table-controlled XOR unitary.
    Averaging runs over fresh tables reproduces the purified view's reduced
    state on the plain registers.
    """

    def __init__(self, table: np.ndarray, n_plain: int):
        self.table = table
        self.n_plain = n_plain
        self.idx = np.arange(1 << n_plain)
        self.state = (self.idx == 0).astype(np.complex128)

    def apply_gate(self, u: np.ndarray, qubits):
        self.state = embed_unitary(u, list(qubits), self.n_plain, self.state)

    def quantum_query(self, q_qubits, a_qubit):
        bits = self.table[index_bits(self.idx, self.n_plain, q_qubits)]
        out = np.zeros_like(self.state)
        out[self.idx ^ (bits << (self.n_plain - 1 - a_qubit))] = self.state
        self.state = out

    def classical_query(self, q_qubits, a_qubit, rng):
        # measure the query register, then answer from the table
        xs = index_bits(self.idx, self.n_plain, q_qubits)
        probs = np.bincount(xs, np.abs(self.state) ** 2)
        values = np.flatnonzero(probs > 0)
        weights = probs[values] / probs[values].sum()
        x = int(values[int(rng.choice(len(values), p=weights))])
        state = np.where(xs == x, self.state, 0.0)
        z = self.table[x]
        flip = self.idx ^ (z << (self.n_plain - 1 - a_qubit))
        self.state = (state / np.linalg.norm(state))[flip]

    def measure_all(self, rng) -> int:
        probs = np.abs(self.state) ** 2
        probs = probs / probs.sum()
        return int(rng.choice(len(probs), p=probs))

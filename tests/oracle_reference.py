"""Label-by-label reference implementations of the OracleWorld operations.

Each function takes an amplitude map from tuple labels
(plain, F tuple or sorted D_F tuple, D_R, D_A) and returns the map that the
operation produces, enumerating labels and, for decomp and comp, every sign
pattern of the free positions.  They are slow and simple on purpose: the
array-backed `qmsep.oracle.OracleWorld` is tested against them.  Structural
checks (fresh answer qubits, D_F/D_R overlap) are not repeated here.

quantum_query_by_round_trip is the compressed quantum query as the full
view changes Decomp, U_Q, Comp, which the local query must equal.
keep_df_on_query seeds the fault the recording checks' mutation tests use,
and faulty_local_query the faults criterion 5's equivalence check must see.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from qmsep.hilbert import HADAMARD, index_bits
from qmsep.oracle import PRUNE_TOL, OracleWorld


def _pruned(amps: dict) -> dict:
    return {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}


def _set_bit(plain: int, n_plain: int, qubit: int, value: int) -> int:
    mask = 1 << (n_plain - 1 - qubit)
    return (plain | mask) if value else (plain & ~mask)


def _known(store: tuple) -> dict:
    return {x: z for x, z in store}


def apply_plain_gate(amps: dict, n_plain: int, u, qubits) -> dict:
    t = len(qubits)
    groups = {}
    for (plain, f, dr, da), amp in amps.items():
        sub = index_bits(plain, n_plain, qubits)
        base = plain
        for q in qubits:
            base = _set_bit(base, n_plain, q, 0)
        vec = groups.setdefault((base, f, dr, da),
                                np.zeros(1 << t, dtype=np.complex128))
        vec[sub] += amp
    out = {}
    for (base, f, dr, da), vec in groups.items():
        new = np.asarray(u) @ vec
        for sub in range(1 << t):
            plain = base
            for pos, q in enumerate(qubits):
                plain = _set_bit(plain, n_plain, q, (sub >> (t - 1 - pos)) & 1)
            key = (plain, f, dr, da)
            out[key] = out.get(key, 0.0) + new[sub]
    return _pruned(out)


def apply_quantum_query(amps: dict, n_plain: int, q_qubits, a_qubit) -> dict:
    out = {}
    for (plain, f, dr, da), amp in amps.items():
        x = index_bits(plain, n_plain, q_qubits)
        y = index_bits(plain, n_plain, [a_qubit])
        key = (_set_bit(plain, n_plain, a_qubit, y ^ f[x]), f, dr, da)
        out[key] = out.get(key, 0.0) + amp
    return _pruned(out)


def apply_classical_query(amps: dict, n_plain: int, q_qubits, a_qubit,
                          record: bool = False) -> dict:
    out = {}
    for (plain, f, dr, da), amp in amps.items():
        x = index_bits(plain, n_plain, q_qubits)
        z = f[x]
        key = (_set_bit(plain, n_plain, a_qubit, z), f, dr + ((x, z),),
               da + ((x, z),) if record else da)
        out[key] = out.get(key, 0.0) + amp
    return _pruned(out)


def apply_db_query(amps: dict, n_plain: int, q_qubits, a_qubit,
                   db: str = "dr") -> dict:
    out = {}
    for (plain, f, dr, da), amp in amps.items():
        store = dr if db == "dr" else da
        known = _known(store)
        x = index_bits(plain, n_plain, q_qubits)
        if x in known:
            answers = ((known[x], amp),)
        else:
            answers = ((0, amp / math.sqrt(2)), (1, amp / math.sqrt(2)))
        for z, a in answers:
            store2 = store + ((x, z),)
            dr2, da2 = (store2, da) if db == "dr" else (dr, store2)
            key = (_set_bit(plain, n_plain, a_qubit, z), f, dr2, da2)
            out[key] = out.get(key, 0.0) + a
    return _pruned(out)


def compressed_classical_query(amps: dict, n_plain: int, q_qubits, a_qubit,
                               record: bool = False) -> dict:
    out = {}
    for (plain, df, dr, da), amp in amps.items():
        known = _known(dr)
        x = index_bits(plain, n_plain, q_qubits)
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
            key = (_set_bit(plain, n_plain, a_qubit, z), df2, dr + ((x, z),),
                   da + ((x, z),) if record else da)
            out[key] = out.get(key, 0.0) + a
    return _pruned(out)


def decomp(amps: dict, l: int) -> dict:
    """Fill the truth table from (D_F, D_R): |1^> = (|0> - |1>)/sqrt(2) on
    D_F, |0^> on the other free positions, the recorded bit on D_R."""
    n_pos = 1 << l
    out = {}
    for (plain, df, dr, da), amp in amps.items():
        known = _known(dr)
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
                    sign = -sign
            key = (plain, tuple(f), dr, da)
            out[key] = out.get(key, 0.0) + sign * scale
    return out


def comp(amps: dict, l: int) -> dict:
    """Inverse of decomp: rotate the non-D_R positions to the Fourier basis."""
    n_pos = 1 << l
    out = {}
    for (plain, f, dr, da), amp in amps.items():
        known = _known(dr)
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
    return _pruned(out)


def max_label_gap(a, b) -> float:
    """Largest |a[k] - b[k]| over both maps' labels, a missing label read as 0."""
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b)),
               default=0.0)


def keep_df_on_query(monkeypatch):
    """Seed a fault: a compressed classical query leaves its position in
    D_F, instead of deleting it as the three-case unitary does."""
    answer = OracleWorld._answer

    def faulty(self, x, a_qubit, known, z_known, fb_free, sign, flag):
        return answer(self, x, a_qubit, known, z_known, self.fb, sign, flag)

    monkeypatch.setattr(OracleWorld, "_answer", faulty)


def quantum_query_by_round_trip(world, q_qubits, a_qubit):
    """Comp U_Q Decomp on a compressed world, through the purified view."""
    return world.decomp().apply_quantum_query(q_qubits, a_qubit).comp()


def faulty_local_query(drop: str):
    """OracleWorld.compressed_quantum_query with one part dropped: "toggle"
    (the D_F bit x flip where D_R leaves x free), "phase" (Z_y^z where D_R
    pins x to z) or "second H" (the closing H on the answer qubit)."""

    def query(w, q_qubits, a_qubit):
        w = w.apply_plain_gate(HADAMARD, [a_qubit])
        m = w.records.masks[w.rec]
        x = index_bits(w.key, w.n_plain, q_qubits)
        y = (w.key >> (w.n_plain - 1 - a_qubit)) & 1
        pinned = (m[:, 0] >> x) & 1
        flip = 0 if drop == "toggle" else (y & (1 - pinned)) << (w.n_plain + x)
        neg = (y & pinned & (m[:, 1] >> x) == 1) & (drop != "phase")
        w = w._with(w.key ^ flip, np.where(neg, -w.amp, w.amp))
        return w if drop == "second H" else w.apply_plain_gate(HADAMARD, [a_qubit])

    return query

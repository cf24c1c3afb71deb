import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as ref

from qmsep import oracle
from qmsep.harness import (
    cmd_oracle_check,
    recording_error_check,
    recorded_query_monotone_check,
    comp_decomp_check,
    equivalence_check,
    random_program,
    run_sampled_once,
    run_world,
)
from qmsep.hilbert import HADAMARD, embed_unitary, haar_unitary, index_bits
from qmsep.oracle import (
    PRUNE_TOL,
    OracleError,
    OracleWorld,
    SampledExecutor,
    WORLD_L_CAP,
    _group,
    _Records,
    sample_oracle,
)
from qmsep.streams import Stream

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def basis_world(l, n_plain, f, plain=0):
    """Purified world collapsed to one truth table f."""
    return OracleWorld("purified", l, n_plain, {(plain, tuple(f), (), ()): 1.0})


# ------------------------------------------------------------------- types


def test_sample_oracle_reproducible_and_sized():
    a = sample_oracle(3, Stream(4))
    b = sample_oracle(3, Stream(4))
    assert np.array_equal(a, b) and a.shape == (8,)
    assert set(a.tolist()) <= {0, 1}
    with pytest.raises(OracleError):
        sample_oracle(7, Stream(0))


def test_sample_oracle_bit_frequency():
    stream = Stream(50)
    ones = sum(int(sample_oracle(4, stream).sum()) for _ in range(1000))
    assert abs(ones / 16000 - 0.5) < 0.03


# ----------------------------------------------------------- initial states


def test_purified_init_l1_uniform():
    w = OracleWorld.purified_init(1)
    assert set(w.amps) == {(0, f, (), ()) for f in ((0, 0), (0, 1), (1, 0), (1, 1))}
    assert np.allclose(list(w.amps.values()), [0.5] * 4)
    # <Z_i> = 0 at every oracle position
    for pos in range(2):
        exp = sum(abs(a) ** 2 * (1 - 2 * f[pos]) for (_, f, _, _), a in w.amps.items())
        assert abs(exp) < 1e-12


def test_comp_of_fresh_purified_is_empty_database():
    w = OracleWorld.purified_init(2).comp()
    assert set(w.amps) == {(0, (), (), ())}
    assert abs(w.amps[(0, (), (), ())] - 1.0) < 1e-12


# ------------------------------------------------------------ quantum query


def test_quantum_query_xors_table_bit():
    for f in ((0, 1), (1, 0)):
        w = basis_world(1, 2, f, plain=0b10)  # query register = |1>, ans |0>
        out = w.apply_quantum_query([0], 1)
        (plain, ff, _, _), = out.amps
        assert ff == f
        assert plain == 0b10 | f[1]


def test_quantum_query_phase_kickback_marks_fourier_position():
    l = 1
    w = OracleWorld.purified_init(l, n_plain=2)
    # query register |1>, answer |-> = (|0> - |1>)/sqrt(2)
    w = w.apply_plain_gate(X, [0])
    w = w.apply_plain_gate(X, [1]).apply_plain_gate(H, [1])
    w = w.apply_quantum_query([0], 1)
    c = w.comp()
    dfs = {df for (_, df, _, _) in c.amps}
    assert dfs == {(1,)}


def test_quantum_query_self_inverse():
    w = OracleWorld.purified_init(1, n_plain=2).apply_plain_gate(H, [0])
    w2 = w.apply_quantum_query([0], 1).apply_quantum_query([0], 1)
    assert set(w.amps) == set(w2.amps)
    for k, a in w.amps.items():
        assert abs(a - w2.amps[k]) < 1e-12


# ----------------------------------------------------------- classical query


def test_classical_query_records_answer():
    w = basis_world(1, 2, (0, 1), plain=0b10)
    out = w.apply_classical_query([0], 1)
    (plain, _, dr, da), = out.amps
    assert plain == 0b11 and dr == ((1, 1),) and da == ()


def test_classical_query_duplicates_consistent():
    w = basis_world(1, 3, (0, 1), plain=0b100)
    out = w.apply_classical_query([0], 1).apply_classical_query([0], 2)
    (_, _, dr, _), = out.amps
    assert dr == ((1, 1), (1, 1))


def test_classical_query_needs_fresh_answer():
    w = basis_world(1, 2, (0, 1), plain=0b11)
    with pytest.raises(OracleError):
        w.apply_classical_query([0], 1)


def test_recorded_query_fills_both_databases():
    w = basis_world(1, 3, (1, 0), plain=0)
    out = w.apply_classical_query([0], 1, record=True)
    (_, _, dr, da), = out.amps
    assert dr == da == ((0, 1),)
    out2 = out.apply_classical_query([0], 2, record=False)
    (_, _, dr2, da2), = out2.amps
    assert len(da2) < len(dr2)


def test_classical_query_matches_lazy_sampling():
    # querying a fresh position x: the answer distribution on the plain
    # register must match classical lazy sampling of the oracle at x
    l, n_plain = 2, 3
    w = OracleWorld.purified_init(l, n_plain)
    w = w.apply_plain_gate(X, [1])  # query register |01> -> x = 1
    w = w.apply_classical_query([0, 1], 2)
    exact = w.plain_distribution()
    stream = Stream(60)
    counts = {}
    for _ in range(500):
        z = int(stream.integers(0, 2))  # lazy sample of R(1)
        v = (1 << 1) | z
        counts[v] = counts.get(v, 0) + 1
    tv = 0.5 * sum(abs(exact.get(v, 0.0) - counts.get(v, 0) / 500)
                   for v in set(exact) | set(counts))
    assert tv <= 0.03


# -------------------------------------------------------------- U_D queries


def test_db_query_known_position_deterministic():
    w = OracleWorld("compressed", 2, 2, {(0b10, (), ((3, 1),), ()): 1.0})
    out = w.apply_db_query([0], 1, db="dr")  # query x = 1? no: bits of plain
    # plain 0b10: query qubit 0 = 1 -> x = 1, unknown: splits
    assert len(out.amps) == 2
    w2 = OracleWorld("compressed", 2, 2, {(0b10, (), ((1, 0),), ()): 1.0})
    out2 = w2.apply_db_query([0], 1, db="dr")
    (plain, _, dr, _), = out2.amps
    assert plain == 0b10 and dr == ((1, 0), (1, 0))


def test_db_query_unknown_position_uniform():
    w = OracleWorld("compressed", 1, 2, {(0, (), (), ()): 1.0})
    out = w.apply_db_query([0], 1, db="dr")
    assert len(out.amps) == 2
    for (plain, _, dr, _), a in out.amps.items():
        assert abs(abs(a) - 1 / math.sqrt(2)) < 1e-12
        assert dr == ((0, plain & 1),)


def test_db_query_repeat_consistent():
    w = OracleWorld("compressed", 1, 3, {(0, (), (), ()): 1.0})
    out = w.apply_db_query([0], 1, db="dr").apply_db_query([0], 2, db="dr")
    for (plain, _, dr, _), a in out.amps.items():
        assert dr[0] == dr[1]  # second answer equals the first
        assert ((plain >> 1) & 1) == (plain & 1)


# ------------------------------------------------------------- comp/decomp


def test_decomp_fills_table_per_rules():
    # l = 2, D_R = {(0,1)}, D_F = {2}: position 0 classical |1>,
    # position 2 Fourier |1^>, positions 1 and 3 Fourier |0^>
    w = OracleWorld("compressed", 2, 0, {(0, (2,), ((0, 1),), ()): 1.0})
    pu = w.decomp()
    # three free positions -> amplitude 2^{-3/2} with sign from position 2
    for (_, f, _, _), a in pu.amps.items():
        assert f[0] == 1
        assert abs(a - (2 ** -1.5) * (-1) ** f[2]) < 1e-12
    assert len(pu.amps) == 8


def test_decomp_rejects_overlap():
    w = OracleWorld("compressed", 2, 0, {(0, (0,), ((0, 1),), ()): 1.0})
    with pytest.raises(OracleError):
        w.decomp()


def test_comp_rejects_table_database_disagreement():
    w = OracleWorld("purified", 1, 0, {(0, (0, 0), ((0, 1),), ()): 1.0})
    with pytest.raises(OracleError):
        w.comp()


@pytest.mark.parametrize("seed", range(5))
def test_comp_decomp_identity_on_reachable_states(seed):
    assert comp_decomp_check(2, 4, Stream(100 + seed)) <= 1e-9


# ----------------------------------------------------- compressed classical


def test_compressed_query_known_position():
    w = OracleWorld("compressed", 2, 2, {(0b00, (3,), ((0, 1),), ()): 1.0})
    out = w.compressed_classical_query([0], 1)
    (plain, df, dr, _), = out.amps
    assert plain == 0b01 and df == (3,) and dr == ((0, 1), (0, 1))


def test_compressed_query_fourier_position_removes_and_phases():
    w = OracleWorld("compressed", 1, 2, {(0b10, (1,), (), ()): 1.0})
    out = w.compressed_classical_query([0], 1)
    assert len(out.amps) == 2
    for (plain, df, dr, _), a in out.amps.items():
        z = plain & 1
        assert df == ()
        assert dr == ((1, z),)
        assert abs(a - ((-1) ** z) / math.sqrt(2)) < 1e-12


def test_compressed_matches_conjugated_purified_query():
    stream = Stream(70)
    for rec in (False, True):
        ops = random_program(2, 3, stream.split(int(rec)))
        w = run_world(OracleWorld.compressed_init(2, 6), ops)
        a = w.compressed_classical_query([0, 1], 5, record=rec)
        b = w.decomp().apply_classical_query([0, 1], 5, record=rec).comp()
        keys = set(a.amps) | set(b.amps)
        diff = max(abs(a.amps.get(k, 0.0) - b.amps.get(k, 0.0)) for k in keys)
        assert diff < 1e-9


@pytest.mark.parametrize("l", [1, 2, 3])
def test_compressed_quantum_query_matches_conjugated_purified_query(l):
    """The local query equals Decomp, U_Q, Comp right after a classical
    query on the same register, into that query's answer qubit (x pinned by
    D_R on every label, y not fresh), and again after scrambling the query
    register and another used answer qubit (x free on some labels)."""
    q, n = list(range(l)), l + 3
    w = run_world(OracleWorld.compressed_init(l, n), random_program(l, 2, Stream(76 + l)))
    w = w.compressed_classical_query(q, l + 2)
    seen = set()
    for step, a in enumerate((l + 2, l + 1)):
        if step:
            for qubit in q + [a]:
                w = w.apply_plain_gate(haar_unitary(2, Stream(77).split((l, qubit)).gen),
                                       [qubit])
        m, x = w.records.masks[w.rec], index_bits(w.key, n, q)
        pinned, z = (m[:, 0] >> x) & 1, (m[:, 1] >> x) & 1
        y = (w.plain >> (n - 1 - a)) & 1
        seen |= set(zip(pinned.tolist(), (pinned & z).tolist(), y.tolist()))
        got, want = w.compressed_quantum_query(q, a), ref.quantum_query_by_round_trip(w, q, a)
        assert ref.max_label_gap(dict(got.amps), dict(want.amps)) <= 1e-12
        w = got
    # x pinned to 1, x free, and an answer qubit holding 1 were all queried
    assert {p for p, _, _ in seen} == {0, 1}
    assert any(one for _, one, _ in seen) and any(y for _, _, y in seen)


def test_compressed_quantum_query_builds_no_purified_world(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a compressed quantum query left the compressed view")

    ops = random_program(2, 6, Stream(78))
    assert sum(kind == "quantum" for kind, *_ in ops) >= 2
    for name in ("decomp", "comp", "apply_quantum_query"):
        monkeypatch.setattr(OracleWorld, name, refuse)
    w = run_world(OracleWorld.compressed_init(2, 8), ops)
    assert w.mode == "compressed" and abs(np.sum(np.abs(w.amp) ** 2) - 1.0) < 1e-9


def test_disjointness_preserved_by_compressed_queries():
    stream = Stream(71)
    ops = random_program(2, 4, stream)
    w = run_world(OracleWorld.compressed_init(2, 7), ops)
    for rec in (False, True):
        out = w.compressed_classical_query([0, 1], 6, record=rec)
        for (_, df, dr, _) in out.amps:
            assert not (set(df) & {x for x, _ in dr})


def test_pair_count_examples_and_query_bound():
    w = OracleWorld.compressed_init(2, 1)
    assert w.pair_count_expectation() == 0.0
    w2 = OracleWorld("compressed", 2, 0, {(0, (1, 3), (), ()): 1.0})
    assert abs(w2.pair_count_expectation() - 2.0) < 1e-12
    # q' quantum queries leave at most q' marked positions
    stream = Stream(72)
    w = OracleWorld.compressed_init(2, 4)
    for i in range(3):
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [0])
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [1])
        w = w.compressed_quantum_query([0, 1], 2 + (i % 2))
        assert w.pair_count_expectation() <= i + 1 + 1e-9
        assert max(len(df) for (_, df, _, _) in w.amps) <= i + 1


def test_pair_count_monotone_under_classical_queries():
    stream = Stream(73)
    ops = random_program(2, 3, stream)
    w = run_world(OracleWorld.compressed_init(2, 6), ops)
    for q in (0, 1):
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [q])
    before = w.pair_count_expectation()
    after = w.compressed_classical_query([0, 1], 5).pair_count_expectation()
    assert after <= before + 1e-12


# --------------------------------------------------- representation checks


@pytest.mark.parametrize("seed", range(5))
def test_purified_compressed_equivalence(seed):
    assert equivalence_check(2, 4, Stream(200 + seed)) <= 1e-9


@pytest.mark.parametrize("drop", ["toggle", "phase", "second H"])
def test_equivalence_check_sees_a_faulty_local_query(drop, monkeypatch):
    # test_purified_compressed_equivalence's check, inputs and threshold
    monkeypatch.setattr(OracleWorld, "compressed_quantum_query", ref.faulty_local_query(drop))
    assert max(equivalence_check(2, 4, Stream(200 + seed)) for seed in range(5)) > 1e-9


def _program_worlds(l, n_queries, seed):
    """Both views after one random program."""
    ops = random_program(l, n_queries, Stream(seed))
    return [run_world(w, ops) for w in (OracleWorld.purified_init(l, l + n_queries),
                                        OracleWorld.compressed_init(l, l + n_queries))]


@pytest.mark.parametrize("l, n_queries", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_reduced_density_is_the_label_by_label_state(l, n_queries, seed):
    """Within 1e-14 entrywise of one outer product per (F, D_R, D_A), in
    both views, and exactly Hermitian."""
    for w in _program_worlds(l, n_queries, 300 + seed):
        rho = w.reduced_density_plain()
        want = ref.reduced_density_by_labels(dict(w.amps), w.n_plain)
        assert np.abs(rho - want).max() <= 1e-14
        assert (rho == rho.conj().T).all()


@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_reduced_density_does_not_depend_on_its_chunks(chunk, monkeypatch):
    """A budget of a few pairs splits a world of 1128 pairs into more than
    20 chunks, at 1 and 3 pairs some of them one label with more partners
    than the budget; rho moves only by rounding, and stays exactly
    Hermitian."""
    w = _program_worlds(2, 4, 304)[1]
    size = np.bincount(_group(w.key >> w.n_plain)[2])
    assert (size * (size - 1) // 2).sum() > 20 * chunk and size.max() - 1 > 3
    whole = w.reduced_density_plain()
    monkeypatch.setattr(oracle, "PAIR_CHUNK", chunk)
    rho = w.reduced_density_plain()
    assert np.abs(rho - whole).max() <= 1e-15
    assert (rho == rho.conj().T).all()


def test_sampled_monte_carlo_matches_purified():
    stream = Stream(80)
    l, n_q = 2, 3
    ops = random_program(l, n_q, stream)
    n_plain = l + n_q
    exact = run_world(OracleWorld.purified_init(l, n_plain), ops).plain_distribution()
    counts = {}
    n = 4000
    for i in range(n):
        s = stream.split(i)
        table = sample_oracle(l, s)
        v = run_sampled_once(table, n_plain, ops, s)
        counts[v] = counts.get(v, 0) + 1
    tv = 0.5 * sum(abs(exact.get(v, 0.0) - counts.get(v, 0) / n)
                   for v in set(exact) | set(counts))
    assert tv <= 0.05


def test_sampled_executor_classical_query_records():
    """A classical query collapses the query register to one x and writes
    table[x] into the answer qubit (qubit 0 is the most significant)."""
    table = np.array([1, 0])
    seen = set()
    for seed in range(8):
        ex = SampledExecutor(table, 2)
        ex.apply_gate(H, [0])
        ex.classical_query([0], 1, Stream(seed))
        (i,) = np.flatnonzero(np.abs(ex.state) > 1e-12)
        x, answer = i >> 1, i & 1
        assert answer == table[x] and abs(abs(ex.state[i]) - 1) < 1e-12
        seen.add(int(x))
    assert seen == {0, 1}


# ------------------------------------------------- recording inequalities


def test_recording_error_bound_and_exact_decrement():
    stream = Stream(90)
    for i in range(20):
        td, bound, err = recording_error_check(2, 3, stream.split(i))
        assert td * td <= bound * bound + 1e-9
        assert err <= 1e-9


def test_recording_error_mutation_detected(monkeypatch):
    ref.keep_df_on_query(monkeypatch)
    td, bound, err = recording_error_check(2, 3, Stream(91))
    assert err > 1e-6


def test_interposed_recorded_query_monotone():
    stream = Stream(92)
    for i in range(20):
        after, before = recorded_query_monotone_check(2, 2, stream.split(i))
        assert after <= before + 1e-9


def test_unitarity_of_query_operations():
    stream = Stream(93)
    ops = random_program(2, 4, stream)
    for start in (OracleWorld.compressed_init(2, 7), OracleWorld.purified_init(2, 7)):
        w = run_world(start, ops)
        assert abs(sum(abs(a) ** 2 for a in w.amps.values()) - 1.0) < 1e-9


# ------------------------------------------- array world against reference


def _same(world, want):
    """The array-backed result equals the reference map label by label."""
    assert ref.max_label_gap(dict(world.amps), want) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(l=st.sampled_from([1, 2, 3]), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_array_world_matches_reference(l, data, seed):
    """Every operation of a random program, in both views, equals the
    enumerating reference label by label; Comp(Decomp(w)) = w at the end."""
    n_queries = data.draw(st.integers(1, 2 if l == 3 else 3))
    stream = Stream(seed)
    ops = random_program(l, n_queries, stream)
    n = l + n_queries + 1
    co = OracleWorld.compressed_init(l, n)
    pu = OracleWorld.purified_init(l, n)
    for i, (kind, arg, target) in enumerate(ops):
        if kind == "gate":
            _same(co.apply_plain_gate(arg, target),
                  ref.apply_plain_gate(dict(co.amps), n, arg, target))
            _same(pu.apply_plain_gate(arg, target),
                  ref.apply_plain_gate(dict(pu.amps), n, arg, target))
            co = co.apply_plain_gate(arg, target)
            pu = pu.apply_plain_gate(arg, target)
        elif kind == "quantum":
            # each stage of the round trip, and the local query, against
            # the reference's round trip
            dec = ref.decomp(dict(co.amps), l)
            out = ref.apply_quantum_query(dec, n, arg, target)
            trip = ref.comp(out, l)
            w = co.decomp()
            _same(w, dec)
            w = w.apply_quantum_query(arg, target)
            _same(w, out)
            _same(w.comp(), trip)
            _same(pu.apply_quantum_query(arg, target),
                  ref.apply_quantum_query(dict(pu.amps), n, arg, target))
            co = co.compressed_quantum_query(arg, target)
            _same(co, trip)
            pu = pu.apply_quantum_query(arg, target)
        else:
            rec = i % 2 == 1
            _same(co.compressed_classical_query(arg, target, record=rec),
                  ref.compressed_classical_query(dict(co.amps), n, arg, target, rec))
            _same(pu.apply_classical_query(arg, target, record=rec),
                  ref.apply_classical_query(dict(pu.amps), n, arg, target, rec))
            for db in ("dr", "da"):
                _same(co.apply_db_query(arg, target, db=db),
                      ref.apply_db_query(dict(co.amps), n, arg, target, db))
            co = co.compressed_classical_query(arg, target, record=rec)
            pu = pu.apply_classical_query(arg, target, record=rec)
    _same(co.decomp().comp(), dict(co.amps))


def test_world_size_guard_raises_before_allocating():
    for build in (OracleWorld.purified_init, OracleWorld.compressed_init):
        with pytest.raises(OracleError):
            build(WORLD_L_CAP + 1)
        with pytest.raises(OracleError):
            build(2, 62 - 4 + 1)  # n_plain + 2^l = 63 bits: no room in the keys
    with pytest.raises(OracleError):
        OracleWorld("purified", 5, 0, {})


# (a view, a method of the other view, its arguments, its guard's message)
_VIEW_GUARDS = [
    ("compressed", "apply_quantum_query", ([0], 1), "quantum queries act on the purified"),
    ("compressed", "apply_classical_query", ([0], 1), "classical queries here act on the"),
    ("purified", "compressed_classical_query", ([0], 1), "compressed query requires"),
    ("purified", "compressed_quantum_query", ([0], 1), "compressed query requires"),
    ("purified", "decomp", (), "decomp requires compressed"),
    ("compressed", "comp", (), "comp requires purified"),
    ("purified", "pair_count_expectation", (), "pair count is defined on the compressed"),
    ("purified", "bad_query_weight", ([0],), "bad-query weight is defined on the compressed"),
]


@pytest.mark.parametrize("call, message", [
    *[pytest.param(lambda mode=mode, name=name, args=args:
                   getattr(getattr(OracleWorld, f"{mode}_init")(1, 3), name)(*args),
                   message, id=name) for mode, name, args, message in _VIEW_GUARDS],
    pytest.param(lambda: OracleWorld.compressed_init(1, 3).apply_db_query([0], 1, db="x"),
                 "db must be 'dr' or 'da'", id="apply_db_query"),
    pytest.param(lambda: OracleWorld("bogus", 1, 3, {}), "unknown mode 'bogus'", id="mode"),
    pytest.param(lambda: OracleWorld.compressed_init(1, 3).apply_plain_gate(H, [0, 1]),
                 "a plain gate is a 2x2 matrix on one qubit", id="plain_gate_qubits"),
    pytest.param(lambda: OracleWorld.compressed_init(1, 3).apply_plain_gate(np.eye(4), [0]),
                 "a plain gate is a 2x2 matrix on one qubit", id="plain_gate_shape")])
def test_world_guards_raise(call, message):
    """Each view guard on the other view, a database that is neither D_R
    nor D_A, an unknown view, and a plain gate not 2x2 on one qubit."""
    with pytest.raises(OracleError, match=message):
        call()


def test_record_ids_that_would_overflow_the_key_raise():
    # at l = 2 a key holds n_plain + 4 label bits under its record id: at
    # n_plain = 56 there is room for 4 records, at 57 for 2
    w = OracleWorld.compressed_init(2, 56).compressed_classical_query([0, 1], 2)
    assert sorted(w.rec.tolist()) == [1, 2]
    assert w.plain.tolist() == [0, 1 << 53] and w.fb.tolist() == [0, 0]
    assert dict(w.amps) == {(0, (), ((0, 0),), ()): pytest.approx(2 ** -0.5),
                            (1 << 53, (), ((0, 1),), ()): pytest.approx(2 ** -0.5)}
    w = OracleWorld.compressed_init(2, 57)
    with pytest.raises(OracleError, match="too many database records"):
        w.compressed_classical_query([0, 1], 2)


def _masks_of(dbs) -> list:
    """(known, value) masks of D_R, then D_A, as unsigned 64-bit ints: a
    later pair at x overwrites an earlier one's value bit."""
    out = []
    for db in dbs:
        known = value = 0
        for x, z in db:
            known, value = known | 1 << x, value & ~(1 << x) | z << x
        out += [known, value]
    return out


@pytest.mark.parametrize("n_pos", [32, 64])
def test_records_hold_any_position_below_n_pos(n_pos):
    # positions from 16 up: a step packed as 128 parent + 8x + 4z + flag
    # would carry x = 16 into its parent field, so the first three collide
    gen = np.random.default_rng(n_pos)
    recs = _Records(n_pos)
    histories = [(((0, 0),), ()), (((16, 0),), ()), (((0, 0), (0, 0)), ())]
    histories += [tuple(tuple((int(x), int(z)) for x, z in zip(
        gen.integers(0, n_pos, size=k), gen.integers(0, 2, size=k)))
        for k in gen.integers(0, 4, size=2)) for _ in range(60)]
    histories += histories[:20] + [(((n_pos - 1, 1),), ((16, 0), (n_pos - 1, 1)))]
    ids = {}
    for dr, da in histories:
        r = recs.intern(dr, da)
        assert recs.contents(r) == (dr, da)
        assert recs.masks[r].view(np.uint64).tolist() == _masks_of((dr, da))
        assert ids.setdefault((dr, da), r) == r  # equal histories, equal ids
    assert len(set(ids.values())) == len(ids)
    # one call appending to both databases at once, duplicates included
    start = np.array(list(ids.values()) * 2, dtype=np.int64)
    x = gen.integers(16, n_pos, size=len(start))
    z = gen.integers(0, 2, size=len(start))
    got = recs.extend(start, x, z, 3)
    for r, parent, xi, zi in zip(got.tolist(), start.tolist(), x.tolist(), z.tolist()):
        assert recs.contents(r) == tuple(db + ((xi, zi),) for db in recs.contents(parent))
        assert recs.masks[r].view(np.uint64).tolist() == _masks_of(recs.contents(r))
    assert len(set(got.tolist())) == len(set(zip(start.tolist(), x.tolist(), z.tolist())))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 3) | st.integers(-2 ** 63, 2 ** 63 - 1),
                       max_size=80),
       presorted=st.booleans())
@example(values=[], presorted=False)
@example(values=[-7], presorted=False)
@example(values=[5, 5, 5, 5], presorted=True)
def test_group_is_np_unique(values, presorted):
    a = np.array(sorted(values) if presorted else values, dtype=np.int64)
    want = np.unique(a, return_index=True, return_inverse=True)
    for got, ref_out in zip(_group(a), want):
        assert got.dtype == ref_out.dtype and got.tobytes() == ref_out.tobytes()


def test_amps_view_is_read_only_with_label_count():
    w = run_world(OracleWorld.compressed_init(2, 6), random_program(2, 3, Stream(74)))
    assert len(w.amps) == len(w.amp) == len(dict(w.amps))
    with pytest.raises(TypeError):
        w.amps[next(iter(w.amps))] = 0.0


def test_aligned_needs_a_common_start():
    # two runs of one program start from separate record tables
    ops = random_program(2, 3, Stream(75))
    w = run_world(OracleWorld.compressed_init(2, 6), ops)
    a, b = w.aligned(w.decomp().comp())
    assert abs(np.vdot(a, b) - 1.0) <= 1e-9
    with pytest.raises(OracleError):
        w.aligned(run_world(OracleWorld.compressed_init(2, 6), ops))


# sha256 of (plain, fb, rec, amp) bytes after every operation of
# _pinned_world_runs, recorded when compressed quantum queries became local:
# a changed label order, record id or last amplitude bit fails it
WORLD_SHA256 = {
    1: "bdbe084aa633d1dd430de237852b6f43b0b9b9cd2d7ec1349eb70bb8a7b4431c",
    2: "1b3ca4cd895f85defbe2f6a82edb112b12c4350b8b313324ed4f2fcd013a8340",
    3: "a39d51405297ec810d198a7df1cf98085853dc3ffac41cab5a5d10b71651705b",
}


def _pinned_world_runs(l):
    """Every world along one random program in both views.  Query i is
    quantum, classical, or recorded classical as i % 3 is 0, 1 or 2; before
    each classical query the world also answers from D_R and from D_A."""
    n_queries = 5
    ops = random_program(l, n_queries, Stream(900 + l))
    n_plain = l + n_queries
    for co in (False, True):
        w = (OracleWorld.compressed_init if co else OracleWorld.purified_init)(l, n_plain)
        yield w
        for kind, *args in ops:
            if kind == "gate":
                w = w.apply_plain_gate(*args)
            elif (args[1] - l) % 3 == 0:  # query i answers into qubit l + i
                w = (w.compressed_quantum_query if co else w.apply_quantum_query)(*args)
            else:
                yield w.apply_db_query(*args, db="dr")
                yield w.apply_db_query(*args, db="da")
                query = w.compressed_classical_query if co else w.apply_classical_query
                w = query(*args, record=(args[1] - l) % 3 == 2)
            yield w
        yield w.decomp() if co else w.comp()


def _label_bytes_sha256(worlds) -> str:
    h = hashlib.sha256()
    for w in worlds:
        for a in (w.plain, w.fb, w.rec, w.amp):
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("l", [1, 2, 3])
def test_world_label_bytes_are_pinned(l):
    assert _label_bytes_sha256(_pinned_world_runs(l)) == WORLD_SHA256[l]


# WORLD_SHA256 while compressed quantum queries ran Decomp, U_Q, Comp, as
# recorded before OracleWorld's array paths were rewritten
ROUND_TRIP_WORLD_SHA256 = {
    1: "4daec4d470f89dad3094f161da236c8671afafd55ef2bec799a2cbee6246068a",
    2: "883f432706b6a1340d5002e1d28d824241698598d485bff1d345d0670bf7ab11",
    3: "a4d712fbbefb65058a5d0e3d2af25a0195d6a6565bb4f364522320dc716ff81e",
}


@pytest.mark.parametrize("l", [1, 2, 3])
def test_local_quantum_query_keeps_the_round_trip_worlds(l, monkeypatch):
    """With the query patched back to the round trip the pinned runs give
    their old bytes, and every world along them equals the local query's
    label by label."""
    local = list(_pinned_world_runs(l))
    monkeypatch.setattr(OracleWorld, "compressed_quantum_query",
                        ref.quantum_query_by_round_trip)
    trip = list(_pinned_world_runs(l))
    assert _label_bytes_sha256(trip) == ROUND_TRIP_WORLD_SHA256[l]
    assert len(local) == len(trip)
    for a, b in zip(local, trip):
        assert a.mode == b.mode
        assert ref.max_label_gap(dict(a.amps), dict(b.amps)) <= 1e-12


def _hadamard_by_embedding(w):
    """The (plain, fb, rec, amp) arrays of OracleWorld._hadamard, with H
    applied by embed_unitary on each position axis of the transposed block."""
    m = w.records.masks[w.rec]
    _, first, inv = np.unique(w._key(w.plain, 0, w.rec), return_index=True,
                              return_inverse=True)
    block = np.zeros((len(first), 1 << w.n_pos), dtype=np.complex128)
    block[inv, w.fb ^ m[:, 1]] = w.amp
    for p in range(w.n_pos):
        rows = np.flatnonzero((m[first, 0] >> p) & 1 == 0)
        block[rows] = embed_unitary(HADAMARD, [w.n_pos - 1 - p], w.n_pos, block[rows].T).T
    g, f = np.nonzero(np.abs(block) > 1e-14)
    return w.plain[first][g], f, w.rec[first][g], block[g, f]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_hadamard_is_byte_equal_to_embedding(l):
    for w in _pinned_world_runs(l):
        got = w._hadamard("purified")
        want = _hadamard_by_embedding(w)
        for a, b in zip((got.plain, got.fb, got.rec, got.amp), want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("skip", [[3], [0], [0, 1, 2, 3]], ids=["p0", "p3", "every"])
def test_oracle_check_sees_a_faulty_view_change(skip, monkeypatch):
    """Criterion 5 with H left out on position 0's qubit axis (3 at l = 2),
    position 3's (axis 0), or every axis of the view changes; with
    mc_samples = 0, `_hadamard` is oracle's only embed_unitary caller."""

    def faulty(g, axes, n, x):
        return x if axes[0] in skip else embed_unitary(g, axes, n, x)

    monkeypatch.setattr("qmsep.oracle.embed_unitary", faulty)
    rep = cmd_oracle_check({"l": 2, "queries": 4, "trials": 10, "seed": 0})
    assert not rep["checks"]["equivalence_td"] and not rep["ok"]


@pytest.mark.parametrize("l", [1, 2, 3])
def test_worlds_hold_no_negligible_label(l):
    """`_with` prunes every derived world: no label of the pinned runs, or
    of their view changes, has |amp| <= PRUNE_TOL.  A world answered from
    D_R by U_D' may leave the view changes' domain, which they refuse."""
    for w in _pinned_world_runs(l):
        assert np.abs(w.amp).min() > PRUNE_TOL
        try:
            v = w.decomp() if w.mode == "compressed" else w.comp()
        except OracleError:
            continue
        assert np.abs(v.amp).min() > PRUNE_TOL


def _random_program_by_gate(l, n_queries, stream):
    """random_program with one haar_unitary call per gate."""
    ops = []
    for i in range(n_queries):
        for _ in range(int(stream.integers(1, 3))):
            q = int(stream.integers(0, l))
            ops.append(("gate", haar_unitary(2, stream.gen), [q]))
        kind = "quantum" if stream.random() < 0.5 else "classical"
        ops.append((kind, list(range(l)), l + i))
    return ops


@pytest.mark.parametrize("l, n_queries, seed", [(1, 1, 0), (2, 4, 1), (3, 6, 2), (2, 9, 3)])
def test_random_program_gates_match_per_gate_draws(l, n_queries, seed):
    a, b = Stream(seed), Stream(seed)
    got, want = random_program(l, n_queries, a), _random_program_by_gate(l, n_queries, b)
    assert len(got) == len(want)
    for (kind, *args), (want_kind, *want_args) in zip(got, want):
        assert kind == want_kind
        if kind == "gate":
            assert args[0].tobytes() == want_args[0].tobytes() and args[1] == want_args[1]
        else:
            assert args == want_args
    assert a.random() == b.random()  # both consumed the same draws

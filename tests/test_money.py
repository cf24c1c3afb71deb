import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qmsep.harness import NOTE_QUBIT_CAP
from qmsep.hilbert import DensityOp, RegisterLayout, embed_unitary, haar_unitary
from qmsep.money import (
    Banknote,
    ConjugateScheme,
    CounterexampleScheme,
    HashTagScheme,
    MoneyError,
    SCHEMES,
    WorldHandle,
    _FACTORS,
    make_scheme,
)
from qmsep.oracle import sample_oracle
from qmsep.streams import Stream
from qmsep.synth import acceptance_of

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def sampled_world(scheme, seed):
    return WorldHandle(scheme.l, table=sample_oracle(scheme.l, Stream(seed)))


def mint_note(scheme, seed):
    world = (WorldHandle(scheme.l, stream=Stream(seed)) if scheme.quantum_mint
             else sampled_world(scheme, seed))
    note = scheme.mint(world, Stream(seed).split("mint"))
    return world, note


# ------------------------------------------------------------ query counts


def test_schemes_derive_query_counts():
    assert HashTagScheme(l=6, m=2).queries == 2
    assert ConjugateScheme(l=6, m=2).queries == 4
    ce = CounterexampleScheme(l=6, m=2)
    assert ce.queries == 5
    assert ce.m == 3  # attached bit plus inner qubits
    assert ce.quantum_mint
    assert not HashTagScheme().quantum_mint and not ConjugateScheme().quantum_mint


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name,per_qubit,extra", [
    ("hash-tag", 1, 0), ("conjugate", 2, 0), ("counterexample", 2, 1)])
def test_mint_draws_exactly_the_verify_positions(name, per_qubit, extra, m):
    """The check list is a scheme's whole oracle footprint: a lazy world
    draws during mint exactly the positions verify queries, and queries
    counts them."""
    scheme = make_scheme(name, m=m)
    assert scheme.queries == per_qubit * m + extra
    for seed in range(20):
        world = WorldHandle(scheme.l, stream=Stream(seed))
        note = scheme.mint(world, Stream(seed).split("mint"))
        positions = scheme.verify_positions(note.serial)
        assert set(world.bits) == set(positions)
        assert len(positions) == scheme.queries


def test_scheme_size_validation():
    with pytest.raises(MoneyError):
        HashTagScheme(l=1, m=4)
    with pytest.raises(MoneyError):
        make_scheme("no-such-scheme")


def test_oversized_m_is_rejected_before_tags_builds_a_template(monkeypatch):
    def no_template(m):
        raise AssertionError(f"tags({m}) was called")

    monkeypatch.setattr(HashTagScheme, "tags", staticmethod(no_template))
    with pytest.raises(MoneyError, match="l too small"):
        HashTagScheme(l=6, m=10 ** 12)


@pytest.mark.parametrize("name", list(SCHEMES))
def test_every_scheme_rejects_m_zero(name):
    with pytest.raises(MoneyError, match="m must be >= 1"):
        make_scheme(name, m=0)


def _hand_written_checks(name, m, serial):
    """Each scheme's layout as its class wrote it out before templates: a
    serial shifted past tag_bits, or-ed with the qubit's tag."""
    tag_bits = max(1, math.ceil(math.log2(m))) if m > 1 else 1
    if name == "hash-tag":
        (s,) = serial
        return [(None, (s << tag_bits) | i) for i in range(m)]
    if name == "conjugate":
        (s,) = serial
        tag_bits += 1
        return [((s << tag_bits) | (i << 1), (s << tag_bits) | (i << 1) | 1)
                for i in range(m)]
    s, s_inner = serial
    tag_bits = math.ceil(math.log2(2 * m + 1))
    return [(None, s << tag_bits)] + [
        ((s_inner << tag_bits) | (1 + (i << 1)), (s_inner << tag_bits) | (2 + (i << 1)))
        for i in range(m)]


@pytest.mark.parametrize("name", list(SCHEMES))
def test_templates_keep_the_hand_written_layouts(name):
    """At l = 6 and every m up to the note cap, checks() gives the
    positions the hand-written layouts gave; conjugate at m = 1 is the one
    exception, its unused second tag bit dropped."""
    rng = np.random.default_rng(11)
    built = 0
    for m in range(1, NOTE_QUBIT_CAP + 1):
        try:
            scheme = make_scheme(name, l=6, m=m)
        except MoneyError:
            continue
        if scheme.m > NOTE_QUBIT_CAP or (name, m) == ("conjugate", 1):
            continue
        built += 1
        for _ in range(4):
            serial = tuple(int(rng.integers(0, 1 << scheme.s_bits))
                           for _ in range(scheme.serials))
            assert scheme.checks(serial) == _hand_written_checks(name, m, serial)
    assert built >= NOTE_QUBIT_CAP - 1


def test_conjugate_at_m_one_uses_one_tag_bit():
    scheme = ConjugateScheme(l=6, m=1)
    assert (scheme.tag_bits, scheme.s_bits) == (1, 5)
    assert scheme.checks((7,)) == [(14, 15)]
    tiny = ConjugateScheme(l=2, m=1)
    assert {x for s in range(1 << tiny.s_bits)
            for x in tiny.verify_positions((s,))} == {0, 1, 2, 3}


# -------------------------------------------------------------------- minting


def test_hash_tag_mint_matches_table():
    scheme = HashTagScheme(l=6, m=2)
    table = np.arange(64) % 2
    world = WorldHandle(6, table=table)
    note = scheme.mint(world, Stream(5))
    (s,) = note.serial
    want = (table[2 * s] << 1) | table[2 * s + 1]  # one tag bit at m = 2
    mat = note.state.matrix
    assert abs(mat[want, want] - 1.0) < 1e-12


def test_conjugate_mint_degenerate_bases_are_computational():
    scheme = ConjugateScheme(l=6, m=2)
    table = np.zeros(64, dtype=np.int64)  # all bases and bits zero
    world = WorldHandle(6, table=table)
    note = scheme.mint(world, Stream(5))
    assert abs(note.state.matrix[0, 0] - 1.0) < 1e-12


def test_counterexample_serials_uniform():
    scheme = CounterexampleScheme(l=6, m=2)
    counts = np.zeros(1 << scheme.s_bits)
    stream = Stream(7)
    for i in range(1000):
        world = WorldHandle(6, stream=stream.split(("w", i)))
        note = scheme.mint(world, stream.split(("m", i)))
        counts[note.serial[0]] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_counterexample_mint_uses_one_quantum_query():
    scheme = CounterexampleScheme(l=6, m=2)
    world, _ = mint_note(scheme, 3)
    classical = {x for x, _ in world.dr}  # only classical queries are recorded
    assert len(classical) == 2 * (scheme.m - 1)
    # the lazy world drew one more position, for the one quantum query
    assert len(set(world.bits) - classical) == 1


# ---------------------------------------------------------------- verifying


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_fresh_notes_always_accept(name):
    scheme = make_scheme(name)
    stream = Stream(11)
    for i in range(200):
        world, note = mint_note(scheme, 1000 + i)
        ok, post = scheme.verify(note, world, stream)
        assert ok
        # projective verification: accepted notes are unchanged
        assert np.abs(post.state.matrix - note.state.matrix).max() < 1e-9


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_valid_note_is_the_true_verifiers_operator(name, m):
    # mint, sim_operator and verify's post note are built from the same
    # factor ids; the reference here is np.kron and np.outer
    scheme = make_scheme(name, m=m)
    for seed in range(20):
        world, note = mint_note(scheme, 500 + seed)
        pos = scheme.verify_positions(note.serial)
        d = {x: world.bits[x] for x in pos}
        a = scheme.sim_operator(note.serial, d).a
        assert note.state.matrix.tobytes() == a.tobytes()
        with pytest.raises(ValueError):
            note.state.matrix[0, 0] = 0.5
        frame = np.ones((1, 1))
        for basis, _ in scheme.checks(note.serial):
            frame = np.kron(frame, H if basis is not None and d[basis] else np.eye(2))
        # the valid note, and the mixed note, whose outcomes vary
        mixed = Banknote(note.serial, DensityOp(note.state.layout,
                                                np.eye(1 << scheme.m) / (1 << scheme.m)))
        for n in (note, mixed):
            _, post = scheme.verify(n, world, Stream(seed).split("verify"))
            j = int(np.argmax(np.diag(frame @ post.state.matrix @ frame).real))
            assert np.abs(post.state.matrix - np.outer(frame[j], frame[j])).max() <= 1e-15


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_reuse_loop_ten_rounds(name):
    scheme = make_scheme(name)
    world, note = mint_note(scheme, 21)
    stream = Stream(21)
    for _ in range(10):
        ok, note = scheme.verify(note, world, stream)
        assert ok


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_verify_query_accounting(name):
    scheme = make_scheme(name)
    world, note = mint_note(scheme, 31)
    before = len(world.dr)
    scheme.verify(note, world, Stream(31))
    pairs = world.dr[before:]
    assert len(pairs) == scheme.queries
    assert {x for x, _ in pairs} == set(scheme.verify_positions(note.serial))


class _FixedDraws:
    """A stream whose random(m) returns fixed draws, to force outcomes."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        assert size == len(self.draws)
        return np.array(self.draws)


def _draw(kind, p1):
    # 0 always hits and the float below 1 always misses; p1 -+ 1e-12 sit
    # on either side of the point where the outcome flips
    return {"zero": 0.0, "top": np.nextafter(1.0, 0.0),
            "below": p1 - 1e-12, "above": p1 + 1e-12}[kind]


def _verify_by_embedded_projectors(rho, checks, kinds):
    """Verification as m single-qubit measurements, each with its 2^m x 2^m
    embedded projector; returns (accepted, post-state, the draws used)."""
    m = len(checks)
    eye = np.eye(1 << m)
    ok, draws = True, []
    for i, ((b, z), kind) in enumerate(zip(checks, kinds)):
        p_full = embed_unitary(_FACTORS[3 + 2 * b + z], [i], m, eye)
        p1 = float(np.trace(p_full @ rho).real)
        draws.append(_draw(kind, p1))
        hit = draws[-1] < p1
        op = p_full if hit else eye - p_full
        rho = op @ rho @ op / (p1 if hit else 1.0 - p1)
        ok = ok and hit
    return ok, rho, draws


@pytest.mark.parametrize("m", [1, 2, 3])
def test_verify_matches_embedded_projector_measurements(m):
    """verify's one pass in the check frame decides every check as m
    projective measurements in turn would, for every (basis, bit) of every
    check, and leaves the same post-state; hash-tag's checks have no basis
    position."""
    dm = 1 << m
    gen = Stream(50 + m).gen
    serial = (1,)
    for name, pairs in (("conjugate", [(0, 0), (0, 1), (1, 0), (1, 1)]),
                        ("hash-tag", [(0, 0), (0, 1)])):
        scheme = make_scheme(name, l=6, m=m)
        checks = scheme.checks(serial)
        for values in itertools.product(pairs, repeat=m):
            table = np.zeros(1 << scheme.l, dtype=np.int64)
            for (basis, bit), (b, z) in zip(checks, values):
                if basis is not None:
                    table[basis] = b
                table[bit] = z
            a = gen.normal(size=(dm, dm)) + 1j * gen.normal(size=(dm, dm))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
            note = Banknote(serial, DensityOp(RegisterLayout((("M", m),)), rho))
            for kinds in itertools.product(["zero", "top", "below", "above"], repeat=m):
                want_ok, want, draws = _verify_by_embedded_projectors(rho, values, kinds)
                world = WorldHandle(scheme.l, table=table)
                ok, post = scheme.verify(note, world, _FixedDraws(draws))
                assert ok == want_ok
                assert np.abs(post.state.matrix - want).max() < 1e-12
                # basis then bit, check by check
                assert [x for x, _ in world.dr] == scheme.verify_positions(serial)


def test_conjugate_tampered_qubit_accepts_half():
    scheme = ConjugateScheme(l=6, m=2)
    hits = 0
    n = 600
    stream = Stream(41)
    for i in range(n):
        world, note = mint_note(scheme, 5000 + i)
        # replace qubit 0 with the maximally mixed state
        rho = note.state.matrix.reshape(2, 2, 2, 2)
        reduced = np.einsum("iaib->ab", rho)
        tampered = np.kron(np.eye(2) / 2, reduced)
        bad = Banknote(note.serial, DensityOp(note.state.layout, tampered))
        ok, _ = scheme.verify(bad, world, stream)
        hits += int(ok)
    # first qubit passes with probability 1/2, second always
    p = hits / n
    sigma = np.sqrt(0.25 / n)
    assert abs(p - 0.5) < 3 * sigma + 0.01


def test_counterexample_wrong_hash_bit_rejects():
    scheme = CounterexampleScheme(l=6, m=2)
    stream = Stream(51)
    for i in range(20):
        world, note = mint_note(scheme, 7000 + i)
        mat = note.state.matrix
        x = np.kron(np.array([[0, 1], [1, 0]]), np.eye(mat.shape[0] // 2))
        flipped = Banknote(note.serial,
                           DensityOp(note.state.layout, x @ mat @ x))
        ok, _ = scheme.verify(flipped, world, stream)
        assert not ok


# ------------------------------------------------------------ sim verifiers


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_full_database_is_exact(name):
    from qmsep.synth import acceptance_of, max_acceptance
    scheme = make_scheme(name)
    world, note = mint_note(scheme, 61)
    # learn every verification position by verifying once
    scheme.verify(note, world, Stream(61))
    d = {x: z for x, z in world.dr}
    spec = scheme.sim_verifier("", note.serial, d)
    assert abs(acceptance_of(spec, note.state) - 1.0) < 1e-9
    val, _ = max_acceptance(spec)
    assert abs(val - 1.0) < 1e-9


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_empty_database_uniform_answers(name):
    from qmsep.synth import acceptance_of
    scheme = make_scheme(name)
    world, note = mint_note(scheme, 71)
    spec = scheme.sim_verifier("", note.serial, {})
    # every oracle answer simulated uniformly: each of the m checks
    # passes with probability 1/2 on the true note
    want = 2.0 ** -scheme.m
    assert abs(acceptance_of(spec, note.state) - want) < 1e-9


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_empty_database_witness_is_maximally_mixed(name):
    # A is a multiple of the identity at an empty database, so the canonical
    # eigen witness is I / 2^m, whatever eigenvectors the solver returns
    from qmsep.synth import max_acceptance
    scheme = make_scheme(name)
    _, note = mint_note(scheme, 73)
    spec = scheme.sim_verifier("", note.serial, {})
    val, witness = max_acceptance(spec)
    dm = 1 << scheme.m
    assert abs(val - 1.0 / dm) < 1e-12
    assert np.abs(witness.matrix - np.eye(dm) / dm).max() < 1e-12


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_full_database_matches_true_acceptance(name):
    scheme = make_scheme(name)
    dm = 1 << scheme.m
    for seed in range(5):
        world, note = mint_note(scheme, 100 + seed)
        before = len(world.dr)
        scheme.verify(note, world, Stream(seed))
        queried = [x for x, _ in world.dr[before:]]
        assert queried == scheme.verify_positions(note.serial)
        spec = scheme.sim_verifier("", note.serial, dict(world.dr))
        assert spec.k == 1
        # a Haar-random mixed state: a Haar pure state on note (x) copy,
        # with the copy traced out
        a = haar_unitary(dm * dm, Stream(seed).gen)[:, 0].reshape(dm, dm)
        rho = DensityOp(note.state.layout, a @ a.conj().T)
        want = scheme.accept_prob(Banknote(note.serial, rho), world)
        assert abs(acceptance_of(spec, rho) - want) < 1e-9


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["hash-tag", "conjugate", "counterexample"]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_sim_verifier_partial_database_acceptance(name, seed, data):
    """On a valid note each qubit passes the simulated check with
    probability 1 if basis and bit are known (basis None counts as known),
    1/2 if the bit is not, and 3/4 if only the basis is unknown."""
    scheme = make_scheme(name)
    world, note = mint_note(scheme, seed)
    scheme.verify(note, world, Stream(seed))
    full = dict(world.dr)
    positions = scheme.verify_positions(note.serial)
    keep = data.draw(st.lists(st.booleans(), min_size=len(positions),
                              max_size=len(positions)))
    d = {x: full[x] for x, k in zip(positions, keep) if k}
    spec = scheme.sim_verifier("", note.serial, d)
    assert spec.k == 1 + len(positions) - len(d)
    want = 1.0
    for basis, bit in scheme.checks(note.serial):
        if bit not in d:
            want *= 0.5
        elif basis is not None and basis not in d:
            want *= 0.75
    assert abs(acceptance_of(spec, note.state) - want) < 1e-9


def test_sim_verifier_eigen_witness_fools_true_verifier():
    from qmsep.synth import max_acceptance
    scheme = ConjugateScheme(l=6, m=2)
    world, note = mint_note(scheme, 81)
    scheme.verify(note, world, Stream(81))
    d = {x: z for x, z in world.dr}
    spec = scheme.sim_verifier("", note.serial, d)
    _, witness = max_acceptance(spec)
    forged = Banknote(note.serial, witness)
    ok, _ = scheme.verify(forged, world, Stream(82))
    assert ok


def _sim_verifiers_over_subsets(name):
    """(sim_verifier, sim_operator) at every subset of verify_positions, for
    3 serials whose answer bits come from a fixed generator."""
    scheme = make_scheme(name)
    rng = np.random.default_rng(12345)
    for _ in range(3):
        serial = tuple(int(rng.integers(0, 1 << scheme.s_bits))
                       for _ in range(scheme.serials))
        pos = list(dict.fromkeys(scheme.verify_positions(serial)))
        bits = {x: int(rng.integers(0, 2)) for x in pos}
        for r in range(len(pos) + 1):
            for sub in itertools.combinations(pos, r):
                d = {x: bits[x] for x in sub}
                yield (scheme.sim_verifier("", serial, d),
                       scheme.sim_operator(serial, d))


# sha256 of the concatenated v_hat bytes, recorded while each gate was a
# dense 2^n x 2^n product: applying gates to the rows changes no byte
SIM_VERIFIER_SHA256 = {
    "hash-tag": "4bd9a3a9fbb694bd0aa3564257aa9eb16ed95a21a141da46776e4436ae33b1ad",
    "conjugate": "99ad79f0a1b120077e9f3bd8ea965fa62cf7c81f1073df7dc86d563ed277cb83",
    "counterexample": "952c65dba4d582f38ef583e08d3c4c7b7e3aabf9aa1bb458cc1a36284515b605",
}


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_bytes_are_pinned(name):
    h = hashlib.sha256()
    for spec, _ in _sim_verifiers_over_subsets(name):
        h.update(spec.v_hat.tobytes())
    assert h.hexdigest() == SIM_VERIFIER_SHA256[name]


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_verifier_is_unitary_on_every_subset(name):
    for spec, _ in _sim_verifiers_over_subsets(name):
        v = spec.v_hat
        assert np.abs(v.conj().T @ v - np.eye(len(v))).max() < 1e-12


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_sim_operator_is_the_circuits_reduced_operator(name):
    for spec, op in _sim_verifiers_over_subsets(name):
        assert (op.m, op.k) == (spec.m, spec.k)
        assert np.abs(op.a - spec.reduced()).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_factor_key_names_the_operator(name, m):
    # over 4 serials and every subset of each one's positions: equal keys
    # give byte-equal operators, distinct keys distinct ones, and the
    # complete database's key is the true verifier's answer key
    scheme = make_scheme(name, m=m)
    rng = np.random.default_rng(2024 + m)
    by_key = {}
    for _ in range(4):
        serial = tuple(int(rng.integers(0, 1 << scheme.s_bits))
                       for _ in range(scheme.serials))
        table = rng.integers(0, 2, 1 << scheme.l)
        world = WorldHandle(scheme.l, table=table)
        pos = scheme.verify_positions(serial)
        for r in range(len(pos) + 1):
            for sub in itertools.combinations(pos, r):
                d = {x: int(table[x]) for x in sub}
                key = scheme.factor_key(serial, d)
                assert len(key) == scheme.m
                a = scheme.sim_operator(serial, d).a.tobytes()
                assert by_key.setdefault(key, a) == a
        assert scheme.answer_key(serial, world) == key  # sub is all of pos
        assert world.dr == []  # read without recording a query
    assert len(set(by_key.values())) == len(by_key)


@pytest.mark.parametrize("name", list(SCHEMES))
def test_answer_key_draws_a_lazy_world_in_query_order(name):
    # the order verify queries and accept_prob has always read: a lazy
    # world's draws, and so its bits, depend on it
    scheme = make_scheme(name, m=3)
    serial = tuple(range(1, scheme.serials + 1))
    world = WorldHandle(scheme.l, stream=Stream(3))
    scheme.answer_key(serial, world)
    assert list(world.bits) == scheme.verify_positions(serial)
    assert world.dr == []


def test_scheme_rejects_a_shared_tag():
    # checks that share a tag share a position for every serial that agrees
    # on their serial slots, and sim_operator's factoring assumes none do
    class Shared(HashTagScheme):
        @staticmethod
        def tags(m):
            return [(0, None, 5), (1, 5, 6)]

    with pytest.raises(MoneyError, match="share"):
        Shared(m=2)


def test_world_handle_query_bookkeeping():
    world = WorldHandle(3, stream=Stream(1))
    z = world.query(5)
    assert world.dr == [(5, z)]
    assert world.bits == {5: z}
    z6 = world.query(6, quantum=True)
    assert world.dr == [(5, z)]  # quantum queries leave no classical record
    assert world.bits == {5: z, 6: z6}
    assert world.query(5) == z  # a drawn bit stays fixed


def test_world_handle_bounds():
    world = WorldHandle(2, table=sample_oracle(2, Stream(1)))
    with pytest.raises(MoneyError):
        world.query(4)
    with pytest.raises(MoneyError):
        WorldHandle(2)  # neither a table nor a stream

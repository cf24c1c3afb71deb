import hashlib
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from reference import accept_prob_by_qubit, exact_success

from qmsep import attack, hilbert, money, oracle, streams, synth
from qmsep.attack import (
    AttackConfig,
    AttackError,
    _synthesized,
    build_sim_verifier,
    bad_query_probe,
    make_world,
    derived_params,
    run_attack,
    simulation_gap_probe,
    synthesize_phase,
    update_phase,
)
from qmsep.attack import test_phase as learn_phase
learn_phase.__test__ = False
from qmsep.harness import N_UPDATES_CAP
from qmsep.money import (
    SCHEMES,
    Banknote,
    MoneyError,
    WorldHandle,
    _product,
    make_scheme,
    witness,
)
from qmsep.oracle import sample_oracle
from qmsep.streams import Stream
from qmsep.synth import SynthesisParams, TrialEngine, max_acceptance, synthesize


def scaled_cfg(scheme, t_max=4, n_updates=6, **kw):
    return AttackConfig.default(scheme, epsilon=0.1, t_max=t_max,
                                n_updates=n_updates, **kw)


def params_for(backend, m):
    """AttackConfig's synth_params for a backend: None for the eigen
    witness, the derived SynthesisParams for the trial subroutine."""
    return None if backend == "eigen" else SynthesisParams.default(m)


# ----------------------------------------------------------------- parameters


def test_parameter_formulas_classical_variant():
    scheme = make_scheme("conjugate")  # mint makes 4 queries
    p = derived_params(scheme, 0.1)
    g = 1 - math.sqrt(1 - 0.99 + 0.1)
    assert p["ell"] == 4
    assert p["t_max"] == math.ceil(4 / 0.1)
    assert p["n_updates"] == math.ceil(100 * 4 / g ** 2)


def test_parameter_formulas_quantum_variant():
    scheme = make_scheme("counterexample")
    p = derived_params(scheme, 0.1)
    g = 1 - math.sqrt(0.11)
    q = qp = 5
    assert p["t_max"] == math.ceil(36 * q * qp / 0.01)
    assert p["n_updates"] == math.ceil(q * qp / (0.01 * g ** 4))


@pytest.mark.parametrize("name", list(SCHEMES))
def test_default_config_picks_variant_and_flags_scaling(name):
    scheme = make_scheme(name)
    cfg = AttackConfig.default(scheme)
    quantum = name == "counterexample"  # the one scheme with a quantum mint
    assert scheme.quantum_mint == quantum
    assert cfg.variant == ("quantum_mint" if quantum else "classical_mint")
    assert not cfg.scaled
    cfg2 = AttackConfig.default(scheme, t_max=10)
    assert cfg2.scaled and cfg2.t_max == 10
    for seed in range(3):
        world = make_world(scheme, Stream(seed))
        assert world.bits == {}  # every position is read on first use
        if not quantum:
            # a classical mint's world is the table sample_oracle draws
            table = sample_oracle(scheme.l, Stream(seed).split("world"))
            assert [world.query(x, quantum=True)
                    for x in range(1 << scheme.l)] == table.tolist()


def _eager_world(scheme, stream):
    """A classical mint's world with its whole table drawn up front."""
    table = sample_oracle(scheme.l, stream.split("world"))
    return WorldHandle(scheme.l, table.tolist().__getitem__)


def test_config_validation():
    scheme = make_scheme("hash-tag")
    for eps in (0.0, float("nan"), 0.99, 1.5):  # outside (0, DELTA_R)
        with pytest.raises(AttackError):
            AttackConfig.default(scheme, epsilon=eps)


# ---------------------------------------------------------------- test phase


def prepared(scheme, seed, cfg):
    world = make_world(scheme, Stream(seed))
    note = scheme.mint(world, Stream(seed).split("mint"))
    return world, note


def test_test_phase_t_zero_learns_nothing():
    scheme = make_scheme("hash-tag")
    cfg = scaled_cfg(scheme, t_max=1)  # t drawn from {0}
    world, note = prepared(scheme, 3, cfg)
    post, d, t = learn_phase(scheme, note, world, cfg, Stream(3))
    assert t == 0 and d == {}
    assert np.abs(post.state.matrix - note.state.matrix).max() < 1e-12


def test_test_phase_covers_verifier_positions():
    scheme = make_scheme("hash-tag")
    cfg = scaled_cfg(scheme, t_max=8)
    for seed in range(10):
        world, note = prepared(scheme, 100 + seed, cfg)
        _, d, t = learn_phase(scheme, note, world, cfg, Stream(seed))
        if t >= 1:
            assert set(d) == set(scheme.verify_positions(note.serial))


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_test_phase_verifies_once(name):
    """The first verification completes D, so however large t is, the true
    verifier runs once and the valid note comes back unchanged."""
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, t_max=8)
    ts = set()
    for seed in range(12):
        world, note = prepared(scheme, 200 + seed, cfg)
        before = len(world.dr)
        post, d, t = learn_phase(scheme, note, world, cfg, Stream(seed))
        if t == 0:
            continue
        ts.add(t)
        positions = scheme.verify_positions(note.serial)
        assert [x for x, _ in world.dr[before:]] == positions
        assert d == dict(world.dr[before:])
        assert np.abs(post.state.matrix - note.state.matrix).max() < 1e-12
    assert max(ts) >= 2


# -------------------------------------------------------------- update phase


def expanded(runs):
    """An update phase's runs as per-round lists: the N + 1 databases (D
    before each round and after the last), the N acceptance probabilities
    and the N bad-query counts."""
    dbs, probs, bad = [], [], []
    for d, p, b, n in zip(*runs):
        dbs += [d] * n
        probs += [p] * n
        bad += [b] * n
    return dbs + [runs.databases[-1]], probs, bad


def test_update_phase_monotone_and_saturates():
    scheme = make_scheme("hash-tag")
    cfg = scaled_cfg(scheme, t_max=1, n_updates=8)  # start from empty D
    world, note = prepared(scheme, 5, cfg)
    dbs, probs, bad = expanded(update_phase(
        scheme, note.serial, world, {}, cfg, Stream(5)))
    sets = [set(db.items()) for db in dbs]
    for a, b in zip(sets, sets[1:]):
        assert a <= b
    # the first true verification reveals every tag position; afterwards
    # synthesis against the full database always passes
    assert len(dbs[-1]) == scheme.m
    assert len(probs) == 8
    assert all(abs(p - 1.0) < 1e-12 for p in probs[1:])
    assert sum(bad) <= scheme.queries


def _update_phase_reference(scheme, serial, world, d0, cfg, stream, secret):
    """Every round synthesizes, runs the true verifier and then takes the
    exact acceptance of its note, whether or not D can still grow."""
    databases, probs, bad_counts = [dict(d0)], [], []
    d = dict(d0)
    for k in range(cfg.n_updates):
        if cfg.synth_params is None:
            state = witness(scheme.factor_key(serial, d))
        else:
            engine = TrialEngine(build_sim_verifier(scheme, serial, d),
                                 cfg.synth_params)
            state = synthesize(engine, stream.split(("synth", k))).state
        note = Banknote(serial, state)
        known = set(d)
        before = len(world.dr)
        scheme.verify(note, world, stream.split(("upd", k)))
        pairs = world.dr[before:]
        new_pairs = {x: z for x, z in pairs if x not in d}
        bad_counts.append(len({x for x, _ in pairs} & (secret - known)))
        d.update(new_pairs)
        probs.append(scheme.accept_prob(note, world))
        databases.append(dict(d))
    return databases, probs, bad_counts


def _after_verifications(scheme, cfg, seed, t):
    """A world and note after mint and t true verifications, and
    the database those verifications revealed."""
    world, note = prepared(scheme, seed, cfg)
    secret = set(scheme.verify_positions(note.serial))
    before = len(world.dr)
    for i in range(t):
        _, note = scheme.verify(note, world, Stream(seed).split(i))
    return world, note, dict(world.dr[before:]), secret


@pytest.mark.parametrize("backend", ["eigen", "trial"])
@pytest.mark.parametrize("t", [0, 2])
@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_update_phase_matches_verify_every_round_reference(name, t, backend):
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, n_updates=6,
                     synth_params=params_for(backend, scheme.m))
    world, note, d0, secret = _after_verifications(scheme, cfg, 31, t)
    before = len(world.dr)
    dbs, probs, bad = expanded(update_phase(
        scheme, note.serial, world, d0, cfg, Stream(37)))
    grew = len(world.dr) - before
    world, note, d0, secret = _after_verifications(scheme, cfg, 31, t)
    ref = _update_phase_reference(scheme, note.serial, world, d0, cfg,
                                  Stream(37), secret)
    assert (dbs, probs, bad) == ref
    # the first verification completes D; no later round verifies
    positions = scheme.verify_positions(note.serial)
    assert set(dbs[1]) >= set(positions)
    assert grew == (0 if t else len(positions))


@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("t", [0, 1])
@pytest.mark.parametrize("backend", ["eigen", "trial"])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_runs_expand_to_the_reference(name, backend, t, n, monkeypatch):
    # the runs hold exactly the reference's per-round lists, and the
    # forgeries are synthesized against the expanded list's entry j
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, n_updates=n,
                     synth_params=params_for(backend, scheme.m))
    world, note, d0, secret = _after_verifications(scheme, cfg, 43, t)
    runs = update_phase(scheme, note.serial, world, d0, cfg, Stream(47))
    dbs, probs, bad = expanded(runs)
    world, note, d0, secret = _after_verifications(scheme, cfg, 43, t)
    assert (dbs, probs, bad) == _update_phase_reference(
        scheme, note.serial, world, d0, cfg, Stream(47), secret)
    if backend == "eigen":
        assert len(runs.rounds) <= scheme.queries + 1
    seen = []
    real = attack._synthesized

    def recorded(scheme, serial, d, *rest):
        seen.append(d)
        return real(scheme, serial, d, *rest)

    monkeypatch.setattr(attack, "_synthesized", recorded)
    drawn = set()
    for seed in range(40):
        seen.clear()
        j, _, _ = synthesize_phase(scheme, note.serial, runs, cfg, Stream(seed))
        assert seen == [dbs[j], dbs[j]]
        drawn.add(j)
    assert drawn == set(range(n))


def test_synthesize_phase_single_database():
    scheme = make_scheme("hash-tag")
    cfg = scaled_cfg(scheme, n_updates=1)
    world, note = prepared(scheme, 7, cfg)
    runs = update_phase(scheme, note.serial, world, {}, cfg, Stream(7))
    j, phi1, phi2 = synthesize_phase(scheme, note.serial, runs, cfg, Stream(8))
    assert j == 0
    assert np.abs(phi1.matrix - phi2.matrix).max() < 1e-12  # eigen backend


# ----------------------------------------------------------------- full runs


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_run_attack_transcript_shape(name):
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, t_max=6, n_updates=5)
    tr = run_attack(scheme, cfg, Stream(13))
    assert 0 <= tr.t_drawn < 6
    assert 0 <= tr.j_drawn < 5
    assert len(tr.db_sizes) == 6
    assert all(a <= b for a, b in zip(tr.db_sizes, tr.db_sizes[1:]))
    dbs, probs, _ = expanded(tr.runs)
    assert len(probs) == 5
    assert tr.success == (tr.accept1 and tr.accept2)
    for a, b in zip(dbs, dbs[1:]):
        assert set(a.items()) <= set(b.items())


def test_run_attack_hash_tag_usually_succeeds():
    scheme = make_scheme("hash-tag")
    cfg = scaled_cfg(scheme, t_max=6, n_updates=6)
    wins = sum(run_attack(scheme, cfg, Stream(400 + i)).success
               for i in range(20))
    assert wins >= 18


def test_run_attack_trial_backend_smoke():
    scheme = make_scheme("hash-tag")
    params = SynthesisParams(a=0.5, b=0.9, n_alternations=20, t_trials=32)
    cfg = AttackConfig.default(scheme, epsilon=0.1, t_max=4, n_updates=3,
                               synth_params=params)
    tr = run_attack(scheme, cfg, Stream(17))
    assert isinstance(tr.success, bool)


@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_run_attack_trial_backend_every_scheme(name):
    # t_max = 1 draws t = 0, so the update phase synthesizes against the
    # empty database too
    scheme = make_scheme(name)
    cfg = AttackConfig.default(
        scheme, epsilon=0.1, t_max=1, n_updates=3,
        synth_params=SynthesisParams.default(scheme.m))
    tr = run_attack(scheme, cfg, Stream(29))
    assert tr.t_drawn == 0 and tr.db_sizes[0] == 0
    assert tr.success == (tr.accept1 and tr.accept2)
    dm = 1 << scheme.m
    for phi in tr.forged_pair:
        assert phi.matrix.shape == (dm, dm)
        phi.check()


# sha256 over trial-backend run_attack transcripts at t_max = 16, N = 30,
# seeds 0-19: t, j, the runs, the forged states' bytes and the accepts.  A
# classical mint runs on _eager_world, so only what synthesis draws and
# computes moves them
TRIAL_ATTACK_DIGESTS = {
    "hash-tag":
        "a4ccffc4cd7b169645b868903caddd0a62ce2be6643dc75b27194265fc5a93e3",
    "conjugate":
        "c916c22a0500e321428e2480283fd8961db246517a1ffc79b54950b37d0b6f0c",
    "counterexample":
        "69906371a5537dc164b645117919210a4c669f9e31c4b3dcfc2cb76d1826b8b9",
}


@pytest.mark.parametrize("name", list(TRIAL_ATTACK_DIGESTS))
def test_trial_attack_transcripts_are_pinned(name, monkeypatch):
    scheme = make_scheme(name)
    if not scheme.quantum_mint:
        monkeypatch.setattr(attack, "make_world", _eager_world)
    cfg = scaled_cfg(scheme, t_max=16, n_updates=30,
                     synth_params=params_for("trial", scheme.m))
    h = hashlib.sha256()
    for seed in range(20):
        tr = run_attack(scheme, cfg, Stream(seed))
        runs = tr.runs
        h.update(repr((tr.t_drawn, tr.j_drawn,
                       [sorted(d.items()) for d in runs.databases],
                       [float(p) for p in runs.probs], runs.bad_counts,
                       runs.rounds, tr.accept1, tr.accept2)).encode("utf-8"))
        for phi in tr.forged_pair:
            h.update(phi.matrix.tobytes())
    assert h.hexdigest() == TRIAL_ATTACK_DIGESTS[name]


# sha256 over every synthesize call's stream path and attempts, in call
# order, in the runs of test_trial_attack_transcripts_are_pinned.  A
# successful synthesis returns the engine's state whatever its deciding
# draw, so two calls drawing on one label can leave the transcripts as they
# are; their attempts and paths cannot
SYNTH_CALL_DIGESTS = {
    "hash-tag":
        "2df3ef1d43f3650a937cffb8ac39aa4e1f26c4a957fffdbe59bc2ebe158bd95c",
    "conjugate":
        "2df3ef1d43f3650a937cffb8ac39aa4e1f26c4a957fffdbe59bc2ebe158bd95c",
    "counterexample":
        "4a4c060d70ee41d8df6dee1c02f68e973c683493fc5d5edec38f9ee59c756e16",
}


@pytest.mark.parametrize("name", list(SYNTH_CALL_DIGESTS))
def test_synthesis_calls_draw_on_distinct_labels(name, monkeypatch):
    scheme = make_scheme(name)
    if not scheme.quantum_mint:
        monkeypatch.setattr(attack, "make_world", _eager_world)
    calls = []

    def recording(engine, rng, _real=attack.synthesize):
        res = _real(engine, rng)
        calls.append((rng.path, res.attempts))
        return res

    monkeypatch.setattr(attack, "synthesize", recording)
    cfg = scaled_cfg(scheme, t_max=16, n_updates=30,
                     synth_params=params_for("trial", scheme.m))
    h = hashlib.sha256()
    for seed in range(20):
        calls.clear()
        run_attack(scheme, cfg, Stream(seed))
        paths = [path for path, _ in calls]
        assert len(set(paths)) == len(paths), f"seed {seed}: two calls share a label"
        h.update(repr(calls).encode("utf-8"))
    assert h.hexdigest() == SYNTH_CALL_DIGESTS[name]


@pytest.mark.parametrize("backend", ["eigen", "trial"])
@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_run_attack_at_note_cap_from_empty_database(name, backend):
    # 8-qubit notes: the simulated verifier at an empty database would be a
    # circuit on 17 (hash-tag) to 25 (conjugate) qubits; synthesis needs
    # only its 2^m x 2^m operator
    m = 8 - (name == "counterexample")  # one more note qubit
    scheme = make_scheme(name, m=m)
    assert scheme.m == 8
    cfg = AttackConfig.default(
        scheme, epsilon=0.1, t_max=1, n_updates=2,
        synth_params=params_for(backend, scheme.m))
    tr = run_attack(scheme, cfg, Stream(31))
    assert tr.db_sizes[0] == 0
    for phi in tr.forged_pair:
        phi.check()


def test_run_attack_deterministic_given_seed():
    scheme = make_scheme("conjugate")
    cfg = scaled_cfg(scheme, t_max=5, n_updates=4)
    a = run_attack(scheme, cfg, Stream(19))
    b = run_attack(scheme, cfg, Stream(19))
    assert a.t_drawn == b.t_drawn and a.j_drawn == b.j_drawn
    assert a.db_sizes == b.db_sizes and a.success == b.success
    assert np.abs(a.forged_pair[0].matrix - b.forged_pair[0].matrix).max() == 0


# ----------------------------------------------------------- synthesis caches


def _twin_worlds(scheme, rng):
    """Two serials whose checks get the same (basis, bit) answers in two
    table worlds, so equal subsets of their checks' positions give equal
    factor keys and both give equal answer keys."""
    serials = []
    while len(serials) < 2:
        s = tuple(int(rng.integers(0, 1 << scheme.s_bits))
                  for _ in range(scheme.serials))
        if s not in serials:
            serials.append(s)
    answers = rng.integers(0, 2, (scheme.m, 2))
    worlds = []
    for s in serials:
        table = rng.integers(0, 2, 1 << scheme.l)
        for (basis, bit), (b, z) in zip(scheme.checks(s), answers):
            if basis is not None:
                table[basis] = b
            table[bit] = z
        worlds.append(WorldHandle(scheme.l, table.tolist().__getitem__))
    return serials, worlds


# the eigen witness is a table lookup, checked against the eigen solver by
# test_money's test_witness_is_the_eigen_solvers; these tests are of the
# trial backend's engine cache
@pytest.mark.parametrize("backend", ["trial"])
@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_memo_hit_gives_the_cold_bytes(name, backend, monkeypatch):
    # a hit on another serial's engine gives what that serial computes
    # cold: the engine's distribution and states, and the state drawn
    monkeypatch.setattr(attack, "_ENGINES", {})
    scheme = make_scheme(name)
    params = params_for(backend, scheme.m)
    (s1, s2), (w1, w2) = _twin_worlds(scheme, np.random.default_rng(71))
    checks1, checks2 = scheme.checks(s1), scheme.checks(s2)
    slots = [(i, j) for i, check in enumerate(checks1)
             for j in range(2) if check[j] is not None]
    for r in range(len(slots) + 1):
        for sub in itertools.combinations(slots, r):
            d1 = {checks1[i][j]: w1._bit(checks1[i][j]) for i, j in sub}
            d2 = {checks2[i][j]: w2._bit(checks2[i][j]) for i, j in sub}
            attack._ENGINES.clear()
            _synthesized(scheme, s1, d1, params, Stream(7))
            state2 = _synthesized(scheme, s2, d2, params, Stream(7))
            (engine,) = attack._ENGINES.values()  # the second call hit
            spec = build_sim_verifier(scheme, s2, d2)
            cold = synthesize(TrialEngine(spec, params), Stream(7))
            assert state2.matrix.tobytes() == cold.state.matrix.tobytes()
            assert not state2.matrix.flags.writeable  # later runs share it
            cold_engine = TrialEngine(spec, params)
            assert engine.joint.tobytes() == cold_engine.joint.tobytes()
            pairs = [(engine.mixed, cold_engine.mixed)]
            if cold_engine.p_success > 1e-15:
                pairs.append((engine.rho_m(), cold_engine.rho_m()))
            for warm, fresh in pairs:
                assert warm.matrix.tobytes() == fresh.matrix.tobytes()


@pytest.mark.parametrize("backend", ["eigen", "trial"])
@pytest.mark.parametrize("name", ["hash-tag", "conjugate", "counterexample"])
def test_warm_scheme_runs_as_a_fresh_one(name, backend, monkeypatch):
    # each cold run starts from empty witness and engine caches
    warm = make_scheme(name)
    cfg = scaled_cfg(warm, t_max=3, n_updates=5,
                     synth_params=params_for(backend, warm.m))
    for seed in range(40):
        a = run_attack(warm, cfg, Stream(seed))
        monkeypatch.setattr(attack, "_ENGINES", {})
        witness.cache_clear()
        b = run_attack(make_scheme(name), cfg, Stream(seed))
        assert (a.t_drawn, a.j_drawn, a.db_sizes, a.success) == (
            b.t_drawn, b.j_drawn, b.db_sizes, b.success)
        # the databases, probabilities, bad counts and their run lengths
        assert a.runs == b.runs
        for phi, psi in zip(a.forged_pair, b.forged_pair):
            assert phi.matrix.tobytes() == psi.matrix.tobytes()
            assert not phi.matrix.flags.writeable  # later runs share it


def test_memo_is_bounded(monkeypatch):
    # the engine cache drops its oldest engine when full; the witness and
    # product caches keep 64 arrays each, 64 MB apiece at the note cap
    monkeypatch.setattr(attack, "ENGINE_CAP", 3)
    monkeypatch.setattr(attack, "_ENGINES", {})
    scheme = make_scheme("conjugate")
    cfg = scaled_cfg(scheme, t_max=3, n_updates=5,
                     synth_params=SynthesisParams.default(scheme.m))
    for seed in range(30):
        run_attack(scheme, cfg, Stream(seed))
    assert len(attack._ENGINES) == 3
    assert witness.cache_info().maxsize == _product.cache_info().maxsize == 64


def test_scheme_pickles_without_its_memo():
    warm, cold = make_scheme("counterexample"), make_scheme("counterexample")
    run_attack(warm, scaled_cfg(warm), Stream(5))
    assert pickle.dumps(warm) == pickle.dumps(cold)


# the largest m each scheme builds at l = 6, where a tag has at most 5 bits
# so that the serial keeps one: notes of 32 qubits for hash-tag, 16 for the
# others (counterexample's carry m + 1)
WIDEST_M = {"hash-tag": 32, "conjugate": 16, "counterexample": 15}


@pytest.mark.parametrize("name", list(SCHEMES))
def test_eigen_attack_solves_and_embeds_nothing(name, monkeypatch):
    # the witness, every verification and every exact acceptance come from
    # the factor tables, at m = 2 and at the widest note; t_max = 1 starts
    # the update rounds from an empty database
    def refuse(*args, **kwargs):
        raise AssertionError("called on the eigen attack path")

    # an eigen config builds no trial parameters, and no trial engine
    monkeypatch.setattr(synth.SynthesisParams, "__post_init__", refuse)
    monkeypatch.setattr(synth.TrialEngine, "__init__", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(synth, "max_acceptance", refuse)
    for mod in (hilbert, synth, money, oracle):
        monkeypatch.setattr(mod, "embed_unitary", refuse)
    # every note is a ProductState, so no 2^m x 2^m matrix is built either
    monkeypatch.setattr(money, "_product", refuse)
    for mod in (hilbert, money):
        monkeypatch.setattr(mod, "kron", refuse)
    for m in (2, WIDEST_M[name]):
        scheme = make_scheme(name, m=m)
        tr = run_attack(scheme, scaled_cfg(scheme, t_max=1, n_updates=4),
                        Stream(41))
        assert tr.db_sizes[0] == 0 and len(expanded(tr.runs)[1]) == 4
    with pytest.raises(MoneyError):
        make_scheme(name, m=m + 1)


@pytest.mark.parametrize("name,builds", [("counterexample", 0), ("hash-tag", 0),
                                         ("conjugate", 0)])
def test_eigen_trial_builds_a_generator_only_for_the_table(name, builds,
                                                          monkeypatch):
    # every draw of an eigen trial is a scalar or an int-sized random, which
    # streams serve in Python, the world's bits included, so no trial
    # builds one
    built = []
    for ctor in ("default_rng", "Generator"):
        def counting(*args, _real=getattr(np.random, ctor), **kwargs):
            built.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.random, ctor, counting)
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, t_max=16, n_updates=30)
    for seed in (41, 42):
        built.clear()
        run_attack(scheme, cfg, Stream(seed))
        assert len(built) == builds


@pytest.mark.parametrize("name", list(SCHEMES))
def test_eigen_trial_seeds_only_streams_that_decide_something(name,
                                                              monkeypatch):
    # the world, mint, t and s streams draw in every trial.  A valid note
    # passes every check with probability 1, so the test phase's
    # verifications draw nothing, and neither does a forged note's once D_j
    # is complete; at t = 0 the first update round verifies a witness with
    # unknown bits, whose checks are uncertain
    seeded = []

    def counting(pool, _real=streams._pcg64_seed):
        seeded.append(1)
        return _real(pool)

    monkeypatch.setattr(streams, "_pcg64_seed", counting)
    scheme = make_scheme(name)
    cfg = scaled_cfg(scheme, t_max=16, n_updates=30)
    ts = set()
    for seed in (19, 41, 42):
        seeded.clear()
        tr = run_attack(scheme, cfg, Stream(seed))
        assert tr.j_drawn > 0
        assert len(seeded) == (4 if tr.t_drawn else 5)
        ts.add(tr.t_drawn > 0)
    assert ts == {False, True}


@pytest.mark.parametrize("name", list(SCHEMES))
def test_eigen_trial_bookkeeping_does_not_grow_with_n(name):
    # t_max = 1 starts the update rounds from an empty database.  At the N
    # cap an eigen trial holds at most q + 1 runs, and it allocates under
    # 1 MB at its peak, where a list of 10^6 pointers alone takes 8 MB
    scheme = make_scheme(name)
    run_attack(scheme, scaled_cfg(scheme, t_max=1), Stream(53))  # imports
    cfg = scaled_cfg(scheme, t_max=1, n_updates=N_UPDATES_CAP)
    tracemalloc.start()
    try:
        tr = run_attack(scheme, cfg, Stream(53))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(tr.runs.rounds) == N_UPDATES_CAP
    assert len(tr.runs.rounds) <= scheme.queries + 1
    assert peak < 1 << 20


# ------------------------------------------------------------ exact success


@pytest.mark.parametrize("t_max,n", [(1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("name", list(SCHEMES))
def test_exact_success_is_the_mean_over_t_and_j(name, m, t_max, n):
    # by enumeration over (t, j): D_j holds the pairs t + j verifications
    # queried, each forgery is the eigen solver's witness against D_j, and
    # the two pass independently, each with its per-qubit reference trace
    scheme = make_scheme(name, m=m)
    cfg = scaled_cfg(scheme, t_max=t_max, n_updates=n)
    world, note = prepared(scheme, 17, cfg)
    total = 0.0
    for t, j in itertools.product(range(t_max), range(n)):
        d = {}
        for i in range(t + j):
            before = len(world.dr)
            scheme.verify(note, world, Stream(17).split(i))
            d.update(world.dr[before:])
        _, phi = max_acceptance(scheme.sim_operator(note.serial, d))
        total += accept_prob_by_qubit(scheme, Banknote(note.serial, phi), world) ** 2
    assert abs(total / (t_max * n) - exact_success(scheme, cfg)) < 1e-12


# (scheme, m, t_max, N), and the seed, trial count and interval level, were
# fixed before the first run
SUCCESS_SETTINGS = [("hash-tag", 1, 2, 2), ("conjugate", 2, 2, 3),
                    ("counterexample", 1, 2, 2),
                    # exact rates 0.84375, 0.875 and 0.8359375 (counterexample
                    # m = 2 holds M = 3 qubits)
                    ("hash-tag", 2, 3, 2), ("conjugate", 1, 3, 2),
                    ("counterexample", 2, 3, 2),
                    # an empty database: each forgery is I/2^M, and the
                    # exact rate is 4^-M
                    ("hash-tag", 1, 1, 1), ("conjugate", 2, 1, 1),
                    ("counterexample", 1, 1, 1)]
SUCCESS_SEED, SUCCESS_TRIALS = 2210, 3000
Z_999 = 3.290527  # the standard normal's 99.95% quantile: a 99.9% interval


@pytest.mark.parametrize("name,m,t_max,n", SUCCESS_SETTINGS)
def test_sampled_success_covers_the_exact_rate(name, m, t_max, n):
    # the eigen attack verifies from the hit table; its exact rate does not
    # read that table.  At hash-tag m = 1, t_max = N = 2 it is 0.8125
    scheme = make_scheme(name, m=m)
    cfg = scaled_cfg(scheme, t_max=t_max, n_updates=n)
    wins = sum(run_attack(scheme, cfg, Stream(SUCCESS_SEED + i)).success
               for i in range(SUCCESS_TRIALS))
    p, z2, count = wins / SUCCESS_TRIALS, Z_999 ** 2, SUCCESS_TRIALS
    centre = (p + z2 / (2 * count)) / (1 + z2 / count)
    half = (Z_999 / (1 + z2 / count)) * math.sqrt(
        p * (1 - p) / count + z2 / (4 * count * count))
    assert centre - half <= exact_success(scheme, cfg) <= centre + half


# ------------------------------------------------------------- diagnostics


def test_true_accept_prob_is_one_on_fresh_notes():
    for name in ("hash-tag", "conjugate", "counterexample"):
        scheme = make_scheme(name)
        cfg = scaled_cfg(scheme)
        world, note = prepared(scheme, 23, cfg)
        assert abs(scheme.accept_prob(note, world) - 1.0) < 1e-9


def test_bad_query_probe_is_binary():
    scheme = make_scheme("conjugate")
    cfg = AttackConfig.default(scheme, epsilon=0.1)
    vals = {bad_query_probe(scheme, cfg, Stream(700 + i)) for i in range(20)}
    assert vals <= {0, 1}


def test_simulation_gap_probe_bounded():
    scheme = make_scheme("counterexample")
    cfg = scaled_cfg(scheme, t_max=16, n_updates=1)
    for i in range(10):
        p_true, p_sim = simulation_gap_probe(scheme, cfg, Stream(800 + i))
        assert 0 <= p_true <= 1 + 1e-9 and 0 <= p_sim <= 1 + 1e-9
        q = qp = scheme.queries
        assert abs(p_true - p_sim) <= 6 * math.sqrt(q * qp / 16)

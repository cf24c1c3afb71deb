"""End-to-end acceptance checks.

Each test below is one pass/fail criterion for the library: run with
``pytest -v tests/test_acceptance.py`` to get one line per criterion.
Statistical checks state their tolerance inline; timed checks assert the
stated wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

from reference import QState, RegisterLayout, alternating_sample

from qmsep import cli
from qmsep.attack import (
    AttackConfig,
    bad_query_probe,
    run_attack,
    simulation_gap_probe,
)
from qmsep.harness import (
    recording_error_check,
    recorded_query_monotone_check,
    attack_rows,
    cmd_oracle_check,
    comp_decomp_check,
    equivalence_check,
)
from qmsep.hilbert import Projector, haar_unitary
from qmsep.jordan import jordan_decompose
from qmsep.money import make_scheme
from qmsep.streams import Stream
from qmsep.synth import (
    SynthesisParams,
    TrialEngine,
    VerifierSpec,
    acceptance_of,
    build_pq,
    max_acceptance,
    synthesize,
)


def random_projector(dim, rank, stream):
    u = haar_unitary(dim, stream.gen)
    cols = u[:, :rank]
    return Projector(cols @ cols.conj().T)


def good_spec(m, k, stream, b=0.9):
    """Rejection-sample a verifier whose best acceptance is at least b."""
    while True:
        n = m + k
        spec = VerifierSpec(m=m, k=k, v_hat=haar_unitary(1 << n, stream.gen),
                            ans_index=int(stream.integers(0, n)))
        p1, q1 = build_pq(spec)
        if np.linalg.eigvalsh(p1.matrix @ q1.matrix @ p1.matrix)[-1] >= b:
            return spec


@pytest.fixture(scope="module")
def verifier_suite():
    """Twenty random verifiers (m = 2, k <= 2) with best acceptance >= 0.9,
    each paired with a shared trial engine at the default parameters."""
    stream = Stream(2024)
    params = SynthesisParams.default(2)
    suite = []
    for i in range(20):
        k = int(stream.integers(0, 3))
        spec = good_spec(2, k, stream.split(("spec", i)))
        suite.append((spec, TrialEngine(spec, params), params))
    return suite


def test_criterion_01_jordan_decomposition_suite():
    """100 random projector pairs (dim <= 16): reconstruction, block
    invariance, and overlap spectrum all within 1e-8; under 10 s."""
    t0 = time.monotonic()
    stream = Stream(77)
    for _ in range(100):
        dim = int(stream.integers(2, 17))
        r1 = int(stream.integers(1, dim))
        r2 = int(stream.integers(1, dim))
        p1 = random_projector(dim, r1, stream)
        p2 = random_projector(dim, r2, stream)
        d = jordan_decompose(p1, p2)

        for which, proj in ((1, p1), (2, p2)):
            out = np.zeros((dim, dim), dtype=np.complex128)
            for b in d.blocks:
                vec = b.v if which == 1 else b.w
                if vec is not None:
                    out += np.outer(vec, vec.conj())
            assert np.abs(out - proj.matrix).max() < 1e-8

        for blk in d.blocks:
            if blk.dim == 1:
                vecs = [blk.v if blk.v is not None else blk.w]
            else:
                vecs = [blk.v, blk.w]
            basis, _ = np.linalg.qr(np.stack(vecs, axis=1))
            bp = basis @ basis.conj().T
            for pi in (p1, p2):
                assert np.abs(pi.matrix @ bp - bp @ pi.matrix @ bp).max() < 1e-8

        h = p1.matrix @ p2.matrix @ p1.matrix
        want = np.sort(np.linalg.eigvalsh(h))[-r1:]
        got = np.sort([b.p for b in d.blocks if b.v is not None])
        assert len(got) == r1
        assert np.abs(got - want).max() < 1e-8
        assert sum(b.dim for b in d.blocks) + d.kernel_dim == dim
    assert time.monotonic() - t0 < 10


def test_criterion_02_alternating_measurement_markov_law():
    """Outcome sequences of the alternating projective measurement follow
    the two-state Markov chain law: TV <= 0.03 at 10^4 sequences for
    p in {0, 0.25, 0.5, 0.9}; under 30 s."""
    t0 = time.monotonic()
    layout = RegisterLayout((("M", 1),))
    for p in (0.0, 0.25, 0.5, 0.9):
        w = np.array([math.sqrt(p), math.sqrt(1 - p)])
        p1 = Projector(np.diag([1.0, 0]).astype(np.complex128))
        q1 = Projector(np.outer(w, w))
        stream = Stream(int(p * 100))
        n_alt, n_seq = 2, 10_000
        counts = {}
        for _ in range(n_seq):
            start = QState(layout, np.array([1.0, 0]))
            bits = tuple(alternating_sample(p1, q1, start, n_alt, stream))
            counts[bits] = counts.get(bits, 0) + 1

        # exact chain: b_0 = 1, stay probability p
        exact = {}
        def rec(prefix, prob, prev):
            if len(prefix) == 2 * n_alt:
                exact[tuple(prefix)] = prob
                return
            for b in (0, 1):
                q = p if b == prev else 1 - p
                if q > 0:
                    rec(prefix + [b], prob * q, b)
        rec([], 1.0, 1)

        atoms = set(exact) | set(counts)
        tv = 0.5 * sum(abs(exact.get(a, 0.0) - counts.get(a, 0) / n_seq)
                       for a in atoms)
        assert tv <= 0.03, f"p={p}: TV {tv}"
    assert time.monotonic() - t0 < 30


def test_criterion_03_trial_success_lower_bound(verifier_suite):
    """For every verifier with best acceptance >= 0.9, a single trial at the
    default parameters succeeds with probability >= 1/16 (empirically, over
    2000 draws, within 3 sigma); under 5 min."""
    t0 = time.monotonic()
    n_draws = 2000
    floor = 1.0 / 16
    sigma = math.sqrt(floor * (1 - floor) / n_draws)
    stream = Stream(31337)
    for i, (spec, engine, _) in enumerate(verifier_suite):
        rng = stream.split(i).gen
        hits = sum(engine.sample(rng)[0] for _ in range(n_draws))
        rate = hits / n_draws
        assert rate >= floor - 3 * sigma, f"verifier {i}: rate {rate}"
        # the exact success probability itself clears the bound
        assert engine.p_success >= floor - 1e-9
    assert time.monotonic() - t0 < 300


def test_criterion_04_synthesizer_meets_acceptance_target(verifier_suite):
    """Both synthesis backends reach acceptance >= 0.5 on at least 95% of
    the verifier suite, and agree within 0.1 on every instance."""
    ok_eigen = ok_trial = 0
    stream = Stream(424242)
    for i, (spec, engine, params) in enumerate(verifier_suite):
        acc_e = acceptance_of(spec, max_acceptance(spec)[1])
        res_t = synthesize(engine, stream.split(("t", i)))
        acc_t = acceptance_of(spec, res_t.state)
        ok_eigen += int(acc_e >= 0.5)
        ok_trial += int(acc_t >= 0.5)
        assert abs(acc_e - acc_t) <= 0.1, f"verifier {i}: {acc_e} vs {acc_t}"
    assert ok_eigen >= 19
    assert ok_trial >= 19


def test_criterion_05_oracle_representation_equivalence():
    """Purified and compressed oracles agree to TD <= 1e-9 on random mixed
    programs (l <= 2, up to 6 queries); Comp then Decomp is the identity to
    1e-9; the sampled oracle matches to TV <= 0.03 at 10^4 samples; under
    2 min."""
    t0 = time.monotonic()
    stream = Stream(555)
    for l in (1, 2):
        for q in (3, 6):
            assert equivalence_check(l, q, stream.split(("eq", l, q))) <= 1e-9
            assert comp_decomp_check(l, q, stream.split(("cd", l, q))) <= 1e-9
    rep = cmd_oracle_check({"l": 2, "queries": 3, "trials": 3, "seed": 556,
                            "mc_samples": 10_000})
    assert rep["ok"]
    assert rep["mc_tv"] <= 0.03
    assert time.monotonic() - t0 < 120


def test_criterion_05_oracle_equivalence_at_l3():
    """Companion to criterion 5 at l = 3, the largest size exact mode
    allows (256 truth tables): every oracle-check property holds on two
    4-query programs, in a few seconds."""
    t0 = time.monotonic()
    rep = cmd_oracle_check({"l": 3, "queries": 4, "trials": 2, "seed": 557})
    assert all(rep["checks"].values()) and rep["ok"]
    assert time.monotonic() - t0 < 20


def test_criterion_06_recording_error_bound():
    """On 100 random pre-query states (l = 2), replacing a real classical
    query by a recorded-database lookup moves the state by at most
    6*sqrt(alpha), where alpha equals the oracle-pair-count decrement to
    1e-9 (bound compared on squared quantities)."""
    stream = Stream(616)
    for i in range(100):
        nq = 1 + i % 3
        td, bound, err = recording_error_check(2, nq, stream.split(i))
        assert td * td - bound * bound <= 1e-9
        assert err <= 1e-9


def test_criterion_07_recorded_query_monotonicity():
    """On 100 random two-query configurations, interposing a recorded query
    never increases the weight on inconsistent oracle branches (to 1e-9)."""
    stream = Stream(717)
    for i in range(100):
        after, before = recorded_query_monotone_check(2, 2, stream.split(i))
        assert after <= before + 1e-9


def test_criterion_08_bad_query_rate_and_discoveries():
    """Conjugate-coding attack at eps = 0.1: the adversary's verification
    queries hit an unlearned secret position with rate <= eps (within
    3 sigma over 500 runs), and never learns more than the scheme's total
    query count of secret pairs."""
    scheme = make_scheme("conjugate")
    cfg = AttackConfig.default(scheme, epsilon=0.1)
    hits = sum(bad_query_probe(scheme, cfg, Stream(9000 + i))
               for i in range(500))
    rate = hits / 500
    sigma = math.sqrt(0.1 * 0.9 / 500)
    assert rate <= 0.1 + 3 * sigma, f"bad-query rate {rate}"

    ell = scheme.queries
    for i in range(100):
        tr = run_attack(scheme, cfg, Stream(9600 + i))
        runs = tr.runs
        assert sum(b * n for b, n in zip(runs.bad_counts, runs.rounds)) <= ell


def test_criterion_09_end_to_end_counterfeiting():
    """Full attack success rates: hash-tag >= 0.9 over 200 runs at the
    derived parameters; conjugate >= 0.1 at eps = 0.1 with the derived
    update count; counterexample >= 0.1 at reduced parameters, with the
    verifier-simulation gap decaying within 6*sqrt(q*q'/t_max); under
    30 min total."""
    t0 = time.monotonic()

    _, s_ht = attack_rows({"scheme": "hash-tag", "trials": 200, "seed": 100})
    assert s_ht["success"]["mean"] >= 0.9, s_ht["success"]

    _, s_cj = attack_rows({"scheme": "conjugate", "trials": 100, "seed": 200,
                           "eps": 0.1})
    assert s_cj["params_used"]["n_updates"] == s_cj["derived_formulas"]["n_updates"]
    assert s_cj["success"]["mean"] >= 0.1, s_cj["success"]

    _, s_ce = attack_rows({"scheme": "counterexample", "trials": 100,
                           "seed": 300, "t_max": 16, "n_updates": 30})
    assert s_ce["success"]["mean"] >= 0.1, s_ce["success"]

    ce = make_scheme("counterexample")
    q = qp = ce.queries
    means = []
    for t_max in (4, 16, 64):
        cfg = AttackConfig.default(ce, epsilon=0.1, t_max=t_max, n_updates=1)
        gaps = []
        for i in range(40):
            p_true, p_sim = simulation_gap_probe(ce, cfg, Stream(7000 + i))
            gaps.append(abs(p_true - p_sim))
        mean = float(np.mean(gaps))
        assert mean <= 6 * math.sqrt(q * qp / t_max)
        means.append(mean)
    assert means[2] <= means[0] + 1e-9, f"gap did not decay: {means}"

    assert time.monotonic() - t0 < 1800


def test_criterion_10_attack_output_determinism(tmp_path):
    """Two attack runs with identical seeds produce byte-identical CSVs."""
    base = ["attack", "--scheme", "hash-tag", "--trials", "5", "--seed", "77",
            "--t-max", "6", "--n-updates", "4"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main([*base, "--out", str(out1)]) == 0
    assert cli.main([*base, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    s1 = json.loads((tmp_path / "r1.csv.summary.json").read_text())
    s2 = json.loads((tmp_path / "r2.csv.summary.json").read_text())
    assert s1 == s2

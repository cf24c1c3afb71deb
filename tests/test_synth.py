import json
import math

import numpy as np
import pytest

from reference import alternating_sample, run_trial_destructive, synthesize_by_attempt

from qmsep import synth
from qmsep.harness import HarnessError, cmd_synth
from qmsep.hilbert import DensityOp, Projector, QState, RegisterLayout, haar_unitary
from qmsep.money import make_scheme
from qmsep.streams import Stream
from qmsep.synth import (
    SPEC_QUBIT_CAP,
    ReducedVerifier,
    SynthError,
    SynthesisParams,
    TrialEngine,
    VerifierSpec,
    acceptance_of,
    build_pq,
    embed_unitary,
    max_acceptance,
    derived_n_alternations,
    derived_t_trials,
    synthesize,
    _log_comb,
)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def accept_all_spec(m=1):
    """Accepts every input: flips a fresh ancilla to |1> and measures it."""
    n = m + 1
    v = embed_unitary(X, [m], n, np.eye(1 << n))
    return VerifierSpec(m=m, k=1, v_hat=v, ans_index=m)


def reject_all_spec(m=1):
    """Measures a fresh |0> ancilla: never accepts."""
    n = m + 1
    return VerifierSpec(m=m, k=1, v_hat=np.eye(1 << n), ans_index=m)


def random_spec(m, k, stream):
    n = m + k
    return VerifierSpec(m=m, k=k, v_hat=haar_unitary(1 << n, stream.gen),
                        ans_index=int(stream.integers(0, n)))


def good_spec(m, k, stream, b=0.9, gap=None):
    """Rejection-sample a verifier with max_acceptance >= b (and optional
    spectral gap between the top two eigenvalues of P1 Q1 P1)."""
    while True:
        spec = random_spec(m, k, stream)
        p1, q1 = build_pq(spec)
        vals = np.linalg.eigvalsh(p1.matrix @ q1.matrix @ p1.matrix)
        if vals[-1] < b:
            continue
        if gap is not None and vals[-1] - vals[-2] < gap:
            continue
        return spec


# ----------------------------------------------------------------- build_pq


def test_build_pq_identity_single_qubit():
    spec = VerifierSpec(m=1, k=0, v_hat=np.eye(2), ans_index=0)
    p1, q1 = build_pq(spec)
    assert np.allclose(p1.matrix, np.eye(2))  # k = 0: no ancilla constraint
    assert np.allclose(q1.matrix, np.diag([0, 1.0]))


def test_build_pq_p1_rank():
    spec = random_spec(2, 1, Stream(1))
    p1, _ = build_pq(spec)
    assert abs(np.trace(p1.matrix).real - 4) < 1e-12  # rank 2^m


def test_build_pq_q1_idempotent_random():
    spec = random_spec(2, 1, Stream(2))
    _, q1 = build_pq(spec)
    assert np.abs(q1.matrix @ q1.matrix - q1.matrix).max() < 1e-9


def test_reduced_operator_is_p1_q1_p1_on_range_p1():
    stream = Stream(4)
    for k in (0, 1, 2):
        spec = random_spec(2, k, stream)
        p1, q1 = build_pq(spec)
        dk = 1 << k
        full = p1.matrix @ q1.matrix @ p1.matrix
        assert np.abs(spec.a - full[::dk, ::dk]).max() < 1e-12


# ------------------------------------------------------------ max_acceptance


def test_max_acceptance_accept_all():
    val, witness = max_acceptance(
        VerifierSpec(m=1, k=0, v_hat=np.eye(2), ans_index=0))
    assert abs(val - 1.0) < 1e-12
    assert np.allclose(witness.matrix, np.diag([0, 1.0]))


def test_max_acceptance_reject_all():
    val, _ = max_acceptance(reject_all_spec())
    assert val < 1e-12


def test_max_acceptance_vs_random_search():
    stream = Stream(3)
    spec = random_spec(2, 1, stream)
    val, _ = max_acceptance(spec)
    _, q1 = build_pq(spec)
    dm, dk = 4, 2
    gen = stream.gen
    phis = gen.normal(size=(100_000, dm)) + 1j * gen.normal(size=(100_000, dm))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    full = np.zeros((100_000, dm * dk), dtype=np.complex128)
    full[:, ::dk] = phis
    best = float(np.einsum("si,ij,sj->s", full.conj(), q1.matrix, full).real.max())
    assert val >= best - 1e-6
    assert val <= best + 0.02


def test_max_acceptance_witness_attains_value():
    spec = random_spec(2, 1, Stream(8))
    val, witness = max_acceptance(spec)
    assert abs(acceptance_of(spec, witness) - val) < 1e-9


def _permuted_input(spec, perm):
    """The verifier V (P (x) I): input basis state |i> enters as |perm[i]>."""
    dm = 1 << spec.m
    p = np.eye(dm)[:, perm]
    v = spec.v_hat @ np.kron(p, np.eye(1 << spec.k))
    return VerifierSpec(m=spec.m, k=spec.k, v_hat=v, ans_index=spec.ans_index), p


def test_max_acceptance_witness_is_canonical_under_input_permutation():
    # A = U diag(0.9, 0.9, 0.3, 0.1) U^dag has a 2-fold top eigenspace:
    # a rotation on M, then a rotation of the answer ancilla by d_i
    stream = Stream(9)
    u = haar_unitary(4, stream.gen)
    d = np.array([0.9, 0.9, 0.3, 0.1])
    rot = np.zeros((8, 8), dtype=np.complex128)
    for i, di in enumerate(d):
        c, s = math.sqrt(1 - di), math.sqrt(di)
        rot[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    spec = VerifierSpec(m=2, k=1, v_hat=rot @ np.kron(u.conj().T, np.eye(2)),
                        ans_index=2)
    val, rho = max_acceptance(spec)
    assert abs(val - 0.9) < 1e-12
    top = u[:, :2]
    assert np.abs(rho.matrix - top @ top.conj().T / 2).max() < 1e-12
    for perm in ([1, 0, 2, 3], [3, 2, 0, 1], [2, 3, 1, 0]):
        permuted, p = _permuted_input(spec, perm)
        _, rho_p = max_acceptance(permuted)
        assert np.abs(rho_p.matrix - p.T @ rho.matrix @ p).max() < 1e-12


# --------------------------------------------------------------- parameters


def test_alternation_count_desk_defaults():
    # a = 0.5, b = 0.9, m = 2: max(15*(4 - log2(0.4)), 16*0.9/0.16) = 90
    assert derived_n_alternations(2, 0.5, 0.9) == 90
    assert derived_t_trials(2) == 128
    assert SynthesisParams.default(2).t_trials == 128


def test_params_validation():
    with pytest.raises(SynthError):
        SynthesisParams(a=0.9, b=0.5, n_alternations=10, t_trials=10)
    for a, b in ((0.9, 0.5), (0.5, 0.5)):  # b - a <= 0 enters a log and a division
        with pytest.raises(SynthError):
            SynthesisParams.default(2, a=a, b=b)
    p = SynthesisParams.default(2)
    assert p.threshold == math.ceil(90 * 1.4)


# -------------------------------------------------------- alternating sample


def one_qubit_pair(p):
    """P1 = |0><0|, Q1 = |w><w| with |<0|w>|^2 = p."""
    w = np.array([math.sqrt(p), math.sqrt(1 - p)])
    return (Projector(np.diag([1.0, 0]).astype(np.complex128)),
            Projector(np.outer(w, w)))


def start_zero():
    return QState(RegisterLayout((("M", 1),)), np.array([1.0, 0]))


def test_alternating_sample_p1_all_ones():
    p1, q1 = one_qubit_pair(1.0)
    bits = alternating_sample(p1, q1, start_zero(), 5, Stream(0))
    assert bits == [1] * 10


def test_alternating_sample_p0_alternates():
    p1, q1 = one_qubit_pair(0.0)
    bits = alternating_sample(p1, q1, start_zero(), 5, Stream(0))
    # starting in v with p = 0: Q outcome flips from b_0 = 1, then P flips back
    assert bits == [0, 1] * 5


def test_alternating_sample_half_flip_rate():
    p1, q1 = one_qubit_pair(0.5)
    stream = Stream(6)
    flips = 0
    total = 0
    for _ in range(10_000):
        bits = [1] + alternating_sample(p1, q1, start_zero(), 5, stream)
        flips += sum(b1 != b0 for b0, b1 in zip(bits, bits[1:]))
        total += len(bits) - 1
    assert abs(flips / total - 0.5) < 0.02


def markov_chain_distribution(p, n_bits):
    """Exact distribution over outcome strings: b_0 = 1, stay prob p."""
    dist = {}
    def rec(prefix, prob, prev):
        if len(prefix) == n_bits:
            dist[tuple(prefix)] = prob
            return
        for b in (0, 1):
            q = p if b == prev else 1 - p
            if q > 0:
                rec(prefix + [b], prob * q, b)
    rec([], 1.0, 1)
    return dist


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.9])
def test_alternating_sample_matches_markov_chain(p):
    p1, q1 = one_qubit_pair(p)
    stream = Stream(int(p * 100))
    n_alt = 2
    counts = {}
    n_seq = 10_000
    for _ in range(n_seq):
        bits = tuple(alternating_sample(p1, q1, start_zero(), n_alt, stream))
        counts[bits] = counts.get(bits, 0) + 1
    exact = markov_chain_distribution(p, 2 * n_alt)
    atoms = set(exact) | set(counts)
    tv = 0.5 * sum(abs(exact.get(a, 0.0) - counts.get(a, 0) / n_seq)
                   for a in atoms)
    assert tv <= 0.03


# ------------------------------------------------------------- trial engine


def small_params(n_alt=10, t=16, a=0.5, b=0.9):
    return SynthesisParams(a=a, b=b, n_alternations=n_alt, t_trials=t)


def test_engine_accept_all_succeeds_always():
    engine = TrialEngine(accept_all_spec(), small_params())
    assert abs(engine.p_success - 1.0) < 1e-9
    rho = engine.rho_m()
    assert abs(acceptance_of(accept_all_spec(), rho) - 1.0) < 1e-9


def test_engine_reject_all_never_succeeds():
    engine = TrialEngine(reject_all_spec(), small_params())
    assert engine.p_success < 1e-12


def _chain_success(spec, params):
    """Independent oracle: evolve the per-block (state, last bit, count)
    Markov chain classically using the block overlaps.  Returns the success
    probability and the unnormalized success state on the input register
    (a last P outcome of 1 leaves each block in its v direction)."""
    from qmsep.jordan import jordan_decompose
    p1, q1 = build_pq(spec)
    dm = 1 << spec.m
    blocks = [b for b in jordan_decompose(p1, q1).blocks if b.v is not None]
    n = params.n_alternations
    total = 0.0
    state = np.zeros((dm, dm), dtype=np.complex128)
    for blk in blocks:
        p = blk.p
        # states: 0 = current vector aligned with v-side, 1 = orthogonal
        # chain over (side, last bit, count)
        dist = {("v", 1, 0): 1.0 / dm}
        for _ in range(n):
            for proj_p in (p, None):  # Q measurement then P measurement
                new = {}
                for (side, last, cnt), w in dist.items():
                    if proj_p is not None:  # Q measurement
                        hit = p if side == "v" else 1 - p
                        stay = ("w", 1), ("w_perp", 0)
                    else:  # P measurement
                        hit = p if side == "w" else (1 - p if side == "w_perp" else (1.0 if side == "v" else 0.0))
                        stay = ("v", 1), ("v_perp", 0)
                    for (nside, bit), q in zip(stay, (hit, 1 - hit)):
                        if q <= 0:
                            continue
                        ncnt = cnt + (1 if bit == last else 0)
                        key = (nside, bit, ncnt)
                        new[key] = new.get(key, 0.0) + w * q
                dist = new
        mass = sum(w for (side, last, cnt), w in dist.items()
                   if last == 1 and cnt >= params.threshold)
        v = blk.v[::1 << spec.k]
        total += mass
        state += mass * np.outer(v, v.conj())
    return total, state


def test_engine_matches_markov_chain_oracle():
    stream = Stream(17)
    cases = [(random_spec(2, 1, stream),
              small_params(n_alt=int(stream.integers(4, 12))))
             for _ in range(5)]
    # the conjugate verifier at an empty database (k = 5, dimension 128);
    # a low threshold keeps its success probability away from 0
    scheme = make_scheme("conjugate")
    cases.append((scheme.sim_verifier("", (3,), {}),
                  small_params(n_alt=8, a=0.1, b=0.3)))
    for spec, params in cases:
        engine = TrialEngine(spec, params)
        want, state = _chain_success(spec, params)
        assert abs(engine.p_success - want) < 1e-6
        assert abs(engine.p_success - want) <= 1e-9 * want + 1e-15
        assert np.abs(engine.rho_m().matrix - state / want).max() < 1e-9


def test_engine_joint_finite_at_large_alternation_count():
    # binomial coefficients of 2N = 4000 overflow a float
    stream = Stream(19)
    n_alt = 2000
    for spec in (accept_all_spec(), reject_all_spec(), random_spec(2, 1, stream)):
        engine = TrialEngine(spec, small_params(n_alt=n_alt))
        assert engine.joint.shape == (2, 2 * n_alt + 1)
        assert np.isfinite(engine.joint).all()
        assert abs(engine.joint.sum() - 1.0) < 1e-12
        # the count is a mixture of Binomial(2N, p) over A's eigenvalues
        p1, q1 = build_pq(spec)
        vals = np.linalg.eigvalsh(p1.matrix @ q1.matrix @ p1.matrix)
        p_mean = np.sort(vals)[-(1 << spec.m):].mean()
        mean_count = engine.joint.sum(axis=0) @ np.arange(2 * n_alt + 1)
        assert abs(mean_count - 2 * n_alt * p_mean) < 1e-8 * n_alt


def test_engine_sample_draws_as_generator_choice():
    # sample must consume the stream exactly as Generator.choice(p=joint),
    # and pass exactly when choice picks a success cell (y = 1, c >= T)
    stream = Stream(29)
    specs = [random_spec(2, 1, stream),
             make_scheme("conjugate").sim_verifier("", (3,), {})]
    for spec in specs:
        engine = TrialEngine(spec, small_params(n_alt=8, a=0.1, b=0.3))
        flat = engine.joint.reshape(-1)
        for seed in range(50):
            got, ref = Stream(seed), Stream(seed)
            for _ in range(32):
                success = engine.sample(got)[0]
                y, c = divmod(int(ref.choice(len(flat), p=flat)), engine.joint.shape[1])
                assert success == (y == 1 and c >= engine.threshold)
            assert got.random() == ref.random()  # one draw per attempt


def test_engine_rho_m_is_built_once():
    engine = TrialEngine(random_spec(2, 1, Stream(43)), small_params())
    first = engine.rho_m()
    assert engine.rho_m() is first
    assert engine.rho_m().matrix.tobytes() == first.matrix.tobytes()


def test_engine_agrees_with_destructive_trial():
    stream = Stream(23)
    spec = good_spec(2, 1, stream)
    params = small_params(n_alt=8, t=16)
    engine = TrialEngine(spec, params)
    n = 500
    hits = sum(run_trial_destructive(spec, params, stream.split(i))
               for i in range(n))
    assert abs(hits / n - engine.p_success) <= 0.07  # 3 sigma at n = 500


def test_destructive_trial_counts_from_a_first_outcome_of_one():
    # accept-all repeats every outcome, so the count reaches 2N, and passes
    # a threshold of 2N, only when it starts from b_0 = 1
    spec = accept_all_spec()
    params = small_params(n_alt=10, a=0.95, b=1.0)
    assert params.threshold == 20
    assert abs(TrialEngine(spec, params).p_success - 1.0) < 1e-12
    assert run_trial_destructive(spec, params, Stream(0))


def test_trial_success_rate_lower_bound_exact():
    # the engine's p_success is exact, so the subroutine's guarantee
    # Pr[success] >= 1/2^(m+2) can be checked without sampling
    stream = Stream(31)
    params = SynthesisParams.default(2)
    for i in range(5):
        spec = good_spec(2, int(stream.integers(1, 3)), stream)
        engine = TrialEngine(spec, params)
        assert engine.p_success >= 1 / 16


# -------------------------------------------------------------- synthesizer


def test_synthesize_trial_reject_all_falls_back():
    res = synthesize(TrialEngine(reject_all_spec(), small_params(t=8)), Stream(0))
    assert res.fallback
    assert np.allclose(res.state.matrix, np.eye(2) / 2)


def test_fallbacks_from_one_engine_share_the_mixed_state():
    engine = TrialEngine(reject_all_spec(), small_params(t=8))
    first = synthesize(engine, Stream(0))
    second = synthesize(engine, Stream(1))
    assert first.fallback and second.fallback
    assert second.state is first.state is engine.mixed


def test_synthesize_backend_agreement():
    stream = Stream(37)
    params = small_params(n_alt=30, t=64)
    for i in range(10):
        spec = good_spec(2, 1, stream, b=0.9, gap=0.1)
        _, witness = max_acceptance(spec)
        tri = synthesize(TrialEngine(spec, params), stream)
        assert not tri.fallback
        acc_e = acceptance_of(spec, witness)
        acc_t = acceptance_of(spec, tri.state)
        assert acc_t >= 0.5
        assert abs(acc_e - acc_t) <= 0.1


@pytest.mark.parametrize("block", [synth.DRAW_BLOCK, 5])
def test_synthesize_consumes_one_draw_per_attempt(block, monkeypatch):
    # synthesize decides as the one-draw-per-attempt loop does, after a
    # bounded draw that leaves half a 64-bit output buffered; a block of 5
    # would split the 12-draw budget into 5, 5, 2.  Where the call leaves
    # the stream is unspecified, so only the result is compared
    monkeypatch.setattr(synth, "DRAW_BLOCK", block)
    cases = [(accept_all_spec(), small_params(t=12)),
             (make_scheme("conjugate").sim_verifier("", (3,), {}),
              small_params(n_alt=8, t=12, a=0.2, b=0.4)),
             (reject_all_spec(), small_params(t=12))]
    seen = set()
    for spec, params in cases:
        engine = TrialEngine(spec, params)
        for seed in range(60):
            got, want = Stream(seed), Stream(seed)
            assert got.integers(0, 7) == want.integers(0, 7)
            res = synthesize(engine, got)
            ref = synthesize_by_attempt(engine, want)
            assert (res.attempts, res.fallback) == (ref.attempts, ref.fallback)
            assert res.state.matrix.tobytes() == ref.state.matrix.tobytes()
            seen.add(res.attempts if not res.fallback else "fallback")
    # a success at the first, a middle and the last attempt, and a fallback
    assert {1, 7, 12, "fallback"} <= seen


def _prepared(seed, kind):
    """Stream(seed) after kind's draws: none; a bounded draw, which keeps
    half a 64-bit output; or a normal, which hands the stream to numpy,
    then a bounded draw."""
    s = Stream(seed)
    if kind == "handed-off":
        s.gen.normal()
    if kind != "fresh":
        s.integers(0, 7)
    return s


@pytest.mark.parametrize("block", [synth.DRAW_BLOCK, 5])
def test_synthesize_matches_the_attempt_loop_on_every_path(block, monkeypatch):
    # p >= 1/16 decides its first SERIAL_ATTEMPTS attempts one draw at a
    # time and the rest in blocks; p < 1/16 draws in blocks from the start;
    # a cut of 1.0 passes no draw
    monkeypatch.setattr(synth, "DRAW_BLOCK", block)
    promise = TrialEngine(ReducedVerifier(2, 0, 0.655 * np.eye(4)),
                          SynthesisParams.default(2, t_trials=40))
    low = TrialEngine(ReducedVerifier(2, 0, 0.65 * np.eye(4)),
                      SynthesisParams.default(2, t_trials=40))
    spec = make_scheme("conjugate").sim_verifier("", (3,), {})
    none = TrialEngine(spec, SynthesisParams.default(spec.m))
    assert 1 / 16 <= promise.p_success < 0.1 and 0.01 < low.p_success < 1 / 16
    assert none.cut == 1.0 and 0 < none.p_success < 1e-30
    serial = synth.SERIAL_ATTEMPTS
    for engine, wanted in [(promise, {"<= serial", "> serial", "fallback"}),
                           (low, {"<= serial", "> serial", "fallback"}),
                           (none, {"fallback"})]:
        seen = set()
        for seed in range(90):
            kind = ("fresh", "kept half", "handed-off")[seed % 3]
            got, want = _prepared(seed, kind), _prepared(seed, kind)
            res = synthesize(engine, got)
            ref = synthesize_by_attempt(engine, want)
            assert (res.attempts, res.fallback) == (ref.attempts, ref.fallback)
            assert res.state.matrix.tobytes() == ref.state.matrix.tobytes()
            seen.add("fallback" if res.fallback else
                     "<= serial" if res.attempts <= serial else "> serial")
        assert seen == wanted


# ------------------------------------------------------------ serialization


def test_verifier_json_round_trip():
    spec = random_spec(2, 1, Stream(41))
    back = VerifierSpec.from_json(spec.to_json())
    assert back.m == spec.m and back.k == spec.k
    assert back.ans_index == spec.ans_index
    assert np.abs(back.v_hat - spec.v_hat).max() < 1e-12


def test_verifier_json_gate_list():
    text = json.dumps({
        "m": 1, "k": 1, "ans_index": 1,
        "gates": [{"name": "H", "targets": [0]},
                  {"name": "CNOT", "targets": [0, 1]}],
    })
    spec = VerifierSpec.from_json(text)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    want = cnot @ np.kron(H, np.eye(2))
    assert np.abs(spec.v_hat - want).max() < 1e-12
    # |0> input: Bell state, accepts with probability 1/2
    assert abs(acceptance_of(spec, DensityOp(
        RegisterLayout((("M", 1),)), np.diag([1.0, 0]))) - 0.5) < 1e-12


@pytest.mark.parametrize("m,k", [(20, 20), (1, SPEC_QUBIT_CAP)])
def test_verifier_json_rejects_width_above_cap(m, k):
    # raised before the 2^(m+k)-square identity is allocated
    with pytest.raises(SynthError, match="exceeds cap"):
        VerifierSpec.from_json(json.dumps({"m": m, "k": k, "ans_index": 0}))


def test_verifier_json_unknown_gate():
    with pytest.raises(SynthError):
        VerifierSpec.from_json(json.dumps(
            {"m": 1, "k": 0, "ans_index": 0,
             "gates": [{"name": "ZZ", "targets": [0]}]}))



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_verifier_json_rejects_non_finite_matrix(bad):
    # a NaN unitarity error compares False with any tolerance
    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    entries[3][1] = bad
    with pytest.raises(SynthError, match="not unitary"):
        VerifierSpec.from_json(json.dumps(
            {"m": 1, "k": 0, "ans_index": 0,
             "gates": [{"name": "U", "targets": [0], "matrix": entries}]}))


def test_verifier_json_rejects_an_integer_beyond_float_range():
    # complex() cannot convert 10**400, which JSON reads as an exact int
    entries = [[10 ** 400, 0], [0, 0], [0, 0], [1, 0]]
    with pytest.raises(SynthError, match="gate 0 has an entry that is not finite"):
        VerifierSpec.from_json(json.dumps(
            {"m": 1, "k": 0, "ans_index": 0,
             "gates": [{"name": "U", "targets": [0], "matrix": entries}]}))


@pytest.mark.parametrize("field,value", [
    ("m", 1.5), ("m", "2"), ("m", True), ("k", True), ("k", 0.0), ("k", None),
    ("ans_index", 1.0), ("ans_index", False), ("target", 0.0), ("target", True),
    ("target", "0")])
def test_verifier_json_rejects_non_integer_fields(field, value):
    # int() would read each of these as a small integer, or fail unclearly
    obj = {"m": 1, "k": 1, "ans_index": 1, "gates": [{"name": "H", "targets": [0]}]}
    if field == "target":
        obj["gates"][0]["targets"] = [value]
    else:
        obj[field] = value
    with pytest.raises(SynthError, match="must be an integer"):
        VerifierSpec.from_json(json.dumps(obj))


@pytest.mark.parametrize("entry", [
    ["1.0", 0.0], [None, 0.0], [1.0], [1.0, 0.0, 0.0], [[1.0], 0.0], "10",
    {"re": 1, "im": 0}])
def test_verifier_json_rejects_non_numeric_entries(entry, tmp_path):
    # each U entry is a [re, im] pair of JSON numbers: a string, null, a
    # pair of another length or a nested list is rejected, never read as a
    # number (np.array(..., dtype=float) would read "1.5" as 1.5 and null
    # as NaN), and the CLI reports it as bad input
    entries = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], entry]
    text = json.dumps({"m": 1, "k": 0, "ans_index": 0,
                       "gates": [{"name": "U", "targets": [0], "matrix": entries}]})
    with pytest.raises((TypeError, ValueError)):
        VerifierSpec.from_json(text)
    path = tmp_path / "verifier.json"
    path.write_text(text)
    with pytest.raises(HarnessError):
        cmd_synth({"verifier": str(path), "trials": 1, "seed": 0})


def test_verifier_json_rejects_entry_above_modulus_one():
    # caught as the gate is read: 1e200 would overflow to inf in V^dag V
    big = [[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    with pytest.raises(SynthError, match="not unitary"):
        VerifierSpec.from_json(json.dumps(
            {"m": 1, "k": 0, "ans_index": 0,
             "gates": [{"name": "U", "targets": [0], "matrix": big}]}))


def test_verifier_json_rejects_non_unitary_gate():
    scaled = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]  # diag(2, 1)
    with pytest.raises(SynthError):
        VerifierSpec.from_json(json.dumps(
            {"m": 1, "k": 0, "ans_index": 0,
             "gates": [{"name": "U", "targets": [0], "matrix": scaled}]}))


@pytest.mark.parametrize("n", [0, 1, 7, 360])
def test_log_comb_is_shared_read_only_and_exact(n):
    got = _log_comb(n)
    assert got is _log_comb(n) and not got.flags.writeable
    assert got.tolist() == [math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
                            for x in range(n + 1)]

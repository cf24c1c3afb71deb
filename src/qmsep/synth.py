"""Witness-state synthesis for binary-outcome verifiers.

A verifier is a unitary V on m input qubits plus k fresh ancillas followed
by a measurement of one answer qubit.  Acceptance is governed by the
projector pair P1 = I (x) |0^k><0^k| and Q1 = V^dag (|1><1|_ans (x) I) V;
the best achievable acceptance is the top eigenvalue of P1 Q1 P1.

The trial backend prepares a maximally entangled input, alternates coherent
Q/P measurements N times while unitarily tracking (last outcome, agreement
count) in a compact counter register, and post-selects on the threshold
test.  Conditioned on the test passing, the reduced state on the input
register is accepted with probability at least the configured guarantee.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    HADAMARD,
    STRUCT_TOL,
    UNITARY_TOL,
    DensityOp,
    HilbertError,
    Projector,
    QState,
    RegisterLayout,
    embed_unitary,
    max_entangled,
    measure_projective,
    partial_trace,
)

_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128)


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class VerifierSpec:
    m: int
    k: int
    v_hat: np.ndarray
    ans_index: int

    def __post_init__(self):
        if self.m < 1 or self.k < 0:
            raise SynthError("need m >= 1, k >= 0")
        if not (0 <= self.ans_index < self.m + self.k):
            raise SynthError("ans_index out of range")
        v = np.asarray(self.v_hat, dtype=np.complex128)
        d = 1 << (self.m + self.k)
        if v.shape != (d, d):
            raise SynthError(f"v_hat shape {v.shape}, expected {(d, d)}")
        if np.abs(v.conj().T @ v - np.eye(d)).max() > UNITARY_TOL:
            raise SynthError("v_hat is not unitary within tolerance")
        object.__setattr__(self, "v_hat", v)

    def to_json(self) -> str:
        flat = [[float(z.real), float(z.imag)] for z in self.v_hat.reshape(-1)]
        return json.dumps({
            "m": self.m, "k": self.k, "ans_index": self.ans_index,
            "gates": [{"name": "U",
                       "targets": list(range(self.m + self.k)),
                       "matrix": flat}],
        })

    @classmethod
    def from_json(cls, text: str) -> "VerifierSpec":
        obj = json.loads(text)
        m, k = int(obj["m"]), int(obj["k"])
        n = m + k
        v = np.eye(1 << n, dtype=np.complex128)
        for gate in obj.get("gates", []):
            name = gate["name"]
            targets = [int(t) for t in gate["targets"]]
            if name == "H":
                g = HADAMARD
            elif name == "T":
                g = _T
            elif name == "CNOT":
                g = _CNOT
            elif name == "U":
                d = 1 << len(targets)
                flat = gate["matrix"]
                if len(flat) != d * d:
                    raise SynthError(
                        f"U gate matrix has {len(flat)} entries, expected {d * d}")
                g = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
            else:
                raise SynthError(f"unknown gate {name!r}")
            v = embed_unitary(g, targets, n) @ v
        return cls(m=m, k=k, v_hat=v, ans_index=int(obj["ans_index"]))


def derived_n_alternations(m: int, a: float, b: float) -> int:
    """The subroutine's alternation count (log base 2)."""
    gap2 = (b - a) ** 2
    n1 = (3 * a + b) / gap2 * (m + 2 - math.log2(b - a))
    n2 = 16 * b / gap2
    return math.ceil(max(n1, n2))


def derived_t_trials(m: int, q_factor: int = 8) -> int:
    return (1 << (m + 2)) * q_factor


@dataclass(frozen=True)
class SynthesisParams:
    a: float
    b: float
    n_alternations: int
    t_trials: int
    backend: str = "trial"

    def __post_init__(self):
        if not (0 < self.a < self.b <= 1):
            raise SynthError("need 0 < a < b <= 1")
        if self.backend not in ("trial", "eigen"):
            raise SynthError(f"unknown backend {self.backend!r}")
        if self.n_alternations < 1 or self.t_trials < 1:
            raise SynthError("n_alternations and t_trials must be positive")
        n = self.n_alternations
        if math.ceil(n * (self.a + self.b)) > 2 * n:
            raise SynthError("vacuous threshold: N(a+b) exceeds the outcome count")

    @classmethod
    def default(cls, m: int, a: float = 0.5, b: float = 0.9,
                backend: str = "trial", q_factor: int = 8,
                n_alternations: int | None = None,
                t_trials: int | None = None) -> "SynthesisParams":
        n = n_alternations if n_alternations is not None else derived_n_alternations(m, a, b)
        t = t_trials if t_trials is not None else derived_t_trials(m, q_factor)
        return cls(a=a, b=b, n_alternations=n, t_trials=t, backend=backend)

    @property
    def threshold(self) -> int:
        return math.ceil(self.n_alternations * (self.a + self.b))


@dataclass(frozen=True)
class TrialResult:
    success: bool
    state: QState
    est_count: int
    accept_prob_of_reduced: float


def build_pq(spec: VerifierSpec):
    n = spec.m + spec.k
    dim = 1 << n
    idx = np.arange(dim)
    # layout [M, K] big-endian: K occupies the low k bits
    p_diag = ((idx & ((1 << spec.k) - 1)) == 0).astype(np.complex128)
    p1 = Projector(np.diag(p_diag))
    ans_bit = n - 1 - spec.ans_index
    pi_ans = np.diag(((idx >> ans_bit) & 1).astype(np.complex128))
    q1 = Projector(spec.v_hat.conj().T @ pi_ans @ spec.v_hat)
    return p1, q1


def _mk_layout(spec: VerifierSpec) -> RegisterLayout:
    regs = [("M", spec.m)]
    if spec.k:
        regs.append(("K", spec.k))
    return RegisterLayout(tuple(regs))


def acceptance_of(spec: VerifierSpec, rho_m: DensityOp) -> float:
    """Tr(Q1 (rho (x) |0^k><0^k|)) for a state on the input register."""
    _, q1 = build_pq(spec)
    dm = 1 << spec.m
    dk = 1 << spec.k
    full = np.zeros((dm * dk, dm * dk), dtype=np.complex128)
    full[::dk, ::dk] = rho_m.matrix  # K pinned to |0^k>
    return float(np.trace(q1.matrix @ full).real)


def max_acceptance(spec: VerifierSpec):
    p1, q1 = build_pq(spec)
    h = p1.matrix @ q1.matrix @ p1.matrix
    vals, vecs = np.linalg.eigh(h)
    value = float(min(max(vals[-1], 0.0), 1.0))
    top = vecs[:, -1]
    state = QState(_mk_layout(spec), top)
    witness = partial_trace(state, ["M"])
    return value, witness


def alternating_sample(p1: Projector, q1: Projector, start: QState, n: int,
                       rng, targets=None) -> list:
    """Alternate destructive Q then P measurements n times; 2n outcome bits."""
    start.check_norm()
    state = start
    bits = []
    for _ in range(n):
        for pi in (q1, p1):
            outcome, state, _ = measure_projective(state, pi, rng, targets)
            bits.append(outcome)
    return bits


class TrialEngine:
    """Deterministic part of the trial subroutine.

    The evolution (entangled init, N coherent Q/P alternations with a
    compact (last outcome, agreement count) record) is fixed given
    (spec, params); only the final threshold test is random.  The engine
    runs the evolution once and exposes the joint (last bit, count)
    distribution plus the post-success state, so repeated trials reduce to
    Bernoulli draws.

    Recording an outcome decoheres the measured branches, so the state
    conditioned on a (last bit, count) value is a mixture over outcome
    histories; the engine therefore tracks per-(y, count) density blocks.
    It does so in the joint invariant-subspace basis of (P1, Q1), where
    both measurements are block diagonal and the entangled initial state
    splits into one term per subspace, which makes the evolution exact at
    2x2-block cost.
    """

    def __init__(self, spec: VerifierSpec, params: SynthesisParams):
        from .jordan import jordan_decompose

        self.spec = spec
        self.params = params
        p1, q1 = build_pq(spec)
        self.p1, self.q1 = p1, q1
        n_alt = params.n_alternations
        self.threshold = params.threshold
        # the counter register width the construction would occupy
        self.cnt_qubits = 1 + math.ceil(math.log2(2 * n_alt + 1))
        c_cap = 2 * n_alt + 1
        dm = 1 << spec.m
        dk = 1 << spec.k
        dmk = dm * dk

        blocks = [b for b in jordan_decompose(p1, q1).blocks if b.v is not None]
        if len(blocks) != dm:
            raise SynthError("range(P1) rank mismatch in block decomposition")
        nb = len(blocks)
        vs = np.zeros((nb, dmk), dtype=np.complex128)
        u2s = np.zeros((nb, dmk), dtype=np.complex128)
        gq = np.zeros((nb, 2, 2), dtype=np.complex128)
        gp = np.zeros((nb, 2, 2), dtype=np.complex128)
        gp[:, 0, 0] = 1.0  # P projects onto v within every block
        for i, blk in enumerate(blocks):
            vs[i] = blk.v
            if blk.dim == 2:
                c = np.vdot(blk.v, blk.w)
                res = blk.w - c * blk.v
                s = np.linalg.norm(res)
                u2s[i] = res / s
                wb = np.array([c, s])
                gq[i] = np.outer(wb, wb.conj())
            elif blk.p == 1.0:
                gq[i, 0, 0] = 1.0
            # p == 0 one-dim blocks: Q acts as zero, gq stays 0
        self._vs, self._u2s = vs, u2s

        # rho[b, y, c] is an unnormalized 2x2 density block
        rho = np.zeros((nb, 2, c_cap, 2, 2), dtype=np.complex128)
        rho[:, 1, 0, 0, 0] = 1.0 / dm  # y_0 = 1 convention
        for _ in range(n_alt):
            rho = self._step(gq, rho)
            rho = self._step(gp, rho)
        self.rho = rho
        joint = np.einsum("bycii->yc", rho).real
        joint = np.clip(joint, 0.0, None)
        self.joint = joint / joint.sum()
        self.p_success = float(self.joint[1, self.threshold:].sum())
        self._dm, self._dk, self._c_cap = dm, dk, c_cap

    @staticmethod
    def _step(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
        a = np.einsum("bij,bycjk->bycik", g, rho)      # g rho
        r1 = np.einsum("bycik,bkj->bycij", a, g)       # g rho g
        rg = np.einsum("bycik,bkj->bycij", rho, g)     # rho g
        r0 = rho - a - rg + r1                         # (1-g) rho (1-g)
        out = np.zeros_like(rho)
        # outcome 1: count bumps when the previous bit was 1
        out[:, 1, 1:] += r1[:, 1, :-1]
        out[:, 1, :] += r1[:, 0, :]
        # outcome 0: count bumps when the previous bit was 0
        out[:, 0, 1:] += r0[:, 0, :-1]
        out[:, 0, :] += r0[:, 1, :]
        return out

    def _select(self, success: bool) -> np.ndarray:
        mask = np.zeros((2, self._c_cap), dtype=bool)
        mask[1, self.threshold:] = True
        if not success:
            mask = ~mask
        sel = self.rho * mask[None, :, :, None, None]
        weight = np.einsum("bycii->", sel).real
        if weight < 1e-15:
            raise SynthError("conditioning on a zero-probability test branch")
        return sel / weight

    def rho_mk(self, success: bool = True) -> np.ndarray:
        """Post-test state on the verifier registers (aux traced out)."""
        sel = np.einsum("bycij->bij", self._select(success))
        basis = np.stack([self._vs, self._u2s], axis=2)  # (b, dmk, 2)
        return np.einsum("bpi,bij,bqj->pq", basis, sel, basis.conj())

    def rho_m(self, success: bool = True) -> DensityOp:
        full = self.rho_mk(success)
        dm, dk = self._dm, self._dk
        red = full.reshape(dm, dk, dm, dk)
        mat = np.einsum("ikjk->ij", red)
        return DensityOp(RegisterLayout((("M", self.spec.m),)), mat)

    def post_test_density(self, success: bool = True) -> DensityOp:
        """Post-test state on [M, K, Aux] (counter traced out)."""
        sel = np.einsum("bycij->bij", self._select(success))
        basis = np.stack([self._vs, self._u2s], axis=2)
        dm, dk = self._dm, self._dk
        dmk = dm * dk
        # aux holds the conjugate of each block's input-register direction
        aux = self._vs[:, ::dk].conj()
        out = np.zeros((dmk * dm, dmk * dm), dtype=np.complex128)
        for b in range(basis.shape[0]):
            mk = basis[b] @ sel[b] @ basis[b].conj().T
            out += np.kron(mk, np.outer(aux[b], aux[b].conj()))
        regs = [("M", self.spec.m)]
        if self.spec.k:
            regs.append(("K", self.spec.k))
        regs.append(("Aux", self.spec.m))
        return DensityOp(RegisterLayout(tuple(regs)), out)

    def sample(self, rng):
        """Measure (last bit, count); returns (success, y, count)."""
        flat = self.joint.reshape(-1)
        pick = rng.choice(len(flat), p=flat)
        y, c = divmod(int(pick), self._c_cap)
        return (y == 1 and c >= self.threshold), y, c


def purify(rho: DensityOp, env_name: str = "E") -> QState:
    """A purification of rho with an environment register of matching size."""
    vals, vecs = np.linalg.eigh(rho.matrix)
    vals = np.clip(vals, 0.0, None)
    d = rho.matrix.shape[0]
    n_env = max(1, (d - 1).bit_length())
    amps = np.zeros((d, 1 << n_env), dtype=np.complex128)
    amps[:, :d] = vecs * np.sqrt(vals)[None, :]  # sum_i sqrt(l_i) |e_i>|i>
    layout = RegisterLayout(rho.layout.registers + ((env_name, n_env),))
    psi = amps.reshape(-1)
    return QState(layout, psi / np.linalg.norm(psi))


def run_trial(spec: VerifierSpec, params: SynthesisParams, rng,
              engine: TrialEngine | None = None) -> TrialResult:
    if params.backend != "trial":
        raise SynthError("run_trial requires the trial backend")
    if engine is None:
        engine = TrialEngine(spec, params)
    success, _, count = engine.sample(rng)
    state = purify(engine.post_test_density(success))
    rho = engine.rho_m(success)
    return TrialResult(success=success, state=state, est_count=count,
                       accept_prob_of_reduced=acceptance_of(spec, rho))


def run_trial_destructive(spec: VerifierSpec, params: SynthesisParams, rng):
    """Trial variant measuring every outcome destructively.

    Measuring the outcome record early commutes with the threshold test, so
    the success statistics must match the coherent engine; used as a
    consistency check.
    """
    p1, q1 = build_pq(spec)
    dm = 1 << spec.m
    dk = 1 << spec.k
    regs = [("M", spec.m)]
    if spec.k:
        regs.append(("K", spec.k))
    regs.append(("Aux", spec.m))
    layout = RegisterLayout(tuple(regs))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for i in range(dm):
        amps[(i * dk) * dm + i] = 1.0 / math.sqrt(dm)
    state = QState(layout, amps)
    mk = ["M", "K"] if spec.k else ["M"]
    prev = 1
    count = 0
    last = 1
    for _ in range(params.n_alternations):
        for pi in (q1, p1):
            outcome, state, _ = measure_projective(state, pi, rng, mk)
            if outcome == prev:
                count += 1
            prev = outcome
            last = outcome
    success = last == 1 and count >= params.threshold
    rho = partial_trace(state, ["M"])
    return TrialResult(success=success, state=state, est_count=count,
                       accept_prob_of_reduced=acceptance_of(spec, rho))


@dataclass(frozen=True)
class SynthesisResult:
    state: DensityOp
    fallback: bool
    backend: str
    attempts: int


def synthesize(spec: VerifierSpec, params: SynthesisParams, rng,
               engine: TrialEngine | None = None) -> SynthesisResult:
    if params.backend == "eigen":
        _, witness = max_acceptance(spec)
        return SynthesisResult(state=witness, fallback=False,
                               backend="eigen", attempts=0)
    if engine is None:
        engine = TrialEngine(spec, params)
    for attempt in range(1, params.t_trials + 1):
        success, _, _ = engine.sample(rng)
        if success:
            return SynthesisResult(state=engine.rho_m(True), fallback=False,
                                   backend="trial", attempts=attempt)
    dm = 1 << spec.m
    layout = RegisterLayout((("M", spec.m),))
    mixed = DensityOp(layout, np.eye(dm, dtype=np.complex128) / dm)
    return SynthesisResult(state=mixed, fallback=True, backend="trial",
                           attempts=params.t_trials)

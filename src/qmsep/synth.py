"""Witness-state synthesis for binary-outcome verifiers.

A verifier is a unitary V on m input qubits plus k fresh ancillas followed
by a measurement of one answer qubit.  Acceptance is governed by the
projector pair P1 = I (x) |0^k><0^k| and Q1 = V^dag (|1><1|_ans (x) I) V.
By Jordan's lemma everything synthesis does happens inside range(P1), where
P1 Q1 P1 is the 2^m x 2^m operator A = Vp^dag Pi_ans Vp, with Vp the
K = |0^k> columns of V.  acceptance_of reads A; max_acceptance and the
trial engine read its eigendecomposition.  A verifier is either the circuit
(VerifierSpec, which computes A from V once, as its field a) or a
ReducedVerifier that carries A itself, as the attack's simulated verifier does.

Every state synthesis returns is a DensityOp, a 2^m x 2^m matrix on the
input register.  max_acceptance returns the best acceptance, A's top
eigenvalue, and as witness the normalized projector onto A's top
eigenspace, so the witness does not depend on which degenerate
eigenvectors the eigen solver returns.  It is the eigen witness; the
attack, whose A is a product of 2x2 factors, reads the same witness off
money's factor table.

synthesize is the trial subroutine.  It prepares a maximally entangled
input, alternates coherent Q/P measurements N times while tracking (last
outcome, agreement count) in a compact counter register, and post-selects
on the threshold test.  Within the Jordan block of each eigenvalue p of A
every measurement repeats the previous outcome with probability p, so the
engine is closed form (see TrialEngine).  Conditioned on the test passing,
the reduced state on the input register is accepted with probability at
least the configured guarantee.  A state-vector run of the same trial,
measuring every outcome destructively, is the engine's test reference
(tests/reference.py).  An attempt is one uniform draw u, which passes
exactly when u reaches the engine's cut; no cell of joint is read off u.
So synthesize decides attempts on the draws of a stream that belongs to
the call: it makes no draw when none can reach the cut, draws in Python
on an engine at the promise floor, and draws numpy blocks otherwise.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import HADAMARD, UNITARY_TOL, DensityOp, Projector, embed_unitary

# eigenvalues of A this close to the top one span the eigen witness
TOP_TOL = 1e-9
# widest verifier circuit from_json builds: V is 2^n x 2^n, 16 MB at n = 10
SPEC_QUBIT_CAP = 10
# most trial-backend draws synthesize holds at once: 32 KB of doubles, so a
# large t_trials costs no more memory than the derived budgets do
DRAW_BLOCK = 4096
# attempts synthesize makes one draw at a time before it draws in blocks,
# on an engine that succeeds with probability >= 1/SERIAL_ATTEMPTS: the
# floor an engine meets on a verifier that keeps the promise, so such an
# engine expects to decide within them
SERIAL_ATTEMPTS = 16
# the largest double Generator.random draws
_LAST_DRAW = 1.0 - 2.0 ** -53

_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(np.complex128)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128)


class SynthError(ValueError):
    pass


def _json_int(value, what: str) -> int:
    """value, if it is a JSON integer: not a bool, though Python's are ints."""
    if type(value) is not int:
        raise SynthError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class VerifierSpec:
    """V on m input qubits and k ancillas, answer qubit ans_index.  Nothing
    here checks it: from_json is the one check of a verifier file, and every
    other builder makes V square and unitary itself."""
    m: int
    k: int
    v_hat: np.ndarray
    ans_index: int
    # A = Vp^dag Pi_ans Vp: P1 Q1 P1 on range(P1), in the basis |i>|0^k>
    a: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.v_hat, dtype=np.complex128)
        object.__setattr__(self, "v_hat", v)
        n = self.m + self.k
        accept_rows = ((np.arange(1 << n) >> (n - 1 - self.ans_index)) & 1) == 1
        w = v[accept_rows, ::1 << self.k]
        object.__setattr__(self, "a", w.conj().T @ w)

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
        m, k = _json_int(obj["m"], "m"), _json_int(obj["k"], "k")
        ans_index = _json_int(obj["ans_index"], "ans_index")
        n = m + k
        if m < 1 or k < 0:  # before 1 << n can fail on a negative width
            raise SynthError("need m >= 1, k >= 0")
        if n > SPEC_QUBIT_CAP:
            raise SynthError(f"m + k = {n} exceeds cap {SPEC_QUBIT_CAP}")
        if not 0 <= ans_index < n:
            raise SynthError("ans_index out of range")
        v = np.eye(1 << n, dtype=np.complex128)
        for i, gate in enumerate(obj.get("gates", [])):
            name = gate["name"]
            targets = [_json_int(t, f"gate {i} target") for t in gate["targets"]]
            if len(set(targets)) != len(targets) or not all(0 <= t < n for t in targets):
                raise SynthError(f"gate {i} ({name!r}) has targets {targets}; they "
                                 f"must be distinct qubits in [0, {n})")
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
                try:
                    g = np.array([complex(re, im) for re, im in flat]).reshape(d, d)
                except OverflowError:  # a JSON integer beyond float range
                    g = None
                # no unitary entry exceeds modulus 1; NaN and overflow stop here
                if g is None or not (np.abs(g) <= 1 + UNITARY_TOL).all():
                    raise SynthError(f"gate {i} has an entry that is not finite "
                                     "or exceeds modulus 1, so it is not unitary")
            else:
                raise SynthError(f"unknown gate {name!r}")
            v = embed_unitary(g, targets, n, v)
        # written so that a NaN error fails too
        if not np.abs(v.conj().T @ v - np.eye(1 << n)).max() <= UNITARY_TOL:
            raise SynthError("v_hat is not unitary within tolerance")
        return cls(m=m, k=k, v_hat=v, ans_index=ans_index)


@dataclass(frozen=True)
class ReducedVerifier:
    """A verifier given by its operator A alone.  k is the ancilla count of
    the circuit A stands for; nothing here is built at that size."""
    m: int
    k: int
    a: np.ndarray


def derived_n_alternations(m: int, a: float, b: float) -> int:
    """The subroutine's alternation count (log base 2)."""
    if not 0 < a < b <= 1:
        raise SynthError("need 0 < a < b <= 1")
    gap2 = (b - a) ** 2
    try:  # a tiny b - a underflows gap2 to 0 or a count to inf
        return math.ceil(max((3 * a + b) / gap2 * (m + 2 - math.log2(b - a)),
                             16 * b / gap2))
    except (ZeroDivisionError, OverflowError):
        raise SynthError(f"at a = {a}, b = {b} the alternation count is infinite") from None


def derived_t_trials(m: int) -> int:
    """The trial backend's draw budget, 8 * 2^(m+2)."""
    return 8 << (m + 2)


@dataclass(frozen=True)
class SynthesisParams:
    a: float
    b: float
    n_alternations: int
    t_trials: int

    def __post_init__(self):
        if not (0 < self.a < self.b <= 1):
            raise SynthError("need 0 < a < b <= 1")

    @classmethod
    def default(cls, m: int, a: float = 0.5, b: float = 0.9,
                n_alternations: int | None = None,
                t_trials: int | None = None) -> "SynthesisParams":
        n = n_alternations if n_alternations is not None else derived_n_alternations(m, a, b)
        t = t_trials if t_trials is not None else derived_t_trials(m)
        return cls(a=a, b=b, n_alternations=n, t_trials=t)

    @property
    def threshold(self) -> int:
        return math.ceil(self.n_alternations * (self.a + self.b))


def build_pq(spec: VerifierSpec):
    """The full 2^(m+k)-dimensional projector pair (P1, Q1): the reference
    that VerifierSpec.a and the trial engine are tested against, and
    the pair the destructive trial in tests/reference.py measures."""
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


def _spectrum(spec: VerifierSpec | ReducedVerifier):
    """A's eigenvalues (ascending, clipped to [0, 1]) and eigenvectors."""
    vals, vecs = np.linalg.eigh(spec.a)
    return np.clip(vals, 0.0, 1.0), vecs


def acceptance_of(spec: VerifierSpec | ReducedVerifier, rho_m: DensityOp) -> float:
    """Tr(Q1 (rho (x) |0^k><0^k|)) = Tr(A rho) for a state on the input register."""
    return float(np.trace(spec.a @ rho_m.matrix).real)


def _top_eigenspace(vals: np.ndarray, vecs: np.ndarray):
    top = vecs[:, vals >= vals[-1] - TOP_TOL]
    return float(vals[-1]), DensityOp(top @ top.conj().T / top.shape[1])


def max_acceptance(spec: VerifierSpec | ReducedVerifier):
    """A's top eigenvalue, and the normalized projector onto its eigenspace."""
    return _top_eigenspace(*_spectrum(spec))


@functools.lru_cache(maxsize=64)
def _log_comb(n: int) -> np.ndarray:
    """log C(n, c) for c = 0..n, shared by every engine at n, so read-only."""
    out = np.array([math.lgamma(n + 1) - math.lgamma(x + 1)
                    - math.lgamma(n - x + 1) for x in range(n + 1)])
    out.setflags(write=False)
    return out


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """pmf[b, c] = Pr[Binomial(n, p[b]) = c], in log space so that no
    binomial coefficient overflows at large n."""
    c = np.arange(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = np.where(c > 0, c * np.log(p)[:, None], 0.0)
        misses = np.where(c < n, (n - c) * np.log1p(-p)[:, None], 0.0)
    return np.exp(_log_comb(n) + hits + misses)


class TrialEngine:
    """The trial subroutine in closed form.

    The evolution (entangled init, N coherent Q/P alternations with a
    compact (last outcome, agreement count) record) is fixed given
    (spec, params); only the final threshold test is random.  The engine
    exposes the joint (last bit, count) distribution, the post-success
    state and the cut: the test passes exactly on the uniform draws u >= cut
    that Generator.choice(p=joint) maps to a cell with y = 1 and c >= T.

    The maximally entangled input splits into one term per eigenvector a_b
    of A, with weight 2^-m, and each term stays in its Jordan block.  In the
    block of overlap p_b every Q or P measurement repeats the previous
    outcome with probability p_b, independently, so with y0 = 1 the count c
    after 2N measurements is Binomial(2N, p_b), and the last outcome is 1
    exactly when c is even.  Hence joint[y, c] is the mean over b of
    Binom(2N, p_b)(c) [y = (c even)].  A last P outcome of 1 leaves the
    block's term in a_b (x) |0^k>, and the counter and the entangled copy
    decohere distinct blocks, so the success state on the input register is
    sum_b w_b |a_b><a_b| / sum_b w_b, where w_b = Pr_b[c >= T, c even].
    """

    def __init__(self, spec: VerifierSpec | ReducedVerifier,
                 params: SynthesisParams):
        self.spec = spec
        self.params = params
        n_out = 2 * params.n_alternations
        self.threshold = params.threshold
        self._vals, self._vecs = _spectrum(spec)
        pmf = _binomial_pmf(n_out, self._vals)
        c = np.arange(n_out + 1)
        even = c % 2 == 0
        mean = pmf.mean(axis=0)
        joint = np.stack([np.where(even, 0.0, mean), np.where(even, mean, 0.0)])
        self.joint = joint / joint.sum()
        self.p_success = float(self.joint[1, self.threshold:].sum())
        self._weights = pmf[:, even & (c >= self.threshold)].sum(axis=1)
        # Generator.choice(p=joint)'s normalized cdf at the cell before (y = 1, c = T)
        cdf = self.joint.reshape(-1).cumsum()
        self.cut = float(cdf[n_out + self.threshold] / cdf[-1])
        self._rho = None
        dm = 1 << spec.m
        # the state after no success, shared by every fallback
        self.mixed = DensityOp(np.eye(dm, dtype=np.complex128) / dm)
        self.mixed.matrix.flags.writeable = False

    def witness(self):
        """max_acceptance(spec), read off the engine's own eigen solve."""
        return _top_eigenspace(self._vals, self._vecs)

    def rho_m(self) -> DensityOp:
        """Input-register state conditioned on the test passing, built on
        the first call and shared, read-only, by every later one."""
        if self.p_success < 1e-15:
            raise SynthError("conditioning on a zero-probability test branch")
        if self._rho is None:
            w = self._weights
            mat = (self._vecs * w) @ self._vecs.conj().T / w.sum()
            mat.flags.writeable = False
            self._rho = DensityOp(mat)
        return self._rho

    def sample(self, rng):
        """One attempt: a uniform draw u from rng, and whether the threshold
        test passes on it, u >= cut.  Returns (success, u)."""
        u = rng.random()
        return u >= self.cut, u


@dataclass(frozen=True)
class SynthesisResult:
    state: DensityOp
    fallback: bool
    attempts: int


def synthesize(engine: TrialEngine, rng) -> SynthesisResult:
    """A witness state from the trial subroutine that engine computes for
    its (spec, params).  It makes up to params.t_trials attempts, one
    uniform draw u each from the Stream rng, and returns engine.rho_m() at
    the first success, or the maximally mixed engine.mixed after none.  An
    attempt passes exactly when u >= engine.cut.  rng belongs to the call,
    so pass a stream that nothing draws from afterwards: where the call
    leaves it is unspecified.  The engine picks how attempts are drawn:

    - a cut above the largest draw passes nothing, so no draw is made;
    - an engine at the promise floor, p_success >= 1/SERIAL_ATTEMPTS,
      makes its first SERIAL_ATTEMPTS attempts through engine.sample, one
      Python draw each, and decides in a few;
    - the remaining attempts are drawn DRAW_BLOCK at a time by numpy, and
      the first draw in a block that reaches the cut decides.
    """
    t_trials = engine.params.t_trials
    if engine.cut > _LAST_DRAW:
        return SynthesisResult(state=engine.mixed, fallback=True,
                               attempts=t_trials)
    done = 0  # attempts made, all failures
    if engine.p_success * SERIAL_ATTEMPTS >= 1:
        while done < min(t_trials, SERIAL_ATTEMPTS):
            done += 1
            if engine.sample(rng)[0]:
                return SynthesisResult(state=engine.rho_m(), fallback=False,
                                       attempts=done)
    while done < t_trials:
        hits = np.flatnonzero(
            rng.gen.random(min(t_trials - done, DRAW_BLOCK)) >= engine.cut)
        if hits.size:
            return SynthesisResult(state=engine.rho_m(), fallback=False,
                                   attempts=done + int(hits[0]) + 1)
        done += DRAW_BLOCK
    return SynthesisResult(state=engine.mixed, fallback=True,
                           attempts=t_trials)

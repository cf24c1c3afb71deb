"""State-vector references behind the paper's measurement claims, which
tests compare the library against and the CLI never runs: coherent vs
destructive measurement, the alternating-measurement Markov law, the trial
that synth.TrialEngine computes in closed form, the best Jordan block, the
trial backend's attempt loop, one draw per attempt, a note's exact
acceptance, one check at a time, the top eigenvalue of a simulated
verifier's A from its factor key, and the eigen attack's exact success rate;
and the factor names in the one order that tests enumerate them.
"""

from __future__ import annotations

import math

import numpy as np

from qmsep.hilbert import (
    STRUCT_TOL,
    DensityOp,
    HilbertError,
    Projector,
    QState,
    RegisterLayout,
    embed_unitary,
)
from qmsep.jordan import JordanDecomposition, JordanError
from qmsep.money import _factor
from qmsep.synth import (
    SynthesisParams,
    SynthesisResult,
    TrialEngine,
    VerifierSpec,
    build_pq,
)


def check_norm(state: QState) -> QState:
    n2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if abs(n2 - 1.0) > STRUCT_TOL:
        raise HilbertError(f"state norm^2 = {n2}, not 1 within {STRUCT_TOL}")
    return state


def apply_projector(state: QState, pi: Projector, targets=None) -> np.ndarray:
    """Pi|psi> as a raw (unnormalized) amplitude vector."""
    layout = state.layout
    if targets is None:
        if pi.dim != layout.dim:
            raise HilbertError("projector dimension mismatch")
        return pi.matrix @ state.amplitudes
    return embed_unitary(pi.matrix, layout.axes(targets), layout.total_qubits,
                         state.amplitudes)


def max_entangled(dim_per_side: int, names=("M", "Aux")) -> QState:
    m = int(dim_per_side).bit_length() - 1
    if dim_per_side < 2 or (1 << m) != dim_per_side:
        raise HilbertError(f"dim_per_side {dim_per_side} is not a power of two >= 2")
    layout = RegisterLayout(((names[0], m), (names[1], m)))
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for i in range(dim_per_side):
        amps[i * dim_per_side + i] = 1.0
    amps /= np.sqrt(dim_per_side)
    return QState(layout, amps)


def measure_projective(state: QState, pi: Projector, rng, targets=None):
    """Measure {Pi, I-Pi}; returns (outcome, post_state, prob_one)."""
    proj = apply_projector(state, pi, targets)
    prob_one = float(np.vdot(proj, proj).real)
    prob_one = min(max(prob_one, 0.0), 1.0)
    outcome = 1 if rng.random() < prob_one else 0
    if outcome == 1:
        post = proj / np.sqrt(prob_one)
    else:
        rest = state.amplitudes - proj
        post = rest / np.sqrt(max(1.0 - prob_one, 0.0))
    return outcome, QState(state.layout, post), prob_one


def measure_coherently(state: QState, pi: Projector, outcome_register: str,
                       targets=None) -> QState:
    """Pi (x) X + (I-Pi) (x) I onto a fresh |0> outcome qubit."""
    layout = state.layout
    out_axes = layout.axes(outcome_register)
    if len(out_axes) != 1:
        raise HilbertError("outcome register must be a single qubit")
    n = layout.total_qubits
    axis = out_axes[0]
    tensor = state.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(tensor, axis, n - 1)
    if np.abs(tensor[..., 1]).max() > STRUCT_TOL:
        raise HilbertError("outcome qubit is not fresh |0>")
    flat0 = np.moveaxis(tensor, n - 1, axis).reshape(-1)
    if targets is None:
        targets = [nm for nm, _ in layout.registers if nm != outcome_register]
    proj = embed_unitary(pi.matrix, layout.axes(targets), n, flat0)
    rest = flat0 - proj
    # outcome qubit: Pi branch flips to |1>, complement stays |0>
    pt = np.moveaxis(proj.reshape((2,) * n), axis, n - 1)
    rt = np.moveaxis(rest.reshape((2,) * n), axis, n - 1)
    out = np.empty_like(pt)
    out[..., 1] = pt[..., 0]
    out[..., 0] = rt[..., 0]
    out = np.moveaxis(out, n - 1, axis).reshape(-1)
    return check_norm(QState(layout, out))


def alternating_sample(p1: Projector, q1: Projector, start: QState, n: int,
                       rng, targets=None) -> list:
    """Alternate destructive Q then P measurements n times; 2n outcome bits."""
    check_norm(start)
    state = start
    bits = []
    for _ in range(n):
        for pi in (q1, p1):
            outcome, state, _ = measure_projective(state, pi, rng, targets)
            bits.append(outcome)
    return bits


def run_trial_destructive(spec: VerifierSpec, params: SynthesisParams,
                          rng) -> bool:
    """One trial on the full [M, Aux, K] state, measuring every outcome
    destructively; returns whether the threshold test passes.

    Measuring the outcome record early commutes with the threshold test, so
    the success statistics must match synth.TrialEngine's closed form.  The
    count is of outcomes that repeat the previous one, starting from 1.
    """
    p1, q1 = build_pq(spec)
    start = max_entangled(1 << spec.m)
    mk = ["M"]
    if spec.k:  # the ancillas, fresh in |0^k>
        mk.append("K")
        start = QState(RegisterLayout(start.layout.registers + (("K", spec.k),)),
                       np.kron(start.amplitudes, np.eye(1 << spec.k)[0]))
    bits = alternating_sample(p1, q1, start, params.n_alternations, rng, mk)
    count = sum(b == prev for prev, b in zip([1] + bits, bits))
    return bits[-1] == 1 and count >= params.threshold


def synthesize_by_attempt(engine: TrialEngine, rng) -> SynthesisResult:
    """synth.synthesize as a loop of one engine.sample per attempt: the
    result it must return."""
    spec, params = engine.spec, engine.params
    for attempt in range(1, params.t_trials + 1):
        if engine.sample(rng)[0]:
            return SynthesisResult(state=engine.rho_m(), fallback=False,
                                   attempts=attempt)
    dm = 1 << spec.m
    mixed = np.eye(dm, dtype=np.complex128) / dm
    return SynthesisResult(state=DensityOp(RegisterLayout((("M", spec.m),)), mixed),
                           fallback=True, attempts=params.t_trials)


def max_overlap(decomp: JordanDecomposition):
    """Largest p over blocks carrying a v, with its v; ties keep block order."""
    best = None
    for b in decomp.blocks:
        if b.v is None:
            continue
        if best is None or b.p > best.p:
            best = b
    if best is None:
        raise JordanError("decomposition has no blocks with a v direction")
    return best.p, best.v


# every 2x2 factor's name, in the order FACTOR_SHA256 hashes them: I/2, the
# means over both bases at bits 0 and 1, the four check projectors (basis,
# bit) and the two top eigenprojectors; the first 7 are those a factor key
# can hold
FACTOR_NAMES = ((None, None), (None, 0), (None, 1), (0, 0), (0, 1), (1, 0), (1, 1),
                ("top", 0), ("top", 1))


def accept_prob_by_qubit(scheme, note, world) -> float:
    """scheme.accept_prob(note, world) as Tr(Pi rho), with Pi the true
    checks' projector product applied to rho one note qubit at a time."""
    rho = note.state.matrix
    for i, f in enumerate(scheme.answer_key(note.serial, world)):
        rho = embed_unitary(_factor(f), [i], scheme.m, rho)
    return float(np.trace(rho).real)


def lambda_max(key: tuple) -> float:
    """The top eigenvalue of the A that factor key names, with no eigen
    solve: 2^-n0 cos^2(pi/8)^n12.  A is the product of its factors, so its
    top eigenvalue is the product of theirs: 1/2 for I/2 ((None, None),
    counted by n0), cos^2(pi/8) = (2 + sqrt 2)/4 for a mean over both bases
    ((None, z), counted by n12), and 1 for a projector ((b, z))."""
    n0 = sum(f == (None, None) for f in key)
    n12 = sum(f in ((None, 0), (None, 1)) for f in key)
    return 2.0 ** -n0 * math.cos(math.pi / 8) ** (2 * n12)


def exact_success(scheme, cfg) -> float:
    """The eigen attack's exact success probability when verify runs every
    check: 1 - (1 - 4^-M)/(t_max N) for M = scheme.m.

    Every verification queries every check's positions, so the database
    D_j the forgeries are synthesized against is complete once t + j >= 1,
    and each forgery is then the true projector product, accepted surely.
    Only t = j = 0, with probability 1/(t_max N), leaves D_j empty: each
    forgery is I/2^M, and the two, verified independently, both pass with
    probability 4^-M."""
    return 1.0 - (1.0 - 4.0 ** -scheme.m) / (cfg.t_max * cfg.n_updates)

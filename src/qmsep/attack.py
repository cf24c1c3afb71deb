"""The counterfeiting adversary: test, update, and synthesize phases.

The adversary re-verifies the honest banknote a random number of times to
learn a database D of oracle query-answer pairs, then repeatedly
synthesizes a candidate note against the D-simulated verifier and runs the
true verifier on it, merging every newly observed pair into the database.
Finally it synthesizes two notes against a uniformly chosen intermediate
database and outputs them as forgeries.  A synthesized state depends on the
database only through the simulated verifier's factor key: the eigen
witness (no synth_params) is read off money's factor table, and the trial
subroutine draws from one cached TrialEngine per key.  Every exact
acceptance is one trace against the true checks' projector product.

The update phase is kept as Runs, one entry per run of rounds with the
same database, acceptance and bad-query count.  With the eigen witness D is
complete after at most q verifications and every later round repeats the
last, so a trial's bookkeeping costs its runs, not its N rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .money import Banknote, MoneyScheme, WorldHandle, drawn_bits, witness
from .synth import (
    ReducedVerifier,
    SynthesisParams,
    TrialEngine,
    acceptance_of,
    synthesize,
)


DELTA_R = 0.99  # the reusability every derived parameter assumes
# most trial-backend engines _ENGINES keeps: about 4 MB each at an 8-qubit
# note, 256 MB in all; no CLI command runs a trial-backend attack
ENGINE_CAP = 64


class AttackError(ValueError):
    pass


def shrink_factor(delta_r: float, epsilon: float) -> float:
    """The recurring quantity 1 - sqrt(1 - delta_r + epsilon), for epsilon
    in (0, delta_r) as derived_params admits it."""
    return 1.0 - math.sqrt(1.0 - delta_r + epsilon)


def derived_params(scheme: MoneyScheme, epsilon: float) -> dict:
    """Parameter values the analysis prescribes, before any scaling: the
    classical-mint formulas, or the quantum-mint ones when the scheme's
    mint queries the oracle quantumly.  epsilon must lie in (0, DELTA_R);
    at DELTA_R the shrink factor is 0 and N would divide by it."""
    if not 0 < epsilon < DELTA_R:  # false for NaN too
        raise AttackError(f"epsilon must lie in (0, {DELTA_R}), got {epsilon}")
    ell = scheme.queries  # mint's q' and verify's q are one count
    g = shrink_factor(DELTA_R, epsilon)
    try:  # a tiny epsilon or g can underflow a divisor to 0 or a count to inf
        if scheme.quantum_mint:
            t_max = math.ceil(36.0 * ell * ell / epsilon ** 2)
            n_updates = math.ceil(ell * ell / (epsilon ** 2 * g ** 4))
        else:
            t_max = math.ceil(ell / epsilon)
            n_updates = math.ceil(100.0 * ell / g ** 2)
    except (ZeroDivisionError, OverflowError):
        raise AttackError(f"at epsilon = {epsilon} a derived count is infinite") from None
    return {"ell": ell, "t_max": t_max, "n_updates": n_updates,
            "success_bound": 1.8 * g ** 2 - 1.0}


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    t_max: int
    n_updates: int
    synth_params: SynthesisParams | None  # None: the eigen witness
    variant: str  # "quantum_mint" or "classical_mint", after the scheme
    scaled: bool = False

    @classmethod
    def default(cls, scheme: MoneyScheme, epsilon: float = 0.1,
                t_max: int | None = None, n_updates: int | None = None,
                synth_params: SynthesisParams | None = None) -> "AttackConfig":
        derived = derived_params(scheme, epsilon)
        scaled = t_max is not None or n_updates is not None
        return cls(epsilon=epsilon,
                   t_max=t_max if t_max is not None else derived["t_max"],
                   n_updates=n_updates if n_updates is not None else derived["n_updates"],
                   synth_params=synth_params,
                   variant="quantum_mint" if scheme.quantum_mint else "classical_mint",
                   scaled=scaled)


class Runs(NamedTuple):
    """An update phase as runs of equal rounds.  Run r is rounds[r]
    consecutive rounds that synthesize against databases[r], whose notes
    the true verifier accepts with probability probs[r], and that each make
    bad_counts[r] bad queries; a new run starts when one of the three
    changes.  databases has one more entry: D after the last round.  The
    fields are columns, databases first and probabilities second, the order
    perfbench/tracer.py reads an update phase's result in."""
    databases: list
    probs: list
    bad_counts: list
    rounds: list

    def sizes(self) -> list:
        """(|D|, rounds) per run, and (|D|, 1) for D after the last round:
        the runs of the transcript's db_sizes."""
        return [*zip(map(len, self.databases), self.rounds),
                (len(self.databases[-1]), 1)]


@dataclass
class AttackTranscript:
    t_drawn: int
    j_drawn: int
    runs: Runs          # the update phase, run-length encoded
    forged_pair: tuple  # the two forged states
    accept1: bool = False
    accept2: bool = False
    success: bool = False

    @property
    def db_sizes(self) -> list:
        """|D| before each of the N rounds and after the last, N + 1 sizes."""
        sizes = []
        for size, n in self.runs.sizes():
            sizes += [size] * n
        return sizes


def _verify_collecting(scheme, note, world, stream):
    """Run verify; returns (accept, post_note, pairs observed)."""
    before = len(world.dr)
    ok, post = scheme.verify(note, world, stream)
    pairs = world.dr[before:]
    return ok, post, pairs


def test_phase(scheme, note, world, cfg: AttackConfig, stream):
    """Re-verify the honest note up to t times; returns (note, D, t).

    As in update_phase, a verification runs only while D lacks one of
    verify_positions(serial).  A valid note is an eigenstate of its
    verifier, so the verifications skipped once D is complete would leave
    it unchanged.
    """
    t = int(stream.integers(0, cfg.t_max))
    needed = scheme.position_set(note.serial)
    d = {}
    for i in range(t):
        if needed <= d.keys():
            break
        _, note, pairs = _verify_collecting(scheme, note, world,
                                            stream.split(("test", i)))
        d.update(dict(pairs))
    return note, d, t


def build_sim_verifier(scheme, serial, d: dict) -> ReducedVerifier:
    """The verifier simulated from d, as the operator A synthesis reads; no
    circuit is built."""
    return scheme.sim_operator(serial, d)


_ENGINES = {}  # (factor key, SynthesisParams) -> TrialEngine, oldest first


def _synthesized(scheme, serial, d, params: SynthesisParams | None, rng):
    """The state synthesized against d.  The simulated verifier's A is the
    product of the 2x2 factors scheme.factor_key(serial, d) names, so with
    params None the eigen witness is read off the factor table, and
    otherwise rng draws from the deterministic TrialEngine of that key and
    params, built on its first use.  The states are read-only, since later
    runs share them."""
    key = scheme.factor_key(serial, d)
    if params is None:
        return witness(key)
    engine = _ENGINES.get((key, params))
    if engine is None:
        if len(_ENGINES) >= ENGINE_CAP:
            del _ENGINES[next(iter(_ENGINES))]
        engine = TrialEngine(build_sim_verifier(scheme, serial, d), params)
        _ENGINES[key, params] = engine
    return synthesize(engine, rng).state


def update_phase(scheme, serial, world, d0: dict, cfg: AttackConfig,
                 stream) -> Runs:
    """N rounds of synthesizing a note against D and merging what the true
    verifier reveals, each round with the exact acceptance probability of
    its note and its bad-query count; returns them as Runs.

    verify queries exactly verify_positions(serial), mint's positions, so a
    bad query is a newly learned pair, and a round can make one only while
    D lacks one of them; once D has them all, rounds run no verifier.  The
    eigen witness is deterministic, so from then on every round has the
    same database, state and probability, and the rest of the rounds make
    one run: at most q + 1 runs, whatever N is.  The trial subroutine
    draws a new state each round, so its runs are mostly single rounds.  A
    database is copied only when a round learns something.
    """
    params = cfg.synth_params
    eigen = params is None
    needed = scheme.position_set(serial)
    runs = Runs([], [], [], [])
    d = dict(d0)
    k = 0
    while k < cfg.n_updates:
        complete = needed <= d.keys()
        rng = None if eigen else stream.split(("synth", k))
        note = Banknote(serial, _synthesized(scheme, serial, d, params, rng))
        pairs = []
        if not complete:
            _, _, pairs = _verify_collecting(scheme, note, world,
                                             stream.split(("upd", k)))
        new_pairs = {x: z for x, z in pairs if x not in d}
        bad = len(new_pairs.keys() & needed)
        # read after the verification, so a lazy world has already drawn
        # every bit it reads
        p = scheme.accept_prob(note, world)
        n = cfg.n_updates - k if complete and eigen else 1
        if runs.rounds and (runs.databases[-1], runs.probs[-1],
                            runs.bad_counts[-1]) == (d, p, bad):
            runs.rounds[-1] += n
        else:
            for column, value in zip(runs, (d, p, bad, n)):
                column.append(value)
        if new_pairs:
            d = {**d, **new_pairs}
        k += n
    runs.databases.append(d)
    return runs


def synthesize_phase(scheme, serial, runs: Runs, cfg: AttackConfig, stream):
    """Two notes synthesized against D_j, the database of a uniform round j,
    found by walking the runs."""
    j = int(stream.integers(0, cfg.n_updates))
    rest = j
    for d, n in zip(runs.databases, runs.rounds):
        if rest < n:
            break
        rest -= n
    phi1, phi2 = (_synthesized(scheme, serial, d, cfg.synth_params,
                               stream.split(("forge", j, i))) for i in (1, 2))
    return j, phi1, phi2


def make_world(scheme: MoneyScheme, stream) -> WorldHandle:
    """The oracle a run uses, for every scheme: drawn_bits on the world
    stream, so each position is drawn when the run first queries it.  Under
    classical queries lazy draws are exactly a uniform oracle, since a bit
    first read is uniform and independent of every bit read before it."""
    return WorldHandle(scheme.l, drawn_bits(stream.split("world")))


def _mint_and_test(scheme: MoneyScheme, cfg: AttackConfig, stream):
    """The opening every run shares: mint the honest note in a fresh world,
    then run the test phase on it.  Returns (world, note, D, t)."""
    world = make_world(scheme, stream)
    note = scheme.mint(world, stream.split("mint"))
    note, d, t = test_phase(scheme, note, world, cfg, stream.split("t"))
    return world, note, d, t


def run_attack(scheme: MoneyScheme, cfg: AttackConfig, stream) -> AttackTranscript:
    world, note, d0, t = _mint_and_test(scheme, cfg, stream)
    runs = update_phase(scheme, note.serial, world, d0, cfg, stream.split("u"))
    j, phi1, phi2 = synthesize_phase(scheme, note.serial, runs, cfg,
                                     stream.split("s"))
    ok1, _, _ = _verify_collecting(scheme, Banknote(note.serial, phi1),
                                   world, stream.split("v1"))
    ok2, _, _ = _verify_collecting(scheme, Banknote(note.serial, phi2),
                                   world, stream.split("v2"))
    return AttackTranscript(
        t_drawn=t, j_drawn=j, runs=runs, forged_pair=(phi1, phi2),
        accept1=bool(ok1), accept2=bool(ok2), success=bool(ok1 and ok2))


def bad_query_probe(scheme: MoneyScheme, cfg: AttackConfig, stream) -> int:
    """After the test phase, does one more verification hit a mint
    position the adversary has not learned?  Returns 0/1."""
    world, note, d, _ = _mint_and_test(scheme, cfg, stream)
    needed = scheme.position_set(note.serial)
    _, _, pairs = _verify_collecting(scheme, note, world, stream.split("probe"))
    return int(bool({x for x, _ in pairs} & (needed - d.keys())))


def simulation_gap_probe(scheme: MoneyScheme, cfg: AttackConfig, stream):
    """Per-run (Pr[true accepts rho_t], Pr[sim accepts rho_t]) on the
    post-test-phase note, both computed exactly given the sampled world."""
    world, note, d, _ = _mint_and_test(scheme, cfg, stream)
    p_true = scheme.accept_prob(note, world)
    spec = build_sim_verifier(scheme, note.serial, d)
    p_sim = acceptance_of(spec, note.state)
    return p_true, p_sim

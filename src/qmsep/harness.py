"""Experiment orchestration: configuration, statistics, and the work behind
the three CLI commands (synth, attack, oracle-check).

Every command is a pure function of (config, seed); attack trials fan out to
a process pool whose results come back in trial order, so output bytes do
not depend on scheduling.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from typing import NamedTuple

import numpy as np

from .attack import AttackConfig, AttackError, derived_params, run_attack
from .hilbert import ginibre, haar_from_ginibre, haar_unitary
from .money import SCHEMES, MoneyError, make_scheme
from .oracle import OracleWorld, SampledExecutor, sample_oracle
from .streams import Stream
from .synth import (
    SynthError,
    SynthesisParams,
    TrialEngine,
    VerifierSpec,
    acceptance_of,
    derived_n_alternations,
    derived_t_trials,
    synthesize,
)

CSV_HEADER = "# qmsep-csv v1"
CSV_COLUMNS = ("scheme", "variant", "seed", "eps", "t_max", "N",
               "t_drawn", "j_drawn", "accept1", "accept2", "success", "db_sizes")

# largest t_max the attack accepts: test_phase draws t with
# stream.integers(0, t_max), whose bound must fit an int64
T_MAX_CAP = 1 << 62
# largest N the attack accepts: a trial keeps only its runs, but the v1
# db_sizes cell writes N + 1 sizes per CSV row, 2-3 MB per row at 10^6,
# which still admits counterexample's derived N at eps = 0.01 (460 066)
N_UPDATES_CAP = 10 ** 6
# most entries synth's TrialEngine table may have, 2^m (2N + 1), at about
# 36 B an entry in its float arrays (synth peaks near 190 MB at the cap);
# the derived default at m = 10 is 1024 x 401
ENGINE_TABLE_CAP = 1 << 22
# widest plain register oracle-check accepts: reduced_density_plain returns
# a 2^n x 2^n matrix, 16 MB at 10
PLAIN_QUBIT_CAP = 10


class HarnessError(ValueError):
    pass


# --------------------------------------------------------------------------
# configuration and statistics

# JSON type a config value must have, and its name in errors
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          str: (str, "a string")}


def read_json(path: str, what: str, parse=json.loads):
    """parse(text of the file at path).  An unreadable file, invalid JSON
    and the KeyError, TypeError or ValueError parse raises on bad content
    become HarnessError; what names the file's role in the message."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HarnessError(f"cannot read {what}: {exc}") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise HarnessError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise HarnessError(f"{path}: bad {what}: {exc!r}") from exc


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = read_json(path, "config")
    if not isinstance(cfg, dict):
        raise HarnessError(f"{path}: config must be a JSON object")
    return cfg


def merge_config(file_cfg: dict, flag_cfg: dict) -> dict:
    """Flags win over the config file; None flags mean 'not given'."""
    return {**file_cfg, **{k: v for k, v in flag_cfg.items() if v is not None}}


class Option(NamedTuple):
    """A command option: its value's type, default, --help line and least
    value (None for no bound)."""
    kind: type
    default: object
    help: str
    least: object = None


def read_options(cfg: dict, command: str, table: dict) -> dict:
    """Each key of table (key -> Option) mapped to cfg's value, or to its
    default when cfg has none.  A key outside table, or a value not of its
    key's type or below its least, raises HarnessError naming the key; this
    is the one check of a single option's value."""
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise HarnessError(f"{command} takes no option {unknown[0]!r}")
    out = {}
    for key, (kind, default, _, least) in table.items():
        value = cfg.get(key)
        accepted, name = _KINDS[kind]
        if value is None:
            out[key] = default
        elif isinstance(value, bool) or not isinstance(value, accepted):
            raise HarnessError(f"{command} needs {key} to be {name}, "
                               f"got {value!r}")
        elif least is not None and value < least:
            raise HarnessError(f"{command} needs {key} >= {least}, got {value}")
        else:
            try:
                out[key] = kind(value)
            except OverflowError:  # a JSON integer beyond float range
                raise HarnessError(f"{command} needs {key} to be a finite "
                                   f"number, got an integer beyond float "
                                   f"range") from None
    return out


def bernoulli_summary(successes: int, count: int) -> dict:
    """Mean, standard error, count and Wilson 95% interval; count >= 1."""
    z = 1.959964  # the standard normal's 97.5% quantile
    p = successes / count
    se = math.sqrt(p * (1 - p) / count)
    denom = 1 + z * z / count
    centre = (p + z * z / (2 * count)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / count
                                   + z * z / (4 * count * count))
    low = min(max(centre - half, 0.0), 1.0)
    high = min(max(centre + half, 0.0), 1.0)
    return {"mean": p, "stderr": se, "count": count, "wilson95": [low, high]}


# --------------------------------------------------------------------------
# synth command

SEED = Option(int, 0, "random seed", least=0)

SYNTH_OPTIONS = {
    "verifier": Option(str, None, "verifier description (JSON file)"),
    "a": Option(float, 0.5, "acceptance guarantee"),
    "b": Option(float, 0.9, "promise threshold"),
    "trials": Option(int, 20, "trial-backend runs", least=1),
    "seed": SEED,
    "n_alternations": Option(int, None, "alternations per attempt", least=1),
    "t_trials": Option(int, None, "attempts per run before falling back", least=1)}


def cmd_synth(cfg: dict) -> dict:
    opt = read_options(cfg, "synth", SYNTH_OPTIONS)
    if opt["verifier"] is None:
        raise HarnessError("synth needs --verifier FILE")
    spec = read_json(opt["verifier"], "verifier", VerifierSpec.from_json)
    a, b, trials = opt["a"], opt["b"], opt["trials"]
    try:
        params = SynthesisParams.default(
            spec.m, a=a, b=b, n_alternations=opt["n_alternations"],
            t_trials=opt["t_trials"])
        derived_n = derived_n_alternations(spec.m, a, b)
    except SynthError as exc:
        raise HarnessError(str(exc)) from exc
    entries = (1 << spec.m) * (2 * params.n_alternations + 1)
    if entries > ENGINE_TABLE_CAP:
        raise HarnessError(f"the trial engine's table, 2^m (2N + 1) = {entries} "
                           f"entries, exceeds the cap {ENGINE_TABLE_CAP}")

    engine = TrialEngine(spec, params)
    # the eigen witness is max_acceptance's, from the engine's eigen solve
    max_acc, witness = engine.witness()
    eigen_acc = acceptance_of(spec, witness)

    stream = Stream(opt["seed"]).split("trial")
    accs = []
    fallbacks = 0
    # a trial's state is engine.rho_m() or the fallback's mixed state, so
    # each has one acceptance
    acc_of = {}
    for i in range(trials):
        res = synthesize(engine, stream.split(i))
        fallbacks += int(res.fallback)
        if res.fallback not in acc_of:
            acc_of[res.fallback] = acceptance_of(spec, res.state)
        accs.append(acc_of[res.fallback])
    report = {
        "verifier": {"m": spec.m, "k": spec.k},
        "params": {"a": a, "b": b,
                   "n_alternations": params.n_alternations,
                   "t_trials": params.t_trials,
                   "threshold": params.threshold},
        "derived_defaults": {"n_alternations": derived_n,
                           "t_trials": derived_t_trials(spec.m)},
        "max_acceptance": max_acc,
        "eigen": {"acceptance": eigen_acc},
        "trial": {"runs": trials,
                  "success_rate": bernoulli_summary(trials - fallbacks, trials),
                  "fallbacks": fallbacks,
                  "mean_acceptance": float(np.mean(accs)),
                  "acceptances": [float(x) for x in accs]},
        "backend_acceptance_gap": abs(eigen_acc - float(np.mean(accs))),
    }
    return report


# --------------------------------------------------------------------------
# attack command


def _attack_trial(args):
    """One trial's CSV row and bad-query total."""
    name, scheme, cfg, seed = args
    tr = run_attack(scheme, cfg, Stream(seed))
    runs = tr.runs
    row = {
        "scheme": name,
        "variant": cfg.variant,
        "seed": seed,
        "eps": cfg.epsilon,
        "t_max": cfg.t_max,
        "N": cfg.n_updates,
        "t_drawn": tr.t_drawn,
        "j_drawn": tr.j_drawn,
        "accept1": int(tr.accept1),
        "accept2": int(tr.accept2),
        "success": int(tr.success),
        "db_sizes": _runs_cell(runs.sizes()),
    }
    return row, sum(b * n for b, n in zip(runs.bad_counts, runs.rounds))


def _runs_cell(runs) -> str:
    """The v1 cell ";".join(map(str, values)) of the values that (value,
    count) runs expand to, one str() per run: a derived-parameter
    transcript is a few runs of up to 10^6 sizes."""
    return ";".join(";".join([str(v)] * n) for v, n in runs)


def _usable_cpus() -> int:
    """The CPUs this process may run on, which an affinity mask can make
    fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


ATTACK_OPTIONS = {
    "scheme": Option(str, None, "money scheme: " + ", ".join(SCHEMES)),
    "l": Option(int, 6, "oracle input bits"),
    "m": Option(int, 2, "scheme size parameter"),
    "eps": Option(float, 0.1, "target error"),
    "trials": Option(int, 1, "attack runs", least=1),
    "seed": SEED,
    "t_max": Option(int, None, "override the test-phase bound (scaled run)", least=1),
    "n_updates": Option(int, None, "override the update count (scaled run)", least=1),
    "workers": Option(int, None, "worker pool size, at most one per usable CPU "
                      "(default one per usable CPU)", least=1)}


def attack_rows(cfg: dict):
    opt = read_options(cfg, "attack", ATTACK_OPTIONS)
    name, l, m, eps = opt["scheme"], opt["l"], opt["m"], opt["eps"]
    trials, seed, workers = opt["trials"], opt["seed"], opt["workers"]
    if name is None:
        raise HarnessError("attack needs --scheme")
    try:
        scheme = make_scheme(name, l=l, m=m)
        attack_cfg = AttackConfig.default(
            scheme, epsilon=eps, t_max=opt["t_max"], n_updates=opt["n_updates"])
        derived = derived_params(scheme, eps)
    except (MoneyError, AttackError) as exc:
        raise HarnessError(str(exc)) from exc
    if attack_cfg.t_max > T_MAX_CAP:
        raise HarnessError(f"t_max = {attack_cfg.t_max} exceeds the cap "
                           f"{T_MAX_CAP}")
    if attack_cfg.n_updates > N_UPDATES_CAP:
        raise HarnessError(f"n_updates = {attack_cfg.n_updates} exceeds the "
                           f"cap {N_UPDATES_CAP}")
    # the pool forks all its workers at start, so it gets no more than
    # trials, and no more than the CPUs that can run them
    cpus = _usable_cpus()
    workers = min(workers or cpus, cpus, trials)
    jobs = [(name, scheme, attack_cfg, seed + i) for i in range(trials)]
    if workers > 1:
        # map yields results in job order, whatever the scheduling; about
        # four chunks per worker, since one trial per task costs more in
        # pickling and messages than a classical trial takes
        chunk = max(1, len(jobs) // (4 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_attack_trial, jobs, chunksize=chunk))
    else:
        results = [_attack_trial(j) for j in jobs]
    rows, bad_totals = (list(c) for c in zip(*results))
    succ = sum(r["success"] for r in rows)
    summary = {
        "scheme": name,
        "variant": attack_cfg.variant,
        "trials": trials,
        "seed": seed,
        "params_used": {"eps": eps, "t_max": attack_cfg.t_max,
                        "n_updates": attack_cfg.n_updates,
                        "scaled": attack_cfg.scaled},
        "derived_formulas": derived,
        "success": bernoulli_summary(succ, trials),
        "derived_success_lower_bound": derived["success_bound"],
        "mean_bad_queries_per_run": float(np.mean(bad_totals)),
    }
    return rows, summary


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER, ",".join(CSV_COLUMNS)]
    lines += [",".join(str(row[c]) for c in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# oracle-check command


def random_program(l: int, n_queries: int, stream):
    """A random circuit on (query register, one fresh answer qubit/query).
    Each gate's Ginibre matrix is drawn where a haar_unitary call would draw
    it, and one batched QR finishes them all."""
    ops, draws = [], []
    for i in range(n_queries):
        for _ in range(int(stream.integers(1, 3))):
            q = int(stream.integers(0, l))
            ops.append(("gate", len(draws), [q]))
            draws.append(ginibre(2, stream.gen))
        kind = "quantum" if stream.random() < 0.5 else "classical"
        ops.append((kind, list(range(l)), l + i))
    gates = haar_from_ginibre(np.array(draws).reshape(-1, 2, 2))
    return [("gate", gates[a], b) if kind == "gate" else (kind, a, b)
            for kind, a, b in ops]


# the query methods of each OracleWorld view, (quantum, classical)
_QUERY_METHODS = {"purified": ("apply_quantum_query", "apply_classical_query"),
                  "compressed": ("compressed_quantum_query",
                                 "compressed_classical_query")}


def run_world(world: OracleWorld, ops) -> OracleWorld:
    """Run a random_program on world, with the query methods of its view."""
    quantum, classical = _QUERY_METHODS[world.mode]
    method = {"gate": "apply_plain_gate", "quantum": quantum, "classical": classical}
    for kind, *args in ops:
        world = getattr(world, method[kind])(*args)
    return world


def run_sampled_once(table: np.ndarray, n_plain: int, ops, rng) -> int:
    ex = SampledExecutor(table, n_plain)
    for op in ops:
        if op[0] == "gate":
            ex.apply_gate(op[1], op[2])
        elif op[0] == "quantum":
            ex.quantum_query(op[1], op[2])
        else:
            ex.classical_query(op[1], op[2], rng)
    return ex.measure_all(rng)


def _matrix_td(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.linalg.svd(a - b, compute_uv=False).sum())


def equivalence_check(l: int, n_queries: int, stream) -> float:
    """Trace distance between purified and compressed plain reduced states."""
    ops = random_program(l, n_queries, stream)
    n_plain = l + n_queries
    pu = run_world(OracleWorld.purified_init(l, n_plain), ops)
    co = run_world(OracleWorld.compressed_init(l, n_plain), ops)
    return _matrix_td(pu.reduced_density_plain(), co.reduced_density_plain())


def comp_decomp_check(l: int, n_queries: int, stream) -> float:
    """|| Comp Decomp |psi> - |psi> || on a reachable compressed state."""
    ops = random_program(l, n_queries, stream)
    w = run_world(OracleWorld.compressed_init(l, l + n_queries), ops)
    # label by label: the expansion |a|^2 + |b|^2 - 2 Re<a|b> would cancel
    # a 1e-16 distance to about 1e-8
    a, b = w.aligned(w.decomp().comp())
    return float(np.linalg.norm(a - b))


def _pending_query(l: int, n_queries: int, stream):
    """A compressed world after a random program, its query register
    scrambled so the pending input is in superposition.  Returns (world,
    query qubits, the fresh answer qubit)."""
    ops = random_program(l, n_queries, stream)
    n_plain = l + n_queries + 1
    w = run_world(OracleWorld.compressed_init(l, n_plain), ops)
    for q in range(l):
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [q])
    return w, list(range(l)), n_plain - 1


def recording_error_check(l: int, n_queries: int, stream):
    """Compare the true classical query against answering from D_R alone.

    Returns (trace distance, 6 sqrt(alpha), |alpha - pair-count decrement|)
    with alpha the weight of branches whose pending input sits in D_F.
    """
    w, q_qubits, a_qubit = _pending_query(l, n_queries, stream)
    alpha = w.bad_query_weight(q_qubits)
    true_w = w.compressed_classical_query(q_qubits, a_qubit)
    sim_w = w.apply_db_query(q_qubits, a_qubit, db="dr")
    ip = abs(np.vdot(*true_w.aligned(sim_w)))
    td = math.sqrt(max(0.0, 1.0 - ip * ip))
    decrement = w.pair_count_expectation() - true_w.pair_count_expectation()
    return td, 6.0 * math.sqrt(max(alpha, 0.0)), abs(alpha - decrement)


def recorded_query_monotone_check(l: int, n_queries: int, stream):
    """Bad-query weight of a pending query, with and without an interposed
    recorded query on the same register.  Returns (after, before)."""
    w, q_qubits, a_qubit = _pending_query(l, n_queries, stream)
    before = w.bad_query_weight(q_qubits)
    w2 = w.compressed_classical_query(q_qubits, a_qubit, record=True)
    return w2.bad_query_weight(q_qubits), before


# oracle-check's checks, each with the worst-case quantity it bounds by 1e-9
ORACLE_CHECKS = (("equivalence_td", "equivalence_td"),
                 ("comp_decomp", "comp_decomp"),
                 ("recording_error_bound", "recording_error_slack"),
                 ("recording_decrement", "recording_decrement_err"),
                 ("bad_weight_monotone", "bad_weight_increase"))

ORACLE_OPTIONS = {
    "l": Option(int, 2, "oracle input bits, 1 to 3"),
    "queries": Option(int, 4, "queries per program", least=1),
    "trials": Option(int, 10, "random programs per check", least=1),
    "seed": SEED,
    "mc_samples": Option(int, 0, "samples for the sampled-mode check", least=0)}


def cmd_oracle_check(cfg: dict) -> dict:
    opt = read_options(cfg, "oracle-check", ORACLE_OPTIONS)
    l, n_queries, trials = opt["l"], opt["queries"], opt["trials"]
    mc_samples = opt["mc_samples"]
    if not 1 <= l <= 3:
        raise HarnessError("oracle-check needs 1 <= l <= 3 (exact mode "
                           "enumerates 2^(2^l) truth tables)")
    if l + n_queries + 1 > PLAIN_QUBIT_CAP:
        raise HarnessError(f"oracle-check needs l + queries + 1 <= "
                           f"{PLAIN_QUBIT_CAP} (a 2^n-square plain density "
                           f"matrix)")
    stream = Stream(opt["seed"])

    worst = [0.0] * len(ORACLE_CHECKS)
    for i in range(trials):
        eq = equivalence_check(l, n_queries, stream.split(("eq", i)))
        cd = comp_decomp_check(l, n_queries, stream.split(("cd", i)))
        td, bound, err = recording_error_check(l, n_queries, stream.split(("aa", i)))
        after, before = recorded_query_monotone_check(l, n_queries,
                                                      stream.split(("ab", i)))
        # compare squared quantities: td <= bound up to rounding, without
        # the square root amplifying noise when alpha is at machine zero
        trial = (eq, cd, td * td - bound * bound, err, after - before)
        worst = [max(w, t) for w, t in zip(worst, trial)]

    worst = {q: float(w) for (_, q), w in zip(ORACLE_CHECKS, worst)}
    checks = {c: bool(worst[q] <= 1e-9) for c, q in ORACLE_CHECKS}
    report = {"l": l, "queries": n_queries, "trials": trials,
              "worst": worst, "checks": checks,
              "ok": all(checks.values())}

    if mc_samples > 0:
        ops = random_program(l, n_queries, stream.split("mc-prog"))
        n_plain = l + n_queries
        exact = run_world(OracleWorld.purified_init(l, n_plain), ops).plain_distribution()
        counts = {}
        mc = stream.split("mc")
        for i in range(mc_samples):
            s = mc.split(i)
            table = sample_oracle(l, s)
            v = run_sampled_once(table, n_plain, ops, s)
            counts[v] = counts.get(v, 0) + 1
        tv = 0.5 * sum(abs(exact.get(v, 0.0) - counts.get(v, 0) / mc_samples)
                       for v in set(exact) | set(counts))
        report["mc_tv"] = float(tv)
        report["checks"]["mc_tv"] = bool(tv <= 0.03)
        report["ok"] = bool(report["ok"] and tv <= 0.03)
    return report

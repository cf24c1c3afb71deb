"""Experiment orchestration: configuration, statistics, and the work behind
the three CLI commands (synth, attack, oracle-check).

Every command is a pure function of (config, seed); attack trials fan out to
a process pool and are re-sorted by trial index, so output bytes do not
depend on scheduling.
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .attack import AttackConfig, AttackError, derived_params, run_attack
from .hilbert import haar_unitary
from .money import MoneyError, make_scheme
from .oracle import OracleWorld, TruthTable, SampledExecutor, sample_oracle
from .streams import Stream
from .synth import (
    SynthError,
    SynthesisParams,
    TrialEngine,
    VerifierSpec,
    acceptance_of,
    max_acceptance,
    derived_n_alternations,
    derived_t_trials,
    synthesize,
)

CSV_HEADER = "# qmsep-csv v1"
CSV_COLUMNS = ("scheme", "variant", "seed", "eps", "t_max", "N",
               "t_drawn", "j_drawn", "accept1", "accept2", "success", "db_sizes")

# widest note the attack accepts: its 2^m x 2^m density matrix is 1 MB at 8
NOTE_QUBIT_CAP = 8
# widest plain register oracle-check accepts: reduced_density_plain returns
# a 2^n x 2^n matrix, 16 MB at 10
PLAIN_QUBIT_CAP = 10


class HarnessError(ValueError):
    pass


# --------------------------------------------------------------------------
# configuration and statistics


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise HarnessError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HarnessError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise HarnessError(f"{path}: config must be a JSON object")
    return cfg


def merge_config(file_cfg: dict, flag_cfg: dict) -> dict:
    """Flags win over the config file; None flags mean 'not given'."""
    out = dict(file_cfg)
    for k, v in flag_cfg.items():
        if v is not None:
            out[k] = v
    return out


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    stderr: float
    count: int
    wilson_low: float
    wilson_high: float

    @classmethod
    def bernoulli(cls, successes: int, count: int, z: float = 1.959964) -> "SummaryStats":
        if count < 1:
            raise HarnessError("need at least one trial")
        p = successes / count
        se = math.sqrt(p * (1 - p) / count)
        denom = 1 + z * z / count
        centre = (p + z * z / (2 * count)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / count
                                       + z * z / (4 * count * count))
        low = min(max(centre - half, 0.0), 1.0)
        high = min(max(centre + half, 0.0), 1.0)
        return cls(mean=p, stderr=se, count=count,
                   wilson_low=low, wilson_high=high)

    def to_json(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "count": self.count,
                "wilson95": [self.wilson_low, self.wilson_high]}


# --------------------------------------------------------------------------
# synth command


def cmd_synth(cfg: dict) -> dict:
    path = cfg.get("verifier")
    if path is None:
        raise HarnessError("synth needs --verifier FILE")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = VerifierSpec.from_json(fh.read())
    except OSError as exc:
        raise HarnessError(f"cannot read verifier: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise HarnessError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except (KeyError, TypeError, ValueError) as exc:  # SynthError is a ValueError
        raise HarnessError(f"{path}: bad verifier: {exc!r}") from exc
    a = float(cfg.get("a", 0.5))
    b = float(cfg.get("b", 0.9))
    trials = int(cfg.get("trials", 20))
    seed = int(cfg.get("seed", 0))
    n_alt = cfg.get("n_alternations")
    t_tr = cfg.get("t_trials")
    try:
        params = SynthesisParams.default(
            spec.m, a=a, b=b, backend="trial",
            n_alternations=int(n_alt) if n_alt is not None else None,
            t_trials=int(t_tr) if t_tr is not None else None)
    except SynthError as exc:
        raise HarnessError(str(exc)) from exc

    max_acc, _ = max_acceptance(spec)
    eigen_state = synthesize(spec, SynthesisParams(a, b, params.n_alternations,
                                                   params.t_trials, "eigen"),
                             Stream(seed).split("eigen")).state
    eigen_acc = acceptance_of(spec, eigen_state)

    stream = Stream(seed).split("trial")
    succ = 0
    accs = []
    fallbacks = 0
    engine = TrialEngine(spec, params)
    for i in range(trials):
        res = synthesize(spec, params, stream.split(i), engine=engine)
        fallbacks += int(res.fallback)
        succ += int(not res.fallback)
        accs.append(acceptance_of(spec, res.state))
    report = {
        "verifier": {"m": spec.m, "k": spec.k},
        "params": {"a": a, "b": b,
                   "n_alternations": params.n_alternations,
                   "t_trials": params.t_trials,
                   "threshold": params.threshold},
        "derived_defaults": {"n_alternations": derived_n_alternations(spec.m, a, b),
                           "t_trials": derived_t_trials(spec.m)},
        "max_acceptance": max_acc,
        "eigen": {"acceptance": eigen_acc},
        "trial": {"runs": trials,
                  "success_rate": SummaryStats.bernoulli(succ, trials).to_json(),
                  "fallbacks": fallbacks,
                  "mean_acceptance": float(np.mean(accs)),
                  "acceptances": [float(x) for x in accs]},
        "backend_acceptance_gap": abs(eigen_acc - float(np.mean(accs))),
    }
    return report


# --------------------------------------------------------------------------
# attack command


def _attack_trial(args):
    (name, l, m, eps, t_max, n_updates, variant, seed, idx) = args
    scheme = make_scheme(name, l=l, m=m)
    cfg = AttackConfig.default(scheme, epsilon=eps, variant=variant,
                               t_max=t_max, n_updates=n_updates)
    tr = run_attack(scheme, cfg, Stream(seed))
    row = {
        "scheme": name,
        "variant": cfg.variant,
        "seed": seed,
        "eps": eps,
        "t_max": cfg.t_max,
        "N": cfg.n_updates,
        "t_drawn": tr.t_drawn,
        "j_drawn": tr.j_drawn,
        "accept1": int(tr.accept1),
        "accept2": int(tr.accept2),
        "success": int(tr.success),
        "db_sizes": ";".join(str(s) for s in tr.db_sizes),
    }
    extras = {
        "bad_query_total": sum(tr.bad_query_counts),
        "discovered_secret_pairs": tr.discovered_secret_pairs,
    }
    return idx, row, extras


def attack_rows(cfg: dict):
    name = cfg.get("scheme")
    if name is None:
        raise HarnessError("attack needs --scheme")
    l = int(cfg.get("l", 6))
    m = int(cfg.get("m", 2))
    eps = float(cfg.get("eps", 0.1))
    trials = int(cfg.get("trials", 1))
    if trials < 1:
        raise HarnessError("trials must be >= 1")
    seed = int(cfg.get("seed", 0))
    t_max = cfg.get("t_max")
    n_updates = cfg.get("n_updates")
    t_max = int(t_max) if t_max is not None else None
    n_updates = int(n_updates) if n_updates is not None else None
    variant = cfg.get("variant")
    workers = int(cfg.get("workers") or os.cpu_count() or 1)

    if m < 1:
        raise HarnessError("attack needs m >= 1")
    try:
        scheme = make_scheme(name, l=l, m=m)
        probe_cfg = AttackConfig.default(scheme, epsilon=eps, variant=variant,
                                         t_max=t_max, n_updates=n_updates)
        derived = derived_params(scheme.profile, eps, probe_cfg.delta_r,
                                 probe_cfg.variant)
    except (MoneyError, AttackError) as exc:
        raise HarnessError(str(exc)) from exc
    if scheme.profile.m > NOTE_QUBIT_CAP:
        raise HarnessError(f"{name} at m = {m} has {scheme.profile.m}-qubit "
                           f"notes; the cap is {NOTE_QUBIT_CAP}")
    jobs = [(name, l, m, eps, t_max, n_updates, variant, seed + i, i)
            for i in range(trials)]
    if workers > 1 and trials > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_attack_trial, jobs))
    else:
        results = [_attack_trial(j) for j in jobs]
    results.sort(key=lambda r: r[0])
    rows = [r[1] for r in results]
    extras = [r[2] for r in results]
    succ = sum(r["success"] for r in rows)
    summary = {
        "scheme": name,
        "variant": probe_cfg.variant,
        "trials": trials,
        "seed": seed,
        "params_used": {"eps": eps, "t_max": probe_cfg.t_max,
                        "n_updates": probe_cfg.n_updates,
                        "scaled": probe_cfg.scaled},
        "derived_formulas": derived,
        "success": SummaryStats.bernoulli(succ, trials).to_json(),
        "derived_success_lower_bound": derived["success_bound"],
        "mean_bad_queries_per_run": float(np.mean(
            [e["bad_query_total"] for e in extras])),
        "mean_discovered_secret_pairs": float(np.mean(
            [e["discovered_secret_pairs"] for e in extras])),
    }
    return rows, summary


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(str(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def cmd_attack(cfg: dict):
    rows, summary = attack_rows(cfg)
    csv_text = rows_to_csv(rows)
    out = cfg.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        with open(out + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return csv_text, summary


# --------------------------------------------------------------------------
# oracle-check command


def random_program(l: int, n_queries: int, stream):
    """A random circuit on (query register, one fresh answer qubit/query)."""
    ops = []
    for i in range(n_queries):
        for _ in range(int(stream.integers(1, 3))):
            q = int(stream.integers(0, l))
            ops.append(("gate", haar_unitary(2, stream.gen), [q]))
        kind = "quantum" if stream.random() < 0.5 else "classical"
        ops.append((kind, list(range(l)), l + i))
    return ops


def run_purified(l: int, n_plain: int, ops) -> OracleWorld:
    w = OracleWorld.purified_init(l, n_plain)
    for op in ops:
        if op[0] == "gate":
            w = w.apply_plain_gate(op[1], op[2])
        elif op[0] == "quantum":
            w = w.apply_quantum_query(op[1], op[2])
        else:
            w = w.apply_classical_query(op[1], op[2])
    return w


def run_compressed(l: int, n_plain: int, ops) -> OracleWorld:
    w = OracleWorld.compressed_init(l, n_plain)
    for op in ops:
        if op[0] == "gate":
            w = w.apply_plain_gate(op[1], op[2])
        elif op[0] == "quantum":
            w = w.compressed_quantum_query(op[1], op[2])
        else:
            w = w.compressed_classical_query(op[1], op[2])
    return w


def run_sampled_once(table: TruthTable, n_plain: int, ops, rng) -> int:
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
    pu = run_purified(l, n_plain, ops)
    co = run_compressed(l, n_plain, ops)
    return _matrix_td(pu.reduced_density_plain(), co.reduced_density_plain())


def comp_decomp_check(l: int, n_queries: int, stream) -> float:
    """|| Comp Decomp |psi> - |psi> || on a reachable compressed state."""
    ops = random_program(l, n_queries, stream)
    w = run_compressed(l, l + n_queries, ops)
    # label by label: the expansion |a|^2 + |b|^2 - 2 Re<a|b> would cancel
    # a 1e-16 distance to about 1e-8
    a, b = w.aligned(w.decomp().comp())
    return float(np.linalg.norm(a - b))


def recording_error_check(l: int, n_queries: int, stream,
                     skip_df_deletion: bool = False):
    """Compare the true classical query against answering from D_R alone.

    Returns (trace distance, 6 sqrt(alpha), |alpha - pair-count decrement|)
    with alpha the weight of branches whose pending input sits in D_F.
    skip_df_deletion injects a fault into the decrement accounting, for
    mutation testing.
    """
    ops = random_program(l, n_queries, stream)
    n_plain = l + n_queries + 1
    w = run_compressed(l, n_plain, ops)
    # scramble the query register so the pending input is in superposition
    for q in range(l):
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [q])
    q_qubits = list(range(l))
    a_qubit = n_plain - 1
    alpha = w.bad_query_weight(q_qubits)
    true_w = w.compressed_classical_query(q_qubits, a_qubit)
    sim_w = w.apply_db_query(q_qubits, a_qubit, db="dr")
    ip = abs(np.vdot(*true_w.aligned(sim_w)))
    td = math.sqrt(max(0.0, 1.0 - ip * ip))
    decrement = w.pair_count_expectation() - true_w.pair_count_expectation()
    if skip_df_deletion:
        decrement = w.pair_count_expectation()  # fault: no post-query count
    return td, 6.0 * math.sqrt(max(alpha, 0.0)), abs(alpha - decrement)


def recorded_query_monotone_check(l: int, n_queries: int, stream):
    """Bad-query weight of a pending query, with and without an interposed
    recorded query on the same register.  Returns (after, before)."""
    ops = random_program(l, n_queries, stream)
    n_plain = l + n_queries + 1
    w = run_compressed(l, n_plain, ops)
    for q in range(l):
        w = w.apply_plain_gate(haar_unitary(2, stream.gen), [q])
    q_qubits = list(range(l))
    before = w.bad_query_weight(q_qubits)
    w2 = w.compressed_classical_query(q_qubits, n_plain - 1, record=True)
    after = w2.bad_query_weight(q_qubits)
    return after, before


def cmd_oracle_check(cfg: dict) -> dict:
    l = int(cfg.get("l", 2))
    n_queries = int(cfg.get("queries", 4))
    trials = int(cfg.get("trials", 10))
    seed = int(cfg.get("seed", 0))
    mc_samples = int(cfg.get("mc_samples", 0))
    if not 1 <= l <= 3:
        raise HarnessError("oracle-check needs 1 <= l <= 3 (exact mode "
                           "enumerates 2^(2^l) truth tables)")
    if n_queries < 1 or trials < 1 or mc_samples < 0:
        raise HarnessError("oracle-check needs queries >= 1, trials >= 1 "
                           "and mc_samples >= 0")
    if l + n_queries + 1 > PLAIN_QUBIT_CAP:
        raise HarnessError(f"oracle-check needs l + queries + 1 <= "
                           f"{PLAIN_QUBIT_CAP} (a 2^n-square plain density "
                           f"matrix)")
    stream = Stream(seed)

    worst = {"equivalence_td": 0.0, "comp_decomp": 0.0,
             "recording_error_slack": 0.0, "recording_decrement_err": 0.0,
             "bad_weight_increase": 0.0}
    for i in range(trials):
        worst["equivalence_td"] = max(
            worst["equivalence_td"], equivalence_check(l, n_queries, stream.split(("eq", i))))
        worst["comp_decomp"] = max(
            worst["comp_decomp"], comp_decomp_check(l, n_queries, stream.split(("cd", i))))
        td, bound, err = recording_error_check(l, n_queries, stream.split(("aa", i)))
        # compare squared quantities: td <= bound up to rounding, without
        # the square root amplifying noise when alpha is at machine zero
        worst["recording_error_slack"] = max(worst["recording_error_slack"],
                                        td * td - bound * bound)
        worst["recording_decrement_err"] = max(
            worst["recording_decrement_err"], err)
        after, before = recorded_query_monotone_check(l, n_queries, stream.split(("ab", i)))
        worst["bad_weight_increase"] = max(
            worst["bad_weight_increase"], after - before)

    worst = {k: float(v) for k, v in worst.items()}
    checks = {
        "equivalence_td": worst["equivalence_td"] <= 1e-9,
        "comp_decomp": worst["comp_decomp"] <= 1e-9,
        "recording_error_bound": worst["recording_error_slack"] <= 1e-9,
        "recording_decrement": worst["recording_decrement_err"] <= 1e-9,
        "bad_weight_monotone": worst["bad_weight_increase"] <= 1e-9,
    }
    checks = {k: bool(v) for k, v in checks.items()}
    report = {"l": l, "queries": n_queries, "trials": trials,
              "worst": worst, "checks": checks,
              "ok": all(checks.values())}

    if mc_samples > 0:
        ops = random_program(l, n_queries, stream.split("mc-prog"))
        n_plain = l + n_queries
        pu = run_purified(l, n_plain, ops)
        exact = pu.plain_distribution()
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

"""The benchmark's workloads: inputs made from a seed, one op, output checks.

Each workload turns the workload seed into a deterministic sequence of op
inputs and repeats a fixed input mix every ``block`` ops, so a run that
stops on a block boundary has the same mix whatever its length.  The
program is driven only through public functions of ``qmsep.attack``,
``qmsep.harness``, ``qmsep.synth`` and ``qmsep.money``.
"""

from __future__ import annotations

import json
import os
from collections import deque

import numpy as np

from qmsep import attack, harness, money, synth
from qmsep.hilbert import HilbertError, haar_unitary
from qmsep.streams import Stream

NPROC = len(os.sched_getaffinity(0))
EPS = 0.1


def _seeds(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng([seed, label])


def _next_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


class Workload:
    """Defaults for a workload with no program-side set-up, no per-run
    checks and no worker pool."""

    block = 1

    @classmethod
    def program_objects(cls):
        return {}

    def tail(self):
        """Program work done once per run after the ops: (text, result)."""
        return "", None

    def finish(self, inputs, outputs, tail_result):
        """Per-run checks of the ops' outputs and the tail's result."""
        return []

    def worker_check(self):
        return []

    def describe(self, outputs):
        """Facts about the realized input mix, for the detail line."""
        return {}


class AttackWorkload(Workload):
    """One op is one ``attack.run_attack`` trial; its output is a CSV row."""

    schemes: tuple = ()       # scheme of each op in one block
    overrides: dict = {}      # t_max / n_updates for scaled runs
    floors: dict = {}         # scheme -> least per-run success rate
    check_trials = 2          # trials per scheme in the worker check

    @classmethod
    def program_objects(cls):
        """The schemes and attack configs a user builds before any trial."""
        out = {}
        for name in dict.fromkeys(cls.schemes):
            scheme = money.make_scheme(name)
            out[name] = (scheme, attack.AttackConfig.default(
                scheme, epsilon=EPS, **cls.overrides))
        return out

    def __init__(self, seed: int, label: int = 0, workdir: str | None = None):
        self.objects = self.program_objects()
        self.rng = _seeds(seed, label)
        self.check_seed = _next_seed(_seeds(seed, 99))
        self.block = len(self.schemes)

    def _trial_seed(self) -> int:
        return _next_seed(self.rng)

    def prepare(self, i: int):
        return self.schemes[i % len(self.schemes)], self._trial_seed()

    def call(self, inp):
        name, seed = inp
        scheme, cfg = self.objects[name]
        return attack.run_attack(scheme, cfg, Stream(seed))

    def check(self, inp, tr):
        """CSV row of the trial, and what is wrong with its transcript."""
        name, seed = inp
        cfg = self.objects[name][1]
        row = {"scheme": name, "variant": cfg.variant, "seed": seed,
               "eps": EPS, "t_max": cfg.t_max, "N": cfg.n_updates,
               "t_drawn": tr.t_drawn, "j_drawn": tr.j_drawn,
               "accept1": int(tr.accept1), "accept2": int(tr.accept2),
               "success": int(tr.success),
               "db_sizes": ";".join(str(s) for s in tr.db_sizes)}
        problems = []
        if any(b < a for a, b in zip(tr.db_sizes, tr.db_sizes[1:])):
            problems.append("db_sizes decrease")
        for phi in tr.forged_pair:
            try:
                phi.check()
            except HilbertError as exc:
                problems.append(f"forged state invalid: {exc}")
        if tr.success != (tr.accept1 and tr.accept2):
            problems.append("success != accept1 and accept2")
        line = ",".join(str(row[c]) for c in harness.CSV_COLUMNS)
        return line, problems

    def finish(self, inputs, outputs, tail_result):
        """Each scheme's success rate over the run clears its floor."""
        problems = []
        col = harness.CSV_COLUMNS.index("success")
        for name, floor in self.floors.items():
            succ = [out is not None and out.split(",")[col] == "1"
                    for inp, out in zip(inputs, outputs) if inp[0] == name]
            if succ and sum(succ) / len(succ) < floor:
                problems.append(f"{name} success rate "
                                f"{sum(succ) / len(succ):.3f} < {floor}")
        return problems

    def worker_check(self):
        """attack_rows gives the same rows with 1 and with nproc workers, and
        they equal the rows of the same trials run in this process."""
        problems = []
        for name in self.objects:
            cfg = {"scheme": name, "eps": EPS, "trials": self.check_trials,
                   "seed": self.check_seed, **self.overrides}
            serial, _ = harness.attack_rows({**cfg, "workers": 1})
            pooled, _ = harness.attack_rows({**cfg, "workers": NPROC})
            here = [self.check((name, self.check_seed + i),
                               self.call((name, self.check_seed + i)))[0]
                    for i in range(self.check_trials)]
            a = harness.rows_to_csv(serial).splitlines()[2:]
            b = harness.rows_to_csv(pooled).splitlines()[2:]
            if not a == b == here:
                problems.append(f"{name}: rows differ between workers=1, "
                                f"workers={NPROC} and in-process trials")
        return problems


class AttackClassical(AttackWorkload):
    """Hash-tag and conjugate trials interleaved 2:1.

    A conjugate trial costs about twice a hash-tag one, so each scheme takes
    about half the op time, and the median op lies inside the hash-tag
    times instead of in the gap between the two schemes, where it would
    jump from run to run.
    """

    name = "attack-classical"
    schemes = ("hash-tag", "hash-tag", "conjugate")
    floors = {"hash-tag": 0.9, "conjugate": 0.1}


class AttackQuantumMint(AttackWorkload):
    """Counterexample trials, each block of t_max trials drawing every
    test-phase length t in [0, t_max) once.

    The rare t = 0 trials start from an empty database and cost ~30 others;
    left to chance their share would move a run's throughput by ~15%.
    ``run_attack`` draws t first from ``stream.split("t")``, so a trial seed
    is kept for the slot whose t it yields.  If that derivation changes the
    share reverts to chance: runs get noisier but stay correct, and the
    printed ``t0_share`` shows it.
    """

    name = "attack-quantum-mint"
    schemes = ("counterexample",)
    overrides = {"t_max": 16, "n_updates": 30}
    floors = {"counterexample": 0.1}
    check_trials = 4

    def __init__(self, seed: int, label: int = 0, workdir: str | None = None):
        super().__init__(seed, label, workdir)
        self.t_max = self.overrides["t_max"]
        self.block = self.t_max
        self.order = []
        self.spare = {t: deque() for t in range(self.t_max)}

    def _trial_seed(self) -> int:
        if not self.order:
            self.order = [int(t) for t in self.rng.permutation(self.t_max)]
        want = self.order.pop()
        while not self.spare[want]:
            cand = _next_seed(self.rng)
            t = int(Stream(cand).split("t").integers(0, self.t_max))
            self.spare[t].append(cand)
        return self.spare[want].popleft()

    def describe(self, outputs):
        col = harness.CSV_COLUMNS.index("t_drawn")
        t = [o.split(",")[col] for o in outputs if o is not None]
        return {"t0_share": t.count("0") / max(len(t), 1)}


class OracleCheck(Workload):
    """One op is ``harness.cmd_oracle_check`` on one random program with
    l = 2 and 3, 4, 4 and 5 queries in turn, so the median op lies in the
    middle of the 4-query times rather than at an edge.

    Each run adds one sampled-world Monte Carlo block on a 2-query program,
    whose total-variation distance to the exact law must be <= 0.03: at
    12000 samples the 99.9th percentile of that distance stays below 0.027
    on every one of 150 programs tried.
    """

    name = "oracle-check"
    queries = (3, 4, 4, 5)
    block = len(queries)
    mc_queries = 2
    mc_samples = 12_000

    def __init__(self, seed: int, label: int = 0, workdir: str | None = None):
        self.rng = _seeds(seed, label)
        self.mc_seed = _next_seed(_seeds(seed, 98))

    def prepare(self, i: int):
        return {"l": 2, "queries": self.queries[i % self.block], "trials": 1,
                "seed": _next_seed(self.rng)}

    def call(self, inp):
        return harness.cmd_oracle_check(inp)

    def check(self, inp, report):
        problems = [] if report["ok"] else [f"oracle-check failed: {report['checks']}"]
        return json.dumps(report, sort_keys=True), problems

    def tail(self):
        report = harness.cmd_oracle_check(
            {"l": 2, "queries": self.mc_queries, "trials": 1, "seed": self.mc_seed,
             "mc_samples": self.mc_samples})
        return json.dumps(report, sort_keys=True), report

    def finish(self, inputs, outputs, report):
        if report["ok"] and report["mc_tv"] <= 0.03:
            return []
        return [f"Monte Carlo block failed: tv {report['mc_tv']}, "
                f"checks {report['checks']}"]


class SynthTrial(Workload):
    """One op is ``harness.cmd_synth`` (20 trials) on a verifier file.

    The files, written at set-up, cycle in a fixed order: four Haar-random
    verifiers (m = 2, k = 0, 1, 2, 2, best acceptance >= 0.9) and the
    hash-tag and conjugate simulated verifiers at an empty and at a
    complete database.  At an empty database the best acceptance is 0.25,
    so the trial backend spends all its draws and falls back.
    """

    name = "synth-trial"
    haar_k = (0, 1, 2, 2)

    def __init__(self, seed: int, label: int = 0, workdir: str | None = None):
        self.rng = _seeds(seed, label)
        gen = _seeds(seed, 97)
        specs = [self._haar(2, k, gen) for k in self.haar_k]
        for name in ("hash-tag", "conjugate"):
            scheme = money.make_scheme(name)
            serial = (int(gen.integers(0, 1 << scheme.s_bits)),)
            full = {x: int(gen.integers(0, 2))
                    for x in scheme.verify_positions(serial)}
            specs += [scheme.sim_verifier("", serial, {}),
                      scheme.sim_verifier("", serial, full)]
        self.block = len(specs)
        self.paths = []
        for j, spec in enumerate(specs):
            path = os.path.join(workdir, f"verifier-{label}-{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(spec.to_json())
            self.paths.append(path)

    @staticmethod
    def _haar(m: int, k: int, gen):
        while True:
            n = m + k
            spec = synth.VerifierSpec(m=m, k=k, v_hat=haar_unitary(1 << n, gen),
                                      ans_index=int(gen.integers(0, n)))
            if synth.max_acceptance(spec)[0] >= 0.9:
                return spec

    def prepare(self, i: int):
        return {"verifier": self.paths[i % len(self.paths)], "trials": 20,
                "seed": _next_seed(self.rng)}

    def call(self, inp):
        return harness.cmd_synth(inp)

    def check(self, inp, report):
        problems = []
        gap = abs(report["eigen"]["acceptance"] - report["max_acceptance"])
        if gap > 1e-9:
            problems.append(f"eigen acceptance off max_acceptance by {gap}")
        return json.dumps(report, sort_keys=True), problems

    def finish(self, inputs, outputs, tail_result):
        """A trial succeeds with probability >= 1/16 on every verifier whose
        best acceptance is >= 0.9."""
        problems = []
        for path in self.paths:
            with open(path, encoding="utf-8") as fh:
                spec = synth.VerifierSpec.from_json(fh.read())
            if synth.max_acceptance(spec)[0] < 0.9:
                continue
            engine = synth.TrialEngine(spec, synth.SynthesisParams.default(spec.m))
            if engine.p_success < 1 / 16 - 1e-9:
                problems.append(f"{os.path.basename(path)}: p_success "
                                f"{engine.p_success} < 1/16")
        return problems


WORKLOADS = {w.name: w for w in (AttackClassical, AttackQuantumMint,
                                 OracleCheck, SynthTrial)}


def program_objects(name: str):
    """Set-up a user pays before the first op (timed in a fresh process)."""
    return WORKLOADS[name].program_objects()

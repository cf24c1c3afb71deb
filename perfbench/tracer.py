"""Spans and counts around the public functions of each qmsep module.

The tracer wraps functions from outside the program: every module attribute
that holds a wrapped function is replaced (so names imported with
``from .synth import ...`` are covered where their callers look them up),
and methods are replaced on the class that defines them.  Each span records
its parent span; self time is the span's duration minus the time its child
spans cover.  Spans are aggregated in memory as they close, so a traced run
of any length costs a fixed amount of memory.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("streams", "hilbert", "jordan", "synth", "money", "oracle",
           "attack", "harness")

# (layer, owner inside qmsep.<layer>, attribute, span name)
# owner None means a module-level function.
_OWNER_SPANS = [
    ("streams", "Stream", "split", "streams.Stream.split"),
    ("hilbert", None, "partial_trace", "hilbert.partial_trace"),
    ("hilbert", None, "haar_unitary", "hilbert.haar_unitary"),
    ("jordan", None, "jordan_decompose", "jordan.jordan_decompose"),
    ("synth", None, "embed_unitary", "synth.embed_unitary"),
    ("synth", "VerifierSpec", "__post_init__", "synth.VerifierSpec.validate"),
    ("synth", "VerifierSpec", "from_json", "synth.VerifierSpec.from_json"),
    ("synth", None, "build_pq", "synth.build_pq"),
    ("synth", None, "max_acceptance", "synth.max_acceptance"),
    ("synth", None, "acceptance_of", "synth.acceptance_of"),
    ("synth", "TrialEngine", "__init__", "synth.TrialEngine.init"),
    ("synth", "TrialEngine", "sample", "synth.TrialEngine.sample"),
    ("synth", "TrialEngine", "rho_m", "synth.TrialEngine.rho_m"),
    ("synth", None, "synthesize", "synth.synthesize"),
    ("money", "HashTagScheme", "sim_verifier", "money.sim_verifier"),
    ("money", "ConjugateScheme", "sim_verifier", "money.sim_verifier"),
    ("money", "CounterexampleScheme", "sim_verifier", "money.sim_verifier"),
    ("money", "HashTagScheme", "verify", "money.verify"),
    ("money", "ConjugateScheme", "verify", "money.verify"),
    ("money", "CounterexampleScheme", "verify", "money.verify"),
    ("money", "HashTagScheme", "mint", "money.mint"),
    ("money", "ConjugateScheme", "mint", "money.mint"),
    ("money", "CounterexampleScheme", "mint", "money.mint"),
    ("money", "WorldHandle", "query", "money.WorldHandle.query"),
    *[("oracle", "OracleWorld", m, f"oracle.OracleWorld.{m}") for m in (
        "apply_plain_gate", "apply_quantum_query", "apply_classical_query",
        "compressed_classical_query", "apply_db_query", "decomp", "comp",
        "reduced_density_plain", "bad_query_weight")],
    ("oracle", None, "sample_oracle", "oracle.sample_oracle"),
    *[("oracle", "SampledExecutor", m, f"oracle.SampledExecutor.{m}")
      for m in ("apply_gate", "quantum_query", "classical_query")],
    ("attack", None, "run_attack", "attack.run_attack"),
    ("attack", None, "test_phase", "attack.test_phase"),
    ("attack", None, "update_phase", "attack.update_phase"),
    ("attack", None, "synthesize_phase", "attack.synthesize_phase"),
    ("attack", None, "build_sim_verifier", "attack.build_sim_verifier"),
    *[("harness", None, f, f"harness.{f}") for f in (
        "attack_rows", "cmd_synth", "cmd_oracle_check", "equivalence_check",
        "comp_decomp_check", "recording_error_check",
        "recorded_query_monotone_check", "random_program",
        "run_sampled_once")],
]

# money.verify spans whose parent is run_attack verify the two forgeries
FORGE_VERIFY = ("money.verify", "attack.run_attack", "attack.forge_verify")

SPAN_NAMES = tuple(dict.fromkeys(s for *_, s in _OWNER_SPANS)) + (FORGE_VERIFY[2],)

# extra per-layer counts and ratios, with their units
COUNT_UNITS = {
    "jordan.jordan_decompose.dim_sum": "count",
    "synth.embed_unitary.bytes_out": "B",
    "synth.max_acceptance.dim_sum": "count",
    "synth.max_acceptance.dim3_sum": "count",
    "synth.synthesize.attempts": "count",
    "synth.synthesize.fallback_ratio": "ratio",
    "synth.TrialEngine.sample.success_ratio": "ratio",
    "money.sim_verifier.dim_sum": "count",
    "oracle.OracleWorld.amps_in": "count",
    "attack.update.rounds": "count",
    "attack.update.useful_ratio": "ratio",
    "attack.synth_cache.hit_ratio": "ratio",
    "attack.test.db_complete_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name the benchmark prints, with its unit."""
    out = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = "count"
        out[f"{span}.self_s"] = "s"
    out.update(COUNT_UNITS)
    return out


def _dim_of_spec(spec) -> int:
    return 1 << (spec.m + spec.k)


def _count_hooks():
    """Span name -> hook(counts, args, result) adding that call's counts."""

    def jordan(c, args, res):
        c["jordan.dim_sum"] += args[0].dim

    def embed(c, args, res):
        c["embed.bytes"] += 16 * res.shape[0] ** 2

    def max_acc(c, args, res):
        d = _dim_of_spec(args[0])
        c["max_acc.dim_sum"] += d
        c["max_acc.dim3_sum"] += d ** 3

    def synthesize(c, args, res):
        c["synthesize.attempts"] += res.attempts
        c["synthesize.fallbacks"] += int(res.fallback)

    def sample(c, args, res):
        c["sample.successes"] += int(res[0])

    def sim_verifier(c, args, res):
        c["sim_verifier.dim_sum"] += _dim_of_spec(res)

    def test_phase(c, args, res):
        scheme, note, d = args[0], res[0], res[1]
        c["test.complete"] += int(set(scheme.verify_positions(note.serial)) <= set(d))

    def update_phase(c, args, res):
        databases, accepts = res[0], res[1]
        c["update.rounds"] += len(accepts)
        c["update.useful"] += sum(len(b) > len(a)
                                  for a, b in zip(databases, databases[1:]))

    def run_attack(c, args, res):
        c["cache.lookups"] += args[1].n_updates + 2

    hooks = {
        "jordan.jordan_decompose": jordan,
        "synth.embed_unitary": embed,
        "synth.max_acceptance": max_acc,
        "synth.synthesize": synthesize,
        "synth.TrialEngine.sample": sample,
        "money.sim_verifier": sim_verifier,
        "attack.test_phase": test_phase,
        "attack.update_phase": update_phase,
        "attack.run_attack": run_attack,
    }

    def amps_in(c, args, res):
        c["oracle.amps_in"] += len(args[0].amps)

    for *_, span in _OWNER_SPANS:
        if span.startswith("oracle.OracleWorld."):
            hooks[span] = amps_in
    return hooks


class Tracer:
    """Installs span wrappers on qmsep and aggregates what they record."""

    def __init__(self):
        self.calls = {}      # span -> calls
        self.self_s = {}     # span -> summed self time
        self.by_parent = {}  # (span, parent span) -> [calls, self time]
        self.counts = defaultdict(int)
        self._stack = []     # open spans: [name, child time]
        self._restore = []
        self._hooks = _count_hooks()

    def _wrap(self, fn, span):
        hook = self._hooks.get(span)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                self.calls[span] = self.calls.get(span, 0) + 1
                self.self_s[span] = self.self_s.get(span, 0.0) + own
                rec = self.by_parent.setdefault((span, parent), [0, 0.0])
                rec[0] += 1
                rec[1] += own
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"qmsep.{m}") for m in MODULES}
        for layer, owner, attr, span in _OWNER_SPANS:
            if owner is None:
                orig = getattr(mods[layer], attr)
                wrapper = self._wrap(orig, span)
                # patch every module that imported the function by name
                for mod in mods.values():
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, name, value))
                            setattr(mod, name, wrapper)
                continue
            cls = getattr(mods[layer], owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span))
            else:
                patched = self._wrap(raw, span)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, overhead_frac: float) -> dict:
        """Every per-layer metric, 0 for spans that never ran."""
        vals = {}
        span, parent, alias = FORGE_VERIFY
        forge = self.by_parent.get((span, parent), [0, 0.0])
        for name in SPAN_NAMES:
            if name == alias:
                calls, own = forge
            else:
                calls, own = self.calls.get(name, 0), self.self_s.get(name, 0.0)
            vals[f"{name}.calls"] = calls
            vals[f"{name}.self_s"] = own
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        vals.update({
            "jordan.jordan_decompose.dim_sum": c["jordan.dim_sum"],
            "synth.embed_unitary.bytes_out": c["embed.bytes"],
            "synth.max_acceptance.dim_sum": c["max_acc.dim_sum"],
            "synth.max_acceptance.dim3_sum": c["max_acc.dim3_sum"],
            "synth.synthesize.attempts": c["synthesize.attempts"],
            "synth.synthesize.fallback_ratio": ratio(
                c["synthesize.fallbacks"], self.calls.get("synth.synthesize", 0)),
            "synth.TrialEngine.sample.success_ratio": ratio(
                c["sample.successes"], self.calls.get("synth.TrialEngine.sample", 0)),
            "money.sim_verifier.dim_sum": c["sim_verifier.dim_sum"],
            "oracle.OracleWorld.amps_in": c["oracle.amps_in"],
            "attack.update.rounds": c["update.rounds"],
            "attack.update.useful_ratio": ratio(c["update.useful"],
                                                c["update.rounds"]),
            "attack.synth_cache.hit_ratio": (
                1.0 - ratio(self.calls.get("attack.build_sim_verifier", 0),
                            c["cache.lookups"]) if c["cache.lookups"] else 0.0),
            "attack.test.db_complete_ratio": ratio(
                c["test.complete"], self.calls.get("attack.test_phase", 0)),
            "trace.overhead_frac": overhead_frac,
        })
        return vals

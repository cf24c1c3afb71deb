import hashlib
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracle_reference as ref
from reference import synthesize_by_attempt

from qmsep import attack, cli, harness, streams
from qmsep.attack import AttackConfig, run_attack
from qmsep.harness import (
    CSV_COLUMNS,
    CSV_HEADER,
    ENGINE_TABLE_CAP,
    N_UPDATES_CAP,
    PLAIN_QUBIT_CAP,
    T_MAX_CAP,
    HarnessError,
    bernoulli_summary,
    recording_error_check,
    recorded_query_monotone_check,
    attack_rows,
    cmd_oracle_check,
    cmd_synth,
    comp_decomp_check,
    equivalence_check,
    load_config,
    merge_config,
    rows_to_csv,
)
from qmsep.money import make_scheme
from qmsep.streams import Stream
from qmsep.synth import SynthesisParams, TrialEngine, VerifierSpec, acceptance_of


# ------------------------------------------------------------ config & stats


def test_merge_config_flags_win_and_none_ignored():
    merged = merge_config({"a": 1, "b": 2}, {"b": 3, "c": None, "d": 4})
    assert merged == {"a": 1, "b": 3, "d": 4}


def test_load_config_reports_json_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "a": 1,\n}\n')
    with pytest.raises(HarnessError) as err:
        load_config(str(p))
    assert "line 3" in str(err.value)


def test_load_config_requires_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]\n")
    with pytest.raises(HarnessError):
        load_config(str(p))
    assert load_config(None) == {}


def test_wilson_interval_reference_value():
    s = bernoulli_summary(8, 10)
    assert abs(s["mean"] - 0.8) < 1e-12
    assert abs(s["wilson95"][0] - 0.4901) < 5e-4
    assert abs(s["wilson95"][1] - 0.9433) < 5e-4
    for k in range(11):
        t = bernoulli_summary(k, 10)
        low, high = t["wilson95"]
        assert -1e-12 <= low <= t["mean"] <= high + 1e-12
        assert high <= 1 + 1e-12


# ----------------------------------------------------------------- cmd_synth


X_GATE = {"name": "U", "targets": [2],
          "matrix": [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}


def write_spec(tmp_path, gates, m=2, k=1, ans_index=2):
    p = tmp_path / "verifier.json"
    p.write_text(json.dumps({"m": m, "k": k, "ans_index": ans_index,
                             "gates": gates}))
    return str(p)


def config_file(tmp_path, value):
    """A config dict written to a file, as --config's value; other values
    pass through."""
    if not isinstance(value, dict):
        return value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(value))
    return str(p)


def test_cmd_synth_accept_all(tmp_path):
    # NOT on the answer qubit: accepts every money state
    path = write_spec(tmp_path, [X_GATE])
    rep = cmd_synth({"verifier": path, "trials": 4, "seed": 1})
    assert abs(rep["max_acceptance"] - 1.0) < 1e-9
    assert abs(rep["eigen"]["acceptance"] - 1.0) < 1e-9
    assert rep["trial"]["fallbacks"] == 0
    assert rep["trial"]["mean_acceptance"] > 0.99
    assert rep["backend_acceptance_gap"] < 0.01
    assert rep["params"]["n_alternations"] == rep["derived_defaults"]["n_alternations"]


def test_cmd_synth_reject_all_flags_fallback(tmp_path):
    # identity verifier: the answer qubit never flips, nothing accepts
    path = write_spec(tmp_path, [])
    rep = cmd_synth({"verifier": path, "trials": 3, "seed": 2,
                     "n_alternations": 8, "t_trials": 4})
    assert rep["max_acceptance"] < 1e-9
    assert rep["trial"]["fallbacks"] == 3
    assert rep["trial"]["success_rate"]["mean"] == 0.0


@pytest.mark.parametrize("verifier", ["accept-all", "empty-D conjugate"])
def test_cmd_synth_builds_no_generator(verifier, tmp_path, monkeypatch):
    # an accept-all verifier passes its first attempt, one Python draw; the
    # empty-D scheme verifier's cut of 1.0 passes no draw, so synthesize
    # makes none and no trial's stream is seeded
    if verifier == "accept-all":
        path = write_spec(tmp_path, [X_GATE])
    else:
        path = tmp_path / "verifier.json"
        path.write_text(make_scheme("conjugate").sim_verifier("", (3,), {}).to_json())
    built, seeded = [], []
    for ctor in ("default_rng", "Generator"):
        def counting(*args, _real=getattr(np.random, ctor), **kwargs):
            built.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.random, ctor, counting)

    def seeding(pool, _real=streams._pcg64_seed):
        seeded.append(1)
        return _real(pool)

    monkeypatch.setattr(streams, "_pcg64_seed", seeding)
    rep = cmd_synth({"verifier": str(path), "trials": 20, "seed": 3})
    assert rep["trial"]["fallbacks"] == (0 if verifier == "accept-all" else 20)
    assert built == []
    assert len(seeded) == (20 if verifier == "accept-all" else 0)


class _Spent(Stream):
    """A stream a synthesize call owned: every later draw raises."""

    def _drawn(self, *args, **kwargs):
        raise AssertionError(f"{self!r} drawn from after synthesize returned")

    random = integers = normal = choice = _drawn
    gen = property(_drawn)


@pytest.mark.parametrize("run", ["synth accept-all", "synth empty-D conjugate",
                                 "attack hash-tag", "attack conjugate",
                                 "attack counterexample"])
def test_synthesize_owns_a_stream_nothing_drew_or_draws(run, tmp_path,
                                                        monkeypatch):
    # every caller hands synthesize a stream that has never drawn and that
    # nothing draws from after the call, so where the call leaves it does
    # not matter
    calls = []

    def owning(engine, rng, _real=harness.synthesize):
        assert rng._state is None and rng._gen is None, f"{rng!r} has drawn"
        res = _real(engine, rng)
        rng.__class__ = _Spent
        calls.append(1)
        return res

    monkeypatch.setattr(harness, "synthesize", owning)
    monkeypatch.setattr(attack, "synthesize", owning)
    command, name = run.split(" ", 1)
    if command == "synth":
        if name == "accept-all":
            path = write_spec(tmp_path, [X_GATE])
        else:
            path = tmp_path / "verifier.json"
            path.write_text(make_scheme("conjugate").sim_verifier(
                "", (3,), {}).to_json())
        cmd_synth({"verifier": str(path), "trials": 20, "seed": 3})
    else:
        scheme = make_scheme(name)
        cfg = AttackConfig.default(
            scheme, t_max=16, n_updates=30,
            synth_params=SynthesisParams.default(scheme.m))
        for seed in range(10):
            run_attack(scheme, cfg, Stream(seed))
    assert calls


def test_cmd_synth_missing_inputs(tmp_path):
    with pytest.raises(HarnessError):
        cmd_synth({})
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(HarnessError):
        cmd_synth({"verifier": str(p)})


# ---------------------------------------------------------------- cmd_attack


def test_attack_rows_schema_and_summary():
    rows, summary = attack_rows({"scheme": "hash-tag", "trials": 4, "seed": 7,
                                 "t_max": 4, "n_updates": 3, "workers": 1})
    assert len(rows) == 4
    for i, row in enumerate(rows):
        assert set(row) == set(CSV_COLUMNS)
        assert row["seed"] == 7 + i
        assert row["success"] in (0, 1)
        assert len(row["db_sizes"].split(";")) == 4
    assert summary["trials"] == 4
    assert summary["params_used"]["scaled"]
    assert 0 <= summary["success"]["mean"] <= 1


def test_rows_to_csv_layout():
    rows, _ = attack_rows({"scheme": "hash-tag", "trials": 2, "seed": 0,
                           "t_max": 3, "n_updates": 2, "workers": 1})
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER == "# qmsep-csv v1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "hash-tag"


def test_cmd_attack_deterministic_and_worker_independent(tmp_path, capsys):
    base = ["attack", "--scheme", "conjugate", "--trials", "4", "--seed", "11",
            "--t-max", "4", "--n-updates", "3"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main([*base, "--workers", "1", "--out", str(out1)]) == 0
    assert cli.main([*base, "--workers", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    s1 = (tmp_path / "a.csv.summary.json").read_text()
    s2 = (tmp_path / "b.csv.summary.json").read_text()
    assert s1 == s2
    # with --out, stdout holds the two summaries and no CSV
    assert capsys.readouterr().out == s1 + s2


# sha256 of rows_to_csv + the sorted summary JSON, 24 trials from seed 400;
# any change to what the attack computes or prints changes them
ATTACK_DIGESTS = {
    "hash-tag": ({}, "30f1c5b2fbd418f701dd7b9c0de68b4f2fff42b3e0de274aa48d11c0099bfd5f"),
    "conjugate": ({}, "7906d12b473db03d46051eb9b02c35e28ea762627783031a38930ebf41bdb87a"),
    "counterexample": ({"t_max": 16, "n_updates": 30},
                       "f35728bfd7a1f73f258653cc9f4d422f8f6bbd301d6cd3768c14ada74f625e6c"),
}


@pytest.mark.parametrize("name", list(ATTACK_DIGESTS))
def test_attack_output_is_byte_identical(name):
    overrides, want = ATTACK_DIGESTS[name]
    rows, summary = attack_rows({"scheme": name, "trials": 24, "seed": 400,
                                 "workers": 1, **overrides})
    text = rows_to_csv(rows) + json.dumps(summary, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


# sha256 of each trial's learned pairs, its last database sorted, over
# AttackConfig.default trials at seeds 0-49: the CSV and summary do not
# depend on a classical world's bit values, and these do
LEARNED_PAIRS_DIGESTS = {
    "hash-tag": "9afc9e388567e37f441e6d246f23ca2ef3b5897e3d33915efb8ae492e289ab36",
    "conjugate": "0d4d87093b95178f3e45e02546c8b23e0a970ffb216cb64c492b7f90b3597794",
}


@pytest.mark.parametrize("name", list(LEARNED_PAIRS_DIGESTS))
def test_learned_pairs_are_pinned(name):
    scheme = make_scheme(name)
    cfg = AttackConfig.default(scheme)
    h = hashlib.sha256()
    for seed in range(50):
        tr = run_attack(scheme, cfg, Stream(seed))
        h.update(repr(sorted(tr.runs.databases[-1].items())).encode("utf-8"))
    assert h.hexdigest() == LEARNED_PAIRS_DIGESTS[name]


# sha256 of the stdout of `qmsep synth` and `qmsep oracle-check` at fixed
# seeds; any change to what either command computes or prints changes them
RY95 = {"name": "U", "targets": [2],
        "matrix": [[0.05 ** 0.5, 0.0], [-(0.95 ** 0.5), 0.0],
                   [0.95 ** 0.5, 0.0], [0.05 ** 0.5, 0.0]]}
REPORT_DIGESTS = {
    "synth": (["--trials", "12", "--seed", "21", "--t-trials", "2"],
              "f595e2c9436cc8911f813cc6021e5b587e4054ba0331b1cad5569ed868fa247f"),
    "oracle-check": (["--l", "2", "--queries", "3", "--trials", "2", "--seed", "7",
                      "--mc-samples", "4000"],
                     "e96df6df4bda9730e70847c20662cc362ba9b71db81adc67ce4a4b22ae7068b3"),
}
# the oracle-check report above with the dense-block reduced state and the
# SVD trace distance; only worst.equivalence_td differs
BLOCK_SVD_REPORT_DIGEST = "b6dbb0dcda0324d031de2792b9b54d67d785fa5e948b90ff127bae4f409c12ea"


@pytest.mark.parametrize("command", list(REPORT_DIGESTS))
def test_report_output_is_byte_identical(command, tmp_path, capsys):
    # Ry on the answer ancilla, then a CNOT from input qubit 0: A has
    # eigenvalues 0.95 and 0.05, and 2 draws leave some trials falling back
    flags, want = REPORT_DIGESTS[command]
    if command == "synth":
        gates = [RY95, {"name": "CNOT", "targets": [0, 2]},
                 {"name": "H", "targets": [1]}, {"name": "T", "targets": [1]}]
        flags = ["--verifier", write_spec(tmp_path, gates), *flags]
    out = tmp_path / "report.json"
    rc = cli.main([command, *flags, "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert out.read_text() == text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


def test_reference_kernels_keep_the_former_oracle_check_report(monkeypatch, capsys):
    """With the dense-block reduced state and the SVD trace distance patched
    back, the pinned oracle-check run prints its former bytes."""
    monkeypatch.setattr(harness.OracleWorld, "reduced_density_plain",
                        ref.reduced_density_by_blocks)
    monkeypatch.setattr(harness, "_matrix_td", ref.matrix_td_by_svd)
    flags, _ = REPORT_DIGESTS["oracle-check"]
    assert cli.main(["oracle-check", *flags]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BLOCK_SVD_REPORT_DIGEST


def test_cmd_synth_acceptances_match_per_trial_reference(tmp_path):
    # A has eigenvalues 0.95 and 0.05, and 2 draws leave some trials
    # falling back: the report holds each trial's acceptance as a fresh
    # engine and acceptance_of give it
    path = write_spec(tmp_path, [RY95, {"name": "CNOT", "targets": [0, 2]}])
    rep = cmd_synth({"verifier": path, "trials": 24, "seed": 5, "t_trials": 2})
    with open(path, encoding="utf-8") as fh:
        spec = VerifierSpec.from_json(fh.read())
    params = SynthesisParams.default(spec.m, t_trials=2)
    stream = Stream(5).split("trial")
    results = [synthesize_by_attempt(TrialEngine(spec, params), stream.split(i))
               for i in range(24)]
    fallbacks = sum(r.fallback for r in results)
    assert 0 < fallbacks < 24
    assert rep["trial"]["fallbacks"] == fallbacks
    assert rep["trial"]["acceptances"] == [acceptance_of(spec, r.state)
                                           for r in results]


def test_attack_rows_requires_scheme():
    with pytest.raises(HarnessError):
        attack_rows({})
    with pytest.raises(HarnessError):
        attack_rows({"scheme": "hash-tag", "trials": 0})


# ---------------------------------------------------------- oracle suites


def test_equivalence_and_comp_decomp_small():
    stream = Stream(3)
    assert equivalence_check(1, 3, stream.split("eq")) <= 1e-9
    assert comp_decomp_check(1, 3, stream.split("cd")) <= 1e-9


def test_recording_suites_direct():
    stream = Stream(5)
    td, bound, err = recording_error_check(2, 2, stream.split("a"))
    assert td * td - bound * bound <= 1e-9
    assert err <= 1e-9
    after, before = recorded_query_monotone_check(2, 2, stream.split("b"))
    assert after <= before + 1e-9


def test_recording_check_detects_seeded_fault(monkeypatch):
    # dropping the Fourier-slot cleanup breaks the exact decrement identity
    ref.keep_df_on_query(monkeypatch)
    errs = [recording_error_check(2, 2, Stream(50 + i))[2] for i in range(5)]
    assert max(errs) > 1e-6


def test_cmd_oracle_check_passes_small():
    rep = cmd_oracle_check({"l": 1, "queries": 3, "trials": 3, "seed": 9})
    assert rep["ok"]
    assert all(rep["checks"].values())


def test_cmd_oracle_check_l2_with_sampling():
    rep = cmd_oracle_check({"l": 2, "queries": 4, "trials": 2, "seed": 10,
                            "mc_samples": 4000})
    assert rep["ok"]
    assert rep["worst"]["equivalence_td"] <= 1e-9
    assert rep["checks"]["mc_tv"]


@pytest.mark.parametrize("l, n_queries", [(1, 8), (2, 7), (3, 6)])
def test_cmd_oracle_check_passes_at_the_largest_sizes(l, n_queries):
    # the most queries PLAIN_QUBIT_CAP admits at each l
    assert l + n_queries + 1 == PLAIN_QUBIT_CAP
    rep = cmd_oracle_check({"l": l, "queries": n_queries, "trials": 1, "seed": 0})
    assert rep["ok"]


def test_cmd_oracle_check_rejects_large_l():
    with pytest.raises(HarnessError):
        cmd_oracle_check({"l": 4, "queries": 2})


# worst-case quantity -> (check that bounds it, suite made to return a value
# that puts only this quantity at 1)
ORACLE_FAULTS = {
    "equivalence_td": ("equivalence_td", "equivalence_check", 1.0),
    "comp_decomp": ("comp_decomp", "comp_decomp_check", 1.0),
    "recording_error_slack": ("recording_error_bound", "recording_error_check",
                              (1.0, 0.0, 0.0)),
    "recording_decrement_err": ("recording_decrement", "recording_error_check",
                                (0.0, 0.0, 1.0)),
    "bad_weight_increase": ("bad_weight_monotone", "recorded_query_monotone_check",
                            (1.0, 0.0)),
}


@pytest.mark.parametrize("quantity", list(ORACLE_FAULTS))
def test_cmd_oracle_check_fails_only_the_check_of_a_bad_quantity(quantity, monkeypatch):
    check, suite, value = ORACLE_FAULTS[quantity]
    monkeypatch.setattr(harness, suite, lambda *args: value)
    rep = cmd_oracle_check({"l": 1, "queries": 1, "trials": 1})
    assert rep["worst"][quantity] == 1.0 and not rep["ok"]
    assert [c for c, ok in rep["checks"].items() if not ok] == [check]


def test_cmd_oracle_check_monte_carlo_draws_are_pinned():
    # criterion 5's seed, first 2000 samples: mc_tv moves in steps of 1/2000
    # when the draws change; the 1e-12 tolerance only absorbs rounding in the
    # exact distribution
    rep = cmd_oracle_check({"l": 2, "queries": 3, "trials": 1, "seed": 556,
                            "mc_samples": 2000})
    assert rep["mc_tv"] == pytest.approx(0.06408659389153842, abs=1e-12)


# ------------------------------------------------------------------- CLI


def test_cli_oracle_check_exit_zero(capsys):
    rc = cli.main(["oracle-check", "--l", "1", "--queries", "2",
                   "--trials", "2", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("flag,value", [("--l", "0"), ("--l", "4"), ("--queries", "0"),
                                        ("--queries", "9"), ("--trials", "0"),
                                        ("--mc-samples", "-1"),
                                        ("--config", {"trails": 3}),
                                        ("--config", {"seed": "x"})])
def test_cli_oracle_check_rejects_bad_input(flag, value, tmp_path, capsys):
    args = {"--l": "1", "--queries": "2", "--trials": "1", "--mc-samples": "0"}
    args[flag] = config_file(tmp_path, value)
    rc = cli.main(["oracle-check", *[x for kv in args.items() for x in kv]])
    assert rc == 2
    out = capsys.readouterr()
    named = next(iter(value)) if flag == "--config" else "oracle-check needs"
    assert out.out == "" and named in out.err


@pytest.mark.parametrize("flags,admitted", [
    (["--queries", "2", "--trials", "3"], True),  # trials x queries at the cap
    (["--queries", "7", "--trials", "1"], False),
    (["--queries", "1", "--trials", "7"], False),
    (["--queries", "2", "--trials", "1" + "0" * 400], False),
    (["--queries", "2", "--trials", "1", "--mc-samples", "50"], True),
    (["--queries", "2", "--trials", "1", "--mc-samples", "51"], False)])
def test_cli_oracle_check_caps_its_work(flags, admitted, monkeypatch, capsys):
    # with the caps made small, the value at each cap runs and one past it
    # exits 2 before any check
    monkeypatch.setattr(harness, "ORACLE_WORK_CAP", 6)
    monkeypatch.setattr(harness, "MC_SAMPLES_CAP", 50)
    if not admitted:
        monkeypatch.setattr(harness, "equivalence_check", _no_trial)
    rc = cli.main(["oracle-check", "--l", "1", *flags])
    out = capsys.readouterr()
    if admitted:
        assert rc != 2 and json.loads(out.out)["ok"] is (rc == 0)
        return
    assert rc == 2 and out.out == ""
    args = dict(zip(flags[::2], map(int, flags[1::2])))
    if "--mc-samples" in args:
        want = f"mc_samples <= 50, got {args['--mc-samples']}"
    else:
        want = f"trials x queries <= 6, got {args['--queries'] * args['--trials']}"
    assert out.err == f"qmsep: oracle-check needs {want}\n"


def test_oracle_check_caps_admit_the_defaults_and_the_benchmark():
    # tests/ runs its largest sizes itself; perfbench's oracle-check
    # workload draws 12 000 Monte Carlo samples
    opts = harness.ORACLE_OPTIONS
    assert opts["trials"].default * opts["queries"].default <= harness.ORACLE_WORK_CAP
    assert 12_000 <= harness.MC_SAMPLES_CAP


def test_cli_attack_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(["attack", "--scheme", "hash-tag", "--trials", "2",
                   "--seed", "3", "--t-max", "3", "--n-updates", "2",
                   "--workers", "1", "--out", str(out)])
    assert rc == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_cli_attack_runs_the_widest_hash_tag_note(capsys):
    # 32-qubit notes at derived parameters: the eigen attack holds every
    # note as factor names and builds nothing of size 2^m
    rc = cli.main(["attack", "--scheme", "hash-tag", "--m", "32",
                   "--trials", "2", "--workers", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)


@pytest.mark.parametrize("flag,value", [
    ("--l", "7"), ("--m", "0"), ("--m", "33"), ("--eps", "2"),
    ("--t-max", "0"), ("--n-updates", "0"),
    ("--config", {"variant": "classical_mint"}),
    ("--workers", "0"), ("--config", {"trails": 3}), ("--config", {"l": "x"}),
    ("--config", {"trials": 2.5}), ("--config", {"out": 5}),
    ("--out", "missing-dir/run.csv"), ("--eps", "0"), ("--eps", "nan"),
    ("--scheme", "nope")])
def test_cli_attack_rejects_bad_input(flag, value, tmp_path, capsys):
    rc = cli.main(["attack", "--scheme", "hash-tag", "--workers", "1", flag,
                   config_file(tmp_path, value)])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("qmsep: ")
    if flag in ("--workers", "--config"):
        assert (next(iter(value)) if flag == "--config" else "workers") in out.err
    if flag == "--scheme":  # make_scheme's error, as from a config file
        assert out.err == "qmsep: unknown scheme 'nope'\n"


@pytest.mark.parametrize("scheme,eps", [
    ("hash-tag", "1e-320"),  # ell / eps overflows to inf
    ("counterexample", "1e-200")])  # eps ** 2 underflows to 0
def test_cli_attack_rejects_an_infinite_derived_count(scheme, eps, capsys):
    rc = cli.main(["attack", "--scheme", scheme, "--eps", eps, "--workers", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"qmsep: at epsilon = {float(eps)} a derived count is infinite\n")


class TrialRan(Exception):
    pass


def _no_trial(*args):
    raise TrialRan


@pytest.mark.parametrize("flags", [
    ("--scheme", "hash-tag", "--eps", "1e-30"),  # derived t_max ~ 2e30
    ("--scheme", "counterexample", "--eps", "0.985"),  # derived N ~ 6.6e11
    ("--scheme", "hash-tag", "--eps", "0.985"),  # derived N ~ 3.2e7
    ("--scheme", "hash-tag", "--t-max", str(T_MAX_CAP + 1)),
    ("--scheme", "hash-tag", "--n-updates", str(N_UPDATES_CAP + 1))])
def test_cli_attack_caps_t_max_and_n_updates(flags, monkeypatch, capsys):
    # the caps stop a run before any trial allocates at its size
    monkeypatch.setattr(harness, "_attack_trial", _no_trial)
    rc = cli.main(["attack", *flags, "--workers", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and "exceeds the cap" in out.err


@pytest.mark.parametrize("cfg", [
    {"scheme": "hash-tag", "t_max": T_MAX_CAP, "n_updates": N_UPDATES_CAP},
    {"scheme": "counterexample", "eps": 0.01}])
def test_attack_rows_admits_the_caps(cfg, monkeypatch):
    # the caps themselves pass, and so does counterexample's derived N at 0.01
    monkeypatch.setattr(harness, "_attack_trial", _no_trial)
    with pytest.raises(TrialRan):
        attack_rows({**cfg, "workers": 1})


@pytest.mark.parametrize("m,flags,admitted", [
    (2, ["--n-alternations", "524287"], True),  # 4 (2N + 1) = 2^22 - 4
    (2, ["--n-alternations", "524288"], False),  # 2^22 + 4
    (8, [], True),  # derived N = 170: 256 x 341 entries
    (8, ["--a", "0.5", "--b", "0.51"], False),  # derived N = 334 544
    (2, ["--n-alternations", "1" + "0" * 400], False)])  # N(a + b) is no float
def test_cli_synth_caps_the_trial_engine_table(m, flags, admitted, tmp_path,
                                                monkeypatch, capsys):
    # the cap stops cmd_synth before it builds an engine of 2^m (2N + 1)
    # entries; the admitted cases reach the stub that stands for it
    monkeypatch.setattr(harness, "TrialEngine", _no_trial)
    argv = ["synth", "--verifier", write_spec(tmp_path, [], m=m, k=0,
                                              ans_index=0), *flags]
    if admitted:
        with pytest.raises(TrialRan):
            cli.main(argv)
        return
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"exceeds the cap {ENGINE_TABLE_CAP}" in out.err


def test_cli_attack_has_no_variant_flag(capsys):
    # the variant follows the scheme's mint
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--scheme", "hash-tag", "--variant", "classical_mint"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err


def test_attack_pool_has_no_more_workers_than_trials(monkeypatch):
    # a fork pool starts every worker at once, needed or not, so it gets no
    # more than the trials or the usable CPUs; it takes the trials in about
    # four chunks per worker
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append([max_workers])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            pools[-1].append(chunksize)
            return map(fn, jobs)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    cfg = {"scheme": "hash-tag", "seed": 0, "t_max": 2, "n_updates": 2}
    pooled, _ = attack_rows({**cfg, "trials": 2, "workers": 500})
    serial, _ = attack_rows({**cfg, "trials": 2, "workers": 1})
    assert pools == [[2, 1]] and pooled == serial
    pooled, _ = attack_rows({**cfg, "trials": 16, "workers": 2})
    serial, _ = attack_rows({**cfg, "trials": 16, "workers": 1})
    assert pools == [[2, 1], [2, 2]] and pooled == serial
    pooled, _ = attack_rows({**cfg, "trials": 16, "workers": 500})
    assert pools[-1] == [2, 2] and pooled == serial


@pytest.mark.parametrize("backend", ["eigen", "trial"])
@pytest.mark.parametrize("name", ["hash-tag", "counterexample"])
def test_attack_rows_do_not_depend_on_the_memo(name, backend, monkeypatch):
    # serial trials share this process's synthesis caches; pooled ones run
    # in forked workers with their own; each lone trial meets the caches
    # the runs before it left, and after 40 more seeds they are warmer still
    def config(scheme, **kw):
        params = None if backend == "eigen" else SynthesisParams.default(scheme.m)
        return AttackConfig.default(scheme, synth_params=params, **kw)

    monkeypatch.setattr(harness, "AttackConfig", SimpleNamespace(default=config))
    cfg = {"scheme": name, "seed": 40, "t_max": 3, "n_updates": 4}
    serial, _ = attack_rows({**cfg, "trials": 8, "workers": 1})
    pooled, _ = attack_rows({**cfg, "trials": 8, "workers": 2})
    fresh = [attack_rows({**cfg, "seed": 40 + i, "trials": 1})[0][0]
             for i in range(8)]
    warm = make_scheme(name)
    attack_cfg = config(warm, epsilon=0.1, t_max=3, n_updates=4)
    for seed in range(100, 140):
        run_attack(warm, attack_cfg, Stream(seed))
    warmed = [harness._attack_trial((name, warm, attack_cfg, 40 + i))[0]
              for i in range(8)]
    assert serial == pooled == fresh == warmed


def test_default_workers_follow_the_affinity_mask(monkeypatch):
    # one usable CPU on a many-CPU machine: the trials run in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was made")

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", no_pool)
    rows, _ = attack_rows({"scheme": "hash-tag", "trials": 3, "t_max": 2,
                           "n_updates": 2})
    assert len(rows) == 3


@pytest.mark.parametrize("values", [
    [], [7], [4] * 50, list(range(30)), [0, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4],
    [0] + [5] * 1000 + [6] + [5] * 3, [10 ** 6] * 3 + [3]])
def test_runs_cell_is_the_plain_join(values):
    # one value, all distinct, long runs, and a value that comes back; an
    # update phase splits a run of equal sizes where only its acceptance
    # changes, so runs of one value may also come one after another
    plain = ";".join(str(v) for v in values)
    runs = [(v, len(list(run))) for v, run in itertools.groupby(values)]
    assert harness._runs_cell(runs) == plain
    assert harness._runs_cell([(v, 1) for v in values]) == plain


@pytest.mark.parametrize("verifier,reason", [
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "X", "targets": [0]}]},
     "unknown gate"),
    ({"m": 1, "k": 0, "gates": []}, "ans_index"),
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "H", "targets": [3]}]},
     "gate 0 ('H') has targets [3]"),
    ({"m": 20, "k": 20, "ans_index": 0}, "exceeds cap"),
    ({"m": 2, "k": 1, "ans_index": 2, "gates": [{"name": "H", "targets": [-1]}]},
     "gate 0 ('H') has targets [-1]"),
    ({"m": 2, "k": 1, "ans_index": 2,
      "gates": [X_GATE, {"name": "CNOT", "targets": [0, 0]}]},
     "gate 1 ('CNOT') has targets [0, 0]"),
    ({"m": 2, "k": 1, "ans_index": 2, "gates": [{"name": "H", "targets": [5]}]},
     "gate 0 ('H') has targets [5]"),
    # json.dumps writes NaN and Infinity, which json.loads reads back
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "U", "targets": [0],
      "matrix": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
     "not unitary"),
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "U", "targets": [0],
      "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [math.inf, 0.0]]}]},
     "not unitary"),
    # JSON numbers that are not integers, and true, which Python reads as 1
    ({"m": 1.5, "k": 0, "ans_index": 0}, "m must be an integer"),
    ({"m": 1, "k": True, "ans_index": 0}, "k must be an integer"),
    ({"m": "2", "k": 0, "ans_index": 0}, "m must be an integer"),
    ({"m": 1, "k": 1, "ans_index": 1.0}, "ans_index must be an integer"),
    ({"m": 1, "k": 1, "ans_index": 1, "gates": [{"name": "H", "targets": [0.5]}]},
     "gate 0 target must be an integer"),
    # a named gate's width is its own: H on two qubits, CNOT on one
    ({"m": 2, "k": 1, "ans_index": 2, "gates": [{"name": "H", "targets": [0, 1]}]},
     "cannot act on 2 qubits"),
    ({"m": 2, "k": 1, "ans_index": 2, "gates": [{"name": "CNOT", "targets": [0]}]},
     "cannot act on 1 qubits"),
    ({"m": 2, "k": 1, "ans_index": 3}, "ans_index out of range"),
    ({"m": 2, "k": 1, "ans_index": -1}, "ans_index out of range"),
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "U", "targets": [0],
      "matrix": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}]},
     "U gate matrix has 3 entries, expected 4"),
    # every entry within modulus 1, so only the check of V itself sees it
    ({"m": 1, "k": 0, "ans_index": 0, "gates": [{"name": "U", "targets": [0],
      "matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}]},
     "v_hat is not unitary within tolerance")],
    ids=[f"verifier{i}" for i in range(20)])
def test_cli_synth_rejects_bad_verifier(tmp_path, verifier, reason, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(verifier))
    rc = cli.main(["synth", "--verifier", str(path), "--trials", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and "bad verifier" in out.err and reason in out.err


@pytest.mark.parametrize("m, k", [(-100, 0), (3, -5), (0, 1), (1, -1)])
def test_cli_synth_rejects_negative_width(tmp_path, m, k, capsys):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"m": m, "k": k, "ans_index": 0}))
    rc = cli.main(["synth", "--verifier", str(path), "--trials", "1"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and "bad verifier" in out.err and "need m >= 1, k >= 0" in out.err


@pytest.mark.parametrize("flags", [["--a", "0.9", "--b", "0.5"], ["--b", "1.5"],
                                   ["--n-alternations", "0"],
                                   ["--config", {"trails": 3}],
                                   ["--config", {"a": "x"}],
                                   ["--config", {"workers": 2}],
                                   # (b - a)^2 underflows to 0, so N is infinite
                                   ["--a", "1e-200", "--b", "1e-199"],
                                   ["--a", "1e-200", "--b", "1e-199",
                                    "--n-alternations", "10"]])
def test_cli_synth_rejects_bad_params(tmp_path, flags, capsys):
    rc = cli.main(["synth", "--verifier", write_spec(tmp_path, [X_GATE]),
                   *[config_file(tmp_path, f) for f in flags]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("qmsep: ")
    if flags[0] == "--config":
        assert next(iter(flags[1])) in err


def test_cli_synth_reads_config(tmp_path, capsys):
    spec_path = write_spec(tmp_path, [X_GATE])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verifier": spec_path, "trials": 2}))
    rc = cli.main(["synth", "--config", str(cfg), "--seed", "4"])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["max_acceptance"] - 1.0) < 1e-9


@pytest.mark.parametrize("flag", ["--config", "--verifier"])
def test_cli_synth_rejects_missing_file(tmp_path, flag, capsys):
    rc = cli.main(["synth", flag, str(tmp_path / "missing.json")])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("qmsep: ")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", ["attack", "oracle-check", "synth"])
def test_cli_rejects_a_negative_seed(command, via, tmp_path, capsys):
    args = {"attack": ["--scheme", "hash-tag", "--workers", "1"],
            "oracle-check": ["--l", "1", "--queries", "2", "--trials", "1"],
            "synth": ["--verifier", write_spec(tmp_path, [X_GATE])]}[command]
    seed = (["--seed", "-1"] if via == "flag"
            else ["--config", config_file(tmp_path, {"seed": -1})])
    rc = cli.main([command, *args, *seed])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qmsep: {command} needs seed >= 0, got -1\n"


@pytest.mark.parametrize("command", ["synth", "attack"])
def test_cli_rejects_zero_trials_before_any_work(command, monkeypatch,
                                                 tmp_path, capsys):
    # names the bound, so dropping trials' least from a table fails here,
    # where the generated cases below would only lose a case
    for name in ("TrialEngine", "_attack_trial"):
        monkeypatch.setattr(harness, name, _no_trial)
    args = {"synth": ["--verifier", write_spec(tmp_path, [X_GATE])],
            "attack": ["--scheme", "hash-tag", "--workers", "1"]}[command]
    rc = cli.main([command, *args, "--trials", "0"])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qmsep: {command} needs trials >= 1, got 0\n"


# (command, key, least) for every table key with a lower bound
BOUNDED = [(command, key, opt.least)
           for command, (table, _) in cli.COMMANDS.items()
           for key, opt in table.items() if opt.least is not None]


@pytest.mark.parametrize("command,key,least", BOUNDED,
                         ids=[f"{c}-{k}" for c, k, _ in BOUNDED])
def test_cli_rejects_a_value_below_its_least(command, key, least, monkeypatch,
                                             tmp_path, capsys):
    monkeypatch.setattr(harness, "_attack_trial", _no_trial)
    args = {"attack": ["--scheme", "hash-tag", "--workers", "1"],
            "oracle-check": ["--l", "1", "--queries", "2", "--trials", "1"],
            "synth": ["--verifier", write_spec(tmp_path, [X_GATE])]}[command]
    flag = "--" + key.replace("_", "-")
    rc = cli.main([command, *args, flag, str(least - 1)])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"qmsep: {command} needs {key} >= {least}, got {least - 1}\n"


@pytest.mark.parametrize("command,key", [("attack", "eps"), ("synth", "a")])
def test_cli_rejects_an_integer_beyond_float_range(command, key, monkeypatch,
                                                   tmp_path, capsys):
    # JSON reads 10**400 as an exact int, which float() cannot hold
    monkeypatch.setattr(harness, "_attack_trial", _no_trial)
    args = {"attack": ["--scheme", "hash-tag", "--workers", "1"],
            "synth": ["--verifier", write_spec(tmp_path, [X_GATE])]}[command]
    rc = cli.main([command, *args,
                   "--config", config_file(tmp_path, {key: 10 ** 400})])
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"qmsep: {command} needs {key} to be a finite number, "
                       "got an integer beyond float range\n")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_help_shows_every_table_default(command, capsys):
    table, _ = cli.COMMANDS[command]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for key, opt in table.items():
        if opt.default is not None:
            flag = "--" + key.replace("_", "-")
            assert f"{flag} {key.upper()} {opt.help} (default {opt.default})" in text


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_table_defaults_meet_their_least(command):
    # a default never passes through read_options' bound check
    table, _ = cli.COMMANDS[command]
    for key, opt in table.items():
        if None not in (opt.default, opt.least):
            assert opt.default >= opt.least, key


def test_cli_harness_error_exit_two(capsys):
    rc = cli.main(["synth"])  # missing --verifier
    assert rc == 2
    assert "verifier" in capsys.readouterr().err


def test_cli_rejects_unwritable_out_before_any_trial(monkeypatch, tmp_path, capsys):
    def no_trials(cfg):
        raise AssertionError("attack_rows ran before --out was checked")

    monkeypatch.setattr(cli, "attack_rows", no_trials)
    out = tmp_path / "missing-dir" / "run.csv"
    rc = cli.main(["attack", "--scheme", "hash-tag", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("qmsep: cannot write output")
    assert not (tmp_path / "missing-dir").exists()


def test_cli_out_check_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(["attack", "--scheme", "hash-tag", "--m", "0",
                   "--out", str(out)])
    assert rc == 2
    assert list(tmp_path.iterdir()) == []

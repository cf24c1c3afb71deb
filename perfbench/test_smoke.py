"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run is correct and prints every metric BENCHMARK.json
names, with its unit; that each workload's traced run shows calls in the
layers it exists to measure and none in the layers it bypasses; and that
the benchmark refuses to run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

ORACLE_WORLD = [m["name"] for m in BENCH["per_layer"]
                if m["name"].startswith(("oracle.OracleWorld.", "oracle.SampledExecutor."))
                and m["name"].endswith(".calls")]

# spans that must run (> 0 calls) / must not run (0 calls) on each workload
MUST_RUN = {
    "attack-classical": ["attack.run_attack", "money.verify", "streams.Stream.split",
                         "synth.embed_unitary", "attack.forge_verify"],
    "attack-quantum-mint": ["attack.run_attack", "money.sim_verifier",
                            "synth.max_acceptance", "attack.build_sim_verifier"],
    "oracle-check": ["harness.cmd_oracle_check", "oracle.OracleWorld.comp",
                     "oracle.OracleWorld.decomp", "oracle.SampledExecutor.apply_gate",
                     "oracle.sample_oracle"],
    "synth-trial": ["harness.cmd_synth", "synth.TrialEngine.init",
                    "synth.TrialEngine.sample", "jordan.jordan_decompose",
                    "synth.VerifierSpec.from_json"],
}
ATTACK_NEVER = ["synth.TrialEngine.init", "jordan.jordan_decompose"] + ORACLE_WORLD
MUST_NOT_RUN = {
    "attack-classical": ATTACK_NEVER,
    "attack-quantum-mint": ATTACK_NEVER + ["oracle.sample_oracle"],
    "oracle-check": ["attack.run_attack", "money.verify", "synth.TrialEngine.init"],
    "synth-trial": ["attack.run_attack", "money.verify", "oracle.OracleWorld.comp"],
}


def run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--ops", "4"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 4 and result["failed"] == 0
    names = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    want = {m["name"]: m["unit"] for m in names}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert detail["digest"] == detail["digest_untraced"]
        for span in MUST_RUN[workload]:
            assert values[f"{span}.calls"] > 0, span
        for span in MUST_NOT_RUN[workload]:
            name = span if span.endswith(".calls") else f"{span}.calls"
            assert values[name] == 0, span


def test_refuses_to_run_without_the_program():
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

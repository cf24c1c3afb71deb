"""qmsep benchmark: one workload, one run, every metric on the last line.

    python3 perfbench/run.py --workload attack-classical --seed 1 \\
        --seconds 12 --trace 0

Ops run back to back in this one process (closed loop, one client).  With
``--trace 0`` the run measures the end-to-end metrics: ops are timed until
``--seconds`` of op time have passed, at least ``--ops`` ops have run and a
whole input mix (the workload's block) is complete.  Set-up time is taken
in fresh interpreters.  With ``--trace 1`` the first ``--ops`` ops run once
untraced and once with spans around every public qmsep function; the run
prints the per-layer metrics and the tracing overhead, and fails if the two
passes' outputs differ.

Every run checks the program's outputs; the attack workloads also check
that ``harness.attack_rows`` gives the same rows for 1 and nproc workers.
The line before the result holds the environment, the checks, and a
sha256 digest of the first ``--ops`` op outputs.  BLAS is pinned to one
thread, so both sides of a comparison run with the same setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # read when numpy is first imported

import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
WARMUP_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--ops", type=int, default=100,
                   help="least ops per timed run, and ops per traced pass "
                        "and digest (default 100, so p90 has 10 samples "
                        "beyond it)")
    args = p.parse_args(argv)
    if args.seconds < 0 or args.ops < 1:
        p.error("--seconds must be >= 0 and --ops >= 1")
    return args


def setup_seconds(workload: str) -> tuple[float, list]:
    """Median nominal-speed time of a fresh interpreter importing qmsep and
    building the workload's program-side objects."""
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "workloads.program_objects(%r)" % (SRC, HERE, workload))
    times, problems = [], []
    before = speed.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        dt = time.perf_counter() - t0
        after = speed.probe()
        times.append(dt * speed.factor(before, after))
        before = after
        if proc.returncode != 0:
            problems.append(f"set-up process failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(times), problems


class Pass:
    """Ops of one workload instance, timed around the program call only.

    Given ``inputs``, the pass replays them instead of preparing its own, so
    a traced pass does the same work as the untraced one and no input
    generation runs under the tracer.
    """

    def __init__(self, wl, inputs=None):
        self.wl = wl
        self.given = inputs
        self.inputs, self.outputs, self.times = [], [], []
        self.problems = []
        self.failed = 0
        self.busy = 0.0
        self.tail_text, self.tail_result = "", None
        self.probes = []    # speed-probe times, one before each stretch
        self.stretch = []   # index of the probe before each op
        self._since = 0.0

    def op(self):
        i = len(self.inputs)
        inp = self.given[i] if self.given is not None else self.wl.prepare(i)
        t0 = time.perf_counter()
        try:
            res = self.wl.call(inp)
            err = None
        except Exception as exc:  # a failed op is counted, not fatal
            err = f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.busy += dt
        self.inputs.append(inp)
        self.times.append(dt)
        self.stretch.append(len(self.probes) - 1)
        self._since += dt
        if self._since >= speed.PROBE_EVERY_S:
            self._probe()
        text, probs = None, [err] if err else []
        if err is None:
            try:
                text, probs = self.wl.check(inp, res)
            except Exception as exc:  # a malformed output fails its check
                probs = [f"output check raised {type(exc).__name__}: {exc}"]
        self.outputs.append(text)
        if probs:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in probs)

    def _probe(self):
        self.probes.append(speed.probe())
        self._since = 0.0

    def run(self, min_ops: int, seconds: float = 0.0):
        """Ops until min_ops and seconds of op time are reached on a block
        boundary (or every given input has run), then the per-run tail."""
        self._probe()
        if self.given is not None:
            while len(self.inputs) < len(self.given):
                self.op()
        else:
            while (len(self.inputs) < min_ops or self.busy < seconds
                   or len(self.inputs) % self.wl.block):
                self.op()
        if self._since:
            self._probe()
        t0 = time.perf_counter()
        try:
            self.tail_text, self.tail_result = self.wl.tail()
        except Exception as exc:  # a failed tail is reported by finish
            self.problems.append(f"per-run tail raised {type(exc).__name__}: {exc}")
        self.tail_s = time.perf_counter() - t0
        self._probe()

    def nominal_times(self) -> list:
        """Op times at the nominal host speed (see speed.py)."""
        f = [speed.factor(a, b) for a, b in zip(self.probes, self.probes[1:])]
        return [t * f[s] for t, s in zip(self.times, self.stretch)]

    def nominal_total(self) -> float:
        """Nominal-speed time of all ops and the tail."""
        tail = self.tail_s * speed.factor(self.probes[-2], self.probes[-1])
        return sum(self.nominal_times()) + tail

    def finish(self):
        """Per-run checks; call after the tracer is removed.  They need every
        op's output and the tail's result, so they are skipped once any of
        those has failed."""
        if self.problems:
            return
        try:
            self.problems += self.wl.finish(self.inputs, self.outputs,
                                            self.tail_result)
        except Exception as exc:  # a failed per-run check is reported
            self.problems.append(f"per-run check raised {type(exc).__name__}: {exc}")

    def digest(self, n: int) -> str:
        lines = [o if o is not None else "<failed>" for o in self.outputs[:n]]
        return hashlib.sha256("\n".join(lines + [self.tail_text]).encode()).hexdigest()


def environment(seed: int) -> dict:
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = "unknown"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
            "commit": commit, "workload_seed": seed}


def warm_up(wl_cls, seed, workdir, seconds):
    Pass(wl_cls(seed, label=1, workdir=workdir)).run(1, min(WARMUP_S, seconds))


def end_to_end(args, wl_cls, workdir, detail):
    setup_s, problems = setup_seconds(args.workload)
    wl = wl_cls(args.seed, workdir=workdir)
    problems += wl.worker_check()
    warm_up(wl_cls, args.seed, workdir, args.seconds)
    p = Pass(wl)
    p.run(args.ops, args.seconds)
    p.finish()
    problems += p.problems
    times = p.nominal_times()
    n = len(times)
    p90 = statistics.quantiles(times, n=10)[8] if n > 1 else times[0]
    detail.update({"digest": p.digest(args.ops), "digest_ops": args.ops,
                   "samples": n, "beyond_p90": sum(t > p90 for t in times),
                   "wall": {"op_s": sum(p.times),
                            "ops_per_s": n / sum(p.times),
                            "op_s.p50": statistics.median(p.times)},
                   "speed_probe_s": statistics.median(p.probes),
                   **wl.describe(p.outputs)})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ops_per_s": (n / sum(times), "op/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return n, p.failed, problems, metrics


def per_layer(args, wl_cls, workdir, detail):
    from tracer import Tracer, per_layer_units

    wl = wl_cls(args.seed, workdir=workdir)
    problems = wl.worker_check()
    warm_up(wl_cls, args.seed, workdir, args.seconds)
    plain = Pass(wl)
    plain.run(args.ops)
    traced = Pass(wl_cls(args.seed, workdir=workdir), inputs=plain.inputs)
    tracer = Tracer()
    with tracer:
        traced.run(args.ops)
    plain.finish()
    traced.finish()
    problems += plain.problems + traced.problems
    d_plain, d_traced = plain.digest(args.ops), traced.digest(args.ops)
    if d_plain != d_traced:
        problems.append("traced and untraced outputs differ")
    plain_s, traced_s = plain.nominal_total(), traced.nominal_total()
    detail.update({"digest": d_traced, "digest_untraced": d_plain,
                   "digest_ops": args.ops, "samples": len(traced.times),
                   "run_s_traced": traced_s, "run_s_untraced": plain_s})
    values = tracer.metrics(traced_s / plain_s - 1.0)
    metrics = {k: (values[k], unit) for k, unit in per_layer_units().items()}
    return len(traced.times), traced.failed, problems, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qmsep")):
        print(f"no program to measure: {SRC}/qmsep is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    detail = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed)}
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        run = per_layer if args.trace else end_to_end
        attempted, failed, problems, metrics = run(args, wl_cls, workdir, detail)
    detail["problems"] = problems[:20]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

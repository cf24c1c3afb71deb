"""Command-line entry point: qmsep synth | attack | oracle-check."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    HarnessError,
    attack_rows,
    cmd_oracle_check,
    cmd_synth,
    load_config,
    merge_config,
    rows_to_csv,
)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmsep",
        description="Witness synthesis and quantum-money counterfeiting "
                    "experiments on simulated random oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="run the witness synthesizer on a "
                                     "serialized verifier")
    p.add_argument("--verifier", help="verifier description (JSON file)")
    p.add_argument("--a", type=float, help="acceptance guarantee (default 0.5)")
    p.add_argument("--b", type=float, help="promise threshold (default 0.9)")
    p.add_argument("--n-alternations", type=int, dest="n_alternations")
    p.add_argument("--t-trials", type=int, dest="t_trials")
    _add_common(p)

    p = sub.add_parser("attack", help="run the counterfeiting adversary")
    p.add_argument("--scheme", choices=("hash-tag", "conjugate", "counterexample"))
    p.add_argument("--l", type=int, help="oracle input bits (default 6)")
    p.add_argument("--m", type=int, help="scheme size parameter (default 2)")
    p.add_argument("--eps", type=float, help="target error (default 0.1)")
    p.add_argument("--t-max", type=int, dest="t_max",
                   help="override the test-phase bound (scaled run)")
    p.add_argument("--n-updates", type=int, dest="n_updates",
                   help="override the update count (scaled run)")
    p.add_argument("--workers", type=int, help="worker pool size")
    _add_common(p)

    p = sub.add_parser("oracle-check", help="oracle representation "
                                            "equivalence and property suites")
    p.add_argument("--l", type=int, help="oracle input bits (default 2)")
    p.add_argument("--queries", type=int, help="queries per program (default 4)")
    p.add_argument("--mc-samples", type=int, dest="mc_samples",
                   help="Monte Carlo samples for the sampled-mode check")
    _add_common(p)
    return parser


def _json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def check_writable(out: str, suffixes):
    """Raise HarnessError, before any work is done, when a file out + suffix
    cannot be opened for writing.  A file the check creates is removed."""
    for path in [out + suffix for suffix in suffixes]:
        new = not os.path.exists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise HarnessError(f"cannot write output: {exc}") from exc
        if new:
            os.remove(path)


def write_outputs(outputs, out: str | None):
    """Write each (suffix, text) output to out + suffix when out is given.
    stdout gets the last output, the JSON report, and the others only when
    out is not given."""
    if out:
        try:
            for suffix, text in outputs:
                with open(out + suffix, "w", encoding="utf-8") as fh:
                    fh.write(text)
        except OSError as exc:
            raise HarnessError(f"cannot write output: {exc}") from exc
        outputs = outputs[-1:]
    sys.stdout.write("".join(text for _, text in outputs))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "config")}
    # attack writes a CSV and its JSON summary, the others one JSON report
    suffixes = ("", ".summary.json") if args.command == "attack" else ("",)
    try:
        cfg = merge_config(load_config(args.config), flags)
        out = cfg.pop("out", None)
        if not isinstance(out, (str, type(None))):
            raise HarnessError(f"out must be a path, got {out!r}")
        if out:
            check_writable(out, suffixes)
        if args.command == "attack":
            rows, report = attack_rows(cfg)
            texts = [rows_to_csv(rows), _json(report)]
        else:
            run = cmd_synth if args.command == "synth" else cmd_oracle_check
            report = run(cfg)
            texts = [_json(report)]
        write_outputs(list(zip(suffixes, texts)), out)
    except HarnessError as exc:
        sys.stderr.write(f"qmsep: {exc}\n")
        return 2
    # only oracle-check's report carries a pass/fail verdict
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: qmsep synth | attack | oracle-check."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    HarnessError,
    cmd_attack,
    cmd_oracle_check,
    cmd_synth,
    load_config,
    merge_config,
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
    p.add_argument("--variant", choices=("classical_mint", "quantum_mint"))
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "config")}
    try:
        cfg = merge_config(load_config(args.config), flags)
        if args.command == "synth":
            report = cmd_synth(cfg)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if cfg.get("out"):
                with open(cfg["out"], "w", encoding="utf-8") as fh:
                    fh.write(text)
            sys.stdout.write(text)
            return 0
        if args.command == "attack":
            csv_text, summary = cmd_attack(cfg)
            if not cfg.get("out"):
                sys.stdout.write(csv_text)
            sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
            return 0
        if args.command == "oracle-check":
            report = cmd_oracle_check(cfg)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            if cfg.get("out"):
                with open(cfg["out"], "w", encoding="utf-8") as fh:
                    fh.write(text)
            sys.stdout.write(text)
            return 0 if report["ok"] else 1
    except HarnessError as exc:
        sys.stderr.write(f"qmsep: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: qmsep synth | attack | oracle-check."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    ATTACK_OPTIONS,
    ORACLE_OPTIONS,
    SYNTH_OPTIONS,
    HarnessError,
    attack_rows,
    cmd_oracle_check,
    cmd_synth,
    load_config,
    merge_config,
    rows_to_csv,
)


# each subcommand: its option table and its one-line help
COMMANDS = {
    "synth": (SYNTH_OPTIONS,
              "run the witness synthesizer on a serialized verifier"),
    "attack": (ATTACK_OPTIONS, "run the counterfeiting adversary"),
    "oracle-check": (ORACLE_OPTIONS,
                     "oracle representation equivalence and property suites"),
}


def build_parser() -> argparse.ArgumentParser:
    """One --key flag per key of each command's option table, typed and
    described by it; read_options checks flags and config keys alike."""
    parser = argparse.ArgumentParser(
        prog="qmsep",
        description="Witness synthesis and quantum-money counterfeiting "
                    "experiments on simulated random oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (table, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        for key, opt in table.items():
            default = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=opt.kind, help=opt.help + default)
        p.add_argument("--out", help="output path")
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

"""Command-line entry point: validate configs, inspect DSL parses, run
simulations, and summarize execution logs.

Exit codes: 0 success, 1 domain failure (validation/parse/bind/trace/log
errors, or an input file that is not UTF-8), 2 usage or I/O error.
Machine-readable output (logs, stats) goes to stdout; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import enum
import functools
import sys
from pathlib import Path
from typing import TextIO

from . import engine as engine_mod
from .bus import BusError
from .config import ConfigError, parse_config
from .dsl import BindErrors, ParseError, bind_program, format_program, parse_program
# parse_log, compute_stats and serialize_log stay names of this module, though
# nothing here calls parse_log: bench/tracing.py patches all three here
from .engine import (
    LogEntry,
    MalformedLogError,
    RunLimitError,
    TraceError,
    compute_stats,
    iter_log,
    load_trace,
    parse_log,
    serialize_log,
    serialize_stats,
)
from .sensorproc import NonFiniteOutputError


# `robosync run` renders its log this many entries at a time
LOG_BATCH_ENTRIES = 8192


class ExitStatus(enum.IntEnum):
    OK = 0
    FAILURE = 1
    USAGE = 2


class _Unreadable(Exception):
    """An input file could not be read; its diagnostic is printed and its
    exit status is the one argument."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        status = ExitStatus.USAGE
    except UnicodeDecodeError as exc:
        # the readers get universal newlines, so "\r\n" and a lone "\r" end a line too
        line = len((exc.object[: exc.start] + b".").splitlines())
        print(f"error: {path}: line {line}: invalid UTF-8 byte 0x{exc.object[exc.start]:02x}", file=sys.stderr)
        status = ExitStatus.FAILURE
    raise _Unreadable(status)


def cmd_validate(args: argparse.Namespace) -> int:
    text = _read(args.config)
    try:
        parse_config(text)
    except ConfigError as exc:
        for line in exc.lines():
            print(line)
        return ExitStatus.FAILURE
    print("OK")
    return ExitStatus.OK


def cmd_parse(args: argparse.Namespace) -> int:
    text = _read(args.behavior)
    try:
        program = parse_program(text)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    if args.dump_ast:
        for rule in program.rules:
            print(repr(rule))
        for definition in program.definitions.values():
            print(repr(definition))
    else:
        sys.stdout.write(format_program(program))
    return ExitStatus.OK


def _write_log(out: TextIO, entries: list[LogEntry]) -> None:
    """Render and write `entries` LOG_BATCH_ENTRIES at a time, so the text in
    memory at once is one batch, not the whole log."""
    for start in range(0, len(entries), LOG_BATCH_ENTRIES):
        out.write(serialize_log(entries[start : start + LOG_BATCH_ENTRIES]))


def cmd_run(args: argparse.Namespace) -> int:
    config_text, program_text, trace_text = _read(args.config), _read(args.behavior), _read(args.trace)
    try:
        config = parse_config(config_text)
        program = bind_program(parse_program(program_text), config)
        trace = load_trace(trace_text, config)
    except ConfigError as exc:
        for line in exc.lines():
            print(line, file=sys.stderr)
        return ExitStatus.FAILURE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    except BindErrors as exc:
        for error in exc.errors:
            where = f"{error.span.line}:{error.span.column}: " if error.span else ""
            print(f"bind error: {where}{error.message}", file=sys.stderr)
        return ExitStatus.FAILURE
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE

    try:
        log = engine_mod.run(config, program, trace, horizon_us=args.until)
    except BusError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    except (NonFiniteOutputError, RunLimitError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    if args.output == "-":
        _write_log(sys.stdout, log.entries)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as out:
                _write_log(out, log.entries)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return ExitStatus.USAGE
    if args.stats:
        sys.stderr.write(serialize_stats(compute_stats(log.entries)))
    return ExitStatus.OK


def cmd_stats(args: argparse.Namespace) -> int:
    text = _read(args.log)
    try:
        stats = compute_stats(iter_log(text))
    except MalformedLogError as exc:
        print(f"malformed log: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    sys.stdout.write(serialize_stats(stats))
    return ExitStatus.OK


def _time_us(text: str) -> int:
    """argparse type for a virtual time: a non-negative integer of microseconds."""
    try:
        value = int(text)
    except ValueError:
        pass
    else:
        if value >= 0:
            return value
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


@functools.cache  # one parser per process: a parser sits in reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robosync", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a configuration file")
    p.add_argument("-c", "--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("parse", help="parse a behavior program")
    p.add_argument("-b", "--behavior", required=True)
    p.add_argument("--dump-ast", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("run", help="replay a trace and write the execution log")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-b", "--behavior", required=True)
    p.add_argument("-t", "--trace", required=True)
    p.add_argument("-o", "--output", default="-", help="log path, '-' for stdout")
    p.add_argument("--stats", action="store_true", help="print run statistics to stderr")
    p.add_argument("--until", type=_time_us, default=None, metavar="T_US", help="truncate the trace horizon")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="summarize an execution log")
    p.add_argument("log")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except _Unreadable as exc:
        return int(exc.args[0])


if __name__ == "__main__":
    sys.exit(main())

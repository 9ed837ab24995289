"""Command-line entry point: validate configs, inspect DSL parses, run
simulations, and summarize execution logs.

Exit codes: 0 success, 1 domain failure (validation/parse/bind/trace/log
errors, or an input file that is not UTF-8), 2 usage or I/O error (a
closed stdout pipe among them: the output stops early).
Machine-readable output (logs, stats) goes to stdout; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import functools
import io
import os
import re
import shutil
import sys
from typing import BinaryIO, Iterator, TextIO

from . import engine as engine_mod
from .bus import BusError
from .config import ConfigError, parse_config
from .dsl import BindErrors, ParseError, bind_program, format_program, parse_program
# parse_log, serialize_log and compute_stats stay names of this module though
# nothing here calls them (the writer renders through each entry's log site,
# and `stats` counts through `StatsAccumulator.read`): the benchmark's tracer,
# bench/tracing.py, looks up each function it wraps in this module's
# namespace, and a missing one fails it
from .engine import (
    LogWriter,
    MalformedLogError,
    RunLimitError,
    StatsAccumulator,
    TraceError,
    compute_stats,
    load_trace,
    parse_log,
    serialize_log,
    serialize_stats,
)
from .sensorproc import NonFiniteOutputError


# the buffer of an `-o` path's binary output: the log is written in
# batches, and a bigger buffer than the default 8 KiB halves the time the
# writes to the file take (about 5 ms of an 11 MB log)
OUTPUT_BUFFER = 1 << 16

# a byte that is not UTF-8, as `errors="surrogateescape"` decodes it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


class ExitStatus(enum.IntEnum):
    OK = 0
    FAILURE = 1
    USAGE = 2


class _Unreadable(Exception):
    """An input file could not be read; its diagnostic is printed and its
    exit status is the one argument."""


def _read_chunks(path: str) -> Iterator[str]:
    """The text of the file at `path`, `engine.CHUNK_CHARS` characters at a
    time, with universal newlines.  Each chunk is checked before it is handed
    on, so the first byte that is not UTF-8 is refused with its line.  Only
    then are the lines before it counted: a file that can be read again is
    read again up to the chunk that holds it, and one that cannot (a pipe)
    has its `\n`s counted as it is read."""
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as file:
            size, again = engine_mod.CHUNK_CHARS, file.seekable()
            chunks = lines = 0  # the chunks handed on, and the `\n`s in them if the file is read once
            for chunk in iter(functools.partial(file.read, size), ""):
                bad = None if chunk.isascii() else _NOT_UTF8.search(chunk)
                if bad:
                    if again:
                        file.seek(0)
                        lines = sum(file.read(size).count("\n") for _ in range(chunks))
                    # "\r\n" and a lone "\r" end a line too: both read as "\n"
                    line = lines + chunk.count("\n", 0, bad.start()) + 1
                    print(f"error: {path}: line {line}: invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}", file=sys.stderr)
                    raise _Unreadable(ExitStatus.FAILURE)
                chunks += 1
                if not again:
                    lines += chunk.count("\n")
                yield chunk
    except OSError as exc:
        print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
        raise _Unreadable(ExitStatus.USAGE) from None


def _read(path: str) -> str:
    return "".join(_read_chunks(path))


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


class _Tee:
    """A run's sink that hands each batch, and each block, to every one of
    its sinks in turn."""

    __slots__ = ("sinks",)

    def __init__(self, *sinks: engine_mod.LogSink) -> None:
        self.sinks = sinks

    def batch(self, batch) -> None:
        for sink in self.sinks:
            sink.batch(batch)

    def block(self, *block) -> None:
        for sink in self.sinks:
            sink.block(*block)


class _TextOnly:
    """A text-only stdout (an `io.StringIO`, say) as a binary output: each
    write's bytes, which the log writes as ASCII, go to it as text."""

    __slots__ = ("text",)

    def __init__(self, text: TextIO) -> None:
        self.text = text

    def write(self, data: bytes) -> int:
        return self.text.write(data.decode("ascii"))


def _binary_stdout() -> BinaryIO:
    """Stdout's binary layer, once its text layer is flushed so that what
    was printed before comes first; a stdout with none gets the log as text."""
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    if binary is None:
        return _TextOnly(stdout)
    stdout.flush()
    return binary


@contextlib.contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """The `-o` target, a binary output.  A file is written under a
    temporary name beside it and renamed onto it when the block ends, so a
    run that fails leaves the path as it was.  Stdout, and a path that exists
    but is no regular file (/dev/null, a named pipe), is written in place and
    keeps what it got."""
    if path == "-":
        yield _binary_stdout()
        return
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb", buffering=OUTPUT_BUFFER) as out:
            yield out
        return
    target = os.path.realpath(path)  # a symlink keeps pointing at the log
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    out = open(temp, "xb", buffering=OUTPUT_BUFFER)  # a new file's mode, as `open(path, "w")` gives it
    try:
        with out:
            if os.path.exists(target):
                shutil.copymode(target, temp)
            yield out
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise


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

    stats = StatsAccumulator() if args.stats else None
    try:
        with _output(args.output) as out:
            writer = LogWriter(out)
            sink = writer if stats is None else _Tee(writer, stats)
            engine_mod.run(config, program, trace, horizon_us=args.until, sink=sink)
    except BusError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    except (NonFiniteOutputError, RunLimitError) as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    except OSError as exc:
        if args.output == "-":
            raise  # stdout's reader is gone: `main` says so
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return ExitStatus.USAGE
    if stats is not None:
        sys.stderr.write(serialize_stats(stats.result()))
    return ExitStatus.OK


def cmd_stats(args: argparse.Namespace) -> int:
    chunks = _read_chunks(args.log)
    stats = StatsAccumulator()
    try:
        stats.read(chunks)
        document = stats.result()
    except MalformedLogError as exc:
        # a byte that is not UTF-8 later in the file outranks a malformed line
        for _chunk in chunks:
            pass
        print(f"malformed log: {exc}", file=sys.stderr)
        return ExitStatus.FAILURE
    sys.stdout.write(serialize_stats(document))
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


def _buffered_stdout():
    """Under `python -u` or PYTHONUNBUFFERED, stdout is a raw file whose short writes (to a pipe whose
    reader has gone) are dropped silently: then a buffered writer on it, whose writes complete or raise."""
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        return open(stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False)
    return contextlib.nullcontext(stdout)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _buffered_stdout() as stdout, contextlib.redirect_stdout(stdout):
            status = int(args.func(args))
            stdout.flush()  # a closed pipe fails here, not when Python exits
        return status
    except _Unreadable as exc:
        return int(exc.args[0])
    except BrokenPipeError as exc:
        # stdout's reader is gone, so the output stopped early; what is still
        # buffered goes to /dev/null, or flushing it at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write -: {exc.strerror}", file=sys.stderr)
        return ExitStatus.USAGE


if __name__ == "__main__":
    sys.exit(main())

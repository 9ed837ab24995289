"""Behavior definition language: lexer, recursive-descent parser, canonical
formatter, condition evaluator, and the binder that resolves a parsed program
against a system configuration.

Tokens, tried in this order at each position of a line (`_TOKEN_RE`): blanks
and a '#' comment to the end of the line, skipped; STRING ("..." within the
line); OP; LPAREN; RPAREN; WORD ([A-Z][A-Z_]*, which must be a keyword);
IDENT ([a-z][a-z0-9_]*); NUMBER (ASCII digits, with optional sign and
exponent).  Lines are split as `str.splitlines` splits them, so a form
feed or U+2028 ends a line as a line feed does.  EOF sits one past the
last character: right after a last line that has no break, else at column
1 of the line after the last break.  Grammar, where NL is the end of a line
that has tokens and `sound`, `ms`, `us` are IDENTs:

    Program     := (Rule | Definition)*
    Rule        := WHEN Cond NL DO IDENT NL (ELSE NL DO IDENT NL)? END
    Cond        := AndExpr (OR AndExpr)*
    AndExpr     := Unary (AND Unary)*
    Unary       := NOT Unary | LPAREN Cond RPAREN | Comparison
    Comparison  := IDENT [LEVEL] OP NUMBER
    Definition  := DEFINE IDENT NL Statement* END
    Statement   := MOVE IDENT (SLOWLY | QUICKLY | NUMBER)
                 | PLAY sound STRING
                 | SET IDENT NUMBER
                 | WAIT NUMBER (ms | us)

The LEVEL keyword is decorative: `touch LEVEL < 3` reads the same processed
value as `touch < 3`; the sugar is recorded so formatting round-trips.
Number literals must be finite as floats.  A condition may nest at most
MAX_NESTING_DEPTH levels deep, where each NOT, each parenthesis and each
AND/OR link counts one level: `a AND b AND c` parses to the left-deep
`And(And(a, b), c)`, two levels.  A WAIT's NUMBER is a positive integer, and
the WAIT may last at most MAX_WAIT_US.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Union

from .config import SystemConfig, fill_priorities, processing_stages

# Normalized actuator speeds for the DSL adverbs.
SPEED_WORDS: dict[str, float] = {"slowly": 0.25, "quickly": 1.0}

# Far beyond any hand-written rule, and shallow enough that parsing,
# formatting and evaluating the condition stay within Python's recursion limit.
MAX_NESTING_DEPTH = 100

# Every window boundary up to a deferred command is ticked in virtual time, so
# an unbounded WAIT would stall the run; a minute is far beyond any gesture.
MAX_WAIT_US = 60_000_000

_KEYWORDS = frozenset(
    "WHEN DO ELSE END DEFINE MOVE PLAY SET WAIT LEVEL AND OR NOT SLOWLY QUICKLY".split()
)
_COMPARISON_OPS = ("<=", ">=", "==", "!=", "<", ">")  # longest first, as `_TOKEN_RE` tries them


@dataclass(frozen=True, slots=True)
class SourceSpan:
    line: int
    column: int
    length: int = 1


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str] = frozenset()):
        super().__init__(f"{span.line}:{span.column}: {message}")
        self.message = message
        self.span = span
        self.expected = expected


class MissingSignalError(Exception):
    def __init__(self, signal: str):
        super().__init__(f"no value for signal {signal!r}")
        self.signal = signal


@dataclass(frozen=True, slots=True)
class BindError:
    message: str
    span: SourceSpan | None = None


class BindErrors(Exception):
    def __init__(self, errors: list[BindError]):
        super().__init__("; ".join(e.message for e in errors))
        self.errors = tuple(errors)


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Comparison:
    signal: str
    op: str
    value: float
    level: bool = False
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class And:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Or:
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class Not:
    inner: "Condition"


Condition = Union[Comparison, And, Or, Not]


@dataclass(frozen=True)
class Move:
    actuator: str
    speed: float | str  # a real in [0, 1] or one of the adverbs ("slowly"/"quickly")
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Play:
    resource: str
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Set:
    actuator: str
    value: float
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Wait:
    duration_us: int
    span: SourceSpan | None = field(default=None, compare=False)


Statement = Union[Move, Play, Set, Wait]


@dataclass(frozen=True)
class Definition:
    name: str
    body: tuple[Statement, ...]
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Rule:
    condition: Condition
    then_behavior: str
    else_behavior: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)
    then_span: SourceSpan | None = field(default=None, compare=False)
    else_span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BehaviorProgram:
    rules: tuple[Rule, ...] = ()
    definitions: dict[str, Definition] = field(default_factory=dict)


@dataclass(frozen=True)
class BoundProgram:
    """A program with every name resolved against a configuration."""

    program: BehaviorProgram
    signal_topics: dict[str, str]  # condition signal -> processing-layer topic
    priorities: dict[str, float]  # definition name -> scheduling priority
    # definition name -> its commands as `(offset_us, command)` pairs, in
    # definition order; every firing shares the command dicts: read-only
    plans: dict[str, tuple[tuple[int, dict], ...]]


# ---------------------------------------------------------------------------
# lexer


# one match per token, groups tried in order; `bad` takes any character the
# others refuse, so the matches of a line cover every character of it
_TOKEN_RE = re.compile(
    r'(?P<skip>[ \t\r]+|#.*)'
    r'|"(?P<STRING>[^"]*)"'
    rf"|(?P<OP>{'|'.join(_COMPARISON_OPS)})"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))"
    r"|(?P<WORD>[A-Z][A-Z_]*)"
    r"|(?P<IDENT>[a-z][a-z0-9_]*)"
    r"|(?P<NUMBER>[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
    r"|(?P<bad>.)"
)


# not frozen: one is built per token, and a frozen dataclass takes about 3x as long to build
@dataclass(slots=True)
class _Token:
    kind: str  # keyword text, or one of IDENT NUMBER STRING OP LPAREN RPAREN NEWLINE EOF
    text: str
    value: object
    span: SourceSpan


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        start_count = len(tokens)
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            if kind == "skip":
                continue
            lexeme = m.group(kind)
            start = m.start()
            span = SourceSpan(line_no, start + 1, m.end() - start)
            if kind == "WORD":
                if lexeme not in _KEYWORDS:
                    raise ParseError(f"unknown keyword {lexeme!r}", span)
                tokens.append(_Token(lexeme, lexeme, None, span))
            elif kind == "NUMBER":
                value = float(lexeme)
                if not math.isfinite(value):
                    raise ParseError(f"number {lexeme} is out of range", span)
                tokens.append(_Token(kind, lexeme, value, span))
            elif kind == "bad":
                raise ParseError("unterminated string" if lexeme == '"' else f"unexpected character {lexeme!r}", span)
            else:
                tokens.append(_Token(kind, lexeme, None if kind in ("LPAREN", "RPAREN") else lexeme, span))
        if len(tokens) > start_count:
            tokens.append(_Token("NEWLINE", "\n", None, SourceSpan(line_no, len(line) + 1)))
    # EOF sits one past the last character: "." lands after a last line that has
    # no break, or on a line of its own after the last break, breaks counted as
    # `splitlines` counts them
    lines = (text + ".").splitlines()
    tokens.append(_Token("EOF", "", None, SourceSpan(len(lines), len(lines[-1]))))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0  # NOT / '(' / AND / OR levels above the current operand

    @property
    def tok(self) -> _Token:
        return self._tokens[self._pos]

    def at(self, kind: str) -> bool:
        return self.tok.kind == kind

    def advance(self) -> _Token:
        tok = self.tok
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def error(self, expected: set[str]) -> ParseError:
        tok = self.tok
        found = tok.kind if tok.kind != "IDENT" else f"identifier {tok.text!r}"
        wanted = ", ".join(sorted(expected))
        return ParseError(f"expected {wanted}, found {found}", tok.span, frozenset(expected))

    def expect(self, kind: str) -> _Token:
        if self.at(kind):
            return self.advance()
        raise self.error({kind})

    def expect_end_of_line(self) -> None:
        if self.at("EOF"):
            return
        self.expect("NEWLINE")

    def skip_newlines(self) -> None:
        while self.at("NEWLINE"):
            self.advance()

    # -- grammar productions

    def program(self) -> BehaviorProgram:
        rules: list[Rule] = []
        definitions: dict[str, Definition] = {}
        self.skip_newlines()
        while not self.at("EOF"):
            if self.at("WHEN"):
                rules.append(self.rule())
            elif self.at("DEFINE"):
                definition = self.definition()
                if definition.name in definitions:
                    raise ParseError(
                        f"duplicate DEFINE {definition.name!r}",
                        definition.span or self.tok.span,
                    )
                definitions[definition.name] = definition
            else:
                raise self.error({"WHEN", "DEFINE"})
            self.skip_newlines()
        return BehaviorProgram(tuple(rules), definitions)

    def rule(self) -> Rule:
        start = self.expect("WHEN")
        condition, _height = self.condition()
        self.expect("NEWLINE")
        self.expect("DO")
        then_tok = self.expect("IDENT")
        self.expect_end_of_line()
        self.skip_newlines()
        else_name = None
        else_span = None
        if self.at("ELSE"):
            self.advance()
            self.expect("NEWLINE")
            self.skip_newlines()
            self.expect("DO")
            else_tok = self.expect("IDENT")
            else_name = else_tok.text
            else_span = else_tok.span
            self.expect_end_of_line()
            self.skip_newlines()
        self.expect("END")
        self.expect_end_of_line()
        return Rule(
            condition=condition,
            then_behavior=then_tok.text,
            else_behavior=else_name,
            span=start.span,
            then_span=then_tok.span,
            else_span=else_span,
        )

    def condition(self) -> tuple[Condition, int]:
        return self._chain("OR", Or, self.and_expr)

    def and_expr(self) -> tuple[Condition, int]:
        return self._chain("AND", And, self.unary)

    def _chain(self, word: str, node, operand) -> tuple[Condition, int]:
        """`operand (word operand)*`, built left-deep; like every condition
        production it returns the tree and its height in nesting levels, and
        `_depth` plus a height never exceeds MAX_NESTING_DEPTH.  Each link puts
        the chain so far one level deeper, so it spends one level."""
        left, height = operand()
        while self.at(word):
            if self._depth + height >= MAX_NESTING_DEPTH:
                raise self.too_deep()
            self.advance()
            self._depth += 1
            right, right_height = operand()
            self._depth -= 1
            left, height = node(left, right), max(height, right_height) + 1
        return left, height

    def unary(self) -> tuple[Condition, int]:
        if not (self.at("NOT") or self.at("LPAREN")):
            return self.comparison(), 0
        if self._depth >= MAX_NESTING_DEPTH:
            raise self.too_deep()
        self._depth += 1
        if self.advance().kind == "NOT":
            inner, height = self.unary()
            node: Condition = Not(inner)
        else:
            node, height = self.condition()
            self.expect("RPAREN")
        self._depth -= 1
        return node, height + 1

    def too_deep(self) -> ParseError:
        return ParseError(f"condition nested deeper than {MAX_NESTING_DEPTH} levels", self.tok.span)

    def comparison(self) -> Comparison:
        if not self.at("IDENT"):
            raise self.error({"IDENT", "NOT", "LPAREN"})
        signal = self.advance()
        level = False
        if self.at("LEVEL"):
            self.advance()
            level = True
        if not self.at("OP"):
            raise self.error(set(_COMPARISON_OPS))
        op = self.advance()
        number = self.expect("NUMBER")
        return Comparison(signal.text, op.text, float(number.value), level, span=signal.span)  # type: ignore[arg-type]

    def definition(self) -> Definition:
        start = self.expect("DEFINE")
        name = self.expect("IDENT")
        self.expect("NEWLINE")
        body: list[Statement] = []
        self.skip_newlines()
        while not self.at("END"):
            body.append(self.statement())
            self.skip_newlines()
        self.expect("END")
        self.expect_end_of_line()
        return Definition(name.text, tuple(body), span=start.span)

    def statement(self) -> Statement:
        if self.at("MOVE"):
            self.advance()
            actuator = self.expect("IDENT")
            if self.at("SLOWLY") or self.at("QUICKLY"):
                word = self.advance()
                speed: float | str = word.kind.lower()
            elif self.at("NUMBER"):
                number = self.advance()
                speed = float(number.value)  # type: ignore[arg-type]
                if not (0.0 <= speed <= 1.0):
                    raise ParseError("MOVE speed must be within [0, 1]", number.span)
            else:
                raise self.error({"SLOWLY", "QUICKLY", "NUMBER"})
            self.expect_end_of_line()
            return Move(actuator.text, speed, span=actuator.span)
        if self.at("PLAY"):
            self.advance()
            kind_tok = self.tok
            if not (self.at("IDENT") and kind_tok.text == "sound"):
                raise self.error({"sound"})
            self.advance()
            resource = self.expect("STRING")
            self.expect_end_of_line()
            return Play(str(resource.value), span=resource.span)
        if self.at("SET"):
            self.advance()
            actuator = self.expect("IDENT")
            number = self.expect("NUMBER")
            self.expect_end_of_line()
            return Set(actuator.text, float(number.value), span=actuator.span)  # type: ignore[arg-type]
        if self.at("WAIT"):
            self.advance()
            number = self.expect("NUMBER")
            amount = float(number.value)  # type: ignore[arg-type]
            if amount != int(amount) or amount < 1:
                raise ParseError("WAIT duration must be a positive integer", number.span)
            unit_tok = self.tok
            if not (self.at("IDENT") and unit_tok.text in ("ms", "us")):
                raise self.error({"ms", "us"})
            self.advance()
            duration = amount * (1000 if unit_tok.text == "ms" else 1)
            if duration > MAX_WAIT_US:
                raise ParseError(f"WAIT duration must be at most {MAX_WAIT_US} us", number.span)
            duration_us = int(duration)
            self.expect_end_of_line()
            return Wait(duration_us, span=number.span)
        raise self.error({"MOVE", "PLAY", "SET", "WAIT", "END"})


def parse_program(text: str) -> BehaviorProgram:
    """Parse DSL source into a program; raises ParseError with a source span."""
    return _Parser(_lex(text)).program()


# ---------------------------------------------------------------------------
# canonical formatter

_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _format_condition(cond: Condition, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(cond, Comparison):
        level = " LEVEL" if cond.level else ""
        return f"{cond.signal}{level} {cond.op} {_format_number(cond.value)}"
    if isinstance(cond, Not):
        inner = _format_condition(cond.inner, _PREC_NOT)
        return f"NOT {inner}"
    if isinstance(cond, And):
        prec, word = _PREC_AND, "AND"
    else:
        prec, word = _PREC_OR, "OR"
    text = (
        f"{_format_condition(cond.left, prec)} {word} "
        f"{_format_condition(cond.right, prec, right_side=True)}"
    )
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def _format_statement(stmt: Statement) -> str:
    if isinstance(stmt, Move):
        if isinstance(stmt.speed, str):
            speed = stmt.speed.upper()
        else:
            speed = _format_number(stmt.speed)
        return f"MOVE {stmt.actuator} {speed}"
    if isinstance(stmt, Play):
        return f'PLAY sound "{stmt.resource}"'
    if isinstance(stmt, Set):
        return f"SET {stmt.actuator} {_format_number(stmt.value)}"
    if stmt.duration_us % 1000 == 0:
        return f"WAIT {stmt.duration_us // 1000} ms"
    return f"WAIT {stmt.duration_us} us"


def format_program(program: BehaviorProgram) -> str:
    """Pretty-print a program canonically; re-parsing reproduces the AST."""
    blocks: list[str] = []
    for rule in program.rules:
        lines = [f"WHEN {_format_condition(rule.condition)}", f"DO {rule.then_behavior}"]
        if rule.else_behavior is not None:
            lines.append("ELSE")
            lines.append(f"DO {rule.else_behavior}")
        lines.append("END")
        blocks.append("\n".join(lines))
    for definition in program.definitions.values():
        lines = [f"DEFINE {definition.name}"]
        for stmt in definition.body:
            lines.append(f"    {_format_statement(stmt)}")
        lines.append("END")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# evaluation

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def eval_condition(cond: Condition, snapshot: Mapping[str, float]) -> bool:
    """Evaluate a condition against the latest signal values."""
    match cond:
        case Comparison(signal=signal, op=op, value=value):
            if signal not in snapshot:
                raise MissingSignalError(signal)
            return _OPS[op](snapshot[signal], value)
        case And(left=left, right=right):
            return eval_condition(left, snapshot) and eval_condition(right, snapshot)
        case Or(left=left, right=right):
            return eval_condition(left, snapshot) or eval_condition(right, snapshot)
        case Not(inner=inner):
            return not eval_condition(inner, snapshot)
    raise TypeError(f"not a condition: {cond!r}")


def condition_signals(cond: Condition) -> list[tuple[str, SourceSpan | None]]:
    """The signals a condition references, in first-appearance order."""
    first: dict[str, SourceSpan | None] = {}  # signal -> span of its first comparison
    stack = [cond]  # left operands are popped first
    while stack:
        match stack.pop():
            case Comparison(signal=signal, span=span):
                first.setdefault(signal, span)
            case And(left=left, right=right) | Or(left=left, right=right):
                stack += (right, left)
            case Not(inner=inner):
                stack.append(inner)
    return list(first.items())


# ---------------------------------------------------------------------------
# binding


def bind_program(program: BehaviorProgram, config: SystemConfig) -> BoundProgram:
    """Resolve signals, behaviors, and actuators against a validated config.

    Signals bind to the output topic of the first processing stage reading
    that sensor (an algorithm, or the sensor's passthrough stage when none
    does), or directly to an algorithm output named verbatim.  Definitions
    take the priority of the config behavior with the same name when one
    exists; the rest draw from the default pool over the definition listing.
    Each definition becomes its plan: a MOVE, SET or PLAY is a command, speed
    word resolved and value clamped to the actuator's bounds, at the sum of
    the WAITs before it.  All failures are collected and raised together as
    BindErrors.
    """
    errors: list[BindError] = []

    topic_of: dict[str, str] = {}  # a signal's name -> the topic it reads
    for stage in processing_stages(config):
        for sensor in stage.inputs:
            topic_of.setdefault(sensor, stage.output)
    for alg in config.algorithms:
        topic_of.setdefault(alg.output, alg.output)

    signal_topics: dict[str, str] = {}
    for rule in program.rules:
        for signal, span in condition_signals(rule.condition):
            if signal in topic_of:
                signal_topics[signal] = topic_of[signal]
            else:
                errors.append(BindError(f"{signal}: unknown signal", span))
        for target, span in ((rule.then_behavior, rule.then_span), (rule.else_behavior, rule.else_span)):
            if target is not None and target not in program.definitions:
                errors.append(BindError(f"{target}: no DEFINE block for DO target", span))

    behavior_specs = {b.name: b for b in config.behaviors}
    definition_names = list(program.definitions)
    declared: list[float | None] = []
    for name in definition_names:
        spec = behavior_specs.get(name)
        declared.append(spec.priority if spec is not None else None)
    priorities = dict(zip(definition_names, fill_priorities(declared)))

    actuator_specs = {a.name: a for a in config.actuators}
    audio = [a.name for a in config.actuators if a.kind == "audio"]
    plans: dict[str, tuple[tuple[int, dict], ...]] = {}
    for name, definition in program.definitions.items():
        plan: list[tuple[int, dict]] = []
        offset_us = 0  # each WAIT shifts the commands after it
        for stmt in definition.body:
            match stmt:
                case Wait(duration_us=duration_us):
                    offset_us += duration_us
                    continue
                case Play(resource=resource):
                    if len(audio) != 1:
                        errors.append(BindError(f"PLAY requires exactly one audio actuator, found {len(audio)}", stmt.span))
                        continue
                    command = {"action": "play", "actuator": audio[0], "resource": resource}
                case Move(actuator=actuator, speed=value) | Set(actuator=actuator, value=value):
                    actuator_spec = actuator_specs.get(actuator)
                    if actuator_spec is None:
                        errors.append(BindError(f"{actuator}: unknown actuator", stmt.span))
                        continue
                    if isinstance(value, str):
                        value = SPEED_WORDS[value]
                    action = "move" if isinstance(stmt, Move) else "set"
                    command = {"action": action, "actuator": actuator, "value": actuator_spec.clamp(value)}
            plan.append((offset_us, command))
        plans[name] = tuple(plan)

    if errors:
        raise BindErrors(errors)
    return BoundProgram(program=program, signal_topics=signal_topics, priorities=priorities, plans=plans)

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from robosync import dsl
from robosync.config import parse_config

from conftest import _gen_condition, generate_program


def test_reference_program_parses(behavior_text):
    program = dsl.parse_program(behavior_text)
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.condition == dsl.Comparison("touch", "<", 3.0, level=True)
    assert rule.then_behavior == "gentle_response"
    assert rule.else_behavior == "aggressive_response"
    assert set(program.definitions) == {"gentle_response", "aggressive_response"}
    gentle = program.definitions["gentle_response"]
    assert gentle.body == (dsl.Move("arms", "slowly"), dsl.Play("greeting.wav"))
    aggressive = program.definitions["aggressive_response"]
    assert aggressive.body == (dsl.Move("arms", "quickly"), dsl.Play("warning.wav"))


def test_empty_document():
    program = dsl.parse_program("")
    assert program.rules == ()
    assert program.definitions == {}


def test_comments_and_blank_lines():
    program = dsl.parse_program("# a comment\n\nDEFINE nop\n# empty body\nEND\n")
    assert list(program.definitions) == ["nop"]
    assert program.definitions["nop"].body == ()


def test_unclosed_define_reports_expected_end():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program("DEFINE x\nMOVE arms SLOWLY\n")
    assert "END" in exc.value.expected


def test_duplicate_define_rejected():
    with pytest.raises(dsl.ParseError, match="duplicate DEFINE"):
        dsl.parse_program("DEFINE x\nEND\nDEFINE x\nEND\n")


def test_parse_error_carries_span():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program("WHEN touch ? 3\nDO x\nEND\n")
    assert exc.value.span.line == 1
    assert exc.value.span.column == 12


def test_lone_comparison_at_end_of_line_spans_one_character():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program("WHEN a > >\n")
    assert exc.value.span == dsl.SourceSpan(1, 10, 1)


@pytest.mark.parametrize(
    ("number", "column"),
    [("\u0663", 10), ("\uff13", 10), ("1.\u0663", 12), ("1e\u0663", 12)],
    ids=["arabic_indic", "fullwidth", "fraction", "exponent"],
)
def test_number_digits_are_ascii_only(number, column):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program(f"WHEN a > {number}\nDO x\nEND\n")
    assert str(exc.value) == f"1:{column}: unexpected character {number[-1]!r}"


# every line break `str.splitlines` knows, the ones the lexer numbers lines by
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("br", _LINE_BREAKS, ids=[repr(br) for br in _LINE_BREAKS])
def test_eof_line_counts_breaks_as_the_tokens_do(br):
    assert f"a{br}b".splitlines() == ["a", "b"]
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program(f"WHEN a > 1{br}DO x{br}")
    assert str(exc.value) == "3:1: expected END, found EOF"
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program(f"WHEN a > 1{br}DO x")
    assert str(exc.value) == "2:5: expected END, found EOF"
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program(f"WHEN a > 1{br}DO x{br}END{br}{br}BOGUS{br}")
    assert str(exc.value) == "5:1: unknown keyword 'BOGUS'"


def test_unknown_keyword_rejected():
    with pytest.raises(dsl.ParseError, match="unknown keyword 'JUMP'"):
        dsl.parse_program("JUMP\n")


def test_precedence_and_binds_tighter_than_or():
    program = dsl.parse_program("WHEN a < 1 OR b > 2 AND c == 3\nDO x\nEND\n")
    cond = program.rules[0].condition
    assert cond == dsl.Or(
        dsl.Comparison("a", "<", 1.0),
        dsl.And(dsl.Comparison("b", ">", 2.0), dsl.Comparison("c", "==", 3.0)),
    )


def test_parentheses_override_precedence():
    program = dsl.parse_program("WHEN (a < 1 OR b > 2) AND NOT c != 3\nDO x\nEND\n")
    cond = program.rules[0].condition
    assert cond == dsl.And(
        dsl.Or(dsl.Comparison("a", "<", 1.0), dsl.Comparison("b", ">", 2.0)),
        dsl.Not(dsl.Comparison("c", "!=", 3.0)),
    )


def test_level_keyword_is_recorded_sugar():
    sugared = dsl.parse_program("WHEN touch LEVEL < 3\nDO x\nEND\n").rules[0].condition
    bare = dsl.parse_program("WHEN touch < 3\nDO x\nEND\n").rules[0].condition
    assert sugared != bare  # the sugar round-trips
    assert sugared.signal == bare.signal
    snapshot = {"touch": 2.0}
    assert dsl.eval_condition(sugared, snapshot) == dsl.eval_condition(bare, snapshot)


def test_statements_parse():
    text = "DEFINE d\nMOVE arms 0.5\nSET grip 3.25\nWAIT 100 ms\nWAIT 250 us\nEND\n"
    body = dsl.parse_program(text).definitions["d"].body
    assert body == (
        dsl.Move("arms", 0.5),
        dsl.Set("grip", 3.25),
        dsl.Wait(100_000),
        dsl.Wait(250),
    )


def test_move_speed_range_checked():
    with pytest.raises(dsl.ParseError, match="within"):
        dsl.parse_program("DEFINE d\nMOVE arms 1.5\nEND\n")


def test_wait_requires_positive_integer():
    with pytest.raises(dsl.ParseError, match="positive integer"):
        dsl.parse_program("DEFINE d\nWAIT 0 ms\nEND\n")
    with pytest.raises(dsl.ParseError, match="positive integer"):
        dsl.parse_program("DEFINE d\nWAIT 1.5 ms\nEND\n")


@pytest.mark.parametrize(
    "amount", [f"{dsl.MAX_WAIT_US // 1000} ms", f"{dsl.MAX_WAIT_US} us"], ids=["ms", "us"]
)
def test_wait_bound_parses_and_roundtrips(amount):
    program = dsl.parse_program(f"DEFINE d\nWAIT {amount}\nEND\n")
    assert program.definitions["d"].body == (dsl.Wait(dsl.MAX_WAIT_US),)
    assert dsl.parse_program(dsl.format_program(program)) == program


@pytest.mark.parametrize("literal, unit", [(str(dsl.MAX_WAIT_US + 1), "us"), ("99999999999999999999", "ms")])
def test_wait_past_bound_rejected(literal, unit):
    with pytest.raises(dsl.ParseError, match="WAIT duration must be at most") as exc:
        dsl.parse_program(f"DEFINE d\nWAIT {literal} {unit}\nEND\n")
    assert exc.value.span == dsl.SourceSpan(2, 6, len(literal))


def test_play_requires_sound_marker():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_program('DEFINE d\nPLAY tune "x.wav"\nEND\n')
    assert "sound" in exc.value.expected


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_non_finite_literal_rejected(literal):
    with pytest.raises(dsl.ParseError, match="out of range") as exc:
        dsl.parse_program(f"WHEN touch LEVEL < {literal}\nDO x\nEND\n")
    assert exc.value.span == dsl.SourceSpan(1, 20, len(literal))


@given(mantissa=st.integers(-999, 999), exponent=st.integers(-400, 400))
def test_number_literal_roundtrips_or_raises_parse_error(mantissa, exponent):
    literal = f"{mantissa}e{exponent}"
    try:
        program = dsl.parse_program(f"WHEN a < {literal}\nDO x\nEND\n")
    except dsl.ParseError:
        assert not math.isfinite(float(literal))
        return
    assert dsl.parse_program(dsl.format_program(program)) == program


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("NOT ", "")], ids=["parens", "not"])
def test_nesting_depth_limit(opener, closer):
    def rule(depth):
        return f"WHEN {opener * depth}a < 1{closer * depth}\nDO x\nEND\n"

    at_limit = dsl.parse_program(rule(dsl.MAX_NESTING_DEPTH))
    assert dsl.parse_program(dsl.format_program(at_limit)) == at_limit
    for depth in (dsl.MAX_NESTING_DEPTH + 1, 3000):
        with pytest.raises(dsl.ParseError, match="nested deeper") as exc:
            dsl.parse_program(rule(depth))
        assert exc.value.span == dsl.SourceSpan(1, 6 + len(opener) * dsl.MAX_NESTING_DEPTH, len(opener.strip()))


def _chain_rule(word, links, depth=0):
    """A rule whose condition is `links` WORD links inside `depth` parentheses."""
    terms = f" {word} ".join(f"touch < {i + 1}" for i in range(links + 1))
    return f"WHEN {'(' * depth}{terms}{')' * depth}\nDO gentle_response\nEND\n"


def _operator_span(text, word, n):
    """Span of the n-th (1-based) WORD operator on the rule's first line."""
    column = -1
    for _ in range(n):
        column = text.index(f" {word} ", column + 1)
    return dsl.SourceSpan(1, column + 2, len(word))


@pytest.mark.parametrize("word", ["AND", "OR"])
def test_chain_links_count_against_nesting_limit(word, touch_config_text):
    limit = dsl.MAX_NESTING_DEPTH
    program = dsl.parse_program(_chain_rule(word, limit) + "DEFINE gentle_response\nMOVE arms SLOWLY\nEND\n")
    assert dsl.parse_program(dsl.format_program(program)) == program
    bound = dsl.bind_program(program, parse_config(touch_config_text))
    condition = bound.program.rules[0].condition
    bounds = [i + 1 for i in range(limit + 1)]
    combine = all if word == "AND" else any
    for value in (0.0, 50.0, float(limit), float(limit + 1)):
        expected = combine(value < b for b in bounds)
        assert dsl.eval_condition(condition, {"touch": value}) is expected

    for links in (limit + 1, 4999):
        text = _chain_rule(word, links)
        with pytest.raises(dsl.ParseError, match="nested deeper") as exc:
            dsl.parse_program(text)
        assert exc.value.span == _operator_span(text, word, limit + 1)


def test_chain_links_share_the_budget_with_parentheses():
    depth = 40
    links = dsl.MAX_NESTING_DEPTH - depth
    dsl.parse_program(_chain_rule("AND", links, depth))
    text = _chain_rule("AND", links + 1, depth)
    with pytest.raises(dsl.ParseError, match="nested deeper") as exc:
        dsl.parse_program(text)
    assert exc.value.span == _operator_span(text, "AND", links + 1)

    # a parenthesised 60-link chain on the left (61 levels) sits below every
    # later link, so the 40th link after it is the 101st level
    group = _chain_rule("AND", 60, 1).splitlines()[0].removeprefix("WHEN ")
    text = f"WHEN {group}" + " AND touch < 1" * 45 + "\nDO gentle_response\nEND\n"
    with pytest.raises(dsl.ParseError, match="nested deeper") as exc:
        dsl.parse_program(text)
    assert exc.value.span == _operator_span(text, "AND", 60 + 40)


# ---------------------------------------------------------------------------
# formatting


def test_format_empty_program():
    assert dsl.format_program(dsl.BehaviorProgram()) == ""


def test_format_reference_program_roundtrips(behavior_text):
    program = dsl.parse_program(behavior_text)
    formatted = dsl.format_program(program)
    assert dsl.parse_program(formatted) == program
    assert "    MOVE arms SLOWLY" in formatted  # 4-space indent inside DEFINE


def test_format_preserves_nesting():
    program = dsl.parse_program("WHEN NOT (a < 1 OR b > 2) AND c == 3\nDO x\nEND\n")
    assert dsl.parse_program(dsl.format_program(program)) == program


def test_format_right_nested_connectives():
    cond = dsl.Or(dsl.Comparison("a", "<", 1.0), dsl.Or(dsl.Comparison("b", "<", 2.0), dsl.Comparison("c", "<", 3.0)))
    program = dsl.BehaviorProgram(rules=(dsl.Rule(cond, "x"),))
    reparsed = dsl.parse_program(dsl.format_program(program))
    assert reparsed == program


def test_fuzzed_programs_roundtrip():
    rng = random.Random(0xD51)
    for _ in range(1000):
        program = generate_program(rng, max_depth=4)
        assert dsl.parse_program(dsl.format_program(program)) == program


# Fragments that are, or nearly are, DSL tokens: spliced into canonical text
# they make inputs that get past the lexer and fail, or pass, deep in the parser.
_FRAGMENTS = (
    "WHEN", "DO", "ELSE", "END", "DEFINE", "MOVE", "PLAY", "SET", "WAIT", "LEVEL", "AND", "OR", "NOT",
    "SLOWLY", "QUICKLY", "FAST", "sound", "ms", "us", "touch", "arms", "(", ")", "<", "<=", "==", "!=",
    "=", "-", "0", "-0", "0.5", "1.5", ".5", "7.", "1e3", "1e999", "99999999999999999999", '"a.wav"', '"',
    "#", "\n", "\r", "\t", " ", "\x0b", "\u2028", "é",
)


@st.composite
def _dsl_texts(draw):
    if draw(st.booleans()):
        return draw(st.text() | st.lists(st.sampled_from(_FRAGMENTS)).map(" ".join))
    text = dsl.format_program(generate_program(random.Random(draw(st.integers(0, 2**32 - 1)))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_FRAGMENTS)) + text[at + draw(st.integers(0, 8)) :]
    return text


@settings(max_examples=500)
@given(text=_dsl_texts())
def test_arbitrary_text_parses_or_raises_parse_error_and_parsed_text_roundtrips(text):
    try:
        program = dsl.parse_program(text)
    except dsl.ParseError:
        return
    assert dsl.parse_program(dsl.format_program(program)) == program


# each lexes on its own, so most lines drawn from them lex
_LINE_FRAGMENTS = (
    "WHEN", "LEVEL", "NOT", "SLOWLY", "touch", "a_1", "(", ")", "<", "<=", ">", ">=", "==", "!=",
    "0", "-0.5", ".5", "7.", "1e-3", '"a.wav"', '"two words.wav"', "# note",
)


@given(parts=st.lists(st.tuples(st.sampled_from(_LINE_FRAGMENTS), st.sampled_from((" ", "\t", "")))))
def test_each_token_span_covers_exactly_its_characters(parts):
    line = "".join(fragment + separator for fragment, separator in parts)
    try:
        tokens = dsl._lex(line)
    except dsl.ParseError:
        return
    for tok in tokens[:-1]:
        if tok.kind == "NEWLINE":
            continue
        lexeme = f'"{tok.text}"' if tok.kind == "STRING" else tok.text
        assert (tok.span.line, tok.span.length) == (1, len(lexeme))
        assert line[tok.span.column - 1 : tok.span.column - 1 + len(lexeme)] == lexeme


def test_parse_determinism(behavior_text):
    first = dsl.parse_program(behavior_text)
    second = dsl.parse_program(behavior_text)
    assert first == second
    assert dsl.format_program(first) == dsl.format_program(second)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_gentle_branch_boundary():
    cond = dsl.Comparison("touch", "<", 3.0)
    assert dsl.eval_condition(cond, {"touch": 2.0}) is True
    assert dsl.eval_condition(cond, {"touch": 3.0}) is False


def test_eval_missing_signal():
    with pytest.raises(dsl.MissingSignalError) as exc:
        dsl.eval_condition(dsl.Comparison("touch", "<", 3.0), {})
    assert exc.value.signal == "touch"


def test_eval_and_truth_table():
    cond = dsl.And(dsl.Comparison("touch", "<", 3.0), dsl.Comparison("proximity", ">", 1.0))
    for touch, proximity in ((0.0, 2.0), (0.0, 0.0), (5.0, 2.0), (5.0, 0.0)):
        expected = (touch < 3.0) and (proximity > 1.0)
        assert dsl.eval_condition(cond, {"touch": touch, "proximity": proximity}) == expected


def _brute_force_eval(cond, snapshot):
    # Independent reference evaluator: plain recursion, no shared helpers.
    if isinstance(cond, dsl.Comparison):
        left = snapshot[cond.signal]
        return {
            "<": left < cond.value,
            "<=": left <= cond.value,
            ">": left > cond.value,
            ">=": left >= cond.value,
            "==": left == cond.value,
            "!=": left != cond.value,
        }[cond.op]
    if isinstance(cond, dsl.And):
        return _brute_force_eval(cond.left, snapshot) and _brute_force_eval(cond.right, snapshot)
    if isinstance(cond, dsl.Or):
        return _brute_force_eval(cond.left, snapshot) or _brute_force_eval(cond.right, snapshot)
    return not _brute_force_eval(cond.inner, snapshot)


def test_eval_matches_brute_force_on_random_trees():
    from conftest import _gen_condition, _WORDS

    rng = random.Random(0xE7A1)
    for _ in range(1000):
        cond = _gen_condition(rng, depth=6)
        snapshot = {word: rng.uniform(-100, 100) for word in _WORDS}
        assert dsl.eval_condition(cond, snapshot) == _brute_force_eval(cond, snapshot)


# ---------------------------------------------------------------------------
# binding


def test_bind_reference_program(behavior_text, touch_config_text):
    config = parse_config(touch_config_text)
    bound = dsl.bind_program(dsl.parse_program(behavior_text), config)
    assert bound.signal_topics == {"touch": "touch_proc"}
    assert bound.priorities["gentle_response"] == pytest.approx(2 / 3)
    assert bound.priorities["aggressive_response"] == pytest.approx(1 / 3)
    assert bound.plans == {
        "gentle_response": (
            (0, {"action": "move", "actuator": "arms", "value": 0.25}),
            (0, {"action": "play", "actuator": "sound", "resource": "greeting.wav"}),
        ),
        "aggressive_response": (
            (0, {"action": "move", "actuator": "arms", "value": 1.0}),
            (0, {"action": "play", "actuator": "sound", "resource": "warning.wav"}),
        ),
    }


def test_bind_uses_config_behavior_priority(behavior_text, touch_config_text):
    import json

    doc = json.loads(touch_config_text)
    doc["behaviors"] = [{"name": "gentle_response", "priority": 0.9}]
    config = parse_config(json.dumps(doc))
    bound = dsl.bind_program(dsl.parse_program(behavior_text), config)
    assert bound.priorities["gentle_response"] == 0.9
    assert 0.0 < bound.priorities["aggressive_response"] < 1.0
    assert bound.priorities["aggressive_response"] != 0.9


def test_bind_signal_prefers_algorithm_output(behavior_text):
    config = parse_config(
        """
        {
            "sensors": [{"name": "touch", "type": "virtual"}],
            "actuators": [
                {"name": "arms", "type": "pwm"},
                {"name": "sound", "type": "audio"}
            ],
            "algorithms": [
                {"name": "lvl", "plugin": "touch_level", "inputs": ["touch"],
                 "output": "touch_lvl", "params": {"thresholds": "1,2,4"}}
            ]
        }
        """
    )
    bound = dsl.bind_program(dsl.parse_program(behavior_text), config)
    assert bound.signal_topics == {"touch": "touch_lvl"}


def test_bind_unknown_behavior_collected(touch_config_text):
    config = parse_config(touch_config_text)
    program = dsl.parse_program("WHEN touch < 3\nDO dance\nEND\n")
    with pytest.raises(dsl.BindErrors) as exc:
        dsl.bind_program(program, config)
    messages = [e.message for e in exc.value.errors]
    assert messages == ["dance: no DEFINE block for DO target"]


def test_bind_unknown_actuator_has_span(touch_config_text):
    config = parse_config(touch_config_text)
    program = dsl.parse_program("DEFINE d\nMOVE legs SLOWLY\nEND\n")
    with pytest.raises(dsl.BindErrors) as exc:
        dsl.bind_program(program, config)
    (error,) = exc.value.errors
    assert error.message == "legs: unknown actuator"
    assert error.span is not None and error.span.line == 2


def test_bind_unknown_signal(touch_config_text):
    config = parse_config(touch_config_text)
    program = dsl.parse_program("WHEN warp < 3\nDO d\nEND\nDEFINE d\nEND\n")
    with pytest.raises(dsl.BindErrors) as exc:
        dsl.bind_program(program, config)
    assert [e.message for e in exc.value.errors] == ["warp: unknown signal"]


def test_bind_errors_aggregate(touch_config_text):
    config = parse_config(touch_config_text)
    program = dsl.parse_program("WHEN warp < 3\nDO dance\nEND\nDEFINE d\nMOVE legs 0.1\nEND\n")
    with pytest.raises(dsl.BindErrors) as exc:
        dsl.bind_program(program, config)
    assert len(exc.value.errors) == 3


def test_play_needs_exactly_one_audio_actuator(behavior_text):
    no_audio = parse_config(
        '{"sensors": [{"name": "touch", "type": "virtual"}], "actuators": [{"name": "arms", "type": "pwm"}]}'
    )
    with pytest.raises(dsl.BindErrors, match="audio"):
        dsl.bind_program(dsl.parse_program(behavior_text), no_audio)


def test_bind_keeps_orders(behavior_text, touch_config_text):
    config = parse_config(touch_config_text)
    program = dsl.parse_program(behavior_text)
    bound = dsl.bind_program(program, config)
    assert bound.program is program
    assert list(bound.program.definitions) == ["gentle_response", "aggressive_response"]


# A statement may name an unknown actuator; SET values reach past `arms`'s
# bounds so the clamp matters.
_bind_statements = st.one_of(
    st.builds(dsl.Move, st.sampled_from(("arms", "sound", "legs")), st.sampled_from(("slowly", "quickly")) | st.floats(0, 1)),
    st.builds(dsl.Set, st.sampled_from(("arms", "sound", "legs")), st.floats(-1e3, 1e3)),
    st.builds(dsl.Play, st.sampled_from(("a.wav", "b.wav"))),
    st.builds(dsl.Wait, st.integers(1, dsl.MAX_WAIT_US)),
)


@st.composite
def _bind_programs(draw):
    definitions = {
        name: dsl.Definition(name, tuple(draw(st.lists(_bind_statements, max_size=6))))
        for name in draw(st.lists(st.sampled_from(("d0", "d1", "d2")), unique=True, max_size=3))
    }
    targets = st.sampled_from((*definitions, "dance"))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rules = tuple(
        dsl.Rule(_gen_condition(rng, draw(st.integers(0, 2))), draw(targets), draw(st.none() | targets))
        for _ in range(draw(st.integers(0, 2)))
    )
    return dsl.BehaviorProgram(rules, definitions)


@settings(max_examples=300)
@given(
    program=_bind_programs(),
    audio=st.booleans(),
)
def test_bind_fuzz_raises_only_bind_errors_and_plans_stay_in_bounds(touch_config_text, program, audio):
    import json

    doc = json.loads(touch_config_text)
    if not audio:
        doc["actuators"] = [a for a in doc["actuators"] if a["type"] != "audio"]
    config = parse_config(json.dumps(doc))
    try:
        bound = dsl.bind_program(program, config)
    except dsl.BindErrors as exc:
        assert exc.errors
        return
    actuators = {a.name: a for a in config.actuators}
    assert list(bound.plans) == list(program.definitions)
    for name, definition in program.definitions.items():
        plan = bound.plans[name]
        assert len(plan) == sum(not isinstance(stmt, dsl.Wait) for stmt in definition.body)
        offsets = [offset_us for offset_us, _command in plan]
        assert offsets == sorted(offsets)
        for _offset_us, command in plan:
            spec = actuators[command["actuator"]]
            if command["action"] == "play":
                assert spec.kind == "audio"
            else:
                assert spec.min_value <= command["value"] <= spec.max_value

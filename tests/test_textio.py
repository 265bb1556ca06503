import json
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from aspnf import (
    AspnfError,
    Literal,
    ParseError,
    Program,
    ReservedAtomError,
    Rule,
    enumerate_answer_sets,
    export_dot,
    neg,
    parse_program,
    pos,
    render_program,
)
from aspnf.model import _FLAT_ATOM
from aspnf.textio import split_atom_list
from conftest import (
    PI5_TEXT,
    PI6_TEXT,
    oracle_answer_sets,
    programs,
    random_general_program,
)


def test_parse_self_loop():
    program = parse_program("p :- not p.")
    assert program.rules == (Rule("p", (neg("p"),)),)


def test_parse_empty():
    assert parse_program("") == Program()
    assert parse_program("   % only a comment\n") == Program()


def test_parse_fact_and_positive_body():
    program = parse_program("a. b :- a, not c.")
    assert program.rules == (Rule("a"), Rule("b", (pos("a"), neg("c"))))


def test_parse_missing_dot_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("p :- q")
    assert err.value.span.line == 1
    assert err.value.span.column == 7


def test_parse_error_line_tracking():
    with pytest.raises(ParseError) as err:
        parse_program("a :- b.\n??")
    assert err.value.span.line == 2


def test_parse_predicate_style_atoms():
    program = parse_program("color(0, red) :- not color(0, blue).")
    assert program.rules == (
        Rule("color(0,red)", (neg("color(0,blue)"),)),
    )


def test_parse_rejects_bad_arguments():
    with pytest.raises(ParseError):
        parse_program("color() :- a.")
    with pytest.raises(ParseError):
        parse_program("color(0, :- a.")


def test_parse_not_is_a_keyword():
    with pytest.raises(ParseError):
        parse_program("not :- a.")
    with pytest.raises(ParseError):
        parse_program("a :- not not b.")


def test_parse_rejects_reserved_atoms_by_default():
    with pytest.raises(ReservedAtomError):
        parse_program("__x :- not a.")
    program = parse_program("__x :- not a.", allow_reserved=True)
    assert program.rules == (Rule("__x", (neg("a"),)),)


def test_constraint_shorthand():
    program = parse_program(":- edge_ko(0, 1).")
    assert program.rules == (
        Rule("__c_0", (neg("__c_0"), pos("edge_ko(0,1)"))),
    )


def test_constraint_shorthand_counts_up():
    program = parse_program(":- a. :- not b.")
    assert [r.head for r in program.rules] == ["__c_0", "__c_1"]


def test_constraint_guard_skips_names_in_input():
    text = "a :- not b. b :- not a. :- a. __c_0 :- not y. y :- not __c_0."
    program = parse_program(text, allow_reserved=True)
    assert program.rules[2].head == "__c_1"
    assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)
    assert [sorted(s) for s in enumerate_answer_sets(program)] == [
        ["__c_0", "b"],
        ["b", "y"],
    ]


@pytest.mark.parametrize(
    "text, error, line, column, message",
    [
        ("p :- q", ParseError, 1, 7, "expected '.'"),
        ("p :- q  \n\t ", ParseError, 1, 7, "expected '.'"),
        ("a :- b.\np :- q r.", ParseError, 2, 8, "expected '.'"),
        ("a :- b. c d.", ParseError, 1, 11, "expected '.' or ':-'"),
        ("a :- b.\r\n  :- .", ParseError, 2, 6, "expected atom"),
        (
            "a :- b,\n not not c.",
            ParseError,
            2,
            6,
            "'not' is a keyword, not an atom",
        ),
        ("a :- b.\n\tc :- d(x, ).", ParseError, 2, 12, "expected argument"),
        ("a(0 b) :- c.", ParseError, 1, 5, "expected ',' or ')'"),
        (
            "a :- b.\n% c\n  __x :- a.",
            ReservedAtomError,
            3,
            3,
            "atom '__x' uses the reserved '__' prefix",
        ),
        # a comment runs to the end of its line, never shorter
        ("%c\n.", ParseError, 2, 1, "expected atom"),
        # "not" ends where NAME ends, and NAME has no non-ASCII letters
        ("a :- not\u00e4.", ParseError, 1, 9, "expected atom"),
        ("a :- not.", ParseError, 1, 9, "expected atom"),
        ("p(__x).", ParseError, 1, 3, "expected argument"),
        ("p(12x).", ParseError, 1, 5, "expected ',' or ')'"),
        ("p(a,)", ParseError, 1, 5, "expected argument"),
        # errors at the first token that does not fit the rule
        ("a % c", ParseError, 1, 6, "expected '.' or ':-'"),
        ("p(a,1)\n(b).", ParseError, 2, 1, "expected '.' or ':-'"),
        ("a :- b :- c.", ParseError, 1, 8, "expected '.'"),
        ("a :- :- b.", ParseError, 1, 6, "expected atom"),
        ("a :- b.\r\nc :- d.\r\ne :- f g.", ParseError, 3, 8, "expected '.'"),
        ("a :- not b.\n" * 500 + "c :- d e.", ParseError, 501, 8, "expected '.'"),
    ],
)
def test_error_spans(text, error, line, column, message):
    with pytest.raises(error) as err:
        parse_program(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    if error is ParseError:
        assert (err.value.span.line, err.value.span.column) == (line, column)
        assert err.value.reason == message


def test_render_empty():
    assert render_program(Program()) == ""


def test_render_single_rule():
    assert render_program(Program((Rule("p", (neg("p"),)),))) == "p :- not p.\n"


@pytest.mark.parametrize("text", [PI5_TEXT, PI6_TEXT])
def test_round_trip_paper_programs(text):
    program = parse_program(text)
    assert parse_program(render_program(program)) == program


def test_round_trip_pi5_line_count(pi5):
    assert render_program(pi5).count("\n") == 6


def test_round_trip_with_reserved_atoms():
    program = parse_program("p :- not __h0_1.\n__h0_1 :- not p.", allow_reserved=True)
    rendered = render_program(program)
    assert parse_program(rendered, allow_reserved=True) == program


def test_whitespace_and_comments_insignificant(pi6):
    noisy = PI6_TEXT.replace("\n", "  % noise\n\n").replace(":-", "  :-  ")
    assert parse_program(noisy) == pi6
    assert render_program(parse_program("p( a % c\n , 1 ).")) == "p(a,1).\n"
    assert render_program(parse_program("a :- b % c.\n, d.")) == "a :- b, d.\n"


# Trivia the parser must skip between any two tokens: blanks, tabs,
# line ends, and comments that hold separators or another "%".
TRIVIA = ["", " ", "\t", "\r\n", "\n", "% c. d\n", "%, :- %\r\n", "%\n"]
RENDERED_TOKEN = re.compile(r"[A-Za-z0-9_]+|:-|[(),.]")


@given(programs(), st.data())
def test_trivia_at_token_boundaries_is_insignificant(program, data):
    # Property form of test_whitespace_and_comments_insignificant: some
    # atoms get argument lists, and trivia goes between every two tokens
    # of the rendered program, inside argument lists too, with a last
    # comment that may lack its newline.
    rng = data.draw(st.randoms(use_true_random=False))
    spelled = {
        atom: rng.choice(["{}", "p({},1)", "q(0,{})"]).format(atom)
        for atom in sorted(program.atoms)
    }
    program = Program(
        tuple(
            Rule(spelled[r.head], tuple(Literal(spelled[a], n) for a, n in r.body))
            for r in program.rules
        )
    )
    text = rng.choice(TRIVIA)
    for token in RENDERED_TOKEN.findall(render_program(program)):
        # "not" needs some trivia before its atom
        text += token + rng.choice(TRIVIA[1:] if token == "not" else TRIVIA)
    text += rng.choice(["", "% end", "% .,:-%"])
    assert parse_program(text) == program


def test_export_dot_empty():
    assert export_dot(Program()) == "digraph G {\n}\n"


def test_export_dot_single_negative_edge():
    dot = export_dot(parse_program("a :- not b."))
    assert '"a" -> "b" [style=dashed];' in dot
    assert dot.startswith("digraph G {\n")


def test_export_dot_pi6(pi6):
    dot = export_dot(pi6)
    assert dot.count(" -> ") == 6
    assert dot.count("[style=dashed]") == 6
    # one vertex line per atom
    assert sum(line.strip().endswith('";') for line in dot.splitlines()) == 4


def test_export_dot_positive_edge_solid():
    dot = export_dot(parse_program("a :- b."))
    assert '"a" -> "b";' in dot
    assert "dashed" not in dot


def test_parser_never_crashes_on_noise():
    rng = random.Random(2024)
    alphabet = "abc_(),.:- not%\n\t0123456789"
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        try:
            result = parse_program(text)
            assert isinstance(result, Program)
        except (ParseError, ReservedAtomError):
            pass


def test_parser_never_crashes_on_random_bytes():
    rng = random.Random(99)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        try:
            parse_program(blob.decode("latin-1"))
        except (ParseError, ReservedAtomError):
            pass


def test_round_trip_random_programs():
    rng = random.Random(5)
    for _ in range(30):
        program = random_general_program(rng, 6, 8)
        assert parse_program(render_program(program)) == program


@given(programs())
def test_render_then_parse_is_identity(program):
    assert parse_program(render_program(program), allow_reserved=True) == program


# ``_FLAT_ATOM`` is the whole ATOM rule, unspaced: a NAME, with or without
# the ``__`` prefix, and an optional argument list of ARGs.
@given(st.from_regex(_FLAT_ATOM, fullmatch=True))
@example("__c_0")
@example("p(a,1)")
@example("not")
def test_atom_names_are_json_strings_without_escapes(atom):
    # ``solve --json`` writes each name between quotes with no escaping, so
    # the grammar must admit no '"', no '\\', no control and no non-ASCII
    # character.
    assert json.dumps(atom) == f'"{atom}"'
    if atom.partition("(")[0] == "not":  # a keyword, not an atom
        with pytest.raises(ParseError):
            parse_program(f"{atom}.", allow_reserved=True)
    else:
        assert parse_program(f"{atom}.", allow_reserved=True).rules == (Rule(atom),)


# Spellings of an atom x: itself, and ``p(x,1)`` with an argument list
# free of blanks and comments, or with some for the parser to strip.
SPELLINGS = ["{}", "p({},1)", "p ({},1)", "p({}, 1)", "p( {} ,% c\n 1 )"]


@given(programs(), st.data())
def test_parsed_rules_and_literals_are_rules_and_literals(program, data):
    # The parser builds literals without ``Literal``'s own constructor.
    # Each atom is written in one of SPELLINGS, and each body with some
    # literals repeated, in any order; shuffled bodies may make two rules
    # equal, and the program keeps the first.
    rng = data.draw(st.randoms(use_true_random=False))
    spelling = {atom: rng.choice(SPELLINGS) for atom in sorted(program.atoms)}

    def flat(atom):
        return atom if spelling[atom] == "{}" else f"p({atom},1)"

    lines, expected = [], []
    for rule in program.rules:
        written = list(rule.body)
        if written:
            written += rng.choices(written, k=rng.randint(0, 3))
            rng.shuffle(written)
        body = [
            ("not " if lit.negated else "") + spelling[lit.atom].format(lit.atom)
            for lit in written
        ]
        head = spelling[rule.head].format(rule.head)
        lines.append(head + (" :- " + ", ".join(body) if body else "") + ".")
        first = []
        for lit in written:
            if lit not in first:
                first.append(lit)
        expected.append(Rule(flat(rule.head), [Literal(flat(a), n) for a, n in first]))
    parsed = parse_program("\n".join(lines))
    assert parsed.rules == tuple(dict.fromkeys(expected))
    for rule in parsed.rules:
        assert type(rule) is Rule
        assert all(type(lit) is Literal for lit in rule.body)
        assert all(type(lit.negated) is bool for lit in rule.body)


# The grammar's alphabet: names, the keyword, reserved names, numbers,
# symbols, comments, whitespace and one letter outside NAME.
TOKENS = [
    "a", "b1", "color", "x_y", "not", "__x", "__c_0", "0", "12",
    ":-", ".", ",", "(", ")", "% c\n", "%", " ", "\n", "\t", "\u00e4",
]


@given(st.lists(st.sampled_from(TOKENS), max_size=30).map("".join), st.booleans())
def test_parser_outcome_on_token_soup(text, allow_reserved):
    try:
        assert isinstance(parse_program(text, allow_reserved=allow_reserved), Program)
        return
    except ParseError as exc:
        line, column = exc.span.line, exc.span.column
    except ReservedAtomError as exc:
        prefix = re.match(r"line (\d+), column (\d+): ", str(exc))
        line, column = int(prefix[1]), int(prefix[2])
    lines = text.split("\n")
    assert 1 <= line <= len(lines)
    assert 1 <= column <= len(lines[line - 1]) + 1


def test_split_atom_list_reads_atoms_like_programs():
    assert split_atom_list(" color(0, red), b,, ") == ["color(0,red)", "b"]
    assert split_atom_list("") == []
    for text in ["A b, c", "a b", "not", "p(0", "a; b"]:
        with pytest.raises(AspnfError):
            split_atom_list(text)


def test_split_atom_list_error_quotes_its_input_as_given():
    assert split_atom_list("a, b % c, d\n") == ["a", "b"]
    text = "a, b % c\n d"
    with pytest.raises(AspnfError) as err:
        split_atom_list(text)
    assert str(err.value) == f"line 1, column 4: malformed atom list {text!r}"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("a,\nb c", 2, 1),
        # leading blanks count: the column is that of the text as given
        ("a, b,\n  c d, e", 2, 3),
    ],
)
def test_split_atom_list_error_names_line_and_column(text, line, column):
    with pytest.raises(ParseError) as err:
        split_atom_list(text)
    assert (err.value.span.line, err.value.span.column) == (line, column)
    assert str(err.value).startswith(f"line {line}, column {column}: ")

import random

import pytest
from hypothesis import given

from aspnf import (
    Literal,
    Program,
    ReservedAtomError,
    Rule,
    build_program,
    check_kernel,
    enumerate_answer_sets,
    export_dot,
    neg,
    parse_program,
    pos,
    well_founded,
)
from conftest import programs, random_general_program


def test_build_program_empty():
    program = build_program([])
    assert len(program) == 0
    assert program.atoms == frozenset()


def test_build_program_pi6(pi6):
    assert len(pi6) == 5
    assert pi6.atoms == {"a", "b", "p", "q"}


def test_build_program_deduplicates_rules():
    rule = Rule("a", (neg("b"),))
    program = build_program([rule, rule])
    assert len(program) == 1


def test_rule_deduplicates_body_literals():
    rule = Rule("a", (neg("b"), neg("b"), pos("c")))
    assert rule.body == (neg("b"), pos("c"))


def test_pos_and_neg_build_literals():
    for make, negated in ((pos, False), (neg, True)):
        literal = make("a")
        assert type(literal) is Literal
        assert type(literal.negated) is bool
        assert literal == Literal("a", negated)
        assert (literal.atom, literal.negated) == ("a", negated)


def test_rule_accepts_any_iterable_body():
    expected = (neg("b"), pos("c"))
    for body in ([neg("b"), pos("c"), neg("b")], iter([neg("b"), pos("c")])):
        assert Rule("a", body).body == expected
    assert Rule("a", (lit for lit in (neg("b"), neg("b")))).body == (neg("b"),)
    assert Rule("a", [neg("b")]).body == (neg("b"),)
    assert type(Rule("a", [neg("b")]).body) is tuple
    assert Rule("a").body == () == Rule("a", []).body
    single = (neg("b"),)
    assert Rule("a", single).body is single


def test_literal_contract():
    assert repr(neg("a")) == "Literal(atom='a', negated=True)"
    assert (str(neg("a")), str(pos("a"))) == ("not a", "a")
    assert Literal("a") == pos("a") == Literal(atom="a", negated=False)
    assert Literal(negated=True, atom="a") == neg("a")
    # by atom, then by polarity
    literals = [neg("b"), pos("b"), neg("a"), pos("c"), pos("a")]
    assert sorted(literals) == [pos("a"), neg("a"), pos("b"), neg("b"), pos("c")]
    # parsed and constructed literals are interchangeable
    (parsed,) = parse_program("h :- not a, b.").rules
    assert parsed.body == (neg("a"), pos("b"))
    assert list(map(hash, parsed.body)) == [hash(neg("a")), hash(pos("b"))]
    merged = Rule("h", parsed.body + (neg("a"), pos("b"), neg("b")))
    assert merged.body == (neg("a"), pos("b"), neg("b"))
    assert {parsed, Rule("h", (neg("a"), pos("b")))} == {parsed}


def test_build_program_rejects_reserved_atoms():
    with pytest.raises(ReservedAtomError):
        build_program([Rule("__x", (neg("a"),))])
    with pytest.raises(ReservedAtomError):
        build_program([Rule("a", (neg("__x"),))])


def test_build_program_rejects_malformed_names():
    with pytest.raises(ValueError):
        build_program([Rule("", ())])
    with pytest.raises(ValueError):
        build_program([Rule("a b", ())])
    # the parser's grammar: lower-case name, balanced argument list
    for name in ("123", "a(b", "A"):
        with pytest.raises(ValueError):
            build_program([Rule(name, ())])
    assert build_program([Rule("color(0,red)", ())]).atoms == {"color(0,red)"}


@given(programs())
def test_atoms_are_the_heads_and_body_atoms(program):
    union = set()
    for rule in program.rules:
        union |= {rule.head} | {lit.atom for lit in rule.body}
    assert type(program.atoms) is frozenset and program.atoms == union


def test_rebuild_is_idempotent(pi6):
    assert Program(pi6.rules) == pi6
    assert build_program(pi6.rules) == pi6


def dot_edges(program):
    """The (head, atom, negated) edges of ``program``'s DOT export, in
    the order written, each with its style read back from the line."""
    edges = []
    for line in export_dot(program).splitlines():
        if " -> " in line:
            source, rest = line.strip().split(" -> ")
            target, _, style = rest.rstrip(";").partition(" ")
            assert style in ("", "[style=dashed]"), line
            edges.append((source.strip('"'), target.strip('"'), bool(style)))
    return edges


def test_dependency_graph_pi6(pi6):
    # sorted, each once, all negative
    assert dot_edges(pi6) == [
        ("a", "b", True),
        ("b", "a", True),
        ("p", "b", True),
        ("p", "p", True),
        ("q", "a", True),
        ("q", "q", True),
    ]
    # one vertex line per atom
    vertices = [line for line in export_dot(pi6).splitlines() if line.endswith('";')]
    assert vertices == [f'  "{atom}";' for atom in sorted(pi6.atoms)]


def test_dependency_graph_empty():
    assert export_dot(Program()) == "digraph G {\n}\n"


def test_dependency_graph_single_positive_rule():
    program = build_program([Rule("a", (pos("b"),))])
    assert dot_edges(program) == [("a", "b", False)]
    assert '  "a" -> "b";\n' in export_dot(program)


def test_dependency_graph_rebuild_idempotent(pi6):
    assert export_dot(pi6) == export_dot(build_program(pi6.rules))
    # each (head, atom, polarity) is one edge, however many rules give it
    program = parse_program("a :- not b. a :- not b, c. a :- b, c. a :- b.")
    assert dot_edges(program) == [
        ("a", "b", False),
        ("a", "b", True),
        ("a", "c", False),
    ]


def test_dependency_graph_edge_count_bound():
    rng = random.Random(7)
    for _ in range(30):
        program = random_general_program(rng, 5, 8)
        edges = dot_edges(program)
        assert len(edges) == len(set(edges))
        assert len(edges) <= sum(len(r.body) for r in program.rules)


def test_is_purely_negative(pi6):
    def is_purely_negative(program):
        return "negative-bodies-only" not in check_kernel(program).conditions()

    assert is_purely_negative(pi6)
    assert not is_purely_negative(build_program([Rule("p", (neg("q"), pos("a")))]))
    assert not is_purely_negative(build_program([Rule("p", ())]))


def test_rule_order_does_not_affect_semantics():
    rng = random.Random(11)
    for _ in range(20):
        program = random_general_program(rng, 5, 6)
        rules = list(program.rules)
        rng.shuffle(rules)
        permuted = Program(tuple(rules))
        assert set(enumerate_answer_sets(program)) == set(
            enumerate_answer_sets(permuted)
        )
        assert well_founded(program) == well_founded(permuted)
        assert export_dot(program) == export_dot(permuted)

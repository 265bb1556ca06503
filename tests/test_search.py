"""The answer-set search and the well-founded model: exact against the
independent oracles on generated programs, the search's incremental
propagation, the well-founded closure that compiles nothing without
positive body literals, and the debug records of both."""

import logging

from hypothesis import example, given
from hypothesis import strategies as st

from aspnf import (
    Program,
    Rule,
    WfsResult,
    enumerate_answer_sets,
    neg,
    parse_program,
    pos,
    well_founded,
)
from aspnf import semantics
from aspnf.generate import encode_3col, graph
from aspnf.semantics import _BitProgram, _completion_index, _propagate
from conftest import (
    chain_model,
    negative_chain,
    oracle_answer_sets,
    oracle_well_founded,
    programs,
    rename_atoms,
)


@given(programs())
def test_enumeration_matches_oracle(program):
    assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


@given(programs())
def test_well_founded_matches_oracle(program):
    assert well_founded(program) == oracle_well_founded(program)


@given(
    st.one_of(
        programs(negative_only=True),
        st.builds(negative_chain, st.integers(0, 12), st.booleans()),
    )
)
def test_well_founded_of_negative_programs_matches_oracle(program):
    assert well_founded(program) == oracle_well_founded(program)


def test_chain_model_is_the_well_founded_model():
    # The expected partition of the long-chain tests, on short chains.
    for n in range(6):
        for fact in (True, False):
            assert chain_model(n, fact) == oracle_well_founded(negative_chain(n, fact))


def test_well_founded_without_positive_bodies_compiles_nothing(monkeypatch, pi6):
    # The closure alone gives the model, so neither the alternating
    # fixpoint nor gamma runs; a 20,000-atom chain finishes because the
    # closure is linear.
    def refuse(*args, **kwargs):
        raise AssertionError("the alternating fixpoint ran")

    monkeypatch.setattr(semantics, "_tighten", refuse)
    monkeypatch.setattr(semantics._BitProgram, "gamma", refuse)
    assert well_founded(negative_chain(20_000)) == chain_model(20_000)
    c5 = encode_3col(graph(range(5), _cycle(list(range(5)))))
    for program in (pi6, c5):
        assert well_founded(program) == oracle_well_founded(program)


def test_well_founded_of_positive_loops():
    # The closure decides nothing here; the alternating fixpoint finds
    # the unfounded loops.
    assert well_founded(parse_program("a :- a.")) == WfsResult(
        frozenset(), frozenset({"a"}), frozenset()
    )
    assert well_founded(parse_program("a :- b. b :- a. c :- not a.")) == WfsResult(
        frozenset({"c"}), frozenset({"a", "b"}), frozenset()
    )


def test_well_founded_of_a_chain_with_one_positive_link():
    # x0 :- not x1. x1 :- not x2. x2 :- x3. x3 :- not x4. x4 :- not x5. x5.
    rules = list(negative_chain(6).rules)
    rules[2] = Rule("x2", (pos("x3"),))
    program = Program(tuple(rules))
    expected = WfsResult(
        frozenset({"x5", "x3", "x2", "x0"}), frozenset({"x4", "x1"}), frozenset()
    )
    assert well_founded(program) == expected == oracle_well_founded(program)


def _wfs_stats(caplog, program):
    """The well-founded debug record's dict for ``program``."""
    caplog.set_level(logging.DEBUG, logger="aspnf")
    caplog.clear()
    well_founded(program)
    [record] = [r for r in caplog.records if r.name == "aspnf"]
    return record.args


def test_well_founded_record(caplog, pi6):
    assert _wfs_stats(caplog, negative_chain(1000)) == {
        "atoms": 1000, "rules": 1000, "decided": 1000, "rounds": 0
    }
    assert _wfs_stats(caplog, pi6) == {
        "atoms": 4, "rules": 5, "decided": 0, "rounds": 0
    }
    # One pass makes ``a`` false, one makes ``b`` true, one finds the
    # fixpoint.
    assert _wfs_stats(caplog, parse_program("a :- a. b :- not a.")) == {
        "atoms": 2, "rules": 2, "decided": 0, "rounds": 3
    }


def _normal(propagated):
    """A propagation result with its true atoms' supports in one order."""
    if propagated is None:
        return None
    (entries, supports, blocked, false_heads), lower, upper = propagated
    return (list(entries), sorted(supports), blocked, false_heads), lower, upper


def _summary_of(root, lower, upper):
    """The summary of ``[lower, upper]`` by its definition: the entries
    of the undecided atoms, the rules of the true atoms with two or more
    live rules, the blocked rules and the rules with a false head."""
    entries, supports, blocked, false_heads = root[0], [], 0, 0
    for bit, heads, pos_rules, neg_rules, _lit_rules in entries:
        if bit & lower:
            blocked |= neg_rules
            supports.append(heads)
        elif not bit & upper:
            blocked |= pos_rules
            false_heads |= heads
    undecided = [entry for entry in entries if entry[0] & upper & ~lower]
    supports = [h for h in supports if h & ~blocked & (h & ~blocked) - 1]
    return (undecided, sorted(supports), blocked, false_heads), lower, upper


@given(programs(), st.data())
def test_a_node_propagates_from_its_parents_summary(program, data):
    # Down a random branch path, propagating a child from the summary of
    # its parent's interval gives what propagating it from the root
    # summary gives: the same interval and summary, or None. Each
    # summary is the one its interval defines.
    bp = _BitProgram(program.rules, program.atoms)
    index, root = _completion_index(bp)
    node = _normal(_propagate(bp, index, root, 0, bp.full))
    while node is not None:
        summary, lower, upper = node
        assert node == _summary_of(root, lower, upper)
        if lower == upper:
            break
        undecided = [i for i in range(len(bp.atoms)) if (upper & ~lower) >> i & 1]
        bit = 1 << data.draw(st.sampled_from(undecided))
        if data.draw(st.booleans()):
            lower |= bit
        else:
            upper &= ~bit
        node = _normal(_propagate(bp, index, summary, lower, upper))
        assert node == _normal(_propagate(bp, index, root, lower, upper))


def _cycle(nodes):
    return [(u, nodes[(i + 1) % len(nodes)]) for i, u in enumerate(nodes)]


def _search_stats(caplog, g):
    """The debug record's dict for the 3-colouring of ``g``."""
    caplog.set_level(logging.DEBUG, logger="aspnf")
    caplog.clear()
    program = encode_3col(g)
    answers = len(enumerate_answer_sets(program, max_atoms=len(program.atoms)))
    [record] = [r for r in caplog.records if r.name == "aspnf"]
    assert record.args["answers"] == answers
    return record.args


def test_search_record(caplog):
    # 3-colourings of the cycle C_n: fewer than 3 search nodes per answer,
    # and exactly the nodes and conflicts of the current pruning.
    for n, nodes in ((6, 131), (8, 515), (10, 2051)):
        stats = _search_stats(caplog, graph(range(n), _cycle(list(range(n)))))
        assert stats["atoms"] == 8 * n and stats["rules"] == 11 * n
        assert stats["components"] == 1
        assert stats["answers"] == 2**n + 2
        assert stats["conflicts"] < stats["nodes"] < 3 * stats["answers"], stats
        assert (stats["nodes"], stats["conflicts"]) == (nodes, 0), stats


def test_search_record_of_disjoint_components(caplog):
    # Two C4 and an isolated node: 18 * 18 * 3 answers, searched as
    # three components with 18, 18 and 3 answers.
    g = graph(range(9), _cycle([0, 1, 2, 3]) + _cycle([4, 5, 6, 7]))
    stats = _search_stats(caplog, g)
    assert stats["components"] == 3
    assert stats["answers"] == 972
    assert stats["rules"] == 6 * 9 + 5 * 8
    assert stats["nodes"] < 3 * (18 + 18 + 3), stats
    assert (stats["nodes"], stats["conflicts"]) == (75, 0), stats


def test_uncolourable_first_component_ends_the_search(caplog):
    # K4 on nodes 0-3, whose rules come first, then C10 on nodes 4-13.
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    stats = _search_stats(caplog, graph(range(14), k4 + _cycle(list(range(4, 14)))))
    assert stats["components"] == 2
    assert stats["answers"] == 0
    assert stats["nodes"] < 50, stats
    assert (stats["nodes"], stats["conflicts"]) == (11, 6), stats


EVEN_LOOP = Program((Rule("x0", (neg("x1"),)), Rule("x1", (neg("x0"),))))
ODD_LOOP = Program((Rule("x0", (neg("x0"),)),))


@given(programs(max_atoms=6), programs(max_atoms=6))
@example(EVEN_LOOP, ODD_LOOP)
@example(ODD_LOOP, EVEN_LOOP)
def test_disjoint_union_is_the_product_of_its_parts(first, second):
    # The second part's atoms are renamed from x* to y*, so the parts
    # share no atom.
    second = rename_atoms(second, {a: "y" + a[1:] for a in second.atoms})
    union = Program(first.rules + second.rules)
    product = {
        a | b
        for a in enumerate_answer_sets(first)
        for b in enumerate_answer_sets(second)
    }
    answers = list(enumerate_answer_sets(union))
    assert set(answers) == product and len(answers) == len(product)
    assert answers == oracle_answer_sets(union)

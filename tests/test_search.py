"""The answer-set search: exact against the independent oracles on
generated programs, and its debug record of search counters."""

import logging

from hypothesis import given, strategies as st

from aspnf import Literal, Program, Rule, enumerate_answer_sets, neg, well_founded
from aspnf.generate import encode_3col, graph
from conftest import oracle_answer_sets, oracle_well_founded


@st.composite
def programs(draw):
    """Up to 8 atoms: facts, positive and negative bodies, rules holding
    ``not head`` in their body, even loops ``a :- not b, ...`` and
    ``b :- not a`` that leave atoms for the search to branch on, and
    copies of rules with the body reversed (the same rule to the search,
    a distinct rule to ``Program``)."""
    names = [f"x{i}" for i in range(draw(st.integers(1, 8)))]
    atom = st.sampled_from(names)
    body = st.lists(st.builds(Literal, atom, st.booleans()), max_size=3)
    rule = st.builds(lambda head, lits: [Rule(head, tuple(lits))], atom, body)
    self_negating = st.builds(
        lambda head, lits: [Rule(head, (neg(head), *lits))], atom, body
    )
    even_loop = st.builds(
        lambda a, b, lits: [Rule(a, (neg(b), *lits)), Rule(b, (neg(a),))],
        atom,
        atom,
        body,
    )
    groups = draw(st.lists(st.one_of(rule, self_negating, even_loop), max_size=10))
    rules = [r for group in groups for r in group]
    copies = draw(st.lists(st.sampled_from(rules), max_size=3)) if rules else []
    return Program(tuple(rules) + tuple(Rule(r.head, r.body[::-1]) for r in copies))


@given(programs())
def test_enumeration_matches_oracle(program):
    assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


@given(programs())
def test_well_founded_matches_oracle(program):
    assert well_founded(program) == oracle_well_founded(program)


def test_search_record(caplog):
    # 3-colourings of the cycle C_n: fewer than 3 search nodes per answer.
    caplog.set_level(logging.DEBUG, logger="aspnf")
    for n in (6, 8, 10):
        caplog.clear()
        program = encode_3col(graph(range(n), [(i, (i + 1) % n) for i in range(n)]))
        answers = len(enumerate_answer_sets(program, max_atoms=8 * n))
        [record] = [r for r in caplog.records if r.name == "aspnf"]
        stats = record.args
        assert stats["atoms"] == 8 * n and stats["rules"] == 11 * n
        assert stats["answers"] == answers == 2**n + 2
        assert stats["conflicts"] < stats["nodes"] < 3 * answers, stats

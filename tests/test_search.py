"""The answer-set search and the well-founded model: exact against the
independent oracles on generated programs, the search's counter
propagation, the well-founded closure, which compiles nothing, the
debug records of both, and the order in which ``solve`` prints answers."""

import contextlib
import io
import json
import logging
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aspnf import (
    Program,
    Rule,
    WfsResult,
    enumerate_answer_sets,
    gamma,
    neg,
    parse_program,
    pos,
    render_program,
    well_founded,
)
from aspnf import semantics
from aspnf.cli import main
from aspnf.generate import encode_3col, graph
from aspnf.semantics import _FALSE, _TRUE, _BitProgram
from conftest import (
    chain_model,
    negative_chain,
    oracle_answer_sets,
    oracle_gamma,
    oracle_well_founded,
    programs,
    rename_atoms,
)

# ``p``'s rule is never true, so the search starts it blocked, yet gamma
# keeps it: the well-founded model leaves ``p`` undefined.
SELF_CONTRADICTORY = parse_program("a :- not b. b :- not a. p :- a, not a.")
# ``c`` and ``d`` form an unfounded loop above an even cycle that stays
# undefined.
LOOP_ABOVE_EVEN_CYCLE = parse_program(
    "a :- not b. b :- not a. c :- a, d. d :- c."
)
# Each loop p{k}, q{k} is unfounded only once the loop below it is
# false: p{k-1} false makes t{k} true, which kills ``q{k} :- not t{k}``.
STACKED_LOOPS = parse_program(
    "p0 :- q0. q0 :- p0. "
    + "".join(
        f"p{k} :- q{k}. q{k} :- p{k}. q{k} :- not t{k}. t{k} :- not p{k - 1}. "
        for k in (1, 2)
    )
)


@given(programs())
@example(SELF_CONTRADICTORY)
def test_enumeration_matches_oracle(program):
    assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


# ``__x`` sorts first by name, but the search places reserved atoms last.
RESERVED_LAST = parse_program(
    "b :- not a. __x :- not b2. b2 :- not __x. aa.", allow_reserved=True
)
# Two components whose atom names interleave.
INTERLEAVED = parse_program("z :- not y. y :- not z. a :- not b. b :- not a.")


def _solve(tmp_path_factory, program, *flags):
    path = tmp_path_factory.getbasetemp() / "order.lp"
    path.write_text(render_program(program), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["solve", str(path), "--allow-reserved", *flags])
    return code, out.getvalue()


@given(programs())
@example(RESERVED_LAST)
@example(INTERLEAVED)
# --json edge cases: no answer set, the empty answer set, argument lists.
@example(parse_program("p :- not p."))
@example(parse_program("a :- a."))
@example(parse_program("p(a,1) :- not q(b). q(b) :- not p(a,1)."))
def test_solve_prints_answers_in_the_oracle_order(tmp_path_factory, program):
    # The search may find answers in another order than the output order.
    expected = sorted(oracle_answer_sets(program), key=lambda s: (len(s), sorted(s)))
    answers = enumerate_answer_sets(program)
    assert type(answers) is tuple and list(answers) == expected
    assert all(type(s) is frozenset for s in answers)
    code = 0 if expected else 1
    as_json = json.dumps([sorted(s) for s in expected]) + "\n"
    assert _solve(tmp_path_factory, program, "--json") == (code, as_json)
    plain = "".join(", ".join(sorted(s)) + "\n" for s in expected)
    assert _solve(tmp_path_factory, program) == (code, plain)


@given(programs())
@example(SELF_CONTRADICTORY)
@example(parse_program("a :- a."))
@example(LOOP_ABOVE_EVEN_CYCLE)
@example(STACKED_LOOPS)
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


def _with_subsets(program):
    atoms = sorted(program.atoms)
    subsets = st.sets(st.sampled_from(atoms)) if atoms else st.just(set())
    return st.tuples(st.just(program), subsets)


@given(programs().flatmap(_with_subsets))
@example((SELF_CONTRADICTORY, set()))
def test_gamma_matches_oracle(case):
    # A subset of the atoms plus one atom outside the universe, which
    # gamma ignores. On the example gamma derives ``p`` from its
    # self-contradictory rule.
    program, subset = case
    s = subset | {"outside"}
    assert gamma(program, s) == oracle_gamma(program, s)


def test_chain_model_is_the_well_founded_model():
    # The expected partition of the long-chain tests, on short chains.
    for n in range(6):
        for fact in (True, False):
            assert chain_model(n, fact) == oracle_well_founded(negative_chain(n, fact))


def _positive_ladder(n):
    """``a{k} :- a{k+1}, not b{k}. b{k} :- not a{k}.`` for k < ``n``:
    positive bodies, yet the closure decides every atom without an
    unfounded-set round."""
    text = "".join(
        f"a{k} :- a{k + 1}, not b{k}. b{k} :- not a{k}. " for k in range(n)
    )
    return parse_program(text)


def _ladder_model(n):
    return WfsResult(
        frozenset(f"b{k}" for k in range(n)),
        frozenset(f"a{k}" for k in range(n + 1)),
        frozenset(),
    )


def refuse_to_compile(*args, **kwargs):
    raise AssertionError("the well-founded model compiled the program")


def _refusing_to_compile():
    """Patch ``_BitProgram.__init__`` to raise: no ``_BitProgram``, so no
    gamma and no search propagation."""
    return mock.patch.object(_BitProgram, "__init__", refuse_to_compile)


@given(programs().map(lambda program: (program, oracle_well_founded(program))))
def test_well_founded_compiles_nothing(case):
    # The closure is the whole model on every program.
    program, expected = case
    with _refusing_to_compile():
        assert well_founded(program) == expected


def test_well_founded_without_positive_bodies_compiles_nothing(pi6):
    # A 20,000-link chain finishes because the closure is linear on it.
    c5 = encode_3col(graph(range(5), _cycle(list(range(5)))))
    with _refusing_to_compile():
        assert well_founded(negative_chain(20_000)) == chain_model(20_000)
        for program in (pi6, c5):
            assert well_founded(program) == oracle_well_founded(program)


def test_well_founded_skips_the_fallback_when_the_closure_is_total(caplog):
    # a300 has no rule, so it is false, and each a{k} then has no live
    # rule: the closure decides all 601 atoms without an unfounded-set
    # round and nothing is compiled.
    program = _positive_ladder(300)
    small = _positive_ladder(4)
    with _refusing_to_compile():
        assert _wfs_stats(caplog, program) == {
            "atoms": 601, "rules": 600, "decided": 601, "rounds": 0
        }
        assert well_founded(program) == _ladder_model(300)
        assert well_founded(small) == oracle_well_founded(small)


def test_well_founded_without_seeds_builds_no_occurrence_index(
    monkeypatch, caplog
):
    # Every atom of 3-col of C5 has a rule and no rule is a fact, so the
    # closure has nothing to start from. Its occurrence index is the one
    # ``enumerate`` on this path, so refusing ``enumerate`` shows that it
    # returns before building it.
    def refuse(*args, **kwargs):
        raise AssertionError("the closure built its occurrence index")

    c5 = encode_3col(graph(range(5), _cycle(list(range(5)))))
    monkeypatch.setattr(semantics, "enumerate", refuse, raising=False)
    assert well_founded(c5) == oracle_well_founded(c5)
    assert _wfs_stats(caplog, c5) == {
        "atoms": 40, "rules": 55, "decided": 0, "rounds": 0
    }


def test_well_founded_of_positive_loops(caplog):
    # No fact and no atom without a rule: the closure starts from one
    # unfounded-set round, which finds the loops.
    assert well_founded(parse_program("a :- a.")) == WfsResult(
        frozenset(), frozenset({"a"}), frozenset()
    )
    loop = parse_program("a :- b. b :- a. c :- not a.")
    assert well_founded(loop) == WfsResult(
        frozenset({"c"}), frozenset({"a", "b"}), frozenset()
    )
    assert _wfs_stats(caplog, loop) == {
        "atoms": 3, "rules": 3, "decided": 3, "rounds": 1
    }


def test_well_founded_of_a_chain_into_a_positive_loop(caplog):
    # x0 :- not x1. x1 :- not x2. x2 :- x3. x3 :- x2. One round finds
    # the unfounded loop, and the closure then decides the chain above
    # it.
    rules = list(negative_chain(3, fact=False).rules)
    rules += [Rule("x2", (pos("x3"),)), Rule("x3", (pos("x2"),))]
    program = Program(tuple(rules))
    expected = WfsResult(
        frozenset({"x1"}), frozenset({"x0", "x2", "x3"}), frozenset()
    )
    assert well_founded(program) == expected == oracle_well_founded(program)
    assert _wfs_stats(caplog, program) == {
        "atoms": 4, "rules": 4, "decided": 4, "rounds": 1
    }


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
    # One round makes ``a`` false, and the closure then makes ``b`` true.
    assert _wfs_stats(caplog, parse_program("a :- a. b :- not a.")) == {
        "atoms": 2, "rules": 2, "decided": 2, "rounds": 1
    }
    # The first round finds the loop; the second finds nothing unfounded
    # and leaves the even cycle undefined.
    assert _wfs_stats(caplog, LOOP_ABOVE_EVEN_CYCLE) == {
        "atoms": 4, "rules": 4, "decided": 2, "rounds": 2
    }
    # One round per loop, each after the closure has decided the loop
    # below.
    assert _wfs_stats(caplog, STACKED_LOOPS) == {
        "atoms": 8, "rules": 10, "decided": 8, "rounds": 3
    }


def _state_of(bp, value):
    """The state that atom values define: the values, each atom's
    number of unblocked rules, and each rule's number of literals that
    do not hold, or -1 when one is false or the rule has an atom both
    positive and negative."""
    unmet = []
    for body in bp.bodies:
        contradictory = any((a, _TRUE) in body and (a, _FALSE) in body for a, _ in body)
        if contradictory or any(value[a] not in (0, way) for a, way in body):
            unmet.append(-1)
        else:
            unmet.append(sum(value[a] != way for a, way in body))
    live = [sum(unmet[r] >= 0 for r in rules) for rules in bp.rules_of]
    return value, live, unmet


def _open_inferences(bp, state):
    """The inferences of the module docstring that would still narrow
    or refute ``state``, by their definitions; empty at a fixpoint."""
    value, _live, unmet = state
    found = []
    for atom, rules in enumerate(bp.rules_of):
        unblocked = [r for r in rules if unmet[r] >= 0]
        if value[atom] != _FALSE and not unblocked:
            found.append(("support", atom))
        if value[atom] == _TRUE and len(unblocked) == 1:
            if unmet[unblocked[0]]:
                found.append(("support", atom))
        for r in unblocked:
            if value[atom] == _FALSE and unmet[r] < 2:
                found.append(("false head", r))
            selfneg = bp.self_negating[r]
            if not value[atom] and unmet[r] <= selfneg:
                found.append(("true body", r))
    # gamma(upper) lies in lower (the completion implies it), and every
    # atom that is not false is in gamma(lower) (the unfounded bound).
    upper = bytearray(v or _TRUE for v in value)
    for atom, derived in enumerate(bp.gamma(upper)):
        if derived and value[atom] != _TRUE:
            found.append(("gamma(upper)", atom))
    for atom, derived in enumerate(bp.gamma(value)):
        if not derived and value[atom] != _FALSE:
            found.append(("unfounded", atom))
    return found


def _walk(bp, data, check):
    """Down a random branch path from the root, call ``check`` on the
    decisions so far and the propagated node's state, or None on a
    conflict."""
    decided = []
    state = bp.root()
    if not bp.propagate(state, bp.initial):
        state = None
    while True:
        check(decided, state)
        if state is None or state[0].find(0) < 0:
            return
        undecided = [a for a, v in enumerate(state[0]) if not v]
        decision = (
            data.draw(st.sampled_from(undecided)),
            data.draw(st.sampled_from((_TRUE, _FALSE))),
        )
        decided.append(decision)
        child = bytearray(state[0]), state[1].copy(), state[2].copy()
        state = child if bp.propagate(child, [decision]) else None


@pytest.mark.parametrize(
    "text, decided, true, false",
    [
        # 1. Support: p's one unblocked rule makes q false and r true.
        (
            "p :- not q, r. p :- s. s :- not t. t :- not s. q :- not u. "
            "u :- not q. r :- not v. v :- not r.",
            {"p": True, "s": False},
            "p r t u",
            "q s v",
        ),
        # 2. False head: a's rule has one literal left, so c is true.
        (
            "a :- not b, not c. b :- not d. d :- not b. c :- not e. e :- not c.",
            {"b": False, "a": False},
            "c d",
            "a b e",
        ),
        # 3. True body but for ``not p``: p is true, and needs ``not s``.
        (
            "p :- not p, q. q :- not r. r :- not q. p :- not s. s :- not p.",
            {"q": True},
            "p q",
            "r s",
        ),
        # 1. No unblocked rule: b, then a, is false.
        ("a :- b. b :- not c. c :- not b.", {"c": True}, "c", "a b"),
    ],
)
def test_each_inference_of_the_completion(text, decided, true, false):
    program = parse_program(text)
    bp = _BitProgram(program.rules, program.atoms)
    state = bp.root()
    assert bp.propagate(state, bp.initial)
    for atom, truth in decided.items():
        decision = bp.index[atom], _TRUE if truth else _FALSE
        assert bp.propagate(state, [decision])
    values = dict(zip(bp.atoms, state[0]))
    assert {atom for atom, v in values.items() if v == _TRUE} == set(true.split())
    assert {atom for atom, v in values.items() if v == _FALSE} == set(false.split())


@given(programs(), st.data())
def test_a_node_propagates_from_its_parents_state(program, data):
    # Propagating a child from a copy of its parent's state gives what
    # propagating the same decisions from the root gives: the same
    # state, or a conflict. Each state is the one its values define, and
    # no inference is left to draw from it.
    bp = _BitProgram(program.rules, program.atoms)

    def check(decided, state):
        again = bp.root()
        if not bp.propagate(again, bp.initial + decided):
            again = None
        assert state == again
        if state is not None:
            assert state == _state_of(bp, state[0])
            assert _open_inferences(bp, state) == []

    _walk(bp, data, check)


@given(programs(), st.data())
def test_a_node_keeps_every_answer_that_agrees_with_its_decisions(program, data):
    # Soundness: an answer set that takes every decision on the path
    # lies inside the node's propagated interval.
    bp = _BitProgram(program.rules, program.atoms)
    answers = [
        [_TRUE if atom in s else _FALSE for atom in bp.atoms]
        for s in oracle_answer_sets(program)
    ]

    def check(decided, state):
        for answer in answers:
            if all(answer[a] == truth for a, truth in decided):
                assert state is not None
                assert all(v in (0, truth) for v, truth in zip(state[0], answer))

    _walk(bp, data, check)


def _cycle(nodes):
    return [(u, nodes[(i + 1) % len(nodes)]) for i, u in enumerate(nodes)]


def _enumeration_stats(caplog, program):
    """The enumeration debug record's dict for ``program``."""
    caplog.set_level(logging.DEBUG, logger="aspnf")
    caplog.clear()
    answers = len(enumerate_answer_sets(program, max_atoms=len(program.atoms)))
    [record] = [r for r in caplog.records if r.name == "aspnf"]
    assert record.args["answers"] == answers
    return record.args


def _search_stats(caplog, g):
    """The debug record's dict for the 3-colouring of ``g``."""
    return _enumeration_stats(caplog, encode_3col(g))


def refuse_gamma(*args, **kwargs):
    raise AssertionError("gamma ran")


@given(programs(negative_only=True))
def test_negative_only_search_runs_no_gamma(program):
    # Without positive body literals the completion implies the
    # unfounded bound (module docstring), so the search runs no gamma.
    with mock.patch.object(_BitProgram, "gamma", refuse_gamma):
        answers = list(enumerate_answer_sets(program))
    assert answers == oracle_answer_sets(program)


def test_search_record(caplog, monkeypatch):
    # 3-colourings of the cycle C_n: fewer than 3 search nodes per answer,
    # and exactly the nodes and conflicts of the current pruning, with no
    # gamma.
    monkeypatch.setattr(_BitProgram, "gamma", refuse_gamma)
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


# A programs() draw with positive bodies, conflicts and three answers.
DRAWN = """
x4 :- not x4, not x6, not x1.  x2 :- not x6.  x6 :- not x2.
x1 :- not x6, not x3.  x6 :- not x1.  x1 :- not x0, not x2, x1, not x6.
x0 :- not x1.  x2 :- not x1.  x1 :- not x2.  x0 :- x2, x4, x3.
x0 :- not x5, x4, not x3.  x5 :- not x0.  x2 :- x4.  x1 :- not x3, not x6.
"""


def test_search_record_with_positive_bodies(caplog):
    # With positive body literals the unfounded bound runs between
    # counter fixpoints; the search takes exactly the nodes and conflicts of the
    # current pruning. A positive loop, the same loop fed by an even
    # cycle, and a drawn program.
    for text, pin in (
        ("a :- b. b :- a. c :- not a.", (1, 0)),
        ("a :- not b. b :- not a. p :- q. q :- p. p :- a. q :- not p, b.", (5, 2)),
        (DRAWN, (7, 1)),
    ):
        program = parse_program(text)
        stats = _enumeration_stats(caplog, program)
        assert (stats["nodes"], stats["conflicts"]) == pin, (text, stats)
        assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


def _hamiltonian(n):
    """Hamiltonian cycles of the complete digraph on ``n`` nodes: each
    arc is in or out, two arcs with the same source or target are not
    both in, and every node is reached from node 0 along ``in`` arcs."""
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    text = [f"in({u},{v}) :- not out({u},{v}). out({u},{v}) :- not in({u},{v})."
            for u, v in arcs]
    text += [
        f":- in({a},{b}), in({c},{d})."
        for i, (a, b) in enumerate(arcs)
        for c, d in arcs[i + 1:]
        if a == c or b == d
    ]
    text += [f"reached({v}) :- in(0,{v})." for u, v in arcs if u == 0]
    text += [f"reached({v}) :- reached({u}), in({u},{v})." for u, v in arcs if u]
    text += [f":- not reached({v})." for v in range(n)]
    return parse_program(" ".join(text))


def test_search_record_of_a_hamiltonian_encoding(caplog):
    # Constraints, a positive loop through ``reached`` and real
    # branching: K4 has 3! = 6 Hamiltonian cycles. The oracle cannot
    # enumerate 56 atoms, so the test checks each answer's cycle.
    program = _hamiltonian(4)
    stats = _enumeration_stats(caplog, program)
    assert (stats["atoms"], stats["rules"], stats["answers"]) == (56, 64, 6)
    assert (stats["nodes"], stats["conflicts"]) == (209, 99), stats
    cycles = set()
    for answer in enumerate_answer_sets(program, max_atoms=56):
        succ = dict(
            tuple(map(int, atom[3:-1].split(",")))
            for atom in answer
            if atom.startswith("in(")
        )
        node, tour = 0, []
        for _ in range(4):
            node = succ[node]
            tour.append(node)
        assert len(succ) == 4 and sorted(tour) == [0, 1, 2, 3] and node == 0
        cycles.add(tuple(tour))
    assert len(cycles) == 6


def test_search_record_of_two_disjoint_hamiltonian_encodings(caplog):
    # Each part is searched inside the one compile as K4 is on its own:
    # 209 nodes and 99 conflicts each, and 6 * 6 answers. The prefix
    # keeps the order of the second part's atoms, constraint atoms too.
    k4 = _hamiltonian(4)
    apart = {a: "__b" + a[2:] if a.startswith("__") else "b" + a for a in k4.atoms}
    program = Program(k4.rules + rename_atoms(k4, apart).rules)
    stats = _enumeration_stats(caplog, program)
    assert (stats["atoms"], stats["rules"], stats["components"]) == (112, 128, 2)
    assert stats["answers"] == 36
    assert (stats["nodes"], stats["conflicts"]) == (418, 198), stats


def _answers_and_record(program):
    """The answer sets and the enumeration debug record's dict, read
    through a mock logger: a hypothesis test cannot take ``caplog``."""
    with mock.patch.object(semantics, "_log") as log:
        answers = list(enumerate_answer_sets(program))
    return answers, log.debug.call_args.args[1]


EVEN_LOOP = Program((Rule("x0", (neg("x1"),)), Rule("x1", (neg("x0"),))))
ODD_LOOP = Program((Rule("x0", (neg("x0"),)),))


@given(programs(max_atoms=6), programs(max_atoms=6))
@example(EVEN_LOOP, ODD_LOOP)
@example(ODD_LOOP, EVEN_LOOP)
def test_disjoint_union_is_the_product_of_its_parts(first, second):
    # The second part's atoms are renamed from x* to y*, so the parts
    # share no atom. The union's search record adds up the parts' nodes
    # and conflicts, or has only the first part's when the first has no
    # answer set.
    second = rename_atoms(second, {a: "y" + a[1:] for a in second.atoms})
    union = Program(first.rules + second.rules)
    (first_answers, a), (second_answers, b) = map(_answers_and_record, (first, second))
    product = {x | y for x in first_answers for y in second_answers}
    answers, stats = _answers_and_record(union)
    assert set(answers) == product and len(answers) == len(product)
    assert answers == oracle_answer_sets(union)
    parts = [a, b] if first_answers else [a]
    assert stats["components"] == a["components"] + b["components"]
    for key in ("nodes", "conflicts"):
        assert stats[key] == sum(part[key] for part in parts), (key, stats, a, b)

import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, strategies as st

from aspnf import (
    Bridge,
    Program,
    check_3kernel,
    check_kernel,
    encode_3col,
    enumerate_answer_sets,
    find_bridges,
    long_rule_simplify,
    neg,
    parse_program,
    random_kernel_program,
    reconstruct,
    three_kernelize,
)
from aspnf import cycles as cycles_module
from aspnf import normalize as normalize_module
from aspnf.cycles import (
    AND_BRIDGE,
    OR_BRIDGE,
    StructuralIndex,
    find_cycles,
    find_or_handles,
)
from aspnf.errors import CycleCapExceededError
from aspnf.generate import graph
from aspnf.normalize import simplify_and_bridge, simplify_or_bridge
from conftest import (
    bridged_programs,
    kernel_expansions,
    oracle_cycles,
    programs,
    rename_atoms,
)


def cycle_by_atoms(cycles, atoms):
    matches = [c for c in cycles if c.atoms == tuple(atoms)]
    assert len(matches) == 1, f"expected one cycle over {atoms}, got {matches}"
    return matches[0]


def test_find_cycles_pi6(pi6):
    cycles = find_cycles(pi6)
    assert len(cycles) == 3
    handles = StructuralIndex(pi6).handles
    even = cycle_by_atoms(cycles, ("a", "b"))
    assert len(even.atoms) == 2
    assert handles[even.rules[0], "b"] == handles[even.rules[1], "a"] == ()
    loop_p = cycle_by_atoms(cycles, ("p",))
    assert len(loop_p.atoms) % 2 == 1
    assert handles[loop_p.rules[0], "p"] == (neg("b"),)
    loop_q = cycle_by_atoms(cycles, ("q",))
    assert handles[loop_q.rules[0], "q"] == ()


def test_find_cycles_ignores_positive_edges():
    assert find_cycles(parse_program("a :- b.")) == ()
    assert find_cycles(parse_program("a :- b. b :- a.")) == ()


def test_find_cycles_self_loop_with_handle():
    program = parse_program("p :- not p, not e. e :- not f.")
    cycles = find_cycles(program)
    assert len(cycles) == 1
    assert cycles[0].atoms == ("p",)
    handles = StructuralIndex(program).handles
    assert handles[cycles[0].rules[0], "p"] == (neg("e"),)


def test_find_cycles_rejects_handle_on_own_head():
    # "not p" in the remaining body disqualifies the rule as a step to q
    cycles = find_cycles(parse_program("p :- not q, not p. q :- not p."))
    assert [c.atoms for c in cycles] == [("p",)]


def test_find_cycles_canonical_rotation():
    cycles = find_cycles(parse_program("b :- not c. c :- not b."))
    assert [c.atoms for c in cycles] == [("b", "c")]


def test_overlapping_cycles_all_reported():
    program = parse_program("a :- not b. b :- not a. b :- not c. c :- not a.")
    cycles = find_cycles(program)
    assert {c.atoms for c in cycles} == {("a", "b"), ("a", "b", "c")}
    shared = parse_program("a :- not b.").rules[0]
    assert all(shared in c.rules for c in cycles)


def test_multiple_witnesses_give_multiple_cycles():
    program = parse_program("a :- not b. a :- not b, not x. b :- not a. x :- not x.")
    cycles = [c for c in find_cycles(program) if c.atoms == ("a", "b")]
    assert len(cycles) == 2
    handles = StructuralIndex(program).handles
    assert {handles[c.rules[0], "b"] for c in cycles} == {(), (neg("x"),)}


def test_cycle_cap():
    program = parse_program(
        "".join(f"x{i} :- not x{j}.\n" for i in range(5) for j in range(5) if i != j)
    )
    cap = r"more than 5 cycles \(the cycle cap\)"
    with pytest.raises(CycleCapExceededError, match=cap):
        find_cycles(program, max_cycles=5)


def test_find_cycles_long_cycle_without_recursion():
    n = 3000
    program = parse_program(
        "".join(f"a{i} :- not a{(i + 1) % n}.\n" for i in range(n))
    )
    (cycle,) = find_cycles(program)
    assert len(cycle.atoms) == n and len(cycle.atoms) % 2 == 0
    assert cycle.atoms[:3] == ("a0", "a1", "a2")


def test_find_cycles_matches_networkx():
    rng = random.Random(2024)
    for _ in range(40):
        n_atoms = rng.randint(2, 8)
        program = random_kernel_program(
            n_atoms,
            rng.randint(n_atoms, 2 * n_atoms),
            max_body=rng.randint(2, 4),
            seed=rng.randrange(10**6),
        )
        for candidate in (program, long_rule_simplify(program)[0]):
            # sorted by size, then atoms; each circuit's witness
            # combinations keep their product order (the oracle's handle
            # column is checked against the index in test_index_matches_cycles)
            expected = sorted(
                oracle_cycles(candidate), key=lambda c: (len(c.atoms), c.atoms)
            )
            total = len(expected)
            cycles = find_cycles(candidate, max_cycles=total)
            assert [(c.atoms, c.rules) for c in cycles] == [
                (c.atoms, c.rules) for c in expected
            ]
            if total:
                with pytest.raises(CycleCapExceededError):
                    find_cycles(candidate, max_cycles=total - 1)


def test_find_or_handles_pi6(pi6):
    cycles = find_cycles(pi6)
    loop_q = cycle_by_atoms(cycles, ("q",))
    handles = find_or_handles(pi6, loop_q)
    assert len(handles) == 1
    assert handles[0].head == "q"
    assert handles[0].body == (neg("a"),)
    even = cycle_by_atoms(cycles, ("a", "b"))
    assert find_or_handles(pi6, even) == ()


def test_find_or_handles_pi5(pi5):
    cycles = find_cycles(pi5)
    loop_p = cycle_by_atoms(cycles, ("p",))
    handles = find_or_handles(pi5, loop_p)
    assert [(h.head, h.body) for h in handles] == [("p", (neg("a"), neg("c")))]


def test_in_cycle_rule_is_not_auxiliary():
    # a :- not c is a cycle rule of (a, c), so not an OR handle of (a, b)
    program = parse_program("a :- not b. b :- not a. a :- not c. c :- not a.")
    cycles = find_cycles(program)
    for cycle in cycles:
        assert find_or_handles(program, cycle) == ()


def unindexed_rules(program):
    """Rules in no cycle and auxiliary to none: the condition 3
    witnesses of the 3-kernel check."""
    return [
        v.witness for v in check_3kernel(program).violations if v.condition == 3
    ]


def test_classify_pi6(pi6):
    index = StructuralIndex(pi6)
    assert len(index.in_cycle_rules) == 4
    auxiliary = [rule for rule in pi6.rules if index.is_auxiliary(rule)]
    assert [str(r) for r in auxiliary] == ["q :- not a."]
    assert unindexed_rules(pi6) == []


def test_classify_case_i(case_i):
    (bridge,) = find_bridges(case_i)
    assert [str(r) for r in bridge.chain] == ["e :- not f.", "f :- not a."]
    # the bridge steps are the only rules outside every cycle and handle
    assert unindexed_rules(case_i) == list(bridge.chain)
    index = StructuralIndex(case_i)
    auxiliary = [rule for rule in case_i.rules if index.is_auxiliary(rule)]
    assert [str(r) for r in auxiliary] == ["p :- not e."]


def test_classify_acyclic_positive_rule():
    program = parse_program("a :- b.")
    assert unindexed_rules(program) == list(program.rules)


def test_bridges_case_i(case_i):
    bridges = find_bridges(case_i)
    assert len(bridges) == 1
    bridge = bridges[0]
    assert bridge.kind == OR_BRIDGE
    assert bridge.anchor_atom == "p"
    assert bridge.chain_atoms == ("e", "f")
    assert bridge.target_atom == "a"
    assert bridge.length == 2 and bridge.is_even


def test_bridges_case_ii(case_ii):
    (bridge,) = find_bridges(case_ii)
    assert bridge.kind == OR_BRIDGE
    assert bridge.chain_atoms == ("e", "f", "g")
    assert not bridge.is_even


def test_bridges_case_iii(case_iii):
    (bridge,) = find_bridges(case_iii)
    assert bridge.kind == AND_BRIDGE
    assert bridge.chain_atoms == ("e", "f")
    assert bridge.is_even
    assert str(bridge.anchor_rule) == "p :- not p, not e."


def test_bridges_case_iv(case_iv):
    (bridge,) = find_bridges(case_iv)
    assert bridge.kind == AND_BRIDGE
    assert bridge.chain_atoms == ("e", "f", "g")
    assert bridge.length == 3 and not bridge.is_even


def test_bridge_rejects_unknown_kind_and_empty_chain(case_i):
    (bridge,) = find_bridges(case_i)
    fields = (bridge.anchor_atom, bridge.anchor_rule, bridge.chain, bridge.target_atom)
    assert Bridge(OR_BRIDGE, *fields) == bridge
    with pytest.raises(ValueError, match="unknown bridge kind 'XOR'"):
        Bridge("XOR", *fields)
    with pytest.raises(ValueError, match="bridge chain may not be empty"):
        Bridge(OR_BRIDGE, bridge.anchor_atom, bridge.anchor_rule, (), "a")


def test_no_bridges_in_pi6(pi6):
    assert find_bridges(pi6) == ()


def test_bridge_refused_when_atom_multiply_defined(case_i):
    # a second rule for f breaks "exactly one defining rule"
    program = parse_program(
        "".join(str(r) + "\n" for r in case_i.rules) + "f :- not b."
    )
    assert find_bridges(program) == ()


def test_bridge_refused_when_atom_in_two_bodies(case_i):
    program = parse_program(
        "".join(str(r) + "\n" for r in case_i.rules) + "q :- not q, not e."
    )
    bridges = find_bridges(program)
    assert all("e" not in b.chain_atoms for b in bridges)


def test_bridge_requires_target_in_other_cycle():
    # chain ends in the anchor's own cycle: not a bridge
    program = parse_program("p :- not p. p :- not e. e :- not p.")
    assert find_bridges(program) == ()


def test_analysis_report_fields(pi6):
    cycles = find_cycles(pi6)
    parities = {c.atoms: len(c.atoms) % 2 == 0 for c in cycles}
    assert parities[("a", "b")] is True
    assert parities[("p",)] is False
    lengths = {c.atoms: len(c.atoms) for c in cycles}
    assert lengths[("a", "b")] == 2
    assert lengths[("p",)] == 1


def test_analysis_report_bridges(case_iv):
    bridges = find_bridges(case_iv)
    assert len(bridges) == 1
    bridge = bridges[0]
    assert bridge.kind == AND_BRIDGE
    assert bridge.chain_atoms == ("e", "f", "g")
    assert not bridge.is_even
    assert bridge.length == 3


def test_cycle_rules_exist_in_program(pi5, pi6, case_i, case_ii, case_iii, case_iv):
    for program in (pi5, pi6, case_i, case_ii, case_iii, case_iv):
        for cycle in find_cycles(program):
            for rule in cycle.rules:
                assert rule in program.rules


def test_classification_covers_program(pi5, pi6, case_i, case_iv):
    # every rule is in a cycle, auxiliary to one, or a bridge step
    for program in (pi5, pi6, case_i, case_iv):
        steps = [rule for bridge in find_bridges(program) for rule in bridge.chain]
        assert sorted(unindexed_rules(program)) == sorted(steps)


@given(st.one_of(programs(), kernel_expansions, bridged_programs()))
def test_index_matches_cycles(program):
    cycles = oracle_cycles(program)
    index = StructuralIndex(program)
    rules = {rule for c in cycles for rule in c.rules}
    atoms = {atom for c in cycles for atom in c.atoms}
    assert index.in_cycle_rules == rules
    assert index.in_cycle_atoms == atoms
    assert index.handles == {
        (rule, step): handle
        for c in cycles
        for rule, step, handle in zip(c.rules, c.atoms[1:] + c.atoms[:1], c.handles)
    }
    auxiliary = [
        rule
        for rule in program.rules
        if rule.head in atoms
        and rule not in rules
        and rule.body
        and not any(lit.atom == rule.head for lit in rule.body)
    ]
    assert [rule for rule in program.rules if index.is_auxiliary(rule)] == auxiliary


def reference_witnesses(program):
    """The witnesses by their definition: ``not b`` in a rule's body,
    with no other literal of the body on the rule's head."""
    witnesses = {}
    for rule in program.rules:
        for lit in rule.body:
            if lit.negated and not any(
                other.atom == rule.head for other in rule.body if other != lit
            ):
                witnesses.setdefault((rule.head, lit.atom), []).append(rule)
    return witnesses


@given(st.one_of(programs(), kernel_expansions, bridged_programs()))
@example(parse_program("h :- not h, h. h :- not h, not b. b :- not h."))
@example(parse_program("h :- h, not b. h :- not b, not h, not c. b :- not h, h."))
def test_witnesses_match_their_definition(program):
    # Same steps, in the same order, with the same rules per step.
    witnesses = StructuralIndex(program).witnesses
    assert list(witnesses.items()) == list(reference_witnesses(program).items())


SELF_LOOP_CHAIN = "p :- not p, not e. e :- not f. f :- not p."


def reference_bridges(program):
    """The bridges by their first definition: the AND candidates are
    every entry of ``StructuralIndex.handles``, and a self-loop anchor's
    cycle steps are counted over its keys."""
    index = StructuralIndex(program)
    in_cycle_atoms = index.in_cycle_atoms
    cycle_steps = Counter(rule.head for rule, _step in index.handles)
    defining = {}
    body_count = Counter()
    for rule in program.rules:
        defining.setdefault(rule.head, []).append(rule)
        for lit in rule.body:
            body_count[lit.atom] += 1

    def walk(current):
        chain, seen = [], set()
        while current not in seen and body_count[current] == 1:
            seen.add(current)
            defs = defining.get(current, [])
            if len(defs) != 1 or len(defs[0].body) != 1 or not defs[0].body[0].negated:
                return None
            chain.append(defs[0])
            current = defs[0].body[0].atom
            if current in in_cycle_atoms:
                return tuple(chain), current
        return None

    auxiliary = filter(index.is_auxiliary, program.rules)
    candidates = [(OR_BRIDGE, r, r.body) for r in auxiliary]
    candidates += [(AND_BRIDGE, r, delta) for (r, _), delta in index.handles.items()]
    bridges = []
    for kind, anchor_rule, handle in candidates:
        if len(handle) != 1 or not handle[0].negated:
            continue
        if handle[0].atom in in_cycle_atoms:
            continue
        hit = walk(handle[0].atom)
        if hit is None:
            continue
        chain, target = hit
        if target == anchor_rule.head and cycle_steps[target] == 1:
            continue
        bridges.append(Bridge(kind, anchor_rule.head, anchor_rule, chain, target))
    bridges.sort(key=lambda b: (b.anchor_atom, b.target_atom, b.chain_atoms))
    return tuple(bridges)


@given(st.one_of(programs(), kernel_expansions, bridged_programs()))
@example(parse_program(SELF_LOOP_CHAIN))
@example(parse_program(SELF_LOOP_CHAIN + "p :- not p, not q."))
@example(parse_program(SELF_LOOP_CHAIN + "p :- not z. z :- not p."))
@example(parse_program("p :- not p, not e. p :- p, not e. e :- not f. f :- not p."))
@example(parse_program("a :- not b, c. b :- not a. c :- not d. d :- not c."))
def test_bridges_match_their_definition(program):
    assert find_bridges(program) == reference_bridges(program)


@given(st.one_of(bridged_programs(), kernel_expansions))
def test_bridges_pass_the_side_condition_on_cycles(program):
    # some cycle through the anchor and a different one through the target
    cycles = oracle_cycles(program)
    for bridge in find_bridges(program):
        first = neg(bridge.chain_atoms[0])
        if bridge.kind == OR_BRIDGE:
            anchors = [c for c in cycles if bridge.anchor_atom in c.atoms]
        else:
            anchors = [
                c
                for c in cycles
                for rule, handle in zip(c.rules, c.handles)
                if rule == bridge.anchor_rule and handle == (first,)
            ]
        targets = [c for c in cycles if bridge.target_atom in c.atoms]
        assert any(a != t for a in anchors for t in targets)


def test_self_loop_chain_back_to_its_anchor_is_no_bridge():
    # the self-loop p :- not p, not e is the one cycle through p
    assert find_bridges(parse_program(SELF_LOOP_CHAIN)) == ()


@pytest.mark.parametrize(
    "extra", ["p :- not p, not q.", "p :- not z. z :- not p."]
)
def test_self_loop_chain_back_to_a_second_cycle_is_a_bridge(extra):
    (bridge,) = find_bridges(parse_program(SELF_LOOP_CHAIN + extra))
    assert bridge.kind == AND_BRIDGE
    assert str(bridge.anchor_rule) == "p :- not p, not e."
    assert bridge.chain_atoms == ("e", "f")
    assert bridge.target_atom == "p"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_three_kernelize_past_the_cycle_cap(seed):
    program = random_kernel_program(20, 36, seed=seed)
    result, trace = three_kernelize(program)
    assert trace.steps and result.rules


LONG_RULES = (
    "a :- not b. b :- not a. c :- not a, not b, not c. p :- not p. p :- not a, not c."
)


def refuse_listing(monkeypatch, message):
    """Make ``find_cycles`` and its circuit search (a path from an atom
    back to itself) raise; path queries between two atoms still run."""
    paths = cycles_module._paths

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    def queries_only(source, goal, *args, **kwargs):
        if source == goal:
            raise AssertionError(message)
        return paths(source, goal, *args, **kwargs)

    monkeypatch.setattr(cycles_module, "find_cycles", refuse)
    monkeypatch.setattr(cycles_module, "_paths", queries_only)
    return refuse


def test_three_kernelize_lists_no_cycle(
    monkeypatch, pi5, case_i, case_ii, case_iii, case_iv
):
    refuse_listing(monkeypatch, "three_kernelize listed cycles")
    long_rules = parse_program(LONG_RULES)
    for program in (pi5, case_i, case_ii, case_iii, case_iv, long_rules):
        _, trace = three_kernelize(program)
        assert trace.steps
    kinds = [step.kind for step in three_kernelize(long_rules)[1].steps]
    assert kinds == ["long-rule", "long-rule"]


def reference_condition_5(program):
    """Condition 5 by its definition, over the oracle's cycles: every
    cycle, every rule on it, every handle atom of that rule on that
    cycle, flagged once per (rule, atom)."""
    flagged = {
        (rule, lit.atom)
        for c in oracle_cycles(program)
        for rule, handle in zip(c.rules, c.handles)
        for lit in handle
        if lit.atom in c.atoms
    }
    return Counter(rule for rule, _atom in flagged)


@given(st.one_of(programs(), kernel_expansions, bridged_programs()))
def test_condition_5_matches_its_definition(program):
    witnesses = [
        v.witness for v in check_3kernel(program).violations if v.condition == 5
    ]
    assert Counter(witnesses) == reference_condition_5(program)
    # reported in program order
    order = {rule: i for i, rule in enumerate(program.rules)}
    assert witnesses == sorted(witnesses, key=order.__getitem__)


def test_check_3kernel_builds_one_index_and_no_cycle(
    monkeypatch, pi5, pi6, case_i, case_ii, case_iii, case_iv
):
    refuse = refuse_listing(monkeypatch, "check_3kernel built a Cycle")
    built = []
    init = StructuralIndex.__init__

    def counting_init(self, program):
        built.append(program)
        init(self, program)

    monkeypatch.setattr(cycles_module, "Cycle", refuse)
    monkeypatch.setattr(StructuralIndex, "__init__", counting_init)
    triangle = encode_3col(graph(range(3), [(0, 1), (1, 2), (0, 2)]))
    for program in (pi5, pi6, case_i, case_ii, case_iii, case_iv, triangle):
        built.clear()
        check_3kernel(program)
        assert built == [program]
    assert 5 in check_3kernel(triangle).conditions()


@given(st.one_of(bridged_programs(), kernel_expansions))
def test_one_bridge_pass_leaves_no_bridge(program):
    assume(check_kernel(program).is_kernel)
    assert find_bridges(three_kernelize(program)[0]) == ()


@given(bridged_programs())
def test_one_bridge_pass_keeps_answer_sets(program):
    assume(check_kernel(program).is_kernel)
    result, trace = three_kernelize(program)
    restored = {
        reconstruct(s, trace) for s in enumerate_answer_sets(result, max_atoms=128)
    }
    assert restored == set(enumerate_answer_sets(program))


def case_i_copies(case_i, count):
    copies = [
        rename_atoms(case_i, {atom: f"{atom}{k}" for atom in case_i.atoms})
        for k in range(count)
    ]
    return Program(tuple(rule for copy in copies for rule in copy.rules))


def test_three_kernelize_finds_bridges_once(monkeypatch, case_i):
    program = case_i_copies(case_i, 40)
    calls = []

    def counting(program, index):
        calls.append(program)
        return cycles_module._find_bridges(program, index)

    monkeypatch.setattr(normalize_module, "_find_bridges", counting)
    result, trace = three_kernelize(program)
    assert len(calls) == 1
    assert [step.kind for step in trace.steps] == ["or-bridge-even"] * 40
    assert find_bridges(result) == ()


def test_odd_chains_back_to_one_self_loop_are_all_simplified():
    # each odd chain rewrite leaves "p :- not p, p", which witnesses no
    # step, so the second chain is simplified although p is then left
    # with one cycle step
    program = parse_program(
        SELF_LOOP_CHAIN.replace("f :- not p.", "f :- not g. g :- not p.")
        + "p :- not p, not e2. e2 :- not f2. f2 :- not p."
    )
    assert len(find_bridges(program)) == 2
    result, trace = three_kernelize(program)
    kinds = [step.kind for step in trace.steps]
    assert kinds == ["and-bridge-odd", "and-bridge-even"]
    assert find_bridges(result) == ()
    restored = {reconstruct(s, trace) for s in enumerate_answer_sets(result)}
    assert restored == set(enumerate_answer_sets(program))


def sequential_three_kernelize(program):
    """The reference: long-rule simplification, then one public bridge
    rewrite per bridge of its result, in the sorted order of
    ``find_bridges``, each on the previous result."""
    result, trace = long_rule_simplify(program)
    steps = list(trace.steps)
    for bridge in find_bridges(result):
        simplify = (
            simplify_or_bridge if bridge.kind == OR_BRIDGE else simplify_and_bridge
        )
        result, bridge_trace = simplify(result, bridge)
        steps += bridge_trace.steps
    return result, tuple(steps)


@given(st.one_of(bridged_programs(), kernel_expansions))
def test_three_kernelize_matches_sequential_rewrites(program):
    assume(check_kernel(program).is_kernel)
    result, trace = three_kernelize(program)
    expected, steps = sequential_three_kernelize(program)
    assert result == expected
    assert trace.steps == steps
    assert trace.surviving_atoms == expected.atoms
    assert trace.original_atoms == program.atoms


def test_three_kernelize_builds_at_most_two_programs(monkeypatch, case_i):
    # one Program for the long-rule rewrite and one for all bridges,
    # not one per bridge
    program = case_i_copies(case_i, 40)
    built = []
    post_init = Program.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Program, "__post_init__", counting)
    _, trace = three_kernelize(program)
    assert len(trace.steps) == 40
    assert len(built) <= 2

import json
import logging
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from aspnf import (
    KernelFormError,
    ReconstructionError,
    TransformTrace,
    check_3kernel,
    check_kernel,
    enumerate_answer_sets,
    equivalent_mod_projection,
    find_bridges,
    long_rule_simplify,
    parse_program,
    random_kernel_program,
    reconstruct,
    render_program,
    three_kernelize,
    trace_to_dict,
)
from aspnf import cycles as cycles_module
from aspnf.cycles import StructuralIndex
from aspnf.errors import BridgeNotFoundError
from aspnf.model import is_reserved
from aspnf.normalize import (
    NOTE_CONSTRAINT_GUARD,
    NOTE_REROUTES_CYCLE,
    _apply,
    _bridge_step,
    _expanded_index,
    _long_rule_steps,
    simplify_and_bridge,
    simplify_or_bridge,
)
from conftest import (
    PI5_TEXT,
    bridged_programs,
    kernel_expansions,
    oracle_answer_sets,
    random_kernel_programs,
    rename_atoms,
)

PI5_SIMPLIFIED_TEXT = """
p :- not p.
p :- not h1.
h1 :- not h2.
h2 :- not h3, not a.
h3 :- not h4.
h4 :- not h5, not c.
h5 :- not p.
a :- not b.
b :- not a.
c :- not d.
d :- not c.
"""


def test_long_rule_simplify_pi5(pi5):
    result, trace = long_rule_simplify(pi5)
    assert len(result) == 11
    renamed = rename_atoms(result, {f"__h0_{i}": f"h{i}" for i in range(1, 6)})
    assert set(renamed.rules) == set(parse_program(PI5_SIMPLIFIED_TEXT).rules)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert step.kind == "long-rule"
    assert len(step.fresh_atoms) == 5
    assert len(step.added) == 6
    assert NOTE_REROUTES_CYCLE not in step.notes
    assert equivalent_mod_projection(pi5, result, pi5.atoms)


def test_long_rule_simplify_fresh_names_avoid_input_atoms():
    # pi5's own 3-kernel output read back with one more long rule
    # carries __h0_* already; the second program carries the names of
    # both the chain (__h0_*) and the guard (__g0_*) of its long rule
    first, _ = three_kernelize(parse_program(PI5_TEXT))
    reentrant = render_program(first) + "p :- not b, not d.\n"
    guarded = (
        "p :- not __h0_1. __h0_1 :- not p. __h0_1 :- not x, not __g0_0.\n"
        "x :- not __g0_0. __g0_0 :- not x.\n"
    )
    for text in (reentrant, guarded):
        program = parse_program(text, allow_reserved=True)
        result, trace = long_rule_simplify(program)
        fresh = {atom for step in trace.steps for atom in step.fresh_atoms}
        assert fresh and not fresh & program.atoms
        expected = set(oracle_answer_sets(program))
        projected = {s & program.atoms for s in oracle_answer_sets(result)}
        assert expected and projected == expected


def test_reconstruct_keeps_reserved_atoms_of_the_input():
    # the input already carries __h0_* atoms, which belong to its
    # answer sets and must survive reconstruction
    first, _ = three_kernelize(parse_program(PI5_TEXT))
    text = render_program(first) + "p :- not b, not d.\n"
    program = parse_program(text, allow_reserved=True)
    result, trace = three_kernelize(program)
    expected = oracle_answer_sets(program)
    assert [sorted(s) for s in expected] == [
        ["__h0_1", "__h0_3", "a", "c", "p"],
        ["__h0_2", "__h0_4", "b", "d", "p"],
    ]
    restored = {reconstruct(s, trace) for s in oracle_answer_sets(result)}
    assert restored == set(expected)
    assert trace.original_atoms == program.atoms


def test_long_rule_simplify_no_long_rules():
    program = parse_program("a :- not b. b :- not a.")
    result, trace = long_rule_simplify(program)
    assert result == program
    assert trace.steps == ()


def test_long_rule_simplify_requires_kernel_form():
    with pytest.raises(KernelFormError):
        long_rule_simplify(parse_program("a."))
    with pytest.raises(KernelFormError):
        long_rule_simplify(parse_program("p :- not p, q. q :- not p."))


def test_kernel_form_error_names_each_condition_once():
    chain = "".join(f"a_{k} :- not a_{k + 1}.\n" for k in range(199))
    with pytest.raises(KernelFormError) as caught:
        long_rule_simplify(parse_program(chain + "p. q :- p."))
    assert str(caught.value) == (
        "the program is not in kernel form; violations: "
        "wfs-irreducible, negative-bodies-only, every-atom-in-some-body"
    )


def test_long_rule_simplify_in_cycle_rule():
    # a three-condition rule inside a two-cycle gets rerouted; without a
    # bare self-loop on p the guard cycle is emitted too (4 conditions
    # pad to an odd 5-cycle)
    program = parse_program(
        "p :- not q, not x, not y. q :- not p. x :- not y. y :- not x."
    )
    assert check_kernel(program).is_kernel
    result, trace = long_rule_simplify(program)
    (step,) = trace.steps
    assert NOTE_REROUTES_CYCLE in step.notes
    assert NOTE_CONSTRAINT_GUARD in step.notes
    assert len(step.fresh_atoms) == 7 + 5
    assert len(step.added) == 8 + 5
    assert list(enumerate_answer_sets(result)) == oracle_answer_sets(result)
    assert equivalent_mod_projection(program, result, program.atoms)


def test_long_rule_guard_skipped_with_bare_self_loop(pi5):
    # p :- not p already forces p everywhere, so no guard appears
    _, trace = long_rule_simplify(pi5)
    (step,) = trace.steps
    assert NOTE_CONSTRAINT_GUARD not in step.notes
    assert not [a for a in step.fresh_atoms if a.startswith("__g")]


def test_long_rule_guard_restores_firing_constraint():
    # without the guard, dropping h while x and y are false would
    # wrongly become consistent (the chain alone cannot reject it)
    program = parse_program(
        "h :- not k. k :- not h. h :- not x, not y. "
        "x :- not x2. x2 :- not x. y :- not y2. y2 :- not y."
    )
    result, _ = long_rule_simplify(program)
    original = oracle_answer_sets(program)
    transformed = oracle_answer_sets(result)
    assert len(original) == len(transformed) == 7
    assert {s & program.atoms for s in transformed} == set(original)
    assert frozenset({"k", "x2", "y2"}) not in {
        s & program.atoms for s in transformed
    }


def test_long_rule_guard_on_self_loop_with_conditions():
    # the replaced rule is itself the self-loop; its head is deduped
    # from the guard conditions (3 conditions make an odd 3-cycle)
    program = parse_program(
        "a1 :- not a1, not a2, not a3. a2 :- not a3, not a1. a3 :- not a2."
    )
    assert check_kernel(program).is_kernel
    result, trace = long_rule_simplify(program)
    assert equivalent_mod_projection(program, result, program.atoms, max_atoms=64)
    original = oracle_answer_sets(program)
    transformed = enumerate_answer_sets(result, max_atoms=64)
    assert len(original) == len(transformed)


def test_long_rule_output_preserves_dependency_parity(pi5):
    result, trace = long_rule_simplify(pi5)
    edges = {
        (rule.head, lit.atom)
        for rule in result.rules
        for lit in rule.body
        if lit.negated
    }

    def negative_distance(source, target):
        frontier = {source}
        steps = 0
        while target not in frontier:
            frontier = {b for a, b in edges if a in frontier}
            steps += 1
            assert steps <= len(result.atoms)
        return steps

    (step,) = trace.steps
    head = step.removed[0].head
    for i, lit in enumerate(step.removed[0].body, start=1):
        assert negative_distance(head, lit.atom) == 2 * i + 1


def test_simplify_or_bridge_case_i(case_i):
    (bridge,) = find_bridges(case_i)
    result, trace = simplify_or_bridge(case_i, bridge)
    assert result == parse_program("p :- not p. p :- not a. a :- not b. b :- not a.")
    (step,) = trace.steps
    assert step.kind == "or-bridge-even"
    surviving = frozenset(case_i.atoms) - {"e", "f"}
    assert equivalent_mod_projection(case_i, result, surviving)


def test_simplify_or_bridge_case_ii(case_ii):
    (bridge,) = find_bridges(case_ii)
    result, trace = simplify_or_bridge(case_ii, bridge)
    assert result == parse_program("p :- not p. p :- a. a :- not b. b :- not a.")
    assert trace.steps[0].kind == "or-bridge-odd"
    surviving = frozenset(case_ii.atoms) - {"e", "f", "g"}
    assert equivalent_mod_projection(case_ii, result, surviving)


def test_simplify_and_bridge_case_iii(case_iii):
    (bridge,) = find_bridges(case_iii)
    result, trace = simplify_and_bridge(case_iii, bridge)
    assert result == parse_program("p :- not p, not a. a :- not b. b :- not a.")
    assert trace.steps[0].kind == "and-bridge-even"
    surviving = frozenset(case_iii.atoms) - {"e", "f"}
    assert equivalent_mod_projection(case_iii, result, surviving)


def test_simplify_and_bridge_case_iv(case_iv):
    (bridge,) = find_bridges(case_iv)
    result, trace = simplify_and_bridge(case_iv, bridge)
    assert result == parse_program("p :- not p, a. a :- not b. b :- not a.")
    assert trace.steps[0].kind == "and-bridge-odd"
    surviving = frozenset(case_iv.atoms) - {"e", "f", "g"}
    assert equivalent_mod_projection(case_iv, result, surviving)
    # both sides have one answer set, with p false, projecting to {b}
    for collection in (oracle_answer_sets(case_iv), list(enumerate_answer_sets(result))):
        assert len(collection) == 1
        assert collection[0] & {"a", "b", "p"} == {"b"}


def test_simplify_checks_bridge_kind(case_i):
    (bridge,) = find_bridges(case_i)
    with pytest.raises(ValueError):
        simplify_and_bridge(case_i, bridge)


def test_simplify_rejects_stale_bridge(case_i, case_ii):
    (bridge,) = find_bridges(case_ii)
    with pytest.raises(BridgeNotFoundError):
        simplify_or_bridge(case_i, bridge)


def test_reconstruct_case_i(case_i):
    (bridge,) = find_bridges(case_i)
    result, trace = simplify_or_bridge(case_i, bridge)
    assert list(enumerate_answer_sets(result)) == [frozenset({"b", "p"})]
    restored = reconstruct({"b", "p"}, trace)
    assert restored == {"b", "f", "p"}
    assert restored in oracle_answer_sets(case_i)


def test_reconstruct_empty_trace_strips_reserved():
    trace = TransformTrace((), frozenset({"a"}), frozenset({"a"}))
    assert reconstruct({"a", "__h0_1"}, trace) == {"a"}


def test_reconstruct_unknown_source_errors(case_i):
    (bridge,) = find_bridges(case_i)
    _, trace = simplify_or_bridge(case_i, bridge)
    bad = TransformTrace(trace.steps, frozenset(), frozenset())
    with pytest.raises(ReconstructionError):
        reconstruct(frozenset(), bad)


def test_three_kernelize_pi5(pi5):
    result, trace = three_kernelize(pi5)
    assert result == long_rule_simplify(pi5)[0]
    assert find_bridges(result) == ()
    assert check_3kernel(result).is_3kernel
    assert [s.kind for s in trace.steps] == ["long-rule"]


def test_three_kernelize_pi6_unchanged(pi6):
    result, trace = three_kernelize(pi6)
    assert result == pi6
    assert trace.steps == ()


def test_three_kernelize_case_ii(case_ii):
    result, trace = three_kernelize(case_ii)
    assert result == parse_program("p :- not p. p :- a. a :- not b. b :- not a.")
    assert [s.kind for s in trace.steps] == ["or-bridge-odd"]
    assert check_3kernel(result).is_3kernel


def _step_records(caplog, program):
    """The dicts of the step debug records of ``three_kernelize(program)``."""
    caplog.set_level(logging.DEBUG, logger="aspnf")
    caplog.clear()
    three_kernelize(program)
    return [
        r.args for r in caplog.records
        if r.name == "aspnf" and r.msg.startswith("three_kernelize:")
    ]


def test_three_kernelize_logs_one_record_per_step(caplog, case_ii):
    assert _step_records(caplog, parse_program(MERGE_TEXT)) == [
        {
            "kind": "long-rule",
            "removed": 1,
            "added": 11,
            "fresh_atoms": tuple(f"__h0_{i}" for i in range(1, 8))
            + ("__g0_0", "__g0_1", "__g0_2"),
        }
    ]
    assert _step_records(caplog, case_ii) == [
        {"kind": "or-bridge-odd", "removed": 4, "added": 1, "fresh_atoms": ()}
    ]


@pytest.mark.parametrize("n_atoms, n_rules, floor", [(4, 6, 14), (8, 12, 2)])
def test_three_kernelize_share_floor(n_atoms, n_rules, floor):
    # how often the rewrite reaches 3-kernel form; work that closes the
    # gap raises these counts, so the floor is a lower bound
    passes = sum(
        check_3kernel(
            three_kernelize(random_kernel_program(n_atoms, n_rules, seed=seed))[0]
        ).is_3kernel
        for seed in range(200)
    )
    assert passes >= floor


def test_three_kernelize_requires_kernel_form():
    with pytest.raises(KernelFormError):
        three_kernelize(parse_program("a."))


def test_check_3kernel_pi6(pi6):
    assert check_3kernel(pi6).is_3kernel


def test_check_3kernel_pi5_condition_6(pi5):
    report = check_3kernel(pi5)
    assert not report.is_3kernel
    assert report.conditions() == {6}
    (violation,) = report.violations
    assert str(violation.witness) == "p :- not a, not c."
    assert violation.label == "auxiliary-body-exactly-one"


def test_check_3kernel_case_i_conditions(case_i):
    report = check_3kernel(case_i)
    assert report.conditions() == {2, 3}
    atoms_flagged = {v.witness for v in report.violations if v.condition == 2}
    assert atoms_flagged == {"e", "f"}


def test_check_3kernel_fact():
    report = check_3kernel(parse_program("a."))
    assert 1 in report.conditions()


def test_check_3kernel_long_cycle_body():
    program = parse_program(
        "p :- not q, not x, not y. q :- not p. x :- not y. y :- not x."
    )
    assert 4 in check_3kernel(program).conditions()


def test_check_3kernel_handle_in_own_cycle():
    # in the (a, b, c) cycle the step a -> b carries handle "not c",
    # and c belongs to that same cycle
    program = parse_program("a :- not b, not c. b :- not c. c :- not a.")
    report = check_3kernel(program)
    assert 5 in report.conditions()
    witnesses = {str(v.witness) for v in report.violations if v.condition == 5}
    assert witnesses == {"a :- not b, not c."}


def test_bridge_steps_decrease_size(case_i, case_ii, case_iii, case_iv):
    for program in (case_i, case_ii, case_iii, case_iv):
        (bridge,) = find_bridges(program)
        simplify = simplify_or_bridge if bridge.kind == "OR" else simplify_and_bridge
        result, _ = simplify(program, bridge)
        assert len(result) < len(program)
        assert len(result.atoms) < len(program.atoms)


def test_trace_json_shape(case_i):
    result, trace = three_kernelize(case_i)
    document = trace_to_dict(trace)
    json.dumps(document)
    assert document["surviving_atoms"] == sorted(result.atoms)
    (step,) = document["steps"]
    assert step["kind"] == "or-bridge-even"
    assert step["dropped"] == ["f := not a", "e := a"]
    assert step["added"] == ["p :- not a."]


def test_reconstruction_formulas_reference_surviving_atoms_only(case_ii):
    _, trace = three_kernelize(case_ii)
    for step in trace.steps:
        for formula in step.dropped:
            assert formula.source in trace.surviving_atoms


def test_end_to_end_random_corpus_small():
    rng = random.Random(1)
    for _ in range(25):
        n_atoms = rng.randint(2, 6)
        n_rules = rng.randint(n_atoms, 8)
        program = random_kernel_program(n_atoms, n_rules, max_body=3, seed=rng.randrange(10**6))
        result, trace = three_kernelize(program)
        surviving = program.atoms & result.atoms
        assert equivalent_mod_projection(program, result, surviving, max_atoms=256)
        original = set(enumerate_answer_sets(program))
        restored = [
            reconstruct(s, trace)
            for s in enumerate_answer_sets(result, max_atoms=256)
        ]
        assert len(restored) == len(set(restored)) == len(original)
        assert set(restored) == original


def answers_in_original(program, *traces):
    """Answer sets of ``program`` mapped back through ``traces``, the
    last transformation first."""
    found = set()
    for answer in enumerate_answer_sets(program, max_atoms=len(program.atoms)):
        for trace in traces:
            answer = reconstruct(answer, trace)
        found.add(answer)
    return found


kernel_draws = st.builds(
    lambda atoms, extra, seed: random_kernel_program(atoms, atoms + extra, seed=seed),
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 2**16),
)


@given(kernel_draws)
def test_three_kernelize_is_sound_and_reenters(program):
    # long rules, and the result read back as input with its "__" atoms
    expected = set(oracle_answer_sets(program))
    result, trace = three_kernelize(program)
    assert answers_in_original(result, trace) == expected
    assert parse_program(render_program(result), allow_reserved=True) == result
    if check_kernel(result).is_kernel:
        again, second = three_kernelize(result)
        assert answers_in_original(again, second, trace) == expected


def test_three_kernelize_composite_pipeline(case_i):
    # a long auxiliary rule and an OR bridge in one program: the
    # pipeline must run the long-rule step once and then eliminate the
    # bridge, staying equivalent with bijective reconstruction
    program = parse_program(
        "".join(str(r) + "\n" for r in case_i.rules)
        + "p :- not a, not c.\nc :- not d.\nd :- not c.\n"
    )
    assert check_kernel(program).is_kernel
    result, trace = three_kernelize(program)
    kinds = [step.kind for step in trace.steps]
    assert kinds.count("long-rule") == 1
    assert "or-bridge-even" in kinds
    assert find_bridges(result) == ()
    surviving = program.atoms & result.atoms
    assert equivalent_mod_projection(program, result, surviving, max_atoms=64)
    original = set(enumerate_answer_sets(program))
    restored = [
        reconstruct(s, trace) for s in enumerate_answer_sets(result, max_atoms=64)
    ]
    assert len(restored) == len(set(restored)) == len(original)
    assert set(restored) == original


def test_long_rule_per_step_size_counts():
    rng = random.Random(2)
    for _ in range(25):
        n_atoms = rng.randint(2, 7)
        n_rules = rng.randint(n_atoms, 9)
        program = random_kernel_program(
            n_atoms, n_rules, max_body=4, seed=rng.randrange(10**6)
        )
        result, trace = long_rule_simplify(program)
        fresh = {a for a in result.atoms if is_reserved(a)}
        assert fresh == {a for step in trace.steps for a in step.fresh_atoms}
        for step in trace.steps:
            rule = step.removed[0]
            j = len(rule.body)
            chain_atoms = 2 * j + 1
            guard_atoms = 0
            if NOTE_CONSTRAINT_GUARD in step.notes:
                conditions = 1 + sum(
                    1 for lit in rule.body if lit.atom != rule.head
                )
                guard_atoms = conditions if conditions % 2 == 1 else conditions + 1
            assert len(step.fresh_atoms) == chain_atoms + guard_atoms
            assert len(step.added) == chain_atoms + 1 + guard_atoms


# The self-referential long rule's chain adds a -> b and a -> c, which
# puts b and c on a cycle, though neither was on one in the input.
MERGE_TEXT = "a :- not a, not b, not c.\nb :- not c.\nc :- not a.\n"
# Two long auxiliary rules with one head: both chains join {a, e}.
TWO_LONG_RULES_TEXT = (
    "a :- not e. e :- not a. a :- not b, not c. a :- not c, not d."
    " b :- not c. c :- not b. d :- not d."
)
# A long auxiliary rule whose head has only a bare self-loop: no guard,
# and the head's component is the head and its chain.
BARE_SELF_LOOP_TEXT = "a :- not a. a :- not b, not c. b :- not c. c :- not b."
INDEX_EXAMPLES = (MERGE_TEXT, TWO_LONG_RULES_TEXT, BARE_SELF_LOOP_TEXT)


def index_summary(index):
    """Components as a set of sets, in-cycle rules and atoms, and the
    cycle steps as (step, rule) pairs."""
    return (
        {frozenset(members) for members in index._component_of.values()},
        index.in_cycle_rules,
        index.in_cycle_atoms,
        set(index._cycle_steps),
    )


index_draws = st.one_of(random_kernel_programs, kernel_expansions, bridged_programs())


def test_index_examples_are_long_kernel_programs():
    for text in INDEX_EXAMPLES:
        program = parse_program(text)
        assert check_kernel(program).is_kernel
        assert long_rule_simplify(program)[1].steps
    # in the merge example, b and c join a cycle only through the rewrite
    program = parse_program(MERGE_TEXT)
    assert StructuralIndex(program).in_cycle_atoms == {"a"}
    expanded = long_rule_simplify(program)[0]
    assert {"b", "c"} <= StructuralIndex(expanded).in_cycle_atoms
    steps = long_rule_simplify(parse_program(TWO_LONG_RULES_TEXT))[1].steps
    assert [step.removed[0].head for step in steps] == ["a", "a"]
    steps = long_rule_simplify(parse_program(BARE_SELF_LOOP_TEXT))[1].steps
    assert [step.notes for step in steps] == [()]


@example(parse_program(MERGE_TEXT))
@example(parse_program(TWO_LONG_RULES_TEXT))
@example(parse_program(BARE_SELF_LOOP_TEXT))
@given(index_draws)
def test_expanded_index_is_the_index_of_the_expansion(program):
    assume(check_kernel(program).is_kernel)
    index, steps = _long_rule_steps(program)
    expanded, _ = _apply(program, steps)
    derived = _expanded_index(index, steps, expanded)
    assert index_summary(derived) == index_summary(StructuralIndex(expanded))


@example(parse_program(MERGE_TEXT))
@example(parse_program(TWO_LONG_RULES_TEXT))
@example(parse_program(BARE_SELF_LOOP_TEXT))
@given(index_draws)
def test_three_kernelize_is_the_composition_of_its_rewrites(program):
    assume(check_kernel(program).is_kernel)
    expanded, trace = long_rule_simplify(program)
    steps = [_bridge_step(bridge) for bridge in find_bridges(expanded)]
    result, bridged = _apply(expanded, steps)
    assert three_kernelize(program) == (
        result,
        TransformTrace(trace.steps + bridged.steps, result.atoms, program.atoms),
    )


def test_three_kernelize_runs_tarjan_over_input_atoms_only(monkeypatch, pi5, case_i):
    calls = []
    components = cycles_module._components

    def recording(successors):
        calls.append(set(successors).union(*successors.values()))
        return components(successors)

    built = []
    init = StructuralIndex.__init__

    def counting_init(self, program):
        built.append(program)
        init(self, program)

    monkeypatch.setattr(cycles_module, "_components", recording)
    monkeypatch.setattr(StructuralIndex, "__init__", counting_init)
    samples = [pi5, case_i, *map(parse_program, INDEX_EXAMPLES)]
    samples += [random_kernel_program(8, 13, max_body=3, seed=s) for s in range(40)]
    for program in samples:
        calls.clear()
        built.clear()
        result, trace = three_kernelize(program)
        assert built == [program]
        assert calls
        for atoms in calls:
            assert not any(is_reserved(atom) for atom in atoms)
            assert len(atoms) <= len(program.atoms)
    # the samples do rewrite long rules, so fresh atoms were there to index
    assert any(is_reserved(atom) for atom in result.atoms)

import random

import pytest

from aspnf import (
    AntiChain,
    Program,
    Rule,
    UniverseTooLargeError,
    enumerate_answer_sets,
    gamma,
    neg,
    parse_program,
    well_founded,
)
from aspnf.generate import random_kernel_program
from conftest import oracle_answer_sets, oracle_well_founded, random_general_program


# gamma is the least model of the Gelfond-Lifschitz reduct; the tests
# named after the reduct and the least model pin those two halves.


def test_gl_reduct_pi6(pi6):
    # {b, q} drops every rule but "b :- not a." and "q :- not a."
    assert gamma(pi6, {"b", "q"}) == gamma(parse_program("b. q."), set())


def test_gl_reduct_positive_program_unchanged():
    program = parse_program("a :- b. b.")
    assert gamma(program, {"a"}) == gamma(program, set()) == {"a", "b"}


def test_gl_reduct_single_deletion():
    program = parse_program("p :- not p.")
    assert gamma(program, set()) == {"p"}
    assert gamma(program, {"p"}) == frozenset()


def test_gl_reduct_ignores_unknown_atoms(pi6):
    assert gamma(pi6, {"zzz"}) == gamma(pi6, set())
    assert gamma(pi6, {"b", "q", "zzz"}) == gamma(pi6, {"b", "q"})


def test_least_model_facts_only():
    program = parse_program("b. q.")
    assert gamma(program, set()) == gamma(program, {"b"}) == {"b", "q"}


def test_least_model_empty():
    assert gamma(Program(), set()) == frozenset()
    assert gamma(Program(), {"a"}) == frozenset()


def test_least_model_unfounded_positive_cycle():
    assert gamma(parse_program("a :- b. b :- a."), set()) == frozenset()


def test_gamma_pi6_empty_set(pi6):
    assert gamma(pi6, set()) == {"a", "b", "p", "q"}


def test_gamma_pi6_answer_set(pi6):
    assert gamma(pi6, {"b", "q"}) == {"b", "q"}


def test_gamma_full_universe_kills_all_negative_rules(pi6):
    assert gamma(pi6, pi6.atoms) == frozenset()


def test_gamma_antimonotone_on_random_programs():
    rng = random.Random(42)
    for _ in range(300):
        program = random_general_program(rng, 6, 8)
        atoms = sorted(program.atoms)
        s1 = {a for a in atoms if rng.random() < 0.4}
        s2 = s1 | {a for a in atoms if rng.random() < 0.4}
        assert gamma(program, s2) <= gamma(program, s1)


def test_gamma_squared_monotone():
    rng = random.Random(43)
    for _ in range(200):
        program = random_general_program(rng, 6, 8)
        atoms = sorted(program.atoms)
        s1 = {a for a in atoms if rng.random() < 0.4}
        s2 = s1 | {a for a in atoms if rng.random() < 0.4}
        assert gamma(program, gamma(program, s1)) <= gamma(program, gamma(program, s2))


def test_is_answer_set_pi6(pi6):
    # s is an answer set iff gamma(p, s) == s
    assert gamma(pi6, {"b", "q"}) == {"b", "q"}
    assert gamma(pi6, {"a"}) != {"a"}
    # atoms outside the program are never in an answer set
    assert gamma(pi6, {"b", "q", "zzz"}) != {"b", "q", "zzz"}
    # gamma({a}) leaves p and q underivable only via their loops
    assert gamma(pi6, {"a"}) == {"a", "p", "q"}


def test_odd_loop_has_no_answer_set():
    program = parse_program("p :- not p.")
    assert gamma(program, set()) != set()
    assert gamma(program, {"p"}) != {"p"}


def test_enumerate_pi6(pi6):
    assert [sorted(s) for s in enumerate_answer_sets(pi6)] == [["b", "q"]]


def test_enumerate_even_cycle():
    collection = enumerate_answer_sets(parse_program("a :- not b. b :- not a."))
    assert [sorted(s) for s in collection] == [["a"], ["b"]]


def test_enumerate_odd_loop_empty():
    assert len(enumerate_answer_sets(parse_program("p :- not p."))) == 0


def test_enumerate_empty_program():
    assert [sorted(s) for s in enumerate_answer_sets(Program())] == [[]]


def test_enumerate_order_is_size_then_lexicographic():
    program = parse_program(
        "a :- not b. b :- not a. c :- not d. d :- not c."
    )
    collection = enumerate_answer_sets(program)
    assert [sorted(s) for s in collection] == [
        ["a", "c"],
        ["a", "d"],
        ["b", "c"],
        ["b", "d"],
    ]


def test_enumerate_cap():
    rules = tuple(Rule(f"x{i}", (neg(f"y{i}"),)) for i in range(13))
    rules += tuple(Rule(f"y{i}", (neg(f"x{i}"),)) for i in range(13))
    program = Program(rules)
    assert len(program.atoms) == 26
    with pytest.raises(UniverseTooLargeError):
        enumerate_answer_sets(program)
    assert len(enumerate_answer_sets(program, max_atoms=26)) == 2**13


def test_enumerate_matches_oracle_on_paper_programs(pi5, pi6, case_i, case_iv):
    for program in (pi5, pi6, case_i, case_iv):
        assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


def test_enumerate_matches_oracle_on_random_programs():
    rng = random.Random(77)
    for _ in range(150):
        program = random_general_program(rng, 6, 9)
        assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)


def test_enumerate_members_pass_is_answer_set_and_nonmembers_fail():
    # exhaustive cross-check of the answer-set test gamma(p, s) == s
    rng = random.Random(78)
    import itertools

    for _ in range(20):
        program = random_general_program(rng, 5, 8)
        collection = enumerate_answer_sets(program)
        atoms = sorted(program.atoms)
        for size in range(len(atoms) + 1):
            for combo in itertools.combinations(atoms, size):
                candidate = frozenset(combo)
                assert (gamma(program, candidate) == candidate) == (candidate in collection)


def test_answer_sets_form_antichain():
    rng = random.Random(79)
    for _ in range(80):
        program = random_general_program(rng, 7, 9)
        answer_sets = enumerate_answer_sets(program)
        antichain = AntiChain(program.atoms, frozenset(answer_sets))
        assert len(antichain.components) == len(answer_sets)


def test_well_founded_pi6_all_undefined(pi6):
    wfs = well_founded(pi6)
    assert wfs.true_atoms == frozenset()
    assert wfs.false_atoms == frozenset()
    assert wfs.undefined_atoms == {"a", "b", "p", "q"}


def test_well_founded_stratified():
    wfs = well_founded(parse_program("a. b :- not a."))
    assert wfs.true_atoms == {"a"}
    assert wfs.false_atoms == {"b"}
    assert wfs.undefined_atoms == frozenset()


def test_well_founded_empty():
    wfs = well_founded(Program())
    assert wfs == well_founded(Program())
    assert wfs.true_atoms == wfs.false_atoms == wfs.undefined_atoms == frozenset()


def test_well_founded_partitions_universe():
    rng = random.Random(80)
    for _ in range(100):
        program = random_general_program(rng, 7, 9)
        wfs = well_founded(program)
        assert wfs.true_atoms | wfs.false_atoms | wfs.undefined_atoms == program.atoms
        assert not wfs.true_atoms & wfs.false_atoms
        assert not wfs.true_atoms & wfs.undefined_atoms
        assert not wfs.false_atoms & wfs.undefined_atoms


def test_well_founded_respected_by_answer_sets():
    rng = random.Random(81)
    for _ in range(100):
        program = random_general_program(rng, 6, 9)
        wfs = well_founded(program)
        for answer_set in enumerate_answer_sets(program):
            assert wfs.true_atoms <= answer_set
            assert not answer_set & wfs.false_atoms


def test_well_founded_matches_oracle_on_random_programs():
    rng = random.Random(82)
    for _ in range(400):
        program = random_general_program(rng, 7, 10)
        assert well_founded(program) == oracle_well_founded(program)


def test_well_founded_matches_oracle_on_kernel_programs():
    for seed in range(40):
        program = random_kernel_program(8, 12, seed=seed)
        assert well_founded(program) == oracle_well_founded(program)
        # without one rule the program usually leaves kernel form
        smaller = Program(program.rules[1:])
        assert well_founded(smaller) == oracle_well_founded(smaller)


def test_is_wfs_irreducible(pi6):
    def is_wfs_irreducible(program):
        wfs = well_founded(program)
        return not wfs.true_atoms and not wfs.false_atoms

    assert is_wfs_irreducible(pi6)
    assert not is_wfs_irreducible(parse_program("a."))
    assert is_wfs_irreducible(Program())


def test_positive_bodies_through_the_search_engine():
    # positive literals exercise the fixpoint path of the bit engine
    program = parse_program("p :- a. a :- not b. b :- not a. q :- p, not q.")
    assert list(enumerate_answer_sets(program)) == oracle_answer_sets(program)

import pytest

from aspnf import (
    AntiChain,
    Program,
    ReservedAtomError,
    antichain_to_kernel,
    check_kernel,
    encode_3col,
    enumerate_answer_sets,
    equivalent_mod_projection,
    graph,
    kernelize,
    parse_antichain,
    parse_program,
    render_antichain,
    render_program,
)
from aspnf.kernel import (
    _bar_atom,
    COND_ATOM_IN_BODY,
    COND_NEGATIVE_BODIES,
    COND_WFS_IRREDUCIBLE,
)
from conftest import all_antichains, oracle_answer_sets


def test_check_kernel_single_edge_encoding():
    program = encode_3col(graph([0, 1], [(0, 1)]))
    assert check_kernel(program).is_kernel


def test_check_kernel_fact_violates_three_ways():
    report = check_kernel(parse_program("a."))
    assert not report.is_kernel
    assert report.conditions() == {
        COND_WFS_IRREDUCIBLE,
        COND_NEGATIVE_BODIES,
        COND_ATOM_IN_BODY,
    }
    witnesses = {v.condition: v.witness for v in report.violations}
    assert witnesses[COND_WFS_IRREDUCIBLE] == "a"
    assert witnesses[COND_ATOM_IN_BODY] == "a"


def test_check_kernel_positive_literal():
    report = check_kernel(parse_program("p :- not p, q. q :- not p."))
    assert COND_NEGATIVE_BODIES in report.conditions()


def test_check_kernel_pi5_pi6(pi5, pi6):
    assert check_kernel(pi5).is_kernel
    assert check_kernel(pi6).is_kernel


def test_antichain_validation():
    with pytest.raises(ValueError):
        AntiChain(frozenset({"a", "b"}), frozenset({frozenset({"a"}), frozenset({"a", "b"})}))
    with pytest.raises(ValueError):
        AntiChain(frozenset({"a"}), frozenset({frozenset({"z"})}))
    with pytest.raises(ReservedAtomError):
        AntiChain(frozenset({"__m"}), frozenset())


def test_antichain_to_kernel_two_singletons():
    antichain = AntiChain(
        frozenset({"a1", "a2"}),
        frozenset({frozenset({"a1"}), frozenset({"a2"})}),
    )
    program = antichain_to_kernel(antichain)
    assert len(program) == 7  # 4 pair rules, 2 machine rules, 1 axiom
    assert check_kernel(program).is_kernel
    answer_sets = oracle_answer_sets(program)
    assert {s & antichain.universe for s in answer_sets} == antichain.components
    assert len(answer_sets) == 2


def test_antichain_to_kernel_empty_component():
    antichain = AntiChain(frozenset({"a"}), frozenset({frozenset()}))
    program = antichain_to_kernel(antichain)
    assert parse_program("__m :- not a.", allow_reserved=True).rules[0] in program.rules
    answer_sets = oracle_answer_sets(program)
    assert len(answer_sets) == 1
    assert {s & antichain.universe for s in answer_sets} == {frozenset()}


def test_antichain_to_kernel_no_components_is_inconsistent():
    antichain = AntiChain(frozenset({"a"}), frozenset())
    program = antichain_to_kernel(antichain)
    assert not any(rule.head == "__m" for rule in program.rules)
    assert oracle_answer_sets(program) == []


def test_bar_atoms_are_reserved():
    assert _bar_atom("a") == "__bar_a"


def test_project_examples():
    # the projection inside equivalent_mod_projection drops the
    # construction's __bar and __m atoms
    singleton = antichain_to_kernel(
        AntiChain(frozenset({"a1", "a2"}), frozenset({frozenset({"a1"})}))
    )
    assert equivalent_mod_projection(singleton, parse_program("a1."), {"a1", "a2"})
    # {a} and {b} both project to the empty set over no atoms
    even = parse_program("a :- not b. b :- not a.")
    assert equivalent_mod_projection(even, parse_program("c."), set())
    # no answer set projects to no set
    odd = parse_program("p :- not p.")
    assert equivalent_mod_projection(odd, parse_program("a. q :- not q."), {"a"})


def test_project_idempotent():
    # projecting collapses duplicates: programs that agree over a set
    # agree over each of its subsets, even where they differ outside it
    def kernel(universe, components):
        return antichain_to_kernel(
            AntiChain(frozenset(universe), frozenset(map(frozenset, components)))
        )

    first = kernel("abc", ["ab", "bc", "ac"])
    second = kernel("abd", ["ab", "bd", "ad"])
    assert not equivalent_mod_projection(first, second, "abcd")
    for atoms in ("ab", "a", "b", ""):
        assert equivalent_mod_projection(first, second, atoms)


def test_equivalent_mod_projection_reflexive(pi6):
    assert equivalent_mod_projection(pi6, pi6, pi6.atoms)


def test_equivalent_mod_projection_distinguishes_consistency():
    even = parse_program("a :- not b. b :- not a.")
    odd = parse_program("p :- not p.")
    assert not equivalent_mod_projection(even, odd, set())


def test_kernelize_pi6(pi6):
    result, universe = kernelize(pi6)
    assert universe == pi6.atoms
    assert {s & universe for s in enumerate_answer_sets(result)} == {
        frozenset({"b", "q"})
    }
    assert equivalent_mod_projection(pi6, result, universe)
    assert check_kernel(result).is_kernel


def test_kernelize_empty_program():
    result, universe = kernelize(Program())
    assert universe == frozenset()
    assert [sorted(s) for s in enumerate_answer_sets(result)] == [["__m"]]
    assert {s & universe for s in enumerate_answer_sets(result)} == {frozenset()}
    # the degenerate machine fact is reported, not repaired
    assert not check_kernel(result).is_kernel


def test_kernelize_inconsistent_program():
    program = parse_program("p :- not p.")
    result, universe = kernelize(program)
    assert not any(rule.head == "__m" for rule in result.rules)
    assert len(enumerate_answer_sets(result)) == 0
    assert equivalent_mod_projection(program, result, universe)


def test_theorem_roundtrip_small_universes():
    # exhaustive over universes of up to 3 atoms; acceptance re-runs at 4
    for size in range(4):
        universe = frozenset(f"u{i}" for i in range(size))
        for components in all_antichains(universe):
            antichain = AntiChain(universe, components)
            program = antichain_to_kernel(antichain)
            answer_sets = enumerate_answer_sets(program)
            assert len(answer_sets) == len(components)
            assert {s & universe for s in answer_sets} == components
            if components and not (size == 0):
                assert check_kernel(program).is_kernel


def test_theorem_roundtrip_five_atom_universe():
    # exhaustive over the 7581 anti-chains on five atoms
    universe = frozenset({"a", "b", "c", "d", "e"})
    count = 0
    for components in all_antichains(universe):
        antichain = AntiChain(universe, components)
        answer_sets = enumerate_answer_sets(antichain_to_kernel(antichain))
        assert len(answer_sets) == len(components)
        assert {s & universe for s in answer_sets} == components
        count += 1
    assert count == 7581


def test_kernelize_random_programs_equivalent():
    import random

    from conftest import random_general_program

    rng = random.Random(321)
    for _ in range(30):
        program = random_general_program(rng, rng.randint(1, 6), rng.randint(1, 8))
        result, universe = kernelize(program)
        assert equivalent_mod_projection(program, result, universe, max_atoms=64)


def test_kernelize_drops_constraint_guards():
    # A ``:-`` guard is false in every answer set, so it leaves the
    # universe and the projection keeps every answer set whole; a
    # reserved atom that some answer set holds is still refused.
    import random

    from conftest import random_general_program

    rng = random.Random(322)
    for _ in range(20):
        program = random_general_program(rng, rng.randint(2, 6), rng.randint(1, 8))
        text = render_program(program) + ":- x0, not x1.\n"
        constrained = parse_program(text)
        result, universe = kernelize(constrained)
        assert universe == program.atoms | {"x0", "x1"}
        assert equivalent_mod_projection(constrained, result, universe, max_atoms=64)
    with pytest.raises(ReservedAtomError):
        kernelize(parse_program("__y :- not z. z :- not __y.", allow_reserved=True))


def test_antichain_render_parse_roundtrip():
    antichain = AntiChain(
        frozenset({"a", "b", "c"}),
        frozenset({frozenset({"a", "b"}), frozenset({"c"})}),
    )
    assert parse_antichain(render_antichain(antichain)) == antichain


def test_antichain_render_parse_roundtrip_degenerate():
    for antichain in (
        AntiChain(frozenset(), frozenset()),
        AntiChain(frozenset(), frozenset({frozenset()})),
        AntiChain(frozenset({"a"}), frozenset({frozenset()})),
    ):
        assert parse_antichain(render_antichain(antichain)) == antichain


def test_antichain_parse_predicate_atoms():
    text = "#universe color(0,red), color(0,blue).\ncolor(0,red).\n"
    antichain = parse_antichain(text)
    assert antichain.universe == {"color(0,red)", "color(0,blue)"}
    assert antichain.components == {frozenset({"color(0,red)"})}


def test_antichain_parse_errors():
    from aspnf import AspnfError

    with pytest.raises(AspnfError):
        parse_antichain("a, b.\n")  # header missing
    with pytest.raises(AspnfError):
        parse_antichain("#universe a\n")  # missing dot
    with pytest.raises(AspnfError):
        parse_antichain("#universe a.\n#universe b.\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # the column counts the header and the blanks before the entry
        ("#universe  a, b c.\n", "line 1, column 15: malformed atom list '  a, b c'"),
        (
            "% header\n  #universe a.\n  a, b c. % c\n",
            "line 3, column 6: malformed atom list '  a, b c'",
        ),
    ],
)
def test_antichain_parse_error_names_the_column_in_its_line(text, message):
    from aspnf import AspnfError

    with pytest.raises(AspnfError) as err:
        parse_antichain(text)
    assert str(err.value) == message

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines. Criteria with stated time bounds assert them.
"""

import itertools
import random
import time

from aspnf import (
    AntiChain,
    antichain_to_kernel,
    check_3kernel,
    check_kernel,
    decode_3col,
    encode_3col,
    enumerate_answer_sets,
    equivalent_mod_projection,
    find_bridges,
    graph,
    long_rule_simplify,
    parse_program,
    random_kernel_program,
    reconstruct,
    three_kernelize,
    well_founded,
)
from aspnf.cli import main
from aspnf.model import is_reserved
from aspnf.normalize import simplify_and_bridge, simplify_or_bridge
from conftest import (
    CASE_I_TEXT,
    CASE_II_TEXT,
    CASE_III_TEXT,
    CASE_IV_TEXT,
    PI5_TEXT,
    PI6_TEXT,
    all_antichains,
    oracle_answer_sets,
    random_general_program,
    rename_atoms,
)

# fixed corpus for criteria 8 and 9: 200 kernel programs on up to
# 8 atoms and 10 rules
CORPUS_SEEDS = list(range(200))


def corpus_program(seed: int):
    rng = random.Random(seed)
    n_atoms = rng.randint(2, 8)
    n_rules = rng.randint(max(6, n_atoms), 10)
    return random_kernel_program(n_atoms, n_rules, max_body=3, seed=seed)


def report(number: int, title: str):
    print(f"acceptance {number:2d} PASS  {title}")


def test_criterion_01_pi6_fidelity(tmp_path, capsys):
    start = time.perf_counter()
    pi6 = parse_program(PI6_TEXT)
    collection = enumerate_answer_sets(pi6)
    assert [sorted(s) for s in collection] == [["b", "q"]]
    source = tmp_path / "pi6.lp"
    source.write_text(PI6_TEXT)
    assert main(["solve", str(source)]) == 0
    assert capsys.readouterr().out == "b, q\n"
    assert time.perf_counter() - start < 1.0
    with capsys.disabled():
        report(1, "pi6 has exactly the answer set {b, q}")


def test_criterion_02_even_cycle_baseline(capsys):
    start = time.perf_counter()
    collection = enumerate_answer_sets(parse_program("a :- not b. b :- not a."))
    assert [sorted(s) for s in collection] == [["a"], ["b"]]
    assert time.perf_counter() - start < 1.0
    with capsys.disabled():
        report(2, "even cycle has exactly the answer sets {a}, {b}")


def test_criterion_03_representation_roundtrip(capsys):
    start = time.perf_counter()
    expected_counts = {0: 2, 1: 3, 2: 6, 3: 20, 4: 168}
    total = 0
    for size in range(5):
        universe = frozenset(("a", "b", "c", "d")[:size])
        antichains = all_antichains(universe)
        assert len(antichains) == expected_counts[size]
        for components in antichains:
            antichain = AntiChain(universe, components)
            program = antichain_to_kernel(antichain)
            answer_sets = enumerate_answer_sets(program)
            assert len(answer_sets) == len(components)
            assert {s & universe for s in answer_sets} == components
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        report(3, f"anti-chain representation round-trips ({total} anti-chains, "
                  f"{elapsed:.1f}s)")


def test_criterion_04_pi5_transformation(capsys):
    start = time.perf_counter()
    pi5 = parse_program(PI5_TEXT)
    result, trace = long_rule_simplify(pi5)
    assert len(result) == 11
    renamed = rename_atoms(result, {f"__h0_{i}": f"h{i}" for i in range(1, 6)})
    expected = parse_program(
        "p :- not p. p :- not h1. h1 :- not h2. h2 :- not h3, not a. "
        "h3 :- not h4. h4 :- not h5, not c. h5 :- not p. "
        "a :- not b. b :- not a. c :- not d. d :- not c."
    )
    assert set(renamed.rules) == set(expected.rules)
    assert equivalent_mod_projection(pi5, result, {"p", "a", "b", "c", "d"})
    assert time.perf_counter() - start < 1.0
    with capsys.disabled():
        report(4, "pi5 long-rule output matches the 11-rule program")


def test_criterion_05_bridge_cases(capsys):
    cases = [
        (CASE_I_TEXT, simplify_or_bridge,
         "p :- not p. p :- not a. a :- not b. b :- not a."),
        (CASE_II_TEXT, simplify_or_bridge,
         "p :- not p. p :- a. a :- not b. b :- not a."),
        (CASE_III_TEXT, simplify_and_bridge,
         "p :- not p, not a. a :- not b. b :- not a."),
        (CASE_IV_TEXT, simplify_and_bridge,
         "p :- not p, a. a :- not b. b :- not a."),
    ]
    for text, simplify, expected in cases:
        start = time.perf_counter()
        program = parse_program(text)
        (bridge,) = find_bridges(program)
        result, _ = simplify(program, bridge)
        assert result == parse_program(expected)
        surviving = result.atoms
        before = {s & surviving for s in oracle_answer_sets(program)}
        assert before == {s & surviving for s in oracle_answer_sets(result)}
        assert time.perf_counter() - start < 1.0
    with capsys.disabled():
        report(5, "bridge cases (i)-(iv) match the printed programs")


def test_criterion_06_three_colorability(capsys):
    start = time.perf_counter()
    k3 = graph(range(3), itertools.combinations(range(3), 2))
    k3_sets = enumerate_answer_sets(encode_3col(k3))
    assert len(k3_sets) == 6
    colorings = set()
    for answer_set in k3_sets:
        coloring = decode_3col(answer_set, k3)
        assert len(set(coloring.values())) == 3  # proper on K3
        colorings.add(tuple(sorted(coloring.items())))
    assert len(colorings) == 6  # = 3!

    p3 = graph(range(3), [(0, 1), (1, 2)])
    p3_sets = enumerate_answer_sets(encode_3col(p3))
    assert len(p3_sets) == 12
    for answer_set in p3_sets:
        coloring = decode_3col(answer_set, p3)
        assert coloring[0] != coloring[1] and coloring[1] != coloring[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0

    k4 = graph(range(4), itertools.combinations(range(4), 2))
    k4_sets = enumerate_answer_sets(encode_3col(k4), max_atoms=40)
    assert len(k4_sets) == 0
    with capsys.disabled():
        report(6, f"3-colorability: K3=6, P3=12, K4=0 ({elapsed:.2f}s for K3/P3)")


def test_criterion_07_form_checks(capsys):
    single_edge = graph([0, 1], [(0, 1)])
    k3 = graph(range(3), itertools.combinations(range(3), 2))
    k4 = graph(range(4), itertools.combinations(range(4), 2))
    p3 = graph(range(3), [(0, 1), (1, 2)])
    for g in (single_edge, k3, k4, p3):
        assert check_kernel(encode_3col(g)).is_kernel

    for size in range(5):
        universe = frozenset(("a", "b", "c", "d")[:size])
        for components in all_antichains(universe):
            if not components or size == 0:
                continue  # degenerate instances documented as non-kernel
            program = antichain_to_kernel(AntiChain(universe, components))
            assert check_kernel(program).is_kernel

    assert check_3kernel(parse_program(PI6_TEXT)).is_3kernel
    report_pi5 = check_3kernel(parse_program(PI5_TEXT))
    assert not report_pi5.is_3kernel
    assert report_pi5.conditions() == {6}
    with capsys.disabled():
        report(7, "kernel and 3-kernel form checks behave as required")


def test_criterion_08_end_to_end_oracle(capsys):
    start = time.perf_counter()
    failures = []
    for seed in CORPUS_SEEDS:
        program = corpus_program(seed)
        result, trace = three_kernelize(program)
        surviving = program.atoms & result.atoms
        original = set(enumerate_answer_sets(program))
        transformed = enumerate_answer_sets(result, max_atoms=512)
        if {s & surviving for s in original} != {s & surviving for s in transformed}:
            failures.append((seed, "projection mismatch"))
            continue
        restored = [reconstruct(s, trace) for s in transformed]
        if len(set(restored)) != len(restored) or set(restored) != original:
            failures.append((seed, "reconstruction not bijective"))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 300.0
    with capsys.disabled():
        report(8, f"end-to-end on {len(CORPUS_SEEDS)} random kernel programs "
                  f"({elapsed:.1f}s)")


def test_criterion_09_size_bounds(capsys):
    for seed in CORPUS_SEEDS:
        program = corpus_program(seed)
        result, _ = long_rule_simplify(program)
        m = len(program)
        fresh = sum(1 for atom in result.atoms if is_reserved(atom))
        assert fresh <= 2 * m * m + m, f"seed {seed}: {fresh} atoms > bound"
        added = len(result) - len(program)
        assert added <= 2 * m * m + 2 * m, f"seed {seed}: {added} rules > bound"
    with capsys.disabled():
        report(9, "long-rule growth stays within the quadratic ceiling")


def test_criterion_10_semantics_cross_checks(capsys):
    from aspnf import gamma

    rng = random.Random(2718)
    checked = 0
    while checked < 1000:
        program = random_general_program(rng, rng.randint(2, 7), rng.randint(2, 9))
        atoms = sorted(program.atoms)
        s1 = {a for a in atoms if rng.random() < 0.4}
        s2 = s1 | {a for a in atoms if rng.random() < 0.4}
        assert gamma(program, s2) <= gamma(program, s1)
        checked += 1

    rng = random.Random(3141)
    for _ in range(60):
        program = random_general_program(rng, rng.randint(2, 7), rng.randint(2, 9))
        collection = enumerate_answer_sets(program)
        antichain = AntiChain(program.atoms, frozenset(collection))
        assert len(antichain.components) == len(collection)
        wfs = well_founded(program)
        for answer_set in collection:
            assert wfs.true_atoms <= answer_set
            assert not answer_set & wfs.false_atoms
    for text in (PI5_TEXT, PI6_TEXT, CASE_I_TEXT, CASE_IV_TEXT):
        program = parse_program(text)
        AntiChain(program.atoms, frozenset(enumerate_answer_sets(program)))
    with capsys.disabled():
        report(10, "gamma antimonotone, anti-chain and WFS bounds respected")

import itertools
import random

import pytest

from aspnf import (
    MalformedAnswerSetError,
    check_kernel,
    decode_3col,
    encode_3col,
    enumerate_answer_sets,
    graph,
    random_kernel_program,
)
from aspnf.generate import _COLORS


def k_n(n: int):
    return graph(range(n), itertools.combinations(range(n), 2))


def cycle(n: int):
    return graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path(n: int):
    return graph(range(n), [(i, i + 1) for i in range(n - 1)])


def proper_colorings(g):
    out = set()
    for assignment in itertools.product(_COLORS, repeat=len(g.nodes)):
        coloring = dict(zip(g.nodes, assignment))
        if all(coloring[u] != coloring[v] for u, v in g.edges):
            out.add(tuple(sorted(coloring.items())))
    return out


def test_graph_normalization():
    g = graph([1, 0, 1], [(1, 0)])
    assert g.nodes == (0, 1)
    assert g.edges == {(0, 1)}


def test_graph_rejects_self_edge_and_unknown_node():
    with pytest.raises(ValueError):
        graph([0], [(0, 0)])
    with pytest.raises(ValueError):
        graph([0, 1], [(0, 2)])


def test_graph_rejects_negative_node():
    with pytest.raises(ValueError, match="negative node -1"):
        graph([-1, 2], [(-1, 2)])
    with pytest.raises(ValueError, match="negative node"):
        graph([-3], [])


def test_encode_sizes():
    assert len(encode_3col(graph([0], []))) == 6
    assert len(encode_3col(graph([0, 1], [(0, 1)]))) == 17
    assert len(encode_3col(k_n(3))) == 33


def test_encode_single_node_three_colorings():
    g = graph([0], [])
    collection = enumerate_answer_sets(encode_3col(g))
    assert len(collection) == 3
    assert {decode_3col(s, g)[0] for s in collection} == set(_COLORS)


def test_encode_single_edge_six_answer_sets():
    g = graph([0, 1], [(0, 1)])
    collection = enumerate_answer_sets(encode_3col(g))
    assert len(collection) == 6
    decoded = {tuple(sorted(decode_3col(s, g).items())) for s in collection}
    assert decoded == proper_colorings(g)


def test_encode_output_is_kernel():
    for g in (graph([0, 1], [(0, 1)]), k_n(3), k_n(4), path(3)):
        assert check_kernel(encode_3col(g)).is_kernel


def test_encode_isolated_node_not_fully_kernel():
    # with no incident edge the n_color atoms occur in no rule body, so
    # only the weaker invariants hold for isolated nodes
    for g, isolated in ((graph([0], []), 0), (graph([0, 1, 2], [(0, 2)]), 1)):
        report = check_kernel(encode_3col(g))
        assert {v.condition for v in report.violations} == {
            "every-atom-in-some-body"
        }
        assert {v.witness for v in report.violations} == {
            f"n_color({isolated},{c})" for c in _COLORS
        }


def test_encode_k4_unsatisfiable():
    program = encode_3col(k_n(4))
    assert check_kernel(program).is_kernel
    assert len(enumerate_answer_sets(program, max_atoms=40)) == 0


def _answer_sets(g):
    program = encode_3col(g)
    return enumerate_answer_sets(program, max_atoms=len(program.atoms))


def test_cycle_colorings():
    # The chromatic polynomial of C_n at 3: 2^n + 2(-1)^n.
    for n in [*range(3, 11), 12]:
        assert len(_answer_sets(cycle(n))) == 2**n + 2 * (-1) ** n, n


def test_cliques_beyond_three_nodes_are_uncolorable():
    for n in range(4, 9):
        assert len(_answer_sets(k_n(n))) == 0, n


def test_random_graph_colorings_match_brute_force():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(1, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = graph(range(n), edges)
        decoded = [tuple(sorted(decode_3col(s, g).items())) for s in _answer_sets(g)]
        assert len(decoded) == len(proper_colorings(g)), (n, edges)
        assert set(decoded) == proper_colorings(g), (n, edges)


def test_decode_requires_exactly_one_color():
    g = graph([0], [])
    with pytest.raises(MalformedAnswerSetError):
        decode_3col(frozenset(), g)
    with pytest.raises(MalformedAnswerSetError):
        decode_3col(frozenset({"color(0,red)", "color(0,blue)"}), g)


def test_decode_reads_colors():
    g = graph([0], [])
    assert decode_3col(frozenset({"color(0,green)"}), g) == {0: "green"}


def test_random_kernel_program_deterministic():
    a = random_kernel_program(4, 6, max_body=3, seed=11)
    b = random_kernel_program(4, 6, max_body=3, seed=11)
    assert a == b
    c = random_kernel_program(4, 6, max_body=3, seed=12)
    assert a != c


def test_random_kernel_program_passes_check():
    for seed in range(30):
        program = random_kernel_program(5, 7, max_body=3, seed=seed)
        assert check_kernel(program).is_kernel
        assert program.atoms == {f"a{i}" for i in range(1, 6)}
    # Kernel form holds by construction, with no draw rejected.
    for n_atoms, n_rules, max_body in [(1, 1, 1), (4, 4, 1), (6, 6, 2), (12, 30, 5)]:
        for seed in range(20):
            program = random_kernel_program(n_atoms, n_rules, max_body, seed)
            assert check_kernel(program).is_kernel
            assert len(program.atoms) == n_atoms


def test_random_kernel_program_two_atoms():
    program = random_kernel_program(2, 2, max_body=1, seed=3)
    assert check_kernel(program).is_kernel
    assert len(program.atoms) == 2


def test_random_kernel_program_validates_arguments():
    # No atom; fewer rules than atoms, so some atom heads no rule; no
    # room for a body literal.
    for n_atoms, n_rules, max_body in [(0, 1, 3), (1, 0, 3), (3, -2, 3), (2, 3, 0)]:
        with pytest.raises(ValueError):
            random_kernel_program(n_atoms, n_rules, max_body=max_body)


def test_random_kernel_program_gives_up():
    # one rule cannot put three atoms into heads, so the size is refused
    # before any rule is drawn
    with pytest.raises(ValueError, match="every atom heads a rule"):
        random_kernel_program(3, 1, max_body=1, seed=0)

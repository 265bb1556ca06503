"""Problem encoders and random test-corpus generation.

The 3-colorability encoder emits, per node, three mutual-exclusion
color rules and three recording rules, and per edge the two rules that
force ``edge_ok`` plus three ``edge_ko`` rules detecting a monochrome
edge. Its answer sets correspond one-to-one with proper 3-colorings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MalformedAnswerSetError
from .model import Program, Rule, neg

_COLORS = ("red", "green", "blue")


@dataclass(frozen=True)
class UndirectedGraph:
    """Finite simple graph over non-negative integer nodes."""

    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        nodes = tuple(sorted(dict.fromkeys(self.nodes)))
        if nodes and nodes[0] < 0:
            raise ValueError(f"negative node {nodes[0]}")
        object.__setattr__(self, "nodes", nodes)
        normalized = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-edge at node {u}")
            if u not in nodes or v not in nodes:
                raise ValueError(f"edge ({u}, {v}) mentions an unknown node")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))


def graph(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> UndirectedGraph:
    return UndirectedGraph(tuple(nodes), frozenset(tuple(e) for e in edges))


def _color(v: int, c: str) -> str:
    return f"color({v},{c})"


def _n_color(v: int, c: str) -> str:
    return f"n_color({v},{c})"


def encode_3col(g: UndirectedGraph) -> Program:
    """Purely negative, WFS-irreducible program solving 3-colorability
    of ``g``.

    It is in kernel form exactly when every node has an edge: the
    ``n_color`` atoms of an isolated node occur in no rule body, so
    ``check_kernel`` reports them under ``every-atom-in-some-body``.
    Size is ``6 * len(nodes) + 5 * len(edges)`` rules.
    """
    rules: list[Rule] = []
    for v in g.nodes:
        rules.append(Rule(_color(v, "red"), (neg(_color(v, "blue")), neg(_color(v, "green")))))
        rules.append(Rule(_color(v, "blue"), (neg(_color(v, "red")), neg(_color(v, "green")))))
        rules.append(Rule(_color(v, "green"), (neg(_color(v, "blue")), neg(_color(v, "red")))))
        for c in _COLORS:
            rules.append(Rule(_n_color(v, c), (neg(_color(v, c)),)))
    for u, v in sorted(g.edges):
        ok = f"edge_ok({u},{v})"
        ko = f"edge_ko({u},{v})"
        rules.append(Rule(ok, (neg(ok),)))
        rules.append(Rule(ok, (neg(ko),)))
        for c in _COLORS:
            rules.append(Rule(ko, (neg(_n_color(u, c)), neg(_n_color(v, c)))))
    return Program(tuple(rules))


def decode_3col(
    interpretation: Iterable[str], g: UndirectedGraph
) -> Mapping[int, str]:
    """Read the coloring out of an answer set of ``encode_3col(g)``.

    Raises :class:`MalformedAnswerSetError` when some node has no color
    atom or more than one.
    """
    s = frozenset(interpretation)
    coloring: dict[int, str] = {}
    for v in g.nodes:
        found = [c for c in _COLORS if _color(v, c) in s]
        if len(found) != 1:
            raise MalformedAnswerSetError(
                f"node {v} has {len(found)} color atoms, expected exactly one"
            )
        coloring[v] = found[0]
    return coloring


def random_kernel_program(
    n_atoms: int, n_rules: int, max_body: int = 3, seed: int = 0
) -> Program:
    """Random program in kernel form, deterministic in ``seed``.

    Draws purely negative rules whose heads cover every atom, then adds
    ``not a`` to a random rule for each atom ``a`` in no body. Raises
    ``ValueError`` unless ``1 <= n_atoms <= n_rules`` and
    ``max_body >= 1``.

    The result is in kernel form by construction. Every body is
    negative and nonempty, so no atom is derived from the full
    universe, and every atom heads a rule, so every atom is derived
    from the empty set: the well-founded model leaves every atom
    undefined.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be at least 1")
    if n_rules < n_atoms:
        raise ValueError(
            f"n_rules ({n_rules}) must be at least n_atoms ({n_atoms}), "
            "so that every atom heads a rule"
        )
    if max_body < 1:
        raise ValueError(f"max_body must be at least 1, got {max_body}")
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(1, n_atoms + 1)]
    rules: list[Rule] = []
    for i in range(n_rules):
        head = names[i] if i < n_atoms else rng.choice(names)
        body_size = rng.randint(1, min(max_body, n_atoms))
        body = rng.sample(names, body_size)
        rules.append(Rule(head, tuple(neg(atom) for atom in body)))
    covered = {lit.atom for rule in rules for lit in rule.body}
    for atom in names:
        if atom not in covered:
            i = rng.randrange(len(rules))
            rules[i] = Rule(rules[i].head, rules[i].body + (neg(atom),))
    return Program(tuple(rules))

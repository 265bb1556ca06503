"""Cycle detection, handle extraction, and bridges.

A cycle is a set of rules ``x1 :- not x2, D1. ... xn :- not x1, Dn.``
over distinct atoms; each extra conjunction ``Di`` (which may not
mention the rule's own head) is an AND handle. A rule whose head lies
in a cycle but which does not itself belong to any cycle is auxiliary
to that cycle, and its body is an OR handle. ``n == 1`` is a self-loop.

A bridge is a chain of single-condition negative rules hanging off a
handle and ending at an atom defined in some other cycle. Bridges are
only recognized under side conditions that make their atom values fully
determined by the target atom: every intermediate atom must have
exactly one defining rule and occur in exactly one rule body.
Chains that violate the side conditions are not reported as bridges
rather than being eliminated unsoundly.

Membership needs no cycle list. A rule witnesses the step ``h -> b``
when its body has ``not b`` and the rest of the body does not mention
``h``; it is in some cycle iff ``b == h`` or ``b`` lies in the strongly
connected component of ``h`` in the graph of steps. So one witness pass
and one Tarjan pass (iterative) give the in-cycle rules and atoms and
the cycle steps, gathered per program into a :class:`StructuralIndex`,
which also tells whether a rule is auxiliary, its body an OR handle
(:meth:`StructuralIndex.is_auxiliary`). ``3kernelize`` builds one, on
its input, for the long-rule rewrite; the bridge search reads the
rewrite's index derived from it (``normalize._expanded_index``), with
no Tarjan pass over fresh atoms. The bridge search reads the cycle
steps directly; the table of all AND handles
(:attr:`StructuralIndex.handles`) is built only when asked for, by
``check_3kernel``. Whether a bridge target lies in a cycle other than
the anchor's is a component question too, except for a self-loop
anchor ``p :- not p, not c`` whose chain leads back to ``p`` (see
:func:`find_bridges`).

The index lists nothing. Condition 5 of the 3-kernel check asks one
path query per handle atom (:meth:`StructuralIndex.on_circuit`, with
no cap), and :func:`find_cycles`, the one function with a cap, lists
every circuit with the same pruned search, :func:`_paths`, and builds
an ``(atoms, rules)`` :class:`Cycle` per combination of witnessing rules.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import CycleCapExceededError
from .model import Literal, Program, Rule

#: Default cap on the number of enumerated cycles (they may overlap,
#: and witness combinations multiply).
DEFAULT_MAX_CYCLES = 10_000

OR_BRIDGE = "OR"
AND_BRIDGE = "AND"


@dataclass(frozen=True)
class Cycle:
    """A negative cycle: ``rules[i]`` has head ``atoms[i]`` and steps to
    ``atoms[(i+1) % n]``. Canonicalized to start at the least atom. Its
    AND handles are ``StructuralIndex.handles[rules[i], atoms[(i+1) % n]]``."""

    atoms: tuple[str, ...]
    rules: tuple[Rule, ...]


@dataclass(frozen=True)
class Bridge:
    """A handle chain from ``anchor_atom`` (in a cycle) to
    ``target_atom`` (in another cycle). ``chain[i]`` defines the i-th
    intermediate atom; parity counts the intermediates."""

    kind: str  # "OR" or "AND"
    anchor_atom: str
    anchor_rule: Rule
    chain: tuple[Rule, ...]
    target_atom: str

    def __post_init__(self) -> None:
        if self.kind not in (OR_BRIDGE, AND_BRIDGE):
            raise ValueError(f"unknown bridge kind {self.kind!r}")
        if not self.chain:
            raise ValueError("bridge chain may not be empty")

    @property
    def chain_atoms(self) -> tuple[str, ...]:
        return tuple(rule.head for rule in self.chain)

    @property
    def length(self) -> int:
        return len(self.chain)

    @property
    def is_even(self) -> bool:
        return self.length % 2 == 0


def find_cycles(
    program: Program, max_cycles: int = DEFAULT_MAX_CYCLES
) -> tuple[Cycle, ...]:
    """Every cycle of the program, each simple negative atom cycle once
    (canonical start at its least atom) for every combination of
    witnessing rules. Overlapping cycles are all reported.

    Raises :class:`CycleCapExceededError` past ``max_cycles``.
    """
    index = StructuralIndex(program)
    successors = index._successors

    def circuits() -> Iterator[list[str]]:
        yield from ([a] for a, b in index.witnesses if a == b)
        # Every longer circuit lies in one component; it is found from the
        # component's least atom if it passes through it, and otherwise in
        # a component of what is left once that atom is removed.
        pending = list(index._components)
        while pending:
            component = pending.pop()
            start = min(component)
            yield from _paths(start, start, set(component), successors)
            rest = set(component) - {start}
            graph = {a: [b for b in successors[a] if b in rest] for a in rest}
            pending += _components(graph)

    cycles: list[Cycle] = []
    for circuit in circuits():
        steps = zip(circuit, circuit[1:] + circuit[:1])
        options = [index.witnesses[step] for step in steps]
        for combo in itertools.product(*options):
            if len(cycles) >= max_cycles:
                message = f"more than {max_cycles} cycles (the cycle cap)"
                raise CycleCapExceededError(message)
            cycles.append(Cycle(tuple(circuit), combo))
    cycles.sort(key=lambda c: (len(c.atoms), c.atoms))
    return tuple(cycles)


def _components(successors: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components with more than one atom of the
    graph ``successors`` (Tarjan's algorithm, iteratively)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    found: list[list[str]] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors.get(root, ())))]
        while work:
            atom, unexplored = work[-1]
            for successor in unexplored:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(successors.get(successor, ()))))
                    break
                if successor in on_stack:
                    low[atom] = min(low[atom], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[atom])
                if low[atom] == index[atom]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == atom:
                            break
                    if len(component) > 1:
                        found.append(component)
    return found


def _paths(
    source: str, goal: str, allowed: set[str], successors: dict, via: str | None = None
) -> Iterator[list[str]]:
    """Simple paths ``source -> ... -> goal`` over ``allowed`` atoms,
    each as its atoms before ``goal`` (a circuit when ``source ==
    goal``); with ``via``, only the paths through ``via``.

    Depth first, without recursion. Where the path can go on in more
    than one way, an atom is entered only if a search that avoids the
    path reaches ``goal`` from it, or ``via`` and from there ``goal``.
    Where there is one way on, the check that let its parent in covers
    it. So without ``via`` no dead end is entered.
    """
    path = [source]
    closed = {source, goal}  # the path and the goal, which ends it

    def reaches(start: str, target: str) -> bool:
        seen = {start}
        frontier = [start]
        while frontier:
            for atom in successors.get(frontier.pop(), ()):
                if atom == target:
                    return True
                if atom not in seen and atom not in closed and atom in allowed:
                    seen.add(atom)
                    frontier.append(atom)
        return False

    def ways(atom: str) -> list[str]:
        target = goal if via is None or via in closed else via
        options = [
            a
            for a in successors.get(atom, ())
            if a == goal == target or (a not in closed and a in allowed)
        ]
        if len(options) > 1:
            if target != goal and not reaches(via, goal):
                return []
            options = [a for a in options if a in (goal, target) or reaches(a, target)]
        return options

    work = [iter(ways(source))]
    while work:
        for atom in work[-1]:
            if atom == goal:
                yield list(path)
            else:
                path.append(atom)
                closed.add(atom)
                work.append(iter(ways(atom)))
                break
        else:
            work.pop()
            closed.discard(path.pop())


class StructuralIndex:
    """Cycle membership and AND handles of a program, from one witness
    pass and one Tarjan pass, with no cycle listed.

    A rule witnessing the step ``head -> b`` (``witnesses`` lists them
    per step) is in some cycle iff ``b == head`` or ``b`` lies in the
    head's component: the shortest path from ``b`` back to the head
    closes an elementary cycle. :meth:`is_auxiliary` answers for one
    rule from the in-cycle sets; :attr:`handles` comes from the same
    two passes when asked for. An index whose components are known by
    construction skips both passes (:meth:`_derived`).
    """

    def __init__(self, program: Program) -> None:
        witnesses: dict[tuple[str, str], list[Rule]] = defaultdict(list)
        for rule in program.rules:
            # the rest of the body must not mention the rule's own head,
            # so only ``not head`` may, and then only as the step
            head, body = rule
            if (head, False) in body:
                continue
            if (head, True) in body:
                witnesses[head, head].append(rule)
            else:
                for atom, negated in body:
                    if negated:
                        witnesses[head, atom].append(rule)
        successors: dict[str, list[str]] = defaultdict(list)
        for source, target in witnesses:
            if source != target:
                successors[source].append(target)
        self.witnesses = witnesses
        self._successors = successors
        self._components = _components(successors)
        component_of = self._component_of = {
            atom: members for members in map(set, self._components) for atom in members
        }
        # a step is a cycle step iff it is a self-loop or stays in one component
        self._collect([
            (step, rule)
            for (head, step), rules in witnesses.items()
            if head == step or step in component_of.get(head, ())
            for rule in rules
        ])

    @classmethod
    def _derived(cls, program: Program, component_of: dict) -> StructuralIndex:
        """The index of ``program``, whose body literals are all negative,
        given each atom's multi-atom component: one pass over the rules,
        no Tarjan pass, and no :attr:`witnesses` for :meth:`on_circuit`."""
        index = cls.__new__(cls)
        index._component_of = component_of
        cycle_steps: list[tuple[str, Rule]] = []
        for rule in program.rules:
            head, body = rule
            if (head, True) in body:
                cycle_steps.append((head, rule))
            elif head in component_of:
                members = component_of[head]
                cycle_steps += [(atom, rule) for atom, _ in body if atom in members]
        index._collect(cycle_steps)
        return index

    def _collect(self, cycle_steps: list[tuple[str, Rule]]) -> None:
        self._cycle_steps = cycle_steps
        self.in_cycle_rules = frozenset([rule for _step, rule in cycle_steps])
        self.in_cycle_atoms = frozenset([rule.head for rule in self.in_cycle_rules])

    def _components_with(self, steps: list[tuple[str, str]]) -> dict[str, set[str]]:
        """Each atom's multi-atom component, as new sets, once ``steps`` join
        the step graph: Tarjan runs again only if a step leaves its head's
        component."""
        components = self._components
        if any(step not in self._component_of.get(head, ()) for head, step in steps):
            successors = defaultdict(list, self._successors)
            for head, step in steps:
                successors[head] = [*successors[head], step]
            components = _components(successors)
        return {atom: members for members in map(set, components) for atom in members}

    @cached_property
    def handles(self) -> dict[tuple[Rule, str], tuple[Literal, ...]]:
        """The AND handle of each in-cycle rule at each of its cycle
        steps: its body minus ``not step``."""
        return {
            (rule, step): tuple(
                lit for lit in rule.body if lit.atom != step or not lit.negated
            )
            for step, rule in self._cycle_steps
        }

    def is_auxiliary(self, rule: Rule) -> bool:
        """Whether ``rule`` defines an in-cycle atom, is in no cycle, has
        a non-empty body and does not mention its own head."""
        return (
            rule.head in self.in_cycle_atoms
            and rule not in self.in_cycle_rules
            and bool(rule.body)
            and all(lit.atom != rule.head for lit in rule.body)
        )

    def on_circuit(self, head: str, step: str, atom: str) -> bool:
        """Whether some elementary circuit takes the cycle step ``head ->
        step`` and passes through ``atom``: a simple path from ``step``
        through ``atom`` back to ``head`` in ``head``'s component. Exact,
        and NP-complete in the worst case (Fortune, Hopcroft, Wyllie 1980).
        """
        component = self._component_of.get(head, ())
        if head == step or atom not in component:
            return False
        successors = self._successors
        # ``step -> atom -> head`` closes the circuit with no search.
        if atom in successors.get(step, ()) and head in successors.get(atom, ()):
            return True
        return atom == step or any(_paths(step, head, component, successors, via=atom))


def find_or_handles(program: Program, cycle: Cycle) -> tuple[Rule, ...]:
    """Auxiliary rules of ``cycle``, in program order: rules with a head
    among its atoms that belong to no cycle at all, have a non-empty
    body, and do not mention their own head. Each body is an OR handle."""
    index = StructuralIndex(program)
    atoms = set(cycle.atoms)
    return tuple(r for r in program.rules if r.head in atoms and index.is_auxiliary(r))


def find_bridges(program: Program) -> tuple[Bridge, ...]:
    """All maximal handle chains satisfying the bridge side conditions,
    ordered by (anchor atom, target atom, chain atoms).

    The target must lie in a cycle other than the anchor's, which the
    index decides without listing cycles. The anchor rule witnesses the
    step to the first chain atom, which is in no cycle, so a target in
    the anchor's component (or the anchor itself) would put that atom
    in a cycle. The one exception is a self-loop anchor
    ``p :- not p, not c``, which does not witness ``p -> c``: a chain
    back to ``p`` is refused when that self-loop is the one cycle
    through ``p``.
    """
    return _find_bridges(program, StructuralIndex(program))


def _find_bridges(program: Program, index: StructuralIndex) -> tuple[Bridge, ...]:
    """:func:`find_bridges` over the program's index, built or derived. A
    chain walks through atoms outside every cycle, so only their defining
    rules are kept. AND candidates come from the cycle steps: a step's
    handle is its body minus ``not step``, so only a two-literal body
    leaves one literal."""
    in_cycle_atoms = index.in_cycle_atoms
    candidates = []
    defining: dict[str, list[Rule]] = defaultdict(list)
    for rule in program.rules:
        if rule.head not in in_cycle_atoms:
            defining[rule.head].append(rule)
        elif len(rule.body) == 1 and index.is_auxiliary(rule):
            candidates.append((OR_BRIDGE, rule, rule.body[0]))
    cycle_steps = Counter([rule.head for _step, rule in index._cycle_steps])
    for step, rule in index._cycle_steps:
        if len(rule.body) == 2:
            first, second = rule.body
            handle = second if first == (step, True) else first
            candidates.append((AND_BRIDGE, rule, handle))
    body_count = Counter([atom for rule in program.rules for atom, _ in rule.body])

    def walk(first: str) -> tuple[tuple[Rule, ...], str] | None:
        chain: list[Rule] = []
        seen: set[str] = set()
        current = first
        while True:
            if current in seen or body_count[current] != 1:
                return None
            seen.add(current)
            defs = defining.get(current, [])
            if len(defs) != 1:
                return None
            rule = defs[0]
            if len(rule.body) != 1 or not rule.body[0].negated:
                return None
            chain.append(rule)
            successor = rule.body[0].atom
            if successor in in_cycle_atoms:
                return tuple(chain), successor
            current = successor

    bridges: list[Bridge] = []
    for kind, anchor_rule, (atom, negated) in candidates:
        if not negated or atom in in_cycle_atoms:
            continue
        hit = walk(atom)
        if hit is None:
            continue
        chain, target = hit
        # only a self-loop anchor's chain can lead back to the anchor
        if target == anchor_rule.head and cycle_steps[target] == 1:
            continue
        bridges.append(Bridge(kind, anchor_rule.head, anchor_rule, chain, target))
    # the first chain atom occurs in one body only, so the chain fixes
    # the anchor rule and the key is unique per bridge
    bridges.sort(key=lambda b: (b.anchor_atom, b.target_atom, b.chain_atoms))
    return tuple(bridges)

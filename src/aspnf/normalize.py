"""Transformations from kernel form into 3-kernel form.

A program is in 3-kernel form when (1) its well-founded model leaves
every atom undefined, (2) every atom is involved in some cycle, (3)
every rule is in a cycle or auxiliary to one, (4) in-cycle rule bodies
have one or two literals, (5) no AND-handle atom lies in its own cycle,
and (6) auxiliary rule bodies have exactly one literal.

Two rewrites get there from kernel form:

* long-rule simplification replaces each too-long negative body with a
  fresh even cycle threaded through the body's conditions, preserving
  the head's truth condition and the negative-path parity to each
  condition;
* bridge simplification deletes a bridge chain and reconnects the
  anchor directly to the target, negated for even chains and positive
  for odd ones. The dropped atoms' truth values are recorded as
  reconstruction formulas over the surviving target atom.

Each rewrite only describes its edits as :class:`TransformStep` values
(rules removed, rules added, fresh atoms, dropped atoms' formulas), and
one function, ``_apply``, turns a list of steps into the rewritten
program and its :class:`TransformTrace`, from which ``reconstruct``
maps answer sets of the transformed program back onto the original
language.

Each ``three_kernelize`` call gives the ``aspnf`` logger one debug
record per step, beside the records of ``semantics``; its dict holds
the step's kind, the numbers of rules removed and added, and its fresh
atoms.
"""

from __future__ import annotations

import logging
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from .cycles import (
    AND_BRIDGE,
    OR_BRIDGE,
    Bridge,
    StructuralIndex,
    _find_bridges,
)
from .errors import BridgeNotFoundError, KernelFormError, ReconstructionError
from .kernel import check_kernel
from .model import Program, Rule, _rule, fresh_tags, neg, pos
from .semantics import well_founded

CONDITION_LABELS = {
    1: "wfs-irreducible",
    2: "every-atom-in-some-cycle",
    3: "every-rule-in-cycle-or-auxiliary",
    4: "cycle-rule-body-at-most-two",
    5: "handle-atom-outside-own-cycle",
    6: "auxiliary-body-exactly-one",
}

NOTE_REROUTES_CYCLE = "reroutes-cycle"
NOTE_CONSTRAINT_GUARD = "constraint-guard"

_log = logging.getLogger("aspnf")


@dataclass(frozen=True)
class ThreeKernelViolation:
    condition: int
    witness: Rule | str

    @property
    def label(self) -> str:
        return CONDITION_LABELS[self.condition]


@dataclass(frozen=True)
class ThreeKernelReport:
    violations: tuple[ThreeKernelViolation, ...]

    @property
    def is_3kernel(self) -> bool:
        return not self.violations

    def conditions(self) -> frozenset[int]:
        return frozenset(v.condition for v in self.violations)


def check_3kernel(program: Program) -> ThreeKernelReport:
    """Check all six 3-kernel conditions, reporting every violation.

    Conditions 1, 3 and 4 are stated in the paper's abstract; 2, 5 and
    6 are this package's reading of the full definition, which is in
    the journal version and not in this repository. Condition 5 flags a
    rule once per handle atom on an elementary circuit through the
    handle's step, in program order: one exact path query per atom
    (:meth:`StructuralIndex.on_circuit`, NP-complete in the worst case),
    with no circuit listed and no cap."""
    index = StructuralIndex(program)

    violations: list[ThreeKernelViolation] = []
    wfs = well_founded(program)
    for atom in sorted(wfs.true_atoms | wfs.false_atoms):
        violations.append(ThreeKernelViolation(1, atom))
    for atom in sorted(program.atoms - index.in_cycle_atoms):
        violations.append(ThreeKernelViolation(2, atom))
    # each rule's flagged atoms, shared by its handles at every step
    flagged: defaultdict[Rule, set[str]] = defaultdict(set)
    for (rule, step), handle in index.handles.items():
        found = flagged[rule]
        for lit in handle:
            if lit.atom not in found and index.on_circuit(rule.head, step, lit.atom):
                found.add(lit.atom)
    # conditions 3 to 6, one pass: an in-cycle rule is never auxiliary
    three, four, five, six = [], [], [], []
    for rule in program.rules:
        if rule in index.in_cycle_rules:
            if len(rule.body) > 2:
                four.append(ThreeKernelViolation(4, rule))
            five += [ThreeKernelViolation(5, rule)] * len(flagged.get(rule, ()))
        elif not index.is_auxiliary(rule):
            three.append(ThreeKernelViolation(3, rule))
        elif len(rule.body) != 1:
            six.append(ThreeKernelViolation(6, rule))
    return ThreeKernelReport(tuple(violations + three + four + five + six))


@dataclass(frozen=True)
class ReconstructionFormula:
    """``atom := source`` or ``atom := not source``; the source is
    always a surviving atom, so formulas can be evaluated in any
    order."""

    atom: str
    source: str
    negate: bool

    def __str__(self) -> str:
        return f"{self.atom} := {'not ' if self.negate else ''}{self.source}"


@dataclass(frozen=True)
class TransformStep:
    kind: str
    removed: tuple[Rule, ...]
    added: tuple[Rule, ...]
    fresh_atoms: tuple[str, ...] = ()
    dropped: tuple[ReconstructionFormula, ...] = ()
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class TransformTrace:
    """The steps of a rewrite and the universes after it
    (``surviving_atoms``) and before it (``original_atoms``)."""

    steps: tuple[TransformStep, ...]
    surviving_atoms: frozenset[str]
    original_atoms: frozenset[str]


def _apply(
    program: Program, steps: list[TransformStep]
) -> tuple[Program, TransformTrace]:
    """The program with every step applied at once: a step's added
    rules take the place of its first removed rule, and its other
    removed rules are dropped. Steps remove disjoint sets of rules.
    Without steps the program is returned as it is."""
    if not steps:
        return program, TransformTrace((), program.atoms, program.atoms)
    replaced: dict[Rule, tuple[Rule, ...]] = {}
    for step in steps:
        first, *rest = step.removed
        replaced.update(dict.fromkeys(rest, ()))
        replaced[first] = step.added
    rules: list[Rule] = []
    for rule in program.rules:
        rules.extend(replaced.get(rule, (rule,)))
    result = Program(tuple(rules))
    return result, TransformTrace(tuple(steps), result.atoms, program.atoms)


#: Fresh atoms ``__h{k}_i`` and ``__g{k}_i`` of the long-rule rewrite.
_FRESH_NAME = re.compile(r"__[hg](\d+)_\d+")


def _guard_cycle(conditions: list[str], tag: int) -> tuple[list[Rule], list[str]]:
    """An odd cycle over fresh atoms, one handle per condition.

    The cycle is inconsistent exactly when every condition atom is
    false, and resolves to a unique configuration otherwise, so it
    enforces "at least one condition holds" without touching anything
    else. A plain closing link pads even condition counts to odd cycle
    length.
    """
    count = len(conditions)
    length = count if count % 2 == 1 else count + 1
    atoms = [f"__g{tag}_{i}" for i in range(length)]
    # no body repeats a literal: fresh atoms never equal input atoms
    rules = [
        _rule(atoms[i], (neg(atoms[(i + 1) % length]), neg(conditions[i])))
        for i in range(count)
    ]
    if length > count:
        rules.append(_rule(atoms[count], (neg(atoms[0]),)))
    return rules, atoms


def long_rule_simplify(program: Program) -> tuple[Program, TransformTrace]:
    """Replace every long negative body with a fresh cycle.

    A rule ``h :- not b_1, ..., not b_j`` is long when it is auxiliary
    to a cycle with ``j > 1`` or in a cycle with ``j > 2``. It is
    replaced, in place, by ``2*j + 2`` rules over ``2*j + 1`` fresh
    atoms::

        h      :- not f_1.
        f_1    :- not f_2.
        f_2    :- not f_3, not b_1.
        f_3    :- not f_4.
        f_4    :- not f_5, not b_2.
        ...
        f_2j   :- not f_2j+1, not b_j.
        f_2j+1 :- not h.

    The chain preserves the support condition for ``h`` (the rule can
    fire for ``h`` exactly when every ``b_i`` is false) but, being an
    even cycle, it no longer rejects interpretations where ``h`` is
    false although every ``b_i`` is: the replaced rule would have fired
    there. Unless the program keeps a bare self-loop ``h :- not h``
    (which already forces ``h`` true everywhere), that constraint is
    restored by a guard: an odd cycle with one handle per atom of
    ``{h, b_1, ..., b_j}``, inconsistent exactly when all of them are
    false. Guard rules are flagged in the trace.

    Fresh atoms are unique per replaced rule and never reuse an atom of
    the input, which may itself contain earlier fresh atoms read back
    with ``allow_reserved``. The result is equivalent to the input
    modulo projection over its atoms. Requires kernel form.
    """
    return _apply(program, _long_rule_steps(program)[1])


def _long_rule_steps(program: Program) -> tuple[StructuralIndex, list[TransformStep]]:
    """The input's index and the steps of :func:`long_rule_simplify`."""
    report = check_kernel(program)
    if not report.is_kernel:
        raise KernelFormError(
            "the program is not in kernel form; violations: "
            + ", ".join(dict.fromkeys(v.condition for v in report.violations))
        )
    index = StructuralIndex(program)
    tags = fresh_tags(program.atoms, _FRESH_NAME)
    self_loops = {rule.head for rule in program.rules if rule.body == (neg(rule.head),)}

    steps: list[TransformStep] = []
    for rule in program.rules:
        j = len(rule.body)
        long_auxiliary = index.is_auxiliary(rule) and j > 1
        long_in_cycle = rule in index.in_cycle_rules and j > 2
        if not (long_auxiliary or long_in_cycle):
            continue
        tag = next(tags)
        conditions = [lit.atom for lit in rule.body]  # all negative in kernel form
        fresh = [f"__h{tag}_{i}" for i in range(1, 2 * j + 2)]
        # no body repeats a literal: fresh atoms never equal input atoms
        added = [_rule(rule.head, (neg(fresh[0]),))]
        for i, condition in enumerate(conditions, start=1):
            added.append(_rule(fresh[2 * i - 2], (neg(fresh[2 * i - 1]),)))
            added.append(
                _rule(fresh[2 * i - 1], (neg(fresh[2 * i]), neg(condition)))
            )
        added.append(_rule(fresh[2 * j], (neg(rule.head),)))
        notes = [NOTE_REROUTES_CYCLE] if long_in_cycle else []
        if rule.head not in self_loops:
            guard_conditions = [rule.head]
            guard_conditions += [b for b in conditions if b != rule.head]
            guard_rules, guard_atoms = _guard_cycle(guard_conditions, tag)
            added.extend(guard_rules)
            fresh.extend(guard_atoms)
            notes.append(NOTE_CONSTRAINT_GUARD)
        steps.append(
            TransformStep(
                kind="long-rule",
                removed=(rule,),
                added=tuple(added),
                fresh_atoms=tuple(fresh),
                notes=tuple(notes),
            )
        )
    return index, steps


def _expanded_index(
    index: StructuralIndex, steps: list[TransformStep], expanded: Program
) -> StructuralIndex:
    """The index of ``expanded``, the long-rule rewrite by ``steps`` of
    the program ``index`` indexes, with no Tarjan pass over fresh atoms.

    In kernel form every body literal is negative. A replaced rule
    ``h :- not b_1, ..., not b_j`` that does not mention ``h`` witnessed
    the steps ``h -> b_i``; its chain realises each one as the path
    ``h -> f_1 -> ... -> f_2i -> b_i``, and ``f_2j+1 :- not h`` closes
    the chain. So reachability among input atoms is unchanged, and every
    chain atom joins ``h``'s component, which is ``{h}`` and the chain if
    ``h`` had none. A self-referential rule ``h :- not h, not b, ...``
    witnessed only ``h -> h``; its chain adds the steps ``h -> b_i``,
    and these can merge components: ``a :- not a, not b, not c.
    b :- not c. c :- not a.`` puts ``b`` and ``c`` on a cycle. No step
    enters a guard from outside it, so each guard is a component of its
    own.
    """
    replaced = [step.removed[0] for step in steps]
    component_of = index._components_with([
        (rule.head, atom)
        for rule in replaced
        if neg(rule.head) in rule.body
        for atom, _ in rule.body
        if atom != rule.head
    ])
    for rule, step in zip(replaced, steps):
        size = 2 * len(rule.body) + 1
        chain, guard = step.fresh_atoms[:size], step.fresh_atoms[size:]
        members = component_of.setdefault(rule.head, {rule.head})
        members.update(chain)
        component_of.update(dict.fromkeys(chain, members))
        component_of.update(dict.fromkeys(guard, set(guard)))
    return StructuralIndex._derived(expanded, component_of)


def _chain_formulas(bridge: Bridge) -> tuple[ReconstructionFormula, ...]:
    # chain atom i (1-based) equals the target under n - i + 1 negations
    n = bridge.length
    formulas = []
    for i in range(n, 0, -1):
        atom = bridge.chain_atoms[i - 1]
        negate = (n - i + 1) % 2 == 1
        formulas.append(ReconstructionFormula(atom, bridge.target_atom, negate))
    return tuple(formulas)


def _require_bridge(program: Program, bridge: Bridge, kind: str) -> None:
    if bridge.kind != kind:
        raise ValueError(f"expected an {kind} bridge, got {bridge.kind}")
    present = set(program.rules)
    missing = [
        rule for rule in (bridge.anchor_rule, *bridge.chain) if rule not in present
    ]
    if missing:
        raise BridgeNotFoundError(
            f"bridge rules not present in program: {missing[0]}"
        )


def _bridge_step(bridge: Bridge) -> TransformStep:
    """Delete the bridge chain and rewrite the anchor rule's first chain
    literal to the target as the anchor sees it through the chain,
    ``not a`` for even chains and ``a`` for odd ones. An OR anchor's
    body is exactly that literal. The chain atoms' reconstruction
    formulas are recorded."""
    target = bridge.target_atom
    literal = neg(target) if bridge.is_even else pos(target)
    first = neg(bridge.chain_atoms[0])
    anchor = bridge.anchor_rule
    replacement = Rule(
        anchor.head, tuple(literal if lit == first else lit for lit in anchor.body)
    )
    parity = "even" if bridge.is_even else "odd"
    return TransformStep(
        kind=f"{bridge.kind.lower()}-bridge-{parity}",
        removed=(anchor, *bridge.chain),
        added=(replacement,),
        dropped=_chain_formulas(bridge),
    )


def simplify_or_bridge(
    program: Program, bridge: Bridge
) -> tuple[Program, TransformTrace]:
    """Remove an OR bridge: the chain and its auxiliary anchor rule are
    replaced by a direct handle on the target, ``p :- not a`` for even
    chains and ``p :- a`` for odd ones."""
    _require_bridge(program, bridge, OR_BRIDGE)
    return _apply(program, [_bridge_step(bridge)])


def simplify_and_bridge(
    program: Program, bridge: Bridge
) -> tuple[Program, TransformTrace]:
    """Remove an AND bridge: the chain is deleted and the anchor cycle
    rule's handle literal is rewritten to the target, ``not a`` for even
    chains and positive ``a`` for odd ones."""
    _require_bridge(program, bridge, AND_BRIDGE)
    return _apply(program, [_bridge_step(bridge)])


def three_kernelize(program: Program) -> tuple[Program, TransformTrace]:
    """Long-rule simplification once, then every bridge of its result
    simplified once, in sorted order. Requires kernel form.

    Both rewrites produce steps and ``_apply`` applies them, so the
    bridge steps are applied together, as one edit of the long-rule
    result, and the two traces are composed. One structural index is
    built, on the input. The bridge search reads the long-rule result's
    index, derived from it by construction (:func:`_expanded_index`).

    One detection is enough. Chain atoms lie on no cycle and bridges
    share no rule, so a rewrite, which replaces the path from anchor
    through chain to target by one literal on the target, changes no
    strongly connected component, no in-cycle set, no other bridge's
    anchor or chain, and no body or defining-rule count of a chain atom.
    A self-loop anchor's new literal witnesses no new step. Only an odd
    chain back to a self-loop anchor ``p :- not p, not e`` differs from
    detecting again: ``p :- not p, p`` no longer witnesses ``p``'s loop,
    and a second chain back to ``p``, which may then no longer count as
    a bridge, is still simplified, soundly, since the chain literal
    equals the target literal in every answer set.

    The answer sets of the result correspond to the input's over the
    surviving atoms; ``reconstruct`` recovers full original answer
    sets. Residual structure that the rewrites cannot reach is reported
    by ``check_3kernel`` rather than asserted away.
    """
    index, steps = _long_rule_steps(program)
    expanded, _ = _apply(program, steps)
    bridges = _find_bridges(expanded, _expanded_index(index, steps, expanded))
    result, bridged = _apply(expanded, [_bridge_step(bridge) for bridge in bridges])
    steps += bridged.steps
    if _log.isEnabledFor(logging.DEBUG):
        for step in steps:
            _log.debug(
                "three_kernelize: %(kind)s step, %(removed)d rules removed, "
                "%(added)d added, fresh atoms %(fresh_atoms)s",
                {
                    "kind": step.kind,
                    "removed": len(step.removed),
                    "added": len(step.added),
                    "fresh_atoms": step.fresh_atoms,
                },
            )
    return result, TransformTrace(tuple(steps), result.atoms, program.atoms)


def reconstruct(
    interpretation: Iterable[str], trace: TransformTrace
) -> frozenset[str]:
    """Map an answer set of the transformed program back to the
    original language: keep the atoms of the original universe, then
    re-add each dropped bridge atom according to its reconstruction
    formula."""
    s = frozenset(interpretation)
    result = set(s & trace.original_atoms)
    for step in trace.steps:
        for formula in step.dropped:
            if formula.source not in s and formula.source not in trace.surviving_atoms:
                raise ReconstructionError(
                    f"formula {formula} references an atom that is neither "
                    f"in the answer set nor in the surviving universe"
                )
            value = formula.source in s
            if formula.negate:
                value = not value
            if value:
                result.add(formula.atom)
    return frozenset(result)


def trace_to_dict(trace: TransformTrace) -> dict:
    """Trace as a JSON-serializable document."""
    return _trace_dict(trace, {})


def _trace_dict(trace: TransformTrace, rendered: dict[Rule, str]) -> dict:
    """:func:`trace_to_dict`, taking a rule's text from ``rendered`` if there."""
    return {
        "steps": [
            {
                "kind": step.kind,
                "removed": [rendered.get(rule) or str(rule) for rule in step.removed],
                "added": [rendered.get(rule) or str(rule) for rule in step.added],
                "fresh_atoms": list(step.fresh_atoms),
                "dropped": [str(formula) for formula in step.dropped],
                "notes": list(step.notes),
            }
            for step in trace.steps
        ],
        "surviving_atoms": sorted(trace.surviving_atoms),
    }

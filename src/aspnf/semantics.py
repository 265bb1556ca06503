"""Answer sets and the well-founded model over one compiled program.

The Gelfond-Lifschitz operator ``gamma(p, s)`` is the least model of the
reduct of ``p`` with respect to ``s``; ``s`` is an answer set iff
``gamma(p, s) == s``. ``gamma`` is antimonotone, so its square is
monotone, and the well-founded model is its alternating fixpoint (Van
Gelder, 1993).

One pass over a program's rules compiles it into a ``_BitProgram``,
one encoding per rule: the counters and occurrence lists that the
search's completion reads, and each rule's number of positive body
literals. Its ``gamma``, which the public ``gamma`` calls, is a counter
least model over the positive occurrence lists. The search narrows an
interval ``[lower, upper]`` of the subset lattice. The well-founded
model compiles nothing: it is one closure over the rules, keyed by atom
name, that draws immediate consequences and greatest unfounded sets
(``_closure``).

Interpretations are plain ``frozenset`` values of atom names.

``enumerate_answer_sets`` searches the subset space exhaustively. At
every node it alternates the completion inferences below (the
``expand`` step of smodels: Simons, Niemelä and Soininen, 2002) with
the unfounded bound until neither narrows ``[lower, upper]``, then
splits on one undecided atom. A rule is *blocked* when a positive body
atom is outside ``upper`` or a negative body atom is in ``lower``; a
literal *holds* when its atom is decided its way. Every answer set S with
``lower <= S <= upper`` satisfies each inference, because an atom is in
S iff some rule with head that atom has a body true in S:

1. Support. An atom whose rules are all blocked is false, and a
   conflict if it is true. If a true atom has exactly one unblocked
   rule, that rule's body is true in S: its positive atoms join
   ``lower`` and its negative atoms leave ``upper``.
2. False head. A false atom's rules all have bodies false in S. If
   every literal of an unblocked one holds, that is a conflict; if all
   but one hold, the remaining literal is false.
3. True body. An unblocked rule whose body holds, except perhaps for
   ``not head``, makes its head true: if the head were false, ``not
   head`` would hold and the body would be true. So with ``q`` true,
   ``p :- not p, q`` makes ``p`` true, and ``p`` then needs another
   rule to support it: the rule acts as a constraint.

The completion is drawn by counters, as in clasp (Gebser, Kaufmann,
Neumann and Schaub, 2007). A node keeps each atom's value and number of
unblocked rules, and each rule's number of literals that do not hold
yet; a child starts from a copy of its parent's. Deciding an atom
visits only the rules it occurs in: where its literal fails the rule is
blocked and its head's count drops, where it holds the rule's count
drops. Each inference fires when a count reaches 0 or 1 while an atom
has some value, and is checked both when the count drops and when the
atom is decided, so none is missed. An inference drawn from an
interval is drawn from every narrower one, so every order reaches the
same fixpoint, or a conflict: each node gets the interval a rescan of
every atom would give, and the search visits the same nodes in order.

Any answer set S in ``[lower, upper]`` satisfies ``gamma(upper) <= S
<= gamma(lower)``, because gamma is antimonotone: the two bounds of Van
Gelder's alternating fixpoint. The search draws the second as the
*unfounded bound*: after each counter fixpoint every atom that is not
false and that ``gamma(lower)`` does not derive turns false, a conflict
if it is true, and the counter loop resumes. Three steps show that
nothing else is needed:

1. The completion implies ``gamma(upper) <= lower``. A rule of the
   reduct by ``upper`` has every negative body atom false; by induction
   on the derivation its positive body atoms are true, so all its
   literals hold and inference 3 has made its head true.
2. The completion and the unfounded bound only narrow the interval,
   and each inference drawn from an interval is drawn from every
   narrower one, so every order reaches the same fixpoint, or a
   conflict, and the search visits the same nodes.
3. At a leaf ``lower == upper == S``, so ``gamma(S) <= S`` by step 1 and
   ``S <= gamma(S)`` by the unfounded bound: ``gamma(S) == S``, and
   every leaf is an answer set with no further check.

Without positive body literals the completion subsumes the unfounded
bound, so the search skips it: ``gamma(lower)`` is then the heads of
rules with no true negative body atom, which are the unblocked rules,
so it drops exactly the atoms with no unblocked rule, which inference
1 has made false.

Rules with an atom both positive and negative in their body are never
true: the search starts them blocked, though gamma reads them. The
completion is too strong for the well-founded model (on ``q :- not q.
q :- not a.`` it makes ``q`` true, which that model leaves undefined);
the closure of ``well_founded`` draws only inference 3 for bodies that
hold outright, and greatest unfounded sets, which hold the atoms that
the first sentence of inference 1 makes false. The tests cross-check
the search, gamma and the well-founded model against independent
implementations.

``enumerate_answer_sets`` compiles the program once and splits it into
the connected components of its atom-rule incidence graph, where an
atom and a rule are linked when the atom is the rule's head or occurs
in its body: the simplest case of the splitting-set theorem (Lifschitz
and Turner, 1994). Components share no atom and each rule's reduct
depends only on its own component's atoms, so ``gamma`` of a union is
the union of each component's ``gamma``, and the answer sets of the
program are the unions of one answer set from each component. Each
component is searched over the shared arrays, with the other atoms
false, in the order of its first rule; the first one with no answer
set ends the search. Each answer is a tuple of atom names in name
order, sorted once where the parts are joined (a single component
without ``__`` atoms finds them in that order); ``solve`` prints them.

After each enumeration the ``aspnf`` logger gets one debug record whose
arguments are a dict of atoms, rules, components, search nodes,
conflicts (nodes that hold no answer set) and answers, summed over the
components. After each well-founded model it gets one whose dict holds
atoms, rules, the atoms the model decides and the unfounded-set rounds
run.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .errors import UniverseTooLargeError
from .model import Program, Rule, is_reserved

#: Default cap on the enumeration universe (overridable per call).
DEFAULT_MAX_ATOMS = 24
_TRUE, _FALSE = 1, 2  # atom values in the search; 0 is undecided
_HOLDS = bytes.maketrans(bytes([_TRUE, _FALSE]), b"\1\0")  # 1 where true
_OPEN = bytes.maketrans(bytes([0, _TRUE, _FALSE]), b"\1\1\0")  # 1 where not false

_log = logging.getLogger("aspnf")


def gamma(program: Program, atoms: Iterable[str]) -> frozenset[str]:
    """Gelfond-Lifschitz operator: least model of the reduct.

    Atoms outside the program's universe are ignored (they are false).
    Antimonotone: ``s1 <= s2`` implies ``gamma(p, s2) <= gamma(p, s1)``.
    A set ``s`` is an answer set iff ``gamma(p, s) == s``; the result
    lies inside ``p.atoms``, so a set with other atoms never is.
    """
    bp = _BitProgram(program.rules, program.atoms)
    value = bytearray(len(bp.atoms))
    for atom in atoms:
        if atom in bp.index:
            value[bp.index[atom]] = _TRUE
    return frozenset(compress(bp.atoms, bp.gamma(value)))


@dataclass(frozen=True)
class WfsResult:
    """Three-valued well-founded model: a partition of the atom universe."""

    true_atoms: frozenset[str]
    false_atoms: frozenset[str]
    undefined_atoms: frozenset[str]


def well_founded(program: Program) -> WfsResult:
    """Well-founded model (Van Gelder, Ross and Schlipf, 1991).

    Every answer set contains all true atoms and avoids all false ones.
    The model is the least fixpoint of two steps: immediate consequence,
    and making the greatest unfounded set false. A set U of atoms is
    unfounded when every rule with its head in U has a false literal or
    a positive body atom in U. ``_closure`` draws both steps until
    neither decides an atom. Each step is sound, so the closure lies
    below the model, and a fixpoint of both steps that lies below the
    least one is the least one.

    One debug record on the ``aspnf`` logger gives the atoms, rules,
    atoms the model decides and unfounded-set rounds run.
    """
    true_atoms, false_atoms, rounds = _closure(program)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "well_founded: %(atoms)d atoms, %(rules)d rules, "
            "%(decided)d decided, %(rounds)d unfounded-set rounds",
            {
                "atoms": len(program.atoms),
                "rules": len(program.rules),
                "decided": len(true_atoms) + len(false_atoms),
                "rounds": rounds,
            },
        )
    undefined = program.atoms - true_atoms - false_atoms
    return WfsResult(frozenset(true_atoms), frozenset(false_atoms), undefined)


def _closure(program: Program) -> tuple[set[str], set[str], int]:
    """The true and false atoms of the well-founded model, and the
    number of unfounded-set rounds run.

    Each rule counts its literals that do not hold yet, and each atom its
    live rules. A rule dies when one of its literals turns false, and an
    atom with no live rule is false; a rule whose literals all hold
    makes its head true. Each atom is decided and queued at most once,
    and when it is taken from the queue each of its body occurrences is
    visited once: the literal either holds, and its rule's count drops,
    or is false, and its rule dies. Atoms with no rule and heads of
    facts start the queue.

    Without positive body literals the atoms whose rules all died are
    the greatest unfounded set, so the drained queue is the model, and
    without facts and atoms that have no rule it returns before building
    the occurrence index, as on every program in kernel form. Otherwise,
    while some atom is undecided, a round finds the atoms that some
    live rule can still derive, reading undecided negative literals as
    true: each live rule counts its undecided positive body atoms, a
    rule whose count is 0 derives its head, and each derived atom lowers
    the counts over its ``positive`` list. The undecided atoms left
    underived are the greatest unfounded set; they are false and start
    the queue again."""
    rules = program.rules
    heads = [rule.head for rule in rules]
    live = Counter(heads)
    value = dict.fromkeys(program.atoms - live.keys(), False)
    value.update((rule.head, True) for rule in rules if not rule.body)
    if not value and all(negated for rule in rules for _, negated in rule.body):
        return set(), set(), 0
    pending = [len(rule.body) for rule in rules]
    positive: dict[str, list[int]] = {}
    negative: dict[str, list[int]] = {}
    for r, rule in enumerate(rules):
        for atom, negated in rule.body:
            (negative if negated else positive).setdefault(atom, []).append(r)
    queue = list(value)
    dead = bytearray(len(rules))
    rounds = 0
    while True:
        # The queue grows while it is read; each atom is appended once.
        for atom in queue:
            if value[atom]:
                holding, failing = positive.get(atom, ()), negative.get(atom, ())
            else:
                holding, failing = negative.get(atom, ()), positive.get(atom, ())
            for r in failing:
                if not dead[r]:
                    dead[r] = 1
                    head = heads[r]
                    live[head] -= 1
                    if not live[head] and head not in value:
                        value[head] = False
                        queue.append(head)
            for r in holding:
                pending[r] -= 1
                if not pending[r] and heads[r] not in value:
                    value[heads[r]] = True
                    queue.append(heads[r])
        if not positive or len(value) == len(program.atoms):
            break
        rounds += 1
        need = list(dead)  # so that no dead rule's count reaches 0
        for atom, occurrences in positive.items():
            if atom not in value:
                for r in occurrences:
                    need[r] += 1
        derived = {h for h, n in zip(heads, need) if not (n or h in value)}
        # The list grows while it is read; each atom is appended once.
        reached = list(derived)
        for atom in reached:
            for r in positive.get(atom, ()):
                need[r] -= 1
                head = heads[r]
                if not (need[r] or head in value or head in derived):
                    derived.add(head)
                    reached.append(head)
        queue = list(program.atoms - value.keys() - derived)
        if not queue:
            break
        value.update(dict.fromkeys(queue, False))
    true_atoms = {atom for atom, holds in value.items() if holds}
    return true_atoms, value.keys() - true_atoms, rounds


class _BitProgram:
    """A program's rules compiled by one pass, under one rule numbering,
    over the given atoms (which must hold every atom of the rules): one
    position per atom. The search runs over these arrays one connected
    component at a time (``components``).

    Low positions are assigned to non-reserved atoms so that the search
    branches on them first: values of transformation-generated atoms
    (``__`` prefix) are usually forced by propagation once the original
    atoms are decided.

    ``heads`` and ``bodies`` hold each rule by position, its literals as
    ``(atom, value that holds it)``; ``positives`` each rule's number of
    positive body literals, for gamma; ``rules_of`` each atom's rules;
    and ``watch[value][atom]`` the rules where the atom's literal holds
    under that value, and where it fails, so ``watch[_TRUE][atom]`` is
    its positive and its negative occurrences. A search state ``(value,
    live, unmet)`` holds each atom's value (0 while undecided) and
    number of unblocked rules, and each rule's number of literals that
    do not hold yet (-1 once blocked). A rule with an atom both positive
    and negative starts blocked and is in no ``rules_of``. ``initial``
    is what the rules decide alone: atoms without rules are false; rules
    with no literal, or only ``not head``, fire inference 3. ``whole``
    is the whole program as one component."""

    def __init__(self, rules: Iterable[Rule], atoms: Iterable[str]):
        self.atoms = tuple(sorted(atoms, key=lambda a: (is_reserved(a), a)))
        self.index = index = {atom: i for i, atom in enumerate(self.atoms)}
        positions = range(len(self.atoms))
        self.heads, self.bodies, self.self_negating, self.positives = [], [], [], []
        self.unmet, self.initial = [], []  # ``unmet`` of the root state
        self.rules_of = [[] for _ in positions]
        positive, negative = [[] for _ in positions], [[] for _ in positions]
        for r, rule in enumerate(rules):
            body = []
            count = 0
            contradictory = False
            for atom, negated in rule.body:
                i = index[atom]
                if negated:
                    body.append((i, _FALSE))
                    negative[i].append(r)
                    opposite = positive[i]
                else:
                    body.append((i, _TRUE))
                    positive[i].append(r)
                    opposite = negative[i]
                    count += 1
                if opposite and opposite[-1] == r:  # both literals of ``atom``
                    contradictory = True
            head = index[rule.head]
            self.heads.append(head)
            self.bodies.append(body)
            self.positives.append(count)
            self.self_negating.append((rule.head, True) in rule.body)
            if contradictory:
                self.unmet.append(-1)
                continue
            self.unmet.append(len(body))
            self.rules_of[head].append(r)
            if len(body) <= self.self_negating[r]:
                self.initial.append((head, _TRUE))
        self.initial += [(a, _FALSE) for a in positions if not self.rules_of[a]]
        self.live = [len(rules) for rules in self.rules_of]  # of the root state
        self.watch = None, list(zip(positive, negative)), list(zip(negative, positive))
        self.whole = positions, range(len(self.heads)), any(self.positives)

    def components(self) -> list[tuple[list[int], list[int], bool]]:
        """Each connected component of the atom-rule incidence graph, in
        the order of its first rule, by a union-find over ``heads`` and
        ``bodies``: its atoms and rules by position, and whether one of
        its rules has a positive body literal."""
        parent = list(range(len(self.atoms)))

        def find(atom: int) -> int:
            while parent[atom] != atom:
                parent[atom] = atom = parent[parent[atom]]
            return atom

        for head, body in zip(self.heads, self.bodies):
            root = find(head)
            for atom, _ in body:
                parent[find(atom)] = root
        components: dict[int, tuple[list[int], list[int]]] = {}
        for r, head in enumerate(self.heads):
            components.setdefault(find(head), ([], []))[1].append(r)
        for atom in range(len(parent)):
            components[find(atom)][0].append(atom)
        positives = self.positives
        return [(a, r, any(positives[i] for i in r)) for a, r in components.values()]

    def gamma(self, value: bytearray, component: tuple | None = None) -> bytearray:
        """The least model of the reduct by the atoms that are true in
        ``value``, one byte per atom (1 when derived), from the rules of
        ``component`` (``whole`` by default). A rule with a true
        negative body atom is inactive; every other rule counts its
        positive body atoms not derived yet, and derives its head when
        the count reaches 0."""
        heads, occurrences = self.heads, self.watch[_TRUE]
        need = self.positives.copy()
        for _, negatives in compress(occurrences, value.translate(_HOLDS)):
            for r in negatives:
                need[r] = -1  # inactive: never counts down to 0
        derived = bytearray(len(value))
        # The queue grows while it is read; each rule adds its head once.
        queue = [heads[r] for r in (component or self.whole)[1] if not need[r]]
        for atom in queue:
            if not derived[atom]:
                derived[atom] = 1
                for r in occurrences[atom][0]:
                    need[r] -= 1
                    if not need[r]:
                        queue.append(heads[r])
        return derived

    def root(self, component: tuple | None = None) -> tuple:
        """The search state of the full interval of ``component``'s atoms
        (``whole`` by default), every other atom false, before ``initial``."""
        value = bytearray([_FALSE]) * len(self.atoms)
        for atom in (component or self.whole)[0]:
            value[atom] = 0
        return value, self.live.copy(), self.unmet.copy()

    def propagate(self, state: tuple, decided: Iterable, component=None) -> bool:
        """Decide each ``(atom, value)`` of ``decided`` in ``state``, then
        alternate the counter fixpoint with the unfounded bound over
        ``component``, one of ``components`` (``whole`` by default),
        until neither moves; the bound is skipped when no rule of the
        component has a positive body literal. False on a conflict,
        which leaves ``state`` half updated."""
        value, live, unmet = state
        heads, bodies, rules_of = self.heads, self.bodies, self.rules_of
        self_negating, watch = self.self_negating, self.watch
        queue: list[int] = []

        def assign(atom: int, truth: int) -> bool:
            if value[atom]:
                return value[atom] == truth
            value[atom] = truth
            queue.append(atom)
            return True

        def support(atom: int) -> bool:
            # 1. The body of a true atom's one unblocked rule is true.
            for r in rules_of[atom]:
                if unmet[r] >= 0:
                    break
            for a, way in bodies[r]:
                if not assign(a, way):
                    return False
            return True

        def refute(r: int) -> bool:
            # 2. The one literal of a false atom's rule that may not hold
            # yet is false.
            for a, way in bodies[r]:
                if value[a] != way:
                    return assign(a, _TRUE + _FALSE - way)
            return True

        if not all(assign(atom, truth) for atom, truth in decided):
            return False
        while True:
            # The queue grows while it is read; each atom is appended once.
            for atom in queue:
                truth = value[atom]
                holding, failing = watch[truth][atom]
                for r in failing:
                    if unmet[r] >= 0:
                        unmet[r] = -1
                        head = heads[r]
                        left = live[head] = live[head] - 1
                        if left < 2 and value[head] == _TRUE:
                            if not left or not support(head):
                                return False
                        elif not left and not value[head]:
                            value[head] = _FALSE
                            queue.append(head)
                for r in holding:
                    left = unmet[r] - 1
                    if left < 0:
                        continue
                    unmet[r] = left
                    if left > 1:
                        continue
                    head = heads[r]
                    if value[head] == _FALSE:
                        if not left or not refute(r):
                            return False
                    # 3. True body, but for ``not head`` if it is there.
                    elif not value[head] and (not left or self_negating[r]):
                        value[head] = _TRUE
                        queue.append(head)
                if truth == _TRUE:
                    if not live[atom] or live[atom] == 1 and not support(atom):
                        return False
                else:
                    for r in rules_of[atom]:
                        if not unmet[r] or unmet[r] == 1 and not refute(r):
                            return False
            if not (component or self.whole)[2]:
                return True
            # The unfounded bound: what gamma(lower) does not derive is false.
            # ``gaps`` has one byte per atom, 1 where it is neither.
            derived = int.from_bytes(self.gamma(value, component), "little")
            gaps = int.from_bytes(value.translate(_OPEN), "little") & ~derived
            if not gaps:
                return True
            gaps = gaps.to_bytes(len(value), "little")
            queue = list(compress(range(len(value)), gaps))
            for atom in queue:
                if value[atom]:
                    return False
                value[atom] = _FALSE


def _search(bp: _BitProgram, component: tuple) -> tuple[list[tuple], int, int]:
    """Bound-and-branch over intervals of the subset lattice of one of
    ``bp.components()``, whose root starts every other atom false, so
    that none is ever queued: the component's answer sets as name
    tuples in ``bp.atoms`` order, and the numbers of search nodes and of
    conflicts (nodes that hold no answer set). The true child, popped
    first, propagates a copy of its parent's state, and the false child
    the state itself. A node whose propagation decides every atom is an
    answer set (module docstring)."""
    found: list[tuple[str, ...]] = []
    nodes = conflicts = 0
    state = bp.root(component)
    pending = [(state, [(a, truth) for a, truth in bp.initial if not state[0][a]])]
    while pending:
        nodes += 1
        state, decided = pending.pop()
        if not bp.propagate(state, decided, component):
            conflicts += 1
            continue
        value, live, unmet = state
        atom = value.find(0)
        if atom < 0:
            found.append(tuple(compress(bp.atoms, value.translate(_HOLDS))))
            continue
        pending.append((state, ((atom, _FALSE),)))
        copy = bytearray(value), live.copy(), unmet.copy()
        pending.append((copy, ((atom, _TRUE),)))
    return found, nodes, conflicts


def enumerate_answer_sets(
    program: Program, max_atoms: int | None = None
) -> tuple[frozenset[str], ...]:
    """All answer sets: exactly ``{s : gamma(p, s) == s}``.

    Raises :class:`UniverseTooLargeError` when the universe exceeds the
    cap (``DEFAULT_MAX_ATOMS`` unless ``max_atoms`` is given). Output
    order is deterministic: increasing cardinality, then lexicographic
    on the sorted atom names. Each connected component of the program
    is searched on its own (module docstring).
    """
    return tuple(map(frozenset, _answer_tuples(program, max_atoms)))


def _answer_tuples(program: Program, max_atoms: int | None) -> list[tuple[str, ...]]:
    """``enumerate_answer_sets`` as sorted name tuples, in its order."""
    cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    size = len(program.atoms)
    if size > cap:
        raise UniverseTooLargeError(
            f"program has {size} atoms, enumeration cap is {cap}"
        )
    bp = _BitProgram(program.rules, program.atoms)
    components = bp.components()
    # One component's answers are in name order unless an atom is reserved.
    ordered = len(components) == 1 and not is_reserved(bp.atoms[-1])
    answer_sets: list[tuple[str, ...]] = [()]
    nodes = conflicts = 0
    for component in components:
        found, component_nodes, component_conflicts = _search(bp, component)
        nodes += component_nodes
        conflicts += component_conflicts
        if not ordered:
            found = [tuple(sorted(s + part)) for s in answer_sets for part in found]
        answer_sets = found
        if not answer_sets:
            break
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "enumerate_answer_sets: %(atoms)d atoms, %(rules)d rules, "
            "%(components)d components, %(nodes)d nodes, "
            "%(conflicts)d conflicts, %(answers)d answers",
            {
                "atoms": size,
                "rules": len(program.rules),
                "components": len(components),
                "nodes": nodes,
                "conflicts": conflicts,
                "answers": len(answer_sets),
            },
        )
    # By size, then by names: the second sort is stable.
    answer_sets.sort()
    answer_sets.sort(key=len)
    return answer_sets

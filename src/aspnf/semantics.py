"""Answer sets and the well-founded model over one compiled program.

The Gelfond-Lifschitz operator ``gamma(p, s)`` is the least model of the
reduct of ``p`` with respect to ``s``; ``s`` is an answer set iff
``gamma(p, s) == s``. ``gamma`` is antimonotone, so its square is
monotone, and the well-founded model is its alternating fixpoint (Van
Gelder, 1993).

There is one gamma, ``_BitProgram.gamma``, over the program compiled to
bitmasks, and one alternating-fixpoint loop, ``_tighten``, which
narrows an interval ``[lower, upper]`` of the subset lattice. The
well-founded model is a linear closure over the rules, which that loop
narrows further only when some rule has a positive body literal
(``well_founded``).

Interpretations are plain ``frozenset`` values of atom names.

``enumerate_answer_sets`` searches the subset space exhaustively. At
every node it alternates the gamma fixpoint with the completion
inferences below (the ``expand`` step of smodels: Simons, Niemelä and
Soininen, 2002) until neither narrows ``[lower, upper]``, then splits
on one undecided atom. A rule is *blocked* when a positive body atom is
outside ``upper`` or a negative body atom is in ``lower``; a literal
*holds* when its atom is decided its way. Every answer set S with
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

The completion is incremental. A search node inherits a summary of
its parent's fixpoint: the atoms still undecided there, the true atoms
whose support is not settled, and the bitsets of blocked rules and of
rules with a false head. Decided atoms stay decided in every
sub-interval, so each pass scans only the inherited undecided atoms
and ORs the newly decided ones into the two bitsets. Once a true atom
has exactly one unblocked rule, inference 1 in the same pass decides
every literal of that rule's body its way, or finds a conflict. From
then on the body holds in every sub-interval, so the rule stays
unblocked and the atom can give no further inference and no conflict;
it leaves the summary. Each pass therefore draws exactly the
inferences a rescan of every atom would draw, and the search visits
the same nodes.

Rules with an atom both positive and negative in their body are never
true and take no part. The completion is not used for the well-founded
model: it is stronger (on ``q :- not q. q :- not a.`` it makes ``q``
true, which the well-founded model leaves undefined). The closure of
``well_founded`` draws only the first sentence of inference 1, and
inference 3 for bodies that hold outright. At a leaf the search keeps
``lower`` iff ``gamma(lower) == lower``, so the result is exact
whatever the propagation prunes; the test suite cross-checks it, and
the well-founded model, against independent implementations.

In a program without positive body literals the completion subsumes
the gamma fixpoint, so the search skips it there. For such a program
``gamma(s)`` is the set of heads of rules with no negative body atom in
``s``. ``gamma(upper)`` is then the heads of bodies that hold, which
inference 3 has already made true, and ``upper & gamma(lower)`` drops
exactly the atoms with no unblocked rule, which inference 1 has already
made false. Once the completion stops moving, the gamma fixpoint cannot
narrow the interval; the leaf check stays.

Before searching, ``enumerate_answer_sets`` splits the program into the
connected components of its atom-rule incidence graph, where an atom
and a rule are linked when the atom is the rule's head or occurs in its
body. This is the simplest case of the splitting-set theorem (Lifschitz
and Turner, 1994, "Splitting a logic program"). Components share no
atom, and each rule's reduct depends only on atoms of its own
component, so ``gamma`` of a union is the union of each component's
``gamma`` of its part. A set is therefore an answer set iff its
restriction to every component is an answer set of that component, and
the answer sets of the program are the unions of one answer set from
each component: the product of the components' answer sets. Each
component is compiled and searched on its own, in the order of its
first rule; the first one with no answer set makes the whole program
inconsistent, and the rest are not searched.

After each enumeration the ``aspnf`` logger gets one debug record whose
arguments are a dict of atoms, rules, components, search nodes,
conflicts (nodes that hold no answer set) and answers, summed over the
components. After each well-founded model it gets one whose dict holds
atoms, rules, the atoms the closure decided and the ``_tighten``
rounds run.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import UniverseTooLargeError
from .model import Program, Rule, is_reserved

#: Default cap on the enumeration universe (overridable per call).
DEFAULT_MAX_ATOMS = 24

_log = logging.getLogger("aspnf")


def gamma(program: Program, atoms: Iterable[str]) -> frozenset[str]:
    """Gelfond-Lifschitz operator: least model of the reduct.

    Atoms outside the program's universe are ignored (they are false).
    Antimonotone: ``s1 <= s2`` implies ``gamma(p, s2) <= gamma(p, s1)``.
    """
    bp = _BitProgram(program.rules, program.atoms)
    return bp.to_set(bp.gamma(bp.to_mask(atoms)))


def is_answer_set(program: Program, interpretation: Iterable[str]) -> bool:
    """True iff the interpretation is a fixpoint of gamma; one that
    mentions atoms outside the program never is."""
    s = frozenset(interpretation)
    return s <= program.atoms and gamma(program, s) == s


@dataclass(frozen=True)
class WfsResult:
    """Three-valued well-founded model: a partition of the atom universe."""

    true_atoms: frozenset[str]
    false_atoms: frozenset[str]
    undefined_atoms: frozenset[str]


def well_founded(program: Program) -> WfsResult:
    """Well-founded model (Van Gelder, Ross and Schlipf, 1991).

    Every answer set contains all true atoms and avoids all false ones.

    A linear closure (``_closure``) first draws two inferences until
    neither applies: an atom with no live rule is false, and a rule
    whose literals all hold makes its head true. A rule dies when one of
    its literals turns false. This is the reduction of Brass, Dix,
    Freitag and Zukowski (2001, "Transformation-based bottom-up
    computation of the well-founded model"): delete rules with a false
    body literal, drop true literals. Its result is Fitting's (1985)
    model.

    When no rule has a positive body literal, the closure is the
    well-founded model. A set U of atoms is unfounded when every rule
    with its head in U has a false literal or a positive body atom in
    U. Without positive body literals only the first case is left, so
    the greatest unfounded set is the set of atoms whose rules each have
    a false literal, which the first inference makes false. The second
    inference is the immediate consequence step of the well-founded
    operator. Both drawn to a fixpoint give its least fixpoint, so
    nothing is compiled and ``_tighten`` does not run.

    Otherwise the closure's bounds seed ``_tighten``, and the result is
    still exact. Both inferences are sound for the well-founded model,
    so the closure's interval lies between the root interval and the
    well-founded one in the knowledge order (lower bounds grow, upper
    bounds shrink). Both steps of ``_tighten``, ``lower | gamma(upper)``
    and ``upper & gamma(lower)``, are monotone in that order, and the
    well-founded interval is their fixpoint. So each pass from the
    closure's bounds is at least as narrow as the same pass from the
    root interval, and never narrower than the well-founded interval.
    The passes from the root reach that interval, so these do too.

    One debug record on the ``aspnf`` logger gives the atoms, rules,
    atoms the closure decided and ``_tighten`` rounds run (0 without
    positive body literals).
    """
    true_atoms, false_atoms, positive = _closure(program)
    decided = len(true_atoms) + len(false_atoms)
    rounds = [0]
    if positive:
        bp = _BitProgram(program.rules, program.atoms)
        bounds = _tighten(
            bp, bp.to_mask(true_atoms), bp.full & ~bp.to_mask(false_atoms), rounds
        )
        assert bounds is not None, "the well-founded model is consistent"
        lower, upper = bounds
        true_atoms, false_atoms = bp.to_set(lower), bp.to_set(bp.full & ~upper)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "well_founded: %(atoms)d atoms, %(rules)d rules, "
            "%(decided)d decided by the closure, %(rounds)d tighten rounds",
            {
                "atoms": len(program.atoms),
                "rules": len(program.rules),
                "decided": decided,
                "rounds": rounds[0],
            },
        )
    return WfsResult(
        frozenset(true_atoms),
        frozenset(false_atoms),
        program.atoms - true_atoms - false_atoms,
    )


def _closure(program: Program) -> tuple[set[str], set[str], bool]:
    """The true and false atoms of the closure of ``well_founded``, and
    whether some rule has a positive body literal.

    Each rule counts its literals that do not hold yet, and each atom its
    live rules. Each atom is decided and queued at most once, and when
    it is taken from the queue each of its body occurrences is visited
    once: the literal either holds, and its rule's count drops, or is
    false, and its rule dies. A rule whose count reaches 0 has no false
    literal, so it never dies, and its head never loses its last live
    rule."""
    rules = program.rules
    heads = [rule.head for rule in rules]
    pending = [len(rule.body) for rule in rules]
    live = Counter(heads)
    positive: dict[str, list[int]] = {}
    negative: dict[str, list[int]] = {}
    for r, rule in enumerate(rules):
        for atom, negated in rule.body:
            (negative if negated else positive).setdefault(atom, []).append(r)
    value = dict.fromkeys(program.atoms - live.keys(), False)
    value.update((head, True) for head, count in zip(heads, pending) if not count)
    queue = list(value)
    dead = bytearray(len(rules))
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
    true_atoms = {atom for atom, holds in value.items() if holds}
    return true_atoms, value.keys() - true_atoms, bool(positive)


class _BitProgram:
    """Rules compiled to bitmasks over the given atoms (which must hold
    every atom of the rules), one bit per atom. For programs without
    positive body literals the reduct consists of facts only, so gamma
    collapses to a single pass.

    Low bits are assigned to non-reserved atoms so that the search
    branches on them first: values of transformation-generated atoms
    (``__`` prefix) are usually forced by propagation once the original
    atoms are decided."""

    def __init__(self, rules: Iterable[Rule], atoms: Iterable[str]):
        self.atoms = tuple(sorted(atoms, key=lambda a: (is_reserved(a), a)))
        self.index = index = {atom: i for i, atom in enumerate(self.atoms)}
        self.full = (1 << len(self.atoms)) - 1
        compiled = []
        for rule in rules:
            head = 1 << index[rule.head]
            pos_mask = 0
            neg_mask = 0
            for lit in rule.body:
                bit = 1 << index[lit.atom]
                if lit.negated:
                    neg_mask |= bit
                else:
                    pos_mask |= bit
            compiled.append((head, pos_mask, neg_mask))
        self.rules = tuple(compiled)
        self.negative_only = all(p == 0 for _, p, _ in compiled)

    def gamma(self, s: int) -> int:
        if self.negative_only:
            acc = 0
            for head, _pos, neg_mask in self.rules:
                if not neg_mask & s:
                    acc |= head
            return acc
        active = [(h, p) for h, p, n in self.rules if not n & s]
        derived = 0
        while True:
            new = derived
            for head, pos_mask in active:
                if not pos_mask & ~new:
                    new |= head
            if new == derived:
                return derived
            derived = new

    def to_mask(self, atoms: Iterable[str]) -> int:
        """Bits of the atoms in the universe; other atoms are dropped."""
        mask = 0
        for atom in atoms:
            if atom in self.index:
                mask |= 1 << self.index[atom]
        return mask

    def to_set(self, mask: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if mask >> i & 1)


def _tighten(
    bp: _BitProgram, lower: int, upper: int, rounds: list[int] | None = None
) -> tuple[int, int] | None:
    """Narrow ``[lower, upper]`` by the alternating fixpoint of gamma;
    None when the interval holds no answer set. ``rounds``, when given,
    is a one-item list that each pass increments.

    Sound by antimonotonicity: any answer set S in the interval
    satisfies gamma(upper) <= S (since S <= upper) and S <= gamma(lower)
    (since lower <= S).
    """
    while True:
        if rounds is not None:
            rounds[0] += 1
        tightened_lower = lower | bp.gamma(upper)
        if tightened_lower & ~upper:
            return None
        tightened_upper = upper & bp.gamma(tightened_lower)
        if tightened_lower & ~tightened_upper:
            return None
        if tightened_lower == lower and tightened_upper == upper:
            return lower, upper
        lower, upper = tightened_lower, tightened_upper


def _completion_index(bp: _BitProgram) -> tuple[tuple, tuple]:
    """What ``_complete`` reads, and the summary of the root interval.

    The index holds the rules that can fire at all, as ``(head, pos,
    neg)`` masks, and the bitset of those rules holding ``not head``. A
    rule with an atom in both parts of its body never has a true body,
    so it supports nothing and constrains nothing.

    A summary of an interval is ``(entries, supports, blocked,
    false_heads)``: the entries of its undecided atoms, each its bit
    and, as bitsets over the rules, the rules it heads, occurs in
    positively, negatively and at all; the ``heads`` bitsets of the true
    atoms whose support is not settled; the blocked rules; the rules
    whose head is false. At the root every atom is undecided."""
    bodies = tuple(rule for rule in bp.rules if not rule[1] & rule[2])
    heads = [0] * len(bp.atoms)
    positive = [0] * len(bp.atoms)
    negative = [0] * len(bp.atoms)
    self_negating = 0
    for r, (head, pos_mask, neg_mask) in enumerate(bodies):
        rule = 1 << r
        heads[head.bit_length() - 1] |= rule
        for i in _bits(pos_mask):
            positive[i] |= rule
        for i in _bits(neg_mask):
            negative[i] |= rule
        if neg_mask & head:
            self_negating |= rule
    entries = tuple(
        (1 << i, heads[i], positive[i], negative[i], positive[i] | negative[i])
        for i in range(len(bp.atoms))
    )
    return (bodies, self_negating), (entries, (), 0, 0)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _complete(
    index: tuple, summary: tuple, lower: int, upper: int
) -> tuple[tuple, int, int] | None:
    """Narrow ``[lower, upper]`` by the completion inferences of the
    module docstring until they no longer move it; None on a conflict,
    else the summary of the narrowed interval and its bounds.

    ``summary`` describes an interval that contains ``[lower, upper]``
    (``_completion_index``). Each pass scans only the entries that were
    undecided in the previous one and draws every inference from the
    same interval."""
    bodies, self_negating = index
    entries, supports, blocked, false_heads = summary
    while True:
        # Bitsets over rules: bodies with at least one and with at least
        # two undecided literals, rules whose head is undecided.
        open_once = open_twice = open_heads = 0
        open_entries = []
        true_heads = list(supports)
        for entry in entries:
            bit, heads, pos_rules, neg_rules, lit_rules = entry
            if bit & lower:
                blocked |= neg_rules
                true_heads.append(heads)
            elif bit & upper:
                open_twice |= open_once & lit_rules
                open_once |= lit_rules
                open_heads |= heads
                open_entries.append(entry)
            else:
                blocked |= pos_rules
                false_heads |= heads
        live = ~blocked
        new_lower, new_upper = lower, upper
        # 1. Support. A true atom with one live rule is settled once this
        # pass makes that rule's body true (module docstring).
        unsettled = []
        for heads in true_heads:
            support = heads & live
            if not support:
                return None
            if support & (support - 1):
                unsettled.append(heads)
            else:
                _head, pos_mask, neg_mask = bodies[support.bit_length() - 1]
                new_lower |= pos_mask
                new_upper &= ~neg_mask
        for entry in open_entries:
            if not entry[1] & live:
                new_upper &= ~entry[0]
        # 2. False head.
        refuted = false_heads & live
        if refuted & ~open_once:
            return None
        for r in _bits(refuted & ~open_twice):
            _head, pos_mask, neg_mask = bodies[r]
            new_upper &= ~(pos_mask & ~lower)
            new_lower |= neg_mask & upper
        # 3. True body; with one undecided literal, it is ``not head``.
        for r in _bits(open_heads & live & (~open_once | self_negating & ~open_twice)):
            new_lower |= bodies[r][0]
        if new_lower & ~new_upper:
            return None
        entries, supports = open_entries, unsettled
        if new_lower == lower and new_upper == upper:
            return (entries, supports, blocked, false_heads), lower, upper
        lower, upper = new_lower, new_upper


def _propagate(
    bp: _BitProgram, index: tuple, summary: tuple, lower: int, upper: int
) -> tuple[tuple, int, int] | None:
    """Alternate the completion and the gamma fixpoint until neither
    narrows ``[lower, upper]``; None when the interval holds no answer
    set, else the summary of the narrowed interval and its bounds.
    Without positive body literals the completion alone is enough
    (module docstring)."""
    while True:
        completed = _complete(index, summary, lower, upper)
        if completed is None or bp.negative_only:
            return completed
        summary, lower, upper = completed
        bounds = _tighten(bp, lower, upper)
        if bounds is None:
            return None
        if bounds == (lower, upper):
            return completed
        lower, upper = bounds


def _search(bp: _BitProgram, found: list[int]) -> tuple[int, int]:
    """Bound-and-branch over ``[lower, upper]`` intervals of the subset
    lattice, propagated at every node from the summary of its parent's
    interval. Appends the answer sets to ``found``; returns the numbers
    of search nodes and of conflicts (nodes that hold no answer set)."""
    index, root = _completion_index(bp)
    nodes = conflicts = 0
    pending = [(root, 0, bp.full)]
    while pending:
        nodes += 1
        propagated = _propagate(bp, index, *pending.pop())
        if propagated is None:
            conflicts += 1
            continue
        summary, lower, upper = propagated
        if lower == upper:
            if bp.gamma(lower) == lower:
                found.append(lower)
            else:
                conflicts += 1
            continue
        undecided = upper & ~lower
        bit = undecided & -undecided
        pending.append((summary, lower, upper & ~bit))
        pending.append((summary, lower | bit, upper))
    return nodes, conflicts


def _components(program: Program) -> list[tuple[list[Rule], list[str]]]:
    """The rules and atoms of each connected component of the
    atom-rule incidence graph, in the order of each component's first
    rule, with rules in program order."""
    parent = {atom: atom for atom in program.atoms}

    def find(atom: str) -> str:
        while parent[atom] != atom:
            parent[atom] = atom = parent[parent[atom]]
        return atom

    for rule in program.rules:
        root = find(rule.head)
        for lit in rule.body:
            other = find(lit.atom)
            if other != root:
                parent[other] = root
    components: dict[str, tuple[list[Rule], list[str]]] = {}
    for rule in program.rules:
        components.setdefault(find(rule.head), ([], []))[0].append(rule)
    for atom in program.atoms:
        components[find(atom)][1].append(atom)
    return list(components.values())


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
    cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    size = len(program.atoms)
    if size > cap:
        raise UniverseTooLargeError(
            f"program has {size} atoms, enumeration cap is {cap}"
        )
    components = _components(program)
    answer_sets: list[frozenset[str]] = [frozenset()]
    nodes = conflicts = 0
    for rules, atoms in components:
        bp = _BitProgram(rules, atoms)
        found: list[int] = []
        component_nodes, component_conflicts = _search(bp, found)
        nodes += component_nodes
        conflicts += component_conflicts
        parts = [bp.to_set(mask) for mask in found]
        answer_sets = [s | part for s in answer_sets for part in parts]
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
    answer_sets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return tuple(answer_sets)

"""Answer sets and the well-founded model over one compiled program.

The Gelfond-Lifschitz operator ``gamma(p, s)`` is the least model of the
reduct of ``p`` with respect to ``s``; ``s`` is an answer set iff
``gamma(p, s) == s``. ``gamma`` is antimonotone, so its square is
monotone, and the well-founded model is its alternating fixpoint (Van
Gelder, 1993).

There is one gamma, ``_BitProgram.gamma``, over the program compiled to
bitmasks, and one alternating-fixpoint loop, ``_tighten``, which
narrows an interval ``[lower, upper]`` of the subset lattice. The
well-founded model is that loop run from the root interval ``[{}, all
atoms]``: the limit lower bound is true, atoms outside the limit upper
bound are false, the rest are undefined.

Interpretations are plain ``frozenset`` values of atom names.

``enumerate_answer_sets`` searches the subset space exhaustively,
running the same tightening at every node, so at the root the search
prunes exactly the well-founded true/false atoms. Every pruning step is
justified by antimonotonicity alone, so the search is exact; the test
suite cross-checks it, and the well-founded model, against independent
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import UniverseTooLargeError
from .model import Program

#: Default cap on the enumeration universe (overridable per call).
DEFAULT_MAX_ATOMS = 24


def gamma(program: Program, atoms: Iterable[str]) -> frozenset[str]:
    """Gelfond-Lifschitz operator: least model of the reduct.

    Atoms outside the program's universe are ignored (they are false).
    Antimonotone: ``s1 <= s2`` implies ``gamma(p, s2) <= gamma(p, s1)``.
    """
    bp = _BitProgram(program)
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
    """Well-founded model: the alternating fixpoint of gamma from the
    root interval, i.e. the search's root tightening.

    Every answer set contains all true atoms and avoids all false ones.
    """
    bp = _BitProgram(program)
    bounds = _tighten(bp, 0, bp.full)
    assert bounds is not None, "the well-founded model is consistent"
    lower, upper = bounds
    return WfsResult(
        bp.to_set(lower), bp.to_set(bp.full & ~upper), bp.to_set(upper & ~lower)
    )


def is_wfs_irreducible(program: Program) -> bool:
    """True iff the well-founded model leaves every atom undefined."""
    wfs = well_founded(program)
    return not wfs.true_atoms and not wfs.false_atoms


@dataclass(frozen=True)
class AnswerSetCollection:
    """Answer sets in enumeration order: by size, then sorted atom names.

    Answer sets of any program form an anti-chain (no member is a
    subset of another); ``is_antichain`` lets tests verify this.
    """

    sets: tuple[frozenset[str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(dict.fromkeys(self.sets)))

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def __contains__(self, item: Iterable[str]) -> bool:
        return frozenset(item) in set(self.sets)

    def is_antichain(self) -> bool:
        for i, a in enumerate(self.sets):
            for b in self.sets[i + 1 :]:
                if a <= b or b <= a:
                    return False
        return True


class _BitProgram:
    """Program compiled to bitmasks, one bit per atom. For programs
    without positive body literals the reduct consists of facts only,
    so gamma collapses to a single pass.

    Low bits are assigned to non-reserved atoms so that the search
    branches on them first: values of transformation-generated atoms
    (``__`` prefix) are usually forced by propagation once the original
    atoms are decided."""

    def __init__(self, program: Program):
        self.atoms = tuple(
            sorted(program.atoms, key=lambda a: (a.startswith("__"), a))
        )
        self.index = index = {atom: i for i, atom in enumerate(self.atoms)}
        self.full = (1 << len(self.atoms)) - 1
        rules = []
        for rule in program.rules:
            head = 1 << index[rule.head]
            pos_mask = 0
            neg_mask = 0
            for lit in rule.body:
                bit = 1 << index[lit.atom]
                if lit.negated:
                    neg_mask |= bit
                else:
                    pos_mask |= bit
            rules.append((head, pos_mask, neg_mask))
        self.rules = tuple(rules)
        self.negative_only = all(p == 0 for _, p, _ in rules)

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


def _tighten(bp: _BitProgram, lower: int, upper: int) -> tuple[int, int] | None:
    """Narrow ``[lower, upper]`` by the alternating fixpoint of gamma;
    None when the interval holds no answer set.

    Sound by antimonotonicity: any answer set S in the interval
    satisfies gamma(upper) <= S (since S <= upper) and S <= gamma(lower)
    (since lower <= S).
    """
    while True:
        tightened_lower = lower | bp.gamma(upper)
        if tightened_lower & ~upper:
            return None
        tightened_upper = upper & bp.gamma(tightened_lower)
        if tightened_lower & ~tightened_upper:
            return None
        if tightened_lower == lower and tightened_upper == upper:
            return lower, upper
        lower, upper = tightened_lower, tightened_upper


def _search(bp: _BitProgram, found: list[int]) -> None:
    # Bound-and-branch over [lower, upper] intervals of the subset
    # lattice, tightened at every node.
    pending = [(0, bp.full)]
    while pending:
        bounds = _tighten(bp, *pending.pop())
        if bounds is None:
            continue
        lower, upper = bounds
        if lower == upper:
            if bp.gamma(lower) == lower:
                found.append(lower)
            continue
        undecided = upper & ~lower
        bit = undecided & -undecided
        pending.append((lower, upper & ~bit))
        pending.append((lower | bit, upper))


def enumerate_answer_sets(
    program: Program, max_atoms: int | None = None
) -> AnswerSetCollection:
    """All answer sets: exactly ``{s : gamma(p, s) == s}``.

    Raises :class:`UniverseTooLargeError` when the universe exceeds the
    cap (``DEFAULT_MAX_ATOMS`` unless ``max_atoms`` is given). Output
    order is deterministic: increasing cardinality, then lexicographic
    on the sorted atom names.
    """
    cap = DEFAULT_MAX_ATOMS if max_atoms is None else max_atoms
    size = len(program.atoms)
    if size > cap:
        raise UniverseTooLargeError(
            f"program has {size} atoms, enumeration cap is {cap}"
        )
    bp = _BitProgram(program)
    found: list[int] = []
    _search(bp, found)
    sets = sorted(
        (bp.to_set(mask) for mask in found),
        key=lambda s: (len(s), tuple(sorted(s))),
    )
    return AnswerSetCollection(tuple(sets))

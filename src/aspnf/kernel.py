"""Kernel normal form: checking, construction from anti-chains, and
equivalence modulo projection.

A program is in kernel form when (1) its well-founded model leaves
every atom undefined, (2) every rule body consists of negative literals
only (in particular there are no facts), and (3) every atom occurs in
the body of some rule.

``antichain_to_kernel`` realizes the representation construction: for
any anti-chain A over a universe H there is a kernel program whose
answer sets, projected over H, are exactly the components of A. The
construction pairs every universe atom with a complement atom, adds one
"machine" rule per component, and closes with a consistency axiom.
``kernelize`` composes it with answer-set enumeration, so it is
exponential-time by design: it realizes an existence argument, not an
efficient translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import AspnfError, ReservedAtomError
from .model import Program, Rule, is_reserved, neg
from .semantics import enumerate_answer_sets, well_founded
from .textio import ParseError, split_atom_list

COND_WFS_IRREDUCIBLE = "wfs-irreducible"
COND_NEGATIVE_BODIES = "negative-bodies-only"
COND_ATOM_IN_BODY = "every-atom-in-some-body"

#: Head of the per-component rules in the anti-chain construction.
MACHINE_ATOM = "__m"
#: Head of the consistency axiom.
BOTTOM_ATOM = "__bot"


def _bar_atom(atom: str) -> str:
    """Complement atom paired with ``atom`` by the construction."""
    return f"__bar_{atom}"


@dataclass(frozen=True)
class KernelViolation:
    condition: str
    witness: Rule | str


@dataclass(frozen=True)
class KernelReport:
    violations: tuple[KernelViolation, ...]

    @property
    def is_kernel(self) -> bool:
        return not self.violations

    def conditions(self) -> frozenset[str]:
        return frozenset(v.condition for v in self.violations)


def check_kernel(program: Program) -> KernelReport:
    """Check the three kernel conditions, reporting every violation.

    Condition 1 is evaluated semantically via the well-founded model;
    facts are flagged under condition 2 (a fact's body is empty, hence
    not all-negative).
    """
    violations: list[KernelViolation] = []
    wfs = well_founded(program)
    for atom in sorted(wfs.true_atoms | wfs.false_atoms):
        violations.append(KernelViolation(COND_WFS_IRREDUCIBLE, atom))
    for rule in program.rules:
        if rule.is_fact or any(not lit.negated for lit in rule.body):
            violations.append(KernelViolation(COND_NEGATIVE_BODIES, rule))
    in_some_body = {lit.atom for rule in program.rules for lit in rule.body}
    for atom in sorted(program.atoms - in_some_body):
        violations.append(KernelViolation(COND_ATOM_IN_BODY, atom))
    return KernelReport(tuple(violations))


@dataclass(frozen=True)
class AntiChain:
    """A collection of pairwise incomparable subsets of a universe."""

    universe: frozenset[str]
    components: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "universe", frozenset(self.universe))
        object.__setattr__(
            self, "components", frozenset(frozenset(c) for c in self.components)
        )
        for atom in self.universe:
            if is_reserved(atom):
                raise ReservedAtomError(
                    f"anti-chain universe contains reserved atom {atom!r}"
                )
        for component in self.components:
            if not component <= self.universe:
                raise ValueError(
                    f"component {sorted(component)} is not a subset of the universe"
                )
        components = sorted(self.components, key=len)
        for i, a in enumerate(components):
            for b in components[i + 1 :]:
                if a < b:
                    raise ValueError(
                        f"not an anti-chain: {sorted(a)} is a subset of {sorted(b)}"
                    )


def antichain_to_kernel(antichain: AntiChain) -> Program:
    """Kernel program whose answer sets project over the universe to
    exactly the anti-chain's components, one answer set per component.

    Every universe atom ``h`` gets the pair ``h :- not __bar_h`` and
    ``__bar_h :- not h``; each component contributes one ``__m`` rule
    whose body asserts the component's atoms (via their complements)
    and denies the rest of the universe; the axiom
    ``__bot :- not __bot, not __m`` rejects models where no component
    fires. Degenerate instances, emitted literally rather than
    repaired, and reported by ``check_kernel``: the empty component over
    an empty universe makes ``__m`` a fact, and the empty anti-chain
    leaves ``__m`` with no rule, so the well-founded model makes it
    false.
    """
    rules: list[Rule] = []
    for atom in sorted(antichain.universe):
        rules.append(Rule(atom, (neg(_bar_atom(atom)),)))
        rules.append(Rule(_bar_atom(atom), (neg(atom),)))
    ordered = sorted(antichain.components, key=lambda c: (len(c), tuple(sorted(c))))
    for component in ordered:
        body = [neg(_bar_atom(a)) for a in sorted(component)]
        body += [neg(a) for a in sorted(antichain.universe - component)]
        rules.append(Rule(MACHINE_ATOM, tuple(body)))
    rules.append(Rule(BOTTOM_ATOM, (neg(BOTTOM_ATOM), neg(MACHINE_ATOM))))
    return Program(tuple(rules))


def equivalent_mod_projection(
    first: Program,
    second: Program,
    atoms: Iterable[str],
    max_atoms: int | None = None,
) -> bool:
    """True iff both programs have the same answer sets projected over
    ``atoms`` (projected-set equality; multiplicity is not compared)."""
    h = frozenset(atoms)
    first_sets = enumerate_answer_sets(first, max_atoms)
    second_sets = enumerate_answer_sets(second, max_atoms)
    return {s & h for s in first_sets} == {s & h for s in second_sets}


def kernelize(
    program: Program, max_atoms: int | None = None
) -> tuple[Program, frozenset[str]]:
    """Equivalent kernel program plus the universe it is equivalent over.

    Enumerates the program's answer sets (they form an anti-chain over
    its atoms) and applies ``antichain_to_kernel``. The universe is the
    program's atoms less the reserved ones that no answer set contains,
    such as the guards of ``:-`` constraints, so the projection drops no
    atom of an answer set. The result is equivalent to the input modulo
    projection over that universe. A reserved atom in some answer set
    raises :class:`ReservedAtomError`. An inconsistent input gives the
    empty anti-chain, and so a program outside kernel form (``__m`` has
    no rule).
    """
    answer_sets = enumerate_answer_sets(program, max_atoms)
    used = frozenset().union(*answer_sets)
    universe = frozenset(a for a in program.atoms if not is_reserved(a) or a in used)
    return antichain_to_kernel(AntiChain(universe, frozenset(answer_sets))), universe


def render_antichain(antichain: AntiChain) -> str:
    """Text form: a ``#universe`` header, then one component per line.

    Components are comma-separated atom lists terminated by ``.``; the
    empty component is a line holding just ``.``.
    """
    if antichain.universe:
        lines = [f"#universe {', '.join(sorted(antichain.universe))}."]
    else:
        lines = ["#universe."]
    for component in sorted(
        antichain.components, key=lambda c: (len(c), tuple(sorted(c)))
    ):
        lines.append(f"{', '.join(sorted(component))}.")
    return "".join(line + "\n" for line in lines)


def parse_antichain(text: str) -> AntiChain:
    """Parse the format produced by :func:`render_antichain`.

    ``%`` comments and blank lines are skipped. The header must come
    first; every following line is one component. Raises
    :class:`AspnfError` when the components are not an anti-chain over
    the universe.
    """
    universe: frozenset[str] | None = None
    components: list[frozenset[str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("%", 1)[0].rstrip()
        if not line:
            continue
        if line.lstrip().startswith("#universe"):
            if universe is not None:
                raise AspnfError(f"line {lineno}: duplicate #universe header")
            start = line.index("#universe") + len("#universe")
            universe = frozenset(_split_atoms(line, start, lineno))
            continue
        if universe is None:
            raise AspnfError(f"line {lineno}: expected '#universe' header first")
        components.append(frozenset(_split_atoms(line, 0, lineno)))
    if universe is None:
        raise AspnfError("missing '#universe' header")
    try:
        return AntiChain(universe, frozenset(components))
    except ValueError as exc:
        raise AspnfError(str(exc)) from exc


def _split_atoms(line: str, start: int, lineno: int) -> list[str]:
    """The atoms of the dot-terminated list ``line[start:]``."""
    if not line.endswith("."):
        raise AspnfError(f"line {lineno}: expected '.' at end of line")
    try:
        return split_atom_list(line[start:-1])
    except ParseError as exc:
        column = start + exc.span.column
        raise AspnfError(f"line {lineno}, column {column}: {exc.reason}") from exc

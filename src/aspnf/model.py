"""Ground normal logic programs.

Atoms are plain strings; predicate-style names such as ``color(0,red)``
are opaque, there is no term structure. Rules and programs are immutable
values, and every operation in this package is a pure function over
them, so they are safe to share between threads.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .errors import ReservedAtomError

#: Prefix of atoms introduced by transformations; rejected in user input.
RESERVED_PREFIX = "__"

#: The atom grammar, shared with the parser: a ``NAME``, optionally
#: followed by ``(ARG, ...)``, which flattens to ``NAME(ARG,...)``.
NAME = re.compile(r"(?:__)?[a-z][A-Za-z0-9_]*")
ARG = re.compile(r"[a-z][A-Za-z0-9_]*|[0-9]+")
_FLAT_ATOM = re.compile(
    rf"{NAME.pattern}(?:\((?:{ARG.pattern})(?:,(?:{ARG.pattern}))*\))?"
)


def is_reserved(atom: str) -> bool:
    """True for atoms generated by this package (``__`` prefix)."""
    return atom.startswith(RESERVED_PREFIX)


def fresh_tags(atoms: Iterable[str], pattern: re.Pattern[str]) -> Iterator[int]:
    """Tags ``k`` for fresh atoms, in increasing order, skipping every
    ``k`` that the first group of ``pattern`` captures from some atom of
    ``atoms`` (matched whole), so a fresh name never reuses one of
    them."""
    taken = {match[1] for match in map(pattern.fullmatch, atoms) if match}
    return (k for k in itertools.count() if str(k) not in taken)


class Literal(NamedTuple):
    """A positive or negated ("not") occurrence of an atom in a rule body."""

    atom: str
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else self.atom


# ``tuple.__new__`` skips the named tuple's Python-level ``__new__``
def pos(atom: str) -> Literal:
    return tuple.__new__(Literal, (atom, False))


def neg(atom: str) -> Literal:
    return tuple.__new__(Literal, (atom, True))


class _RuleFields(NamedTuple):
    head: str
    body: tuple[Literal, ...] = ()


class Rule(_RuleFields):
    """A rule ``head :- body`` whose body may be empty (a fact).

    Duplicate body literals are dropped on construction, keeping the
    first occurrence; body order is otherwise preserved.
    """

    __slots__ = ()

    def __new__(cls, head: str, body: Iterable[Literal] = ()) -> Rule:
        # a tuple of fewer than two literals cannot repeat one
        if type(body) is not tuple or len(body) > 1:
            body = tuple(dict.fromkeys(body))
        return tuple.__new__(cls, (head, body))

    @property
    def is_fact(self) -> bool:
        return not self.body

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join([f"not {a}" if negated else a for a, negated in self.body])
        return f"{self.head} :- {body}."


def _rule(head: str, body: tuple[Literal, ...]) -> Rule:
    """``Rule(head, body)`` for a body that repeats no literal, without
    ``Rule.__new__``'s de-duplication."""
    return tuple.__new__(Rule, (head, body))


@dataclass(frozen=True)
class Program:
    """An ordered, duplicate-free sequence of rules.

    Rule order is preserved for printing only; no semantic or structural
    result may depend on it.
    """

    rules: tuple[Rule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(dict.fromkeys(self.rules)))

    @cached_property
    def atoms(self) -> frozenset[str]:
        atoms = {rule.head for rule in self.rules}
        atoms.update([lit.atom for rule in self.rules for lit in rule.body])
        return frozenset(atoms)

    def __len__(self) -> int:
        return len(self.rules)


def build_program(rules: Iterable[Rule]) -> Program:
    """Validate user-supplied rules and assemble a :class:`Program`.

    Rejects atoms with the reserved ``__`` prefix and malformed atom
    names. Duplicate rules and duplicate body literals are silently
    dropped.
    """
    rules = tuple(rules)
    for rule in rules:
        _check_atom(rule.head)
        for lit in rule.body:
            _check_atom(lit.atom)
    return Program(rules)


def _check_atom(name: str) -> None:
    if is_reserved(name):
        raise ReservedAtomError(
            f"atom {name!r} uses the reserved prefix {RESERVED_PREFIX!r}"
        )
    if not _FLAT_ATOM.fullmatch(name):
        raise ValueError(f"malformed atom name: {name!r}")

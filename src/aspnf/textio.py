"""Plain-text format for programs, plus DOT export of dependencies.

Grammar::

    program : rule*
    rule    : ATOM "."
            | ATOM ":-" body "."
            | ":-" body "."              (constraint shorthand, see below)
    body    : literal ("," literal)*
    literal : "not" ATOM | ATOM
    ATOM    : NAME ["(" arg ("," arg)* ")"]
    NAME    : [a-z][A-Za-z0-9_]*         (a "__" prefix marks reserved atoms)
    arg     : [a-z][A-Za-z0-9_]* | [0-9]+

``NAME`` and ``arg`` are ``model.NAME`` and ``model.ARG``, the atom
grammar that ``build_program`` also enforces.

``%`` starts a comment running to the end of the line and whitespace is
insignificant. Predicate-style atoms are flattened to a single name,
e.g. ``color(0, red)`` becomes the atom ``color(0,red)``. ``not`` is a
keyword and cannot be used as an atom name. Atom lists
(``split_atom_list``) follow the same ``ATOM`` rule.

A headless rule ``:- BODY.`` is accepted as shorthand for the two-rule
constraint idiom: it parses to ``__c_k :- not __c_k, BODY.`` with a
fresh guard atom ``__c_k``. Constraints are numbered in input order,
skipping every ``k`` for which the input already has an atom ``__c_k``.

Reserved ``__`` atoms are rejected in input by default; pass
``allow_reserved=True`` to re-read programs produced by the
transformations in this package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .errors import AspnfError, ReservedAtomError
from .model import (
    ARG,
    NAME,
    Literal,
    Program,
    Rule,
    fresh_tags,
    is_reserved,
    neg,
)

# Whitespace and comments. A comment must reach the end of its line, so
# backtracking in the patterns below can never shorten one.
_T = r"[ \t\r\n]*(?:%[^\n]*(?![^\n])[ \t\r\n]*)*"
_TRIVIA = re.compile(_T)
_BLANK = re.compile(r"[ \t\r\n]+|%[^\n]*")
_NOT = r"not(?![A-Za-z0-9_])"
_ARG = rf"{_T}(?:{ARG.pattern}){_T}"


def _atom(excluded: str) -> str:
    """ATOM, skipping names that start with ``excluded``. An argument
    list is the group ``args`` when it holds no blank or comment, else
    the group ``spaced``, which ``_flat`` strips."""
    arg = rf"(?:{ARG.pattern})"
    return (
        rf"(?!{excluded})(?P<name>{NAME.pattern})"
        rf"(?:{_T}(?:(?P<args>\({arg}(?:,{arg})*\))"
        rf"|(?P<spaced>\({_ARG}(?:,{_ARG})*\))))?"
    )


# Indexed by ``allow_reserved``. One match per rule head and one per
# body literal, each taking in the trivia before it and the separator
# after it. Names the patterns skip are left to ``_locate``.
_EXCLUDED = (f"{_NOT}|__", _NOT)
_RULE_START = tuple(
    re.compile(
        rf"{_T}(?:(?P<atom>{_atom(x)}){_T}(?P<sep>\.|:-)|(?P<constraint>:-)|\Z)"
    )
    for x in _EXCLUDED
)
_LITERAL = tuple(
    re.compile(rf"{_T}(?P<neg>{_NOT}{_T})?{_atom(x)}{_T}(?P<sep>[,.])")
    for x in _EXCLUDED
)
_LIST_ENTRY = re.compile(rf"{_T}(?:{_atom(_NOT)}{_T})?(?:(?P<comma>,)|\Z)")
_GUARD_NAME = re.compile(r"__c_(\d+)")


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of a position in the input text."""

    line: int
    column: int


class ParseError(AspnfError):
    """Syntax error, carrying the source position where it occurred."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"line {span.line}, column {span.column}: {message}")
        self.span = span
        self.reason = message


def parse_program(text: str, *, allow_reserved: bool = False) -> Program:
    """Parse program text; see the module docstring for the grammar."""
    match_head = _RULE_START[allow_reserved].match
    match_literal = _LITERAL[allow_reserved].match
    # ``Literal``'s own ``__new__`` is a Python function; this is its body.
    new_literal = tuple.__new__
    rules: list[Rule] = []
    # indices of ":- body." rules; their guards are named once every
    # atom of the input is known
    constraints: list[int] = []
    pos = 0
    while True:
        m = match_head(text, pos)
        if m is None:
            _locate(text, pos, True, allow_reserved)
        atom, name, args, spaced, sep, constraint = m.groups()
        pos = m.end()
        if atom is not None:
            head = _flat(name, args, spaced)
            if sep == ".":
                rules.append(Rule(head))
                continue
        elif constraint is None:
            break
        else:
            head = ""
            constraints.append(len(rules))
        body: list[Literal] = []
        while True:
            m = match_literal(text, pos)
            if m is None:
                _locate(text, pos, False, allow_reserved)
            negated, name, args, spaced, sep = m.groups()
            if args is not None:
                name += args
            elif spaced is not None:
                name = _flat(name, args, spaced)
            body.append(new_literal(Literal, (name, negated is not None)))
            pos = m.end()
            if sep == ".":
                break
        rules.append(Rule(head, body))
    if constraints:
        tags = fresh_tags(Program(tuple(rules)).atoms, _GUARD_NAME)
        for i in constraints:
            guard = f"__c_{next(tags)}"
            rules[i] = Rule(guard, (neg(guard),) + rules[i].body)
    return Program(tuple(rules))


def _flat(name: str, args: str | None, spaced: str | None) -> str:
    """``color(0, red)`` as the single atom ``color(0,red)``; only an
    argument list with blanks or comments (``spaced``) is rewritten."""
    if args is not None:
        return name + args
    return name if spaced is None else name + _BLANK.sub("", spaced)


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _fail(message: str, text: str, offset: int) -> NoReturn:
    raise ParseError(message, _span(text, offset))


def _locate(text: str, pos: int, head: bool, allow_reserved: bool) -> NoReturn:
    """Re-walk the rule head or body literal at ``pos`` token by token
    and raise the first error in it; called only when its pattern did
    not match."""

    def skip(offset: int) -> int:
        return _TRIVIA.match(text, offset).end()

    pos = skip(pos)
    m = NAME.match(text, pos)
    if not head and m is not None and m.group() == "not":
        pos = skip(m.end())
        m = NAME.match(text, pos)
    if m is None:
        _fail("expected atom", text, pos)
    if m.group() == "not":
        _fail("'not' is a keyword, not an atom", text, pos)
    if is_reserved(m.group()) and not allow_reserved:
        span = _span(text, pos)
        raise ReservedAtomError(
            f"line {span.line}, column {span.column}: "
            f"atom {m.group()!r} uses the reserved '__' prefix"
        )
    end = m.end()
    pos = skip(end)
    if text.startswith("(", pos):
        while True:
            pos = skip(pos + 1)
            m = ARG.match(text, pos)
            if m is None:
                _fail("expected argument", text, pos)
            pos = skip(m.end())
            if text.startswith(")", pos):
                end = pos + 1
                pos = skip(end)
                break
            if not text.startswith(",", pos):
                _fail("expected ',' or ')'", text, pos)
    if head:
        _fail("expected '.' or ':-'", text, pos)
    # at end of input, point at the end of the rule rather than past the
    # trailing whitespace
    _fail("expected '.'", text, end if pos == len(text) else pos)


def split_atom_list(text: str) -> list[str]:
    """Split a comma-separated list of atoms, each read by the ``ATOM``
    rule of the program grammar.

    ``color(0, red), b`` yields ``["color(0,red)", "b"]``. Empty entries
    are dropped; a malformed entry raises :class:`AspnfError`.
    """
    atoms: list[str] = []
    pos = 0
    while True:
        m = _LIST_ENTRY.match(text, pos)
        if m is None:
            column = _TRIVIA.match(text, pos).end() + 1
            raise AspnfError(f"malformed atom list {text!r} at column {column}")
        name, args, spaced, comma = m.groups()
        if name is not None:
            atoms.append(_flat(name, args, spaced))
        if comma is None:
            return atoms
        pos = m.end()


def render_program(program: Program) -> str:
    """Render one rule per line; ``parse_program`` round-trips the result."""
    return "".join(f"{rule}\n" for rule in program.rules)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(program: Program) -> str:
    """Dependency graph in DOT format: one vertex per atom and one edge
    per (head, body atom, polarity), negative edges dashed."""
    edges = {
        (rule.head, lit.atom, lit.negated)
        for rule in program.rules
        for lit in rule.body
    }
    lines = ["digraph G {\n"]
    for atom in sorted(program.atoms):
        lines.append(f"  {_quote(atom)};\n")
    for source, target, negated in sorted(edges):
        style = " [style=dashed]" if negated else ""
        lines.append(f"  {_quote(source)} -> {_quote(target)}{style};\n")
    lines.append("}\n")
    return "".join(lines)

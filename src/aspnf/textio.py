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

import itertools
import re
from dataclasses import dataclass
from typing import NoReturn

from .errors import AspnfError, ReservedAtomError
from .model import ARG, NAME, Literal, Program, Rule, fresh_tags, is_reserved, neg

# The parser rests on two facts. First, every ``%`` comment is blanked
# out with as many spaces before matching: a comment runs to the end of
# its line and holds no newline, so no offset, line or column moves, and
# trivia is plain whitespace. Second, the tokens cover the text: ``_T``
# takes all the whitespace, and after it some alternative of ``_TOKEN``
# always matches (``other`` takes any one character, or the end).
_COMMENT = re.compile(r"%[^\n]*")
_T = r"[ \t\r\n]*"
_TRIVIA = re.compile(_T)
_NOT = r"not(?![A-Za-z0-9_])"


def _atom(excluded: str) -> str:
    """ATOM, skipping names that start with ``excluded``: the group
    ``name``, with an argument list that holds no blank, else the group
    ``spaced``, whose blanks the caller strips. The look-behind allows
    at most one argument list."""
    arg = rf"(?:{ARG.pattern})"
    spaced = rf"{_T}{arg}{_T}"
    return (
        rf"(?!{excluded})(?P<name>{NAME.pattern}(?:\({arg}(?:,{arg})*\))?)"
        rf"(?:(?<!\)){_T}(?P<spaced>\({spaced}(?:,{spaced})*\)))?"
    )


# Indexed by ``allow_reserved``. A token is a literal (an optional
# ``not`` and an atom) with its separator, a bare ``:-``, the end of
# the text, or one character that starts no token; each takes in the
# trivia before it. Names the pattern skips are left to ``_locate``.
_EXCLUDED = (f"{_NOT}|__", _NOT)
_TOKEN = tuple(
    re.compile(
        rf"{_T}(?:(?:(?P<neg>{_NOT}){_T})?{_atom(x)}{_T}(?P<sep>[,.]|:-)"
        rf"|(?P<other>:-|.|\Z))"
    )
    for x in _EXCLUDED
)
_LIST_ENTRY = re.compile(rf"{_T}(?:{_atom(_NOT)}{_T})?(?:(?P<comma>,)|\Z)")
_GUARD_NAME = re.compile(r"__c_(\d+)")


def _blank(text: str) -> str:
    """``text`` with each comment replaced by as many spaces."""
    return _COMMENT.sub(lambda m: " " * len(m.group()), text)


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
    text = _blank(text)
    token = _TOKEN[allow_reserved]
    # ``Literal``'s and ``Rule``'s own ``__new__`` are Python functions;
    # this is their body, with ``Rule``'s de-duplication inline.
    new = tuple.__new__
    rules: list[Rule] = []
    # indices of ":- body." rules; their guards are named once every
    # atom of the input is known
    constraints: list[int] = []
    head = None  # the head of the rule being read, None between rules
    body: list[Literal] = []
    for k, (negated, name, spaced, sep, other) in enumerate(token.findall(text)):
        if spaced:
            name += _TRIVIA.sub("", spaced)
        if head is None:
            if not name:
                if other == ":-":
                    head = ""
                    constraints.append(len(rules))
                    continue
                if not other:
                    break
            elif not negated and sep != ",":
                if sep == ".":
                    rules.append(new(Rule, (name, ())))
                else:
                    head = name
                continue
        elif name and sep != ":-":
            body.append(new(Literal, (name, negated != "")))
            if sep == ".":
                unique = tuple(dict.fromkeys(body)) if len(body) > 1 else tuple(body)
                rules.append(new(Rule, (head, unique)))
                head = None
                body = []
            continue
        # the first token that does not fit: re-walk it from its start
        start = next(itertools.islice(token.finditer(text), k, None)).start()
        _locate(text, start, head is None, allow_reserved)
    if constraints:
        tags = fresh_tags(Program(tuple(rules)).atoms, _GUARD_NAME)
        for i in constraints:
            guard = f"__c_{next(tags)}"
            rules[i] = Rule(guard, (neg(guard),) + rules[i].body)
    return Program(tuple(rules))


def _span(text: str, offset: int) -> SourceSpan:
    line_start = text.rfind("\n", 0, offset) + 1
    return SourceSpan(text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _fail(message: str, text: str, offset: int) -> NoReturn:
    raise ParseError(message, _span(text, offset))


def _locate(text: str, pos: int, head: bool, allow_reserved: bool) -> NoReturn:
    """Re-walk the rule head or body literal at ``pos`` token by token
    and raise the first error in it; called only at a token that does
    not fit there."""

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
    are dropped; a malformed entry raises :class:`ParseError` at the
    line and column where the entry starts.
    """
    atoms: list[str] = []
    blanked = _blank(text)
    pos = 0
    while True:
        m = _LIST_ENTRY.match(blanked, pos)
        if m is None:
            start = _TRIVIA.match(blanked, pos).end()
            _fail(f"malformed atom list {text!r}", text, start)
        name, spaced, comma = m.groups()
        if name is not None:
            atoms.append(name + _TRIVIA.sub("", spaced or ""))
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

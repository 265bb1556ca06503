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
keyword and cannot be used as an atom name.

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

from .errors import AspnfError, ReservedAtomError
from .model import (
    ARG,
    NAME,
    Program,
    Rule,
    build_dependency_graph,
    fresh_tags,
    is_reserved,
    neg,
    pos,
)

_TRIVIA = re.compile(r"(?:[ \t\r\n]+|%[^\n]*)*")
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


class _Scanner:
    """Tracks only an offset; line and column are derived on error."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.token_end = 0

    def span(self, offset: int | None = None) -> SourceSpan:
        if offset is None:
            offset = self.pos
        line_start = self.text.rfind("\n", 0, offset) + 1
        return SourceSpan(
            self.text.count("\n", 0, offset) + 1, offset - line_start + 1
        )

    def error(self, message: str) -> None:
        raise ParseError(message, self.span())

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def skip_trivia(self) -> None:
        self.pos = _TRIVIA.match(self.text, self.pos).end()

    def try_symbol(self, symbol: str) -> bool:
        if self.text.startswith(symbol, self.pos):
            self.pos = self.token_end = self.pos + len(symbol)
            return True
        return False

    def match(self, pattern: re.Pattern[str]) -> str | None:
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = self.token_end = m.end()
        return m.group()


def parse_program(text: str, *, allow_reserved: bool = False) -> Program:
    """Parse program text; see the module docstring for the grammar."""
    sc = _Scanner(text)
    rules: list[Rule] = []
    # indices of ":- body." rules; their guards are named once every
    # atom of the input is known
    constraints: list[int] = []
    while True:
        sc.skip_trivia()
        if sc.eof():
            break
        if sc.try_symbol(":-"):
            body = _parse_body(sc, allow_reserved)
            _expect_dot(sc)
            constraints.append(len(rules))
            rules.append(Rule("", body))
            continue
        head = _parse_atom(sc, allow_reserved)
        sc.skip_trivia()
        if sc.try_symbol("."):
            rules.append(Rule(head))
        elif sc.try_symbol(":-"):
            body = _parse_body(sc, allow_reserved)
            _expect_dot(sc)
            rules.append(Rule(head, body))
        else:
            sc.error("expected '.' or ':-'")
    if constraints:
        atoms = {rule.head for rule in rules}
        atoms.update(lit.atom for rule in rules for lit in rule.body)
        tags = fresh_tags(atoms, _GUARD_NAME)
        for i in constraints:
            guard = f"__c_{next(tags)}"
            rules[i] = Rule(guard, (neg(guard),) + rules[i].body)
    return Program(tuple(rules))


def _expect_dot(sc: _Scanner) -> None:
    sc.skip_trivia()
    if not sc.try_symbol("."):
        # at end of input, point at the end of the rule rather than
        # past the trailing whitespace
        offset = sc.token_end if sc.eof() else sc.pos
        raise ParseError("expected '.'", sc.span(offset))


def _parse_body(sc: _Scanner, allow_reserved: bool):
    literals = [_parse_literal(sc, allow_reserved)]
    while True:
        sc.skip_trivia()
        if not sc.try_symbol(","):
            return tuple(literals)
        literals.append(_parse_literal(sc, allow_reserved))


def _parse_literal(sc: _Scanner, allow_reserved: bool):
    sc.skip_trivia()
    m = NAME.match(sc.text, sc.pos)
    if m is not None and m.group() == "not":
        sc.pos = m.end()
        return neg(_parse_atom(sc, allow_reserved))
    return pos(_parse_atom(sc, allow_reserved))


def _parse_atom(sc: _Scanner, allow_reserved: bool) -> str:
    sc.skip_trivia()
    start = sc.pos
    name = sc.match(NAME)
    if name is None:
        sc.error("expected atom")
    if name == "not":
        raise ParseError("'not' is a keyword, not an atom", sc.span(start))
    if is_reserved(name) and not allow_reserved:
        span = sc.span(start)
        raise ReservedAtomError(
            f"line {span.line}, column {span.column}: "
            f"atom {name!r} uses the reserved '__' prefix"
        )
    sc.skip_trivia()
    if not sc.try_symbol("("):
        return name
    args = [_parse_arg(sc)]
    while True:
        sc.skip_trivia()
        if sc.try_symbol(","):
            args.append(_parse_arg(sc))
        elif sc.try_symbol(")"):
            return f"{name}({','.join(args)})"
        else:
            sc.error("expected ',' or ')'")


def _parse_arg(sc: _Scanner) -> str:
    sc.skip_trivia()
    arg = sc.match(ARG)
    if arg is None:
        sc.error("expected argument")
    return arg


def split_atom_list(text: str) -> list[str]:
    """Split a comma-separated atom list, honoring parentheses.

    ``color(0,red), b`` yields ``["color(0,red)", "b"]``. Surrounding
    whitespace is stripped and empty entries dropped; unbalanced
    parentheses raise :class:`AspnfError`.
    """
    atoms: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text + ",":
        if ch == "," and depth == 0:
            atom = "".join(current).strip()
            if atom:
                atoms.append(atom)
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    if depth != 0:
        raise AspnfError(f"unbalanced parentheses in atom list: {text!r}")
    return atoms


def render_program(program: Program) -> str:
    """Render one rule per line; ``parse_program`` round-trips the result."""
    return "".join(f"{rule}\n" for rule in program.rules)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def export_dot(program: Program) -> str:
    """Dependency graph in DOT format, negative edges dashed."""
    graph = build_dependency_graph(program)
    lines = ["digraph G {\n"]
    for atom in sorted(graph.vertices):
        lines.append(f"  {_quote(atom)};\n")
    for source, target, negated in sorted(graph.edges):
        style = " [style=dashed]" if negated else ""
        lines.append(f"  {_quote(source)} -> {_quote(target)}{style};\n")
    lines.append("}\n")
    return "".join(lines)

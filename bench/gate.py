"""Correctness gate: independent answers for every command.

Each check takes a command's exit code, its standard output and (for
``3kernelize``) the trace file it wrote, and returns ``None`` when the
output is right or a one-line reason when it is not. Expected answers
come from the input description alone: brute force over colourings or
subsets, closed forms for chains, and the encoder's known structure.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections import Counter

COLOURS = ("red", "green", "blue")
_COLOUR_ATOM = re.compile(r"color\((\d+),(red|green|blue)\)\Z")
_CONDITION_LINE = re.compile(r"  - condition (\d) \(")
_FORMULA = re.compile(r"(\S+) := (not )?(\S+)\Z")


@functools.lru_cache(maxsize=None)
def colouring_count(nodes: int, edges: tuple) -> int:
    """Proper 3-colourings, by trying all ``3**nodes`` assignments."""
    return sum(
        all(colour[u] != colour[v] for u, v in edges)
        for colour in itertools.product(range(3), repeat=nodes)
    )


def check_solve(spec: dict, code: int, out: str) -> str | None:
    nodes, edges = spec["nodes"], spec["edges"]
    expected = colouring_count(nodes, tuple(map(tuple, edges)))
    if code != (0 if expected else 1):
        return f"exit code {code} with {expected} colourings"
    try:
        answer_sets = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    if len(answer_sets) != expected:
        return f"{len(answer_sets)} answer sets, expected {expected}"
    seen = set()
    for atoms in answer_sets:
        colour: dict[int, list[str]] = {v: [] for v in range(nodes)}
        for atom in atoms:
            m = _COLOUR_ATOM.match(atom)
            if m and int(m.group(1)) in colour:
                colour[int(m.group(1))].append(m.group(2))
        if any(len(c) != 1 for c in colour.values()):
            return "answer set without exactly one colour per node"
        if any(colour[u] == colour[v] for u, v in edges):
            return "answer set colours an edge's ends alike"
        key = tuple(c[0] for c in colour.values())
        if key in seen:
            return "two answer sets give the same colouring"
        seen.add(key)
    return None


def brute_force_answer_sets(rules) -> set[frozenset[str]]:
    """Answer sets of ``(head, positives, negatives)`` rules, testing
    every subset of the atoms against its own reduct."""
    atoms = sorted({r[0] for r in rules} | {a for r in rules for a in r[1] + r[2]})
    found = set()
    for mask in range(1 << len(atoms)):
        candidate = {a for i, a in enumerate(atoms) if mask >> i & 1}
        reduct = [(h, pos) for h, pos, negs in rules if not any(a in candidate for a in negs)]
        model: set[str] = set()
        changed = True
        while changed:
            changed = False
            for head, positives in reduct:
                if head not in model and all(a in model for a in positives):
                    model.add(head)
                    changed = True
        if model == candidate:
            found.add(frozenset(candidate))
    return found


def _components(rules):
    """Split rules into groups that share no atom."""
    parent: dict[str, str] = {}

    def find(a):
        while parent.setdefault(a, a) != a:
            a = parent[a]
        return a

    for head, positives, negatives in rules:
        for atom in positives + negatives:
            parent[find(atom)] = find(head)
    groups: dict[str, list] = {}
    for rule in rules:
        groups.setdefault(find(rule[0]), []).append(rule)
    return list(groups.values())


@functools.lru_cache(maxsize=None)
def original_answer_sets(text: str) -> frozenset[frozenset[str]]:
    """Answer sets of an input program: brute force per component
    (each has at most 10 atoms), combined as a product."""
    from aspnf.textio import parse_program

    rules = [
        (
            r.head,
            tuple(l.atom for l in r.body if not l.negated),
            tuple(l.atom for l in r.body if l.negated),
        )
        for r in parse_program(text).rules
    ]
    result = {frozenset()}
    for group in _components(rules):
        part = brute_force_answer_sets(group)
        result = {a | b for a in result for b in part}
    return frozenset(result)


def reconstruct(answer_set, trace: dict, universe) -> frozenset[str]:
    """Project onto the original atoms, then re-add each atom a bridge
    step dropped, from its formula over a surviving atom."""
    result = {a for a in answer_set if a in universe}
    for step in trace["steps"]:
        for formula in step["dropped"]:
            m = _FORMULA.match(formula)
            if m is None:
                raise ValueError(f"unreadable formula {formula!r}")
            atom, negate, source = m.group(1), bool(m.group(2)), m.group(3)
            if (source in answer_set) != negate:
                result.add(atom)
    return frozenset(result)


def check_3kernelize(spec: dict, code: int, out: str, trace_text: str) -> str | None:
    from aspnf.errors import AspnfError
    from aspnf.semantics import enumerate_answer_sets
    from aspnf.textio import parse_program

    if code != 0:
        return f"exit code {code}"
    try:
        result = parse_program(out, allow_reserved=True)
        trace = json.loads(trace_text)
        universe = parse_program(spec["text"]).atoms
        got = {
            reconstruct(s, trace, universe)
            for s in enumerate_answer_sets(result, max_atoms=len(result.atoms))
        }
    except (AspnfError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"
    expected = original_answer_sets(spec["text"])
    if got != expected:
        return f"{len(got)} reconstructed answer sets, expected {len(expected)}"
    return None


def _graph_atoms(graph: dict) -> set[str]:
    atoms = set()
    for v in range(graph["nodes"]):
        for c in COLOURS:
            atoms |= {f"color({v},{c})", f"n_color({v},{c})"}
    for u, v in graph["edges"]:
        atoms |= {f"edge_ok({u},{v})", f"edge_ko({u},{v})"}
    return atoms


def expected_wfs(spec: dict) -> tuple[set, set, set]:
    """(true, false, undefined) atoms. On a chain ``a_i :- not a_(i+1)``
    of n atoms, a_n is false and a_i is true iff n - i is odd. A
    3-colouring encoding is in kernel form, so nothing is decided."""
    if "chain" in spec:
        n = spec["chain"]
        true = {f"a_{i}" for i in range(1, n + 1) if (n - i) % 2 == 1}
        false = {f"a_{i}" for i in range(1, n + 1) if (n - i) % 2 == 0}
        return true, false, set()
    return set(), set(), _graph_atoms(spec["graph"])


def _atom_list(line: str, label: str) -> set[str] | None:
    if not line.startswith(f"{label}:"):
        return None
    rest = line[len(label) + 1 :].strip()
    return set(rest.split(", ")) if rest else set()


def check_wfs(spec: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if len(lines) != 3:
        return "expected three lines"
    got = tuple(_atom_list(line, label) for line, label in
                zip(lines, ("true", "false", "undefined")))
    if got != expected_wfs(spec):
        return "well-founded model differs from the closed form"
    return None


def expected_kernel_violations(spec: dict) -> Counter:
    """Violation lines per condition. A chain decides all n atoms and
    never uses a_1 in a body. A 3-colouring encoding leaves every atom
    undefined, but the three ``n_color`` atoms of a node without edges
    occur in no body."""
    if "chain" in spec:
        return Counter({"wfs-irreducible": spec["chain"], "every-atom-in-some-body": 1})
    graph = spec["graph"]
    isolated = set(range(graph["nodes"])) - {v for e in graph["edges"] for v in e}
    return Counter({"every-atom-in-some-body": 3 * len(isolated)} if isolated else {})


def check_kernel_check(spec: dict, code: int, out: str) -> str | None:
    expected = expected_kernel_violations(spec)
    lines = out.splitlines()
    if code != (1 if expected else 0) or not lines:
        return f"exit code {code}"
    if lines[0] != f"kernel form: {'no' if expected else 'yes'}":
        return f"verdict {lines[0]!r}"
    got = Counter(line[4:].split(":", 1)[0] for line in lines[1:])
    if got != expected:
        return f"violations {dict(got)}, expected {dict(expected)}"
    return None


def expected_3kernel_violations(spec: dict) -> Counter:
    """Violation lines per condition, from the input's structure.

    Chain of n atoms: no cycles, so every atom breaks 1 (decided by
    the WFS) and 2, and every rule breaks 3. Colouring encoding with n
    nodes and m edges: the 3n ``n_color`` and m ``edge_ko`` atoms lie
    on no cycle (2); their 3n + 3m rules are neither in a cycle nor
    auxiliary (3); each of the 3n colour rules has an AND handle inside
    both 3-cycles through its head (5, twice per rule).
    """
    if "chain" in spec:
        n = spec["chain"]
        return Counter({1: n, 2: n, 3: n - 1})
    n, m = spec["graph"]["nodes"], len(spec["graph"]["edges"])
    return Counter({2: 3 * n + m, 3: 3 * n + 3 * m, 5: 6 * n})


def check_3kernel_check(spec: dict, code: int, out: str) -> str | None:
    expected = expected_3kernel_violations(spec)
    lines = out.splitlines()
    if code != 1 or not lines or lines[0] != "3-kernel form: no":
        return f"exit code {code}"
    got = Counter()
    for line in lines[1:]:
        m = _CONDITION_LINE.match(line)
        if m is None:
            return f"unreadable line {line!r}"
        got[int(m.group(1))] += 1
    if got != expected:
        return f"violations {dict(got)}, expected {dict(expected)}"
    return None


def check(kind: str, spec: dict, code: int, out: str, trace_text: str | None) -> str | None:
    """Why the output of one command is wrong, or None if it is right."""
    if kind == "solve":
        return check_solve(spec, code, out)
    if kind == "3kernelize":
        return check_3kernelize(spec, code, out, trace_text or "")
    if kind == "wfs":
        return check_wfs(spec, code, out)
    if kind == "kernel-check":
        return check_kernel_check(spec, code, out)
    if kind == "3kernel-check":
        return check_3kernel_check(spec, code, out)
    raise ValueError(f"unknown check {kind!r}")

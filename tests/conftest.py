"""Shared fixtures: the worked example programs, independent oracles
and the program strategies of the property tests (``programs()``,
``random_kernel_programs``, ``kernel_expansions`` and
``bridged_programs()``).

``oracle_answer_sets`` re-implements answer-set checking from scratch
(its own reduct and closure code, no pruning) so that the library's
enumerator is cross-checked against a second, independent route;
``oracle_well_founded`` does the same for the well-founded model, and
``oracle_cycles`` for the negative cycles and their AND handles.
"""

import itertools
import random
from collections import defaultdict, namedtuple

import pytest
from hypothesis import settings, strategies as st

from aspnf import (
    Literal,
    Program,
    Rule,
    WfsResult,
    long_rule_simplify,
    neg,
    parse_program,
    random_kernel_program,
)

# Property tests draw the same examples on every run. The ``ci`` profile
# (``--hypothesis-profile=ci``) draws five times as many.
settings.register_profile(
    "aspnf", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.register_profile("ci", settings.get_profile("aspnf"), max_examples=1000)
settings.load_profile("aspnf")

PI5_TEXT = """
p :- not p.
p :- not a, not c.
a :- not b.
b :- not a.
c :- not d.
d :- not c.
"""

PI6_TEXT = """
a :- not b.
b :- not a.
p :- not p, not b.
q :- not q.
q :- not a.
"""

# An odd self-loop reachable from an even cycle through a two-atom
# chain hanging off an auxiliary rule (an even OR bridge).
CASE_I_TEXT = """
p :- not p.
p :- not e.
e :- not f.
f :- not a.
a :- not b.
b :- not a.
"""

CASE_II_TEXT = """
p :- not p.
p :- not e.
e :- not f.
f :- not g.
g :- not a.
a :- not b.
b :- not a.
"""

CASE_III_TEXT = """
p :- not p, not e.
e :- not f.
f :- not a.
a :- not b.
b :- not a.
"""

CASE_IV_TEXT = """
p :- not p, not e.
e :- not f.
f :- not g.
g :- not a.
a :- not b.
b :- not a.
"""


@pytest.fixture
def pi5() -> Program:
    return parse_program(PI5_TEXT)


@pytest.fixture
def pi6() -> Program:
    return parse_program(PI6_TEXT)


@pytest.fixture
def case_i() -> Program:
    return parse_program(CASE_I_TEXT)


@pytest.fixture
def case_ii() -> Program:
    return parse_program(CASE_II_TEXT)


@pytest.fixture
def case_iii() -> Program:
    return parse_program(CASE_III_TEXT)


@pytest.fixture
def case_iv() -> Program:
    return parse_program(CASE_IV_TEXT)


def oracle_answer_sets(program: Program) -> list[frozenset[str]]:
    """Brute force over every subset of the universe, no pruning.

    Implements the reduct and the positive closure inline so the result
    does not depend on the code under test. Output order: increasing
    cardinality, then lexicographic on sorted atom names.
    """
    atoms = sorted(program.atoms)
    compiled = [
        (
            rule.head,
            [lit.atom for lit in rule.body if not lit.negated],
            [lit.atom for lit in rule.body if lit.negated],
        )
        for rule in program.rules
    ]
    result = []
    for size in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            candidate = set(combo)
            surviving = [
                (head, positives)
                for head, positives, negatives in compiled
                if not any(a in candidate for a in negatives)
            ]
            model: set[str] = set()
            changed = True
            while changed:
                changed = False
                for head, positives in surviving:
                    if head not in model and all(a in model for a in positives):
                        model.add(head)
                        changed = True
            if model == candidate:
                result.append(frozenset(candidate))
    return result


def oracle_gamma(program: Program, interpretation) -> frozenset[str]:
    """The Gelfond-Lifschitz operator over plain sets, with its own
    inline reduct and closure: the least model of the rules with no
    negative body atom in ``interpretation``."""
    surviving = [
        (rule.head, [lit.atom for lit in rule.body if not lit.negated])
        for rule in program.rules
        if not any(lit.negated and lit.atom in interpretation for lit in rule.body)
    ]
    model: set[str] = set()
    changed = True
    while changed:
        changed = False
        for head, positives in surviving:
            if head not in model and all(a in model for a in positives):
                model.add(head)
                changed = True
    return frozenset(model)


def oracle_well_founded(program: Program) -> WfsResult:
    """Alternating fixpoint of ``oracle_gamma`` (Van Gelder 1993):
    ``lower = gamma(upper)``, ``upper = gamma(lower)`` from the full
    universe until neither moves."""
    universe = program.atoms
    lower: frozenset[str] = frozenset()
    upper = universe
    while True:
        next_lower = oracle_gamma(program, upper)
        next_upper = oracle_gamma(program, next_lower)
        if (next_lower, next_upper) == (lower, upper):
            return WfsResult(lower, universe - upper, upper - lower)
        lower, upper = next_lower, next_upper


OracleCycle = namedtuple("OracleCycle", "atoms rules handles")


def oracle_cycles(program: Program) -> list[OracleCycle]:
    """Every negative cycle by its definition, over networkx's
    elementary circuits of the witnessed steps: a rule witnesses ``h ->
    b`` when its body has ``not b`` and the rest of the body does not
    mention ``h``.

    One entry per circuit and combination of witnessing rules, the
    combinations in ``itertools.product`` order. ``atoms`` starts at
    the least atom, ``rules[i]`` takes the step from ``atoms[i]`` to the
    next atom, and ``handles[i]`` is its body minus ``not`` that atom.
    """
    nx = pytest.importorskip("networkx")
    steps = defaultdict(list)
    for rule in program.rules:
        for lit in rule.body:
            rest = [o for o in rule.body if o != lit]
            if lit.negated and all(o.atom != rule.head for o in rest):
                steps[rule.head, lit.atom].append(rule)
    found = []
    for circuit in nx.simple_cycles(nx.DiGraph(list(steps))):
        least = circuit.index(min(circuit))
        atoms = tuple(circuit[least:] + circuit[:least])
        successors = atoms[1:] + atoms[:1]
        witnesses = [steps[step] for step in zip(atoms, successors)]
        for rules in itertools.product(*witnesses):
            handles = tuple(
                tuple(lit for lit in rule.body if lit != neg(step))
                for rule, step in zip(rules, successors)
            )
            found.append(OracleCycle(atoms, rules, handles))
    return found


def all_antichains(atoms) -> list[frozenset[frozenset[str]]]:
    """Every anti-chain over the given universe, exhaustively.

    Includes the degenerate ones (the empty collection and the
    collection holding only the empty set). Generated recursively:
    each subset is either skipped or added when incomparable with
    everything chosen so far, so each anti-chain appears exactly once.
    """
    atoms = tuple(sorted(atoms))
    subsets = [
        frozenset(c)
        for size in range(len(atoms) + 1)
        for c in itertools.combinations(atoms, size)
    ]
    found = []
    chosen: list[frozenset[str]] = []

    def extend(i: int) -> None:
        if i == len(subsets):
            found.append(frozenset(chosen))
            return
        extend(i + 1)
        candidate = subsets[i]
        if all(not (candidate <= c or c <= candidate) for c in chosen):
            chosen.append(candidate)
            extend(i + 1)
            chosen.pop()

    extend(0)
    return found


def random_general_program(
    rng: random.Random, n_atoms: int, n_rules: int, max_body: int = 3
) -> Program:
    """Random program mixing polarities, facts included."""
    names = [f"x{i}" for i in range(n_atoms)]
    rules = []
    for _ in range(n_rules):
        head = rng.choice(names)
        body = tuple(
            Literal(rng.choice(names), rng.random() < 0.6)
            for _ in range(rng.randint(0, max_body))
        )
        rules.append(Rule(head, body))
    return Program(tuple(rules))


def rename_atoms(program: Program, mapping: dict[str, str]) -> Program:
    def ren(atom: str) -> str:
        return mapping.get(atom, atom)

    return Program(
        tuple(
            Rule(
                ren(rule.head),
                tuple(Literal(ren(lit.atom), lit.negated) for lit in rule.body),
            )
            for rule in program.rules
        )
    )


def negative_chain(n: int, fact: bool = True) -> Program:
    """``x0 :- not x1. x1 :- not x2. ...`` over ``n`` atoms, ending in
    the fact ``x{n-1}.``, or with ``x{n-1}`` given no rule."""
    rules = [Rule(f"x{i}", (neg(f"x{i + 1}"),)) for i in range(n - 1)]
    if fact and n:
        rules.append(Rule(f"x{n - 1}"))
    return Program(tuple(rules))


def chain_model(n: int, fact: bool = True) -> WfsResult:
    """The well-founded model of ``negative_chain(n, fact)``: the last
    atom is true iff it is a fact, and each other atom is the opposite
    of the next one."""
    true = {f"x{i}" for i in range(n) if (n - 1 - i) % 2 == (0 if fact else 1)}
    universe = negative_chain(n, fact).atoms
    return WfsResult(frozenset(true), universe - true, frozenset())


@st.composite
def programs(draw, max_atoms=8, negative_only=False):
    """Up to ``max_atoms`` atoms: facts, positive and negative bodies,
    rules holding ``not head`` in their body, even loops ``a :- not b,
    ...`` and ``b :- not a`` that leave atoms for the search to branch
    on, and copies of rules with the body reversed (the same rule to the
    search, a distinct rule to ``Program``). With ``negative_only``
    every body literal is negated."""
    names = [f"x{i}" for i in range(draw(st.integers(1, max_atoms)))]
    atom = st.sampled_from(names)
    negated = st.just(True) if negative_only else st.booleans()
    body = st.lists(st.builds(Literal, atom, negated), max_size=3)
    rule = st.builds(lambda head, lits: [Rule(head, tuple(lits))], atom, body)
    self_negating = st.builds(
        lambda head, lits: [Rule(head, (neg(head), *lits))], atom, body
    )
    even_loop = st.builds(
        lambda a, b, lits: [Rule(a, (neg(b), *lits)), Rule(b, (neg(a),))],
        atom,
        atom,
        body,
    )
    groups = draw(st.lists(st.one_of(rule, self_negating, even_loop), max_size=10))
    rules = [r for group in groups for r in group]
    copies = draw(st.lists(st.sampled_from(rules), max_size=3)) if rules else []
    return Program(tuple(rules) + tuple(Rule(r.head, r.body[::-1]) for r in copies))


random_kernel_programs = st.builds(
    lambda atoms, extra, max_body, seed: random_kernel_program(
        atoms, atoms + extra, max_body=max_body, seed=seed
    ),
    st.integers(1, 7),
    st.integers(0, 5),
    st.integers(1, 3),
    st.integers(0, 2**16),
)
# their long-rule rewrites: fresh even cycles and guards
kernel_expansions = random_kernel_programs.map(lambda p: long_rule_simplify(p)[0])


@st.composite
def bridged_programs(draw):
    """Even loops and one- or two-literal negative rules over five
    atoms, plus one to three chains of fresh atoms from an anchor rule
    to a target atom: bridges are common, and so are chains back to a
    self-loop anchor."""
    names = st.sampled_from([f"x{i}" for i in range(5)])
    negative_rule = st.builds(
        lambda head, body: [Rule(head, tuple(map(neg, body)))],
        names,
        st.lists(names, min_size=1, max_size=2),
    )
    even_loop = st.builds(
        lambda a, b: [Rule(a, (neg(b),)), Rule(b, (neg(a),))], names, names
    )
    groups = draw(st.lists(st.one_of(even_loop, negative_rule), min_size=1, max_size=6))
    rules = [rule for group in groups for rule in group]
    for k in range(draw(st.integers(1, 3))):
        chain = [f"c{k}_{i}" for i in range(draw(st.integers(1, 3)))]
        anchor, step, target = draw(names), draw(names), draw(names)
        handle = [neg(step)] if draw(st.booleans()) else []
        rules.append(Rule(anchor, (*handle, neg(chain[0]))))
        rules += [Rule(a, (neg(b),)) for a, b in zip(chain, chain[1:] + [target])]
    return Program(tuple(rules))

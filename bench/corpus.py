"""Seeded inputs for the three workloads.

Every generator takes the workload seed and returns the commands to
run, each with the input description the gate needs to derive its
independent answer. The same seed always gives the same files.

Where per-command cost varies widely between random inputs, the
generators stratify: they fix how many inputs fall into each class of
the property that drives the cost and let the seed choose the inputs
within each class. That keeps the totals of a pass comparable across
seeds while every seed still gets fresh inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("solve-3col", "normalize-mix", "check-large")


@dataclass
class Command:
    """One CLI invocation and what the gate needs to judge its output."""

    argv: list[str]
    kind: str  # gate check: solve, 3kernelize, kernel-check, wfs, 3kernel-check
    spec: dict
    trace_path: str | None = None


@dataclass
class Corpus:
    commands: list[Command]
    stats: dict


@dataclass
class Drawn:
    """Inputs chosen by the benchmark's own selection, before set-up."""

    picks: list  # (atoms, rules, seed) per random_kernel_program call
    draws: int


def draw(workload: str, seed: int, scale: float = 1.0) -> Drawn:
    """Make the choices that are the benchmark's work, not the program's.

    For normalize-mix that is the stratified rejection sampling of
    random programs; the other workloads choose nothing here. The run
    calls this once, outside the timed set-up, and passes the result to
    every ``build``.
    """
    if workload == "normalize-mix":
        return _draw_kernel_programs(random.Random(f"{workload}:draw:{seed}"), scale)
    return Drawn([], 0)


def build(workload: str, seed: int, workdir: Path, drawn: Drawn, scale: float = 1.0) -> Corpus:
    """Generate and render the inputs of ``workload`` under ``workdir``.

    ``scale`` shrinks the corpus for smoke tests; the benchmark runs at 1.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve-3col":
        return _solve_3col(rng, workdir, scale)
    if workload == "normalize-mix":
        return _normalize_mix(rng, workdir, scale, drawn)
    if workload == "check-large":
        return _check_large(rng, workdir, scale)
    raise ValueError(f"unknown workload {workload!r}")


def _count(full: int, scale: float) -> int:
    return max(1, round(full * scale))


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _render(program) -> str:
    from aspnf.textio import render_program

    return render_program(program)


# ---------------------------------------------------------------- solve-3col

#: Single graphs per node count. Search cost grows about 3-4x per node
#: and, at a fixed node count, with the edge count, so both are fixed
#: per slot and only the edges themselves are random. The counts put
#: the median command well inside the 6-node class and the 90th
#: percentile inside the 7-node class.
SOLVE_SINGLES = {5: 34, 6: 40, 7: 10}
#: Disjoint unions of two smaller graphs: (nodes, nodes) -> count.
SOLVE_UNIONS = {(3, 3): 4, (2, 4): 4, (3, 4): 4, (4, 3): 4}
EDGE_PROBABILITY = 0.5


def _binomial_quantiles(trials: int, p: float, count: int) -> list[int]:
    """Edge counts at evenly spaced quantiles of Binomial(trials, p)."""
    cdf = []
    acc = 0.0
    for k in range(trials + 1):
        acc += math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
        cdf.append(acc)
    out = []
    for i in range(count):
        q = (i + 0.5) / count
        out.append(next(k for k, c in enumerate(cdf) if c >= q))
    return out


def _random_graph(rng: random.Random, nodes: int, edges: int, offset: int = 0):
    pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
    chosen = rng.sample(pairs, edges)
    return [(u + offset, v + offset) for u, v in sorted(chosen)]


def _edge_counts(nodes: int, count: int) -> list[int]:
    return _binomial_quantiles(nodes * (nodes - 1) // 2, EDGE_PROBABILITY, count)


def _graph_slots(rng: random.Random, scale: float):
    slots = []
    for nodes, full in SOLVE_SINGLES.items():
        for edges in _edge_counts(nodes, _count(full, scale)):
            slots.append((nodes, _random_graph(rng, nodes, edges)))
    for (first, second), full in SOLVE_UNIONS.items():
        count = _count(full, scale)
        # pair sparse first parts with dense second parts and back
        for m1, m2 in zip(_edge_counts(first, count), _edge_counts(second, count)[::-1]):
            edges = _random_graph(rng, first, m1) + _random_graph(rng, second, m2, first)
            slots.append((first + second, edges))
    rng.shuffle(slots)
    return slots


def _solve_3col(rng: random.Random, workdir: Path, scale: float) -> Corpus:
    from aspnf.generate import encode_3col, graph

    commands = []
    atoms = rules = 0
    for i, (nodes, edges) in enumerate(_graph_slots(rng, scale)):
        program = encode_3col(graph(range(nodes), edges))
        atoms += len(program.atoms)
        rules += len(program.rules)
        path = _write(workdir / f"g{i:03d}.lp", _render(program))
        commands.append(
            Command(
                ["solve", path, "--json", "--max-atoms", "512"],
                "solve",
                {"nodes": nodes, "edges": edges},
            )
        )
    stats = {"programs": len(commands), "atoms": atoms, "rules": rules}
    return Corpus(commands, stats)


# ------------------------------------------------------------- normalize-mix

#: Strata of C', the number of cycles left after long-rule
#: simplification (the cycle set that ``find_bridges`` scans once per
#: cycle, so its cost grows about as C'^2). Quotas follow the natural
#: share of each stratum among drawn programs, as (lower bound, quota).
CYCLE_STRATA = [
    (0, 12), (12, 7), (16, 21), (22, 37), (30, 33),
    (40, 37), (54, 25), (72, 15), (96, 12),
]
#: Programs with C' at or above this are redrawn: one of them can take
#: 10 s or more, longer than a whole pass of the rest. C' is counted by
#: the program's own ``find_cycles`` after ``long_rule_simplify``.
CYCLE_CAP = 128
#: Copies per bridge program (renamed disjoint unions of cases I-IV).
BRIDGE_COPIES = [1, 2, 3, 4, 5, 6, 7, 8] * 2 + [1, 2, 3, 4]

#: The worked examples from the paper that each contain one bridge:
#: even and odd OR bridges (I, II) and AND bridges (III, IV).
BRIDGE_CASES = (
    "p :- not p. p :- not e. e :- not f. f :- not a. a :- not b. b :- not a.",
    "p :- not p. p :- not e. e :- not f. f :- not g. g :- not a. "
    "a :- not b. b :- not a.",
    "p :- not p, not e. e :- not f. f :- not a. a :- not b. b :- not a.",
    "p :- not p, not e. e :- not f. f :- not g. g :- not a. "
    "a :- not b. b :- not a.",
)


def _stratum(cycles: int) -> int:
    index = 0
    for i, (lower, _quota) in enumerate(CYCLE_STRATA):
        if cycles >= lower:
            index = i
    return index


def _bridge_program(rng: random.Random, copies: int) -> str:
    from aspnf.textio import parse_program

    rules = []
    for k in range(copies):
        case = parse_program(rng.choice(BRIDGE_CASES))
        for rule in case.rules:
            body = ", ".join(
                f"{'not ' if lit.negated else ''}{lit.atom}{k}" for lit in rule.body
            )
            rules.append(f"{rule.head}{k} :- {body}.\n")
    rng.shuffle(rules)
    return "".join(rules)


def _draw_kernel_programs(rng: random.Random, scale: float) -> Drawn:
    """Draw ``random_kernel_program`` parameters until every C' stratum
    has its quota; programs with C' at or above ``CYCLE_CAP`` are redrawn."""
    from aspnf.cycles import find_cycles
    from aspnf.errors import CycleCapExceededError
    from aspnf.generate import random_kernel_program
    from aspnf.normalize import long_rule_simplify

    quotas = [_count(q, scale) for _lower, q in CYCLE_STRATA]
    filled = [0] * len(quotas)
    picks = []
    draws = 0
    while filled != quotas:
        draws += 1
        atoms = rng.randint(7, 10)
        params = (atoms, atoms + rng.randint(3, 6), rng.randrange(2**31))
        program = random_kernel_program(params[0], params[1], max_body=3, seed=params[2])
        try:
            expanded, _ = long_rule_simplify(program)
            cycles = len(find_cycles(expanded, max_cycles=CYCLE_CAP - 1))
        except CycleCapExceededError:
            continue
        stratum = _stratum(cycles)
        if filled[stratum] == quotas[stratum]:
            continue
        filled[stratum] += 1
        picks.append(params)
    return Drawn(picks, draws)


def _normalize_mix(rng: random.Random, workdir: Path, scale: float, drawn: Drawn) -> Corpus:
    from aspnf.generate import random_kernel_program
    from aspnf.textio import parse_program

    texts = [
        _render(random_kernel_program(atoms, rules, max_body=3, seed=seed))
        for atoms, rules, seed in drawn.picks
    ]
    copies = BRIDGE_COPIES[: _count(len(BRIDGE_COPIES), scale)]
    texts += [_bridge_program(rng, n) for n in copies]
    rng.shuffle(texts)

    commands = []
    atoms = rules = 0
    for i, text in enumerate(texts):
        program = parse_program(text)
        atoms += len(program.atoms)
        rules += len(program.rules)
        path = _write(workdir / f"k{i:03d}.lp", text)
        trace = str(workdir / f"k{i:03d}.trace.json")
        commands.append(
            Command(["3kernelize", path, "--trace", trace], "3kernelize",
                    {"text": text}, trace)
        )
    stats = {
        "programs": len(commands),
        "random_programs": len(drawn.picks),
        "bridge_programs": len(copies),
        "random_draws": drawn.draws,
        "atoms": atoms,
        "rules": rules,
    }
    return Corpus(commands, stats)


# --------------------------------------------------------------- check-large

CHECK_GRAPHS = 32
#: Node counts span [20, 50]; slots are spaced by the square of their
#: rank, so small graphs are more common. A graph's ``3kernel-check``
#: costs about n^1.3, and the skew keeps a pass short enough for a run
#: to fit several, while the largest graphs still run every pass.
CHECK_NODES = (20, 51)
#: Nominal chain lengths, each moved by up to ``CHAIN_JITTER`` atoms by
#: the seed. A chain's commands cost about n^2, so wide jitter would
#: swing the pass time. With six chain commands among 102, the 90th
#: percentile falls among the ``3kernel-check`` commands of graphs with
#: 33-44 nodes.
CHECK_CHAIN_SIZES = (200, 350)
CHAIN_JITTER = 15
CHECK_COMMANDS = ("kernel-check", "wfs", "3kernel-check")


def _ladder(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """One value per slot of [low, high), jittered within it; slot i
    starts at low + (high - low) * (i / count)^2."""
    return [low + int((high - low) * ((i + rng.random()) / count) ** 2) for i in range(count)]


def _check_large(rng: random.Random, workdir: Path, scale: float) -> Corpus:
    from aspnf.generate import encode_3col, graph

    inputs = []
    atoms = rules = 0
    graph_count = _count(CHECK_GRAPHS, scale)
    for i, nodes in enumerate(_ladder(rng, *CHECK_NODES, graph_count)):
        pairs = [(u, v) for u in range(nodes) for v in range(u + 1, nodes)]
        edges = sorted(rng.sample(pairs, round(1.5 * nodes)))
        program = encode_3col(graph(range(nodes), edges))
        atoms += len(program.atoms)
        rules += len(program.rules)
        path = _write(workdir / f"g{i:03d}.lp", _render(program))
        inputs.append((path, {"graph": {"nodes": nodes, "edges": edges}}))
    chain_count = _count(len(CHECK_CHAIN_SIZES), scale)
    for i, nominal in enumerate(CHECK_CHAIN_SIZES[:chain_count]):
        length = nominal + rng.randint(-CHAIN_JITTER, CHAIN_JITTER)
        text = "".join(f"a_{k} :- not a_{k + 1}.\n" for k in range(1, length))
        atoms += length
        rules += length - 1
        path = _write(workdir / f"c{i:03d}.lp", text)
        inputs.append((path, {"chain": length}))
    commands = [
        Command([name, path], name, spec)
        for path, spec in inputs
        for name in CHECK_COMMANDS
    ]
    rng.shuffle(commands)
    stats = {
        "programs": len(inputs),
        "graphs": graph_count,
        "chains": chain_count,
        "atoms": atoms,
        "rules": rules,
    }
    return Corpus(commands, stats)

"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` wraps each named public function by rebinding the
module attribute in the defining module and in every ``aspnf`` module
that imported it, so internal calls (``normalize`` calling
``find_cycles``, ``find_bridges`` calling ``find_or_handles``) are
recorded too. Each call becomes a span: name, start, end, parent span
and command id. Spans stay in memory until ``dump``.

Some wrappers also count what the call returned (answer sets, cycles,
bridges, transform steps, rules), measured at the boundary.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped in a traced run.
TRACED = (
    ("cli", "main"),
    ("textio", "parse_program"),
    ("textio", "render_program"),
    ("semantics", "enumerate_answer_sets"),
    ("semantics", "well_founded"),
    ("kernel", "check_kernel"),
    ("cycles", "find_cycles"),
    ("cycles", "find_or_handles"),
    ("cycles", "find_bridges"),
    ("normalize", "long_rule_simplify"),
    ("normalize", "simplify_or_bridge"),
    ("normalize", "simplify_and_bridge"),
    ("normalize", "three_kernelize"),
    ("normalize", "check_3kernel"),
)


def _count_result(name: str, args, result, counts) -> None:
    if name == "textio.parse_program":
        counts["rules_parsed"] += len(result.rules)
    elif name == "semantics.enumerate_answer_sets":
        counts["answer_sets"] += len(result)
    elif name == "cycles.find_cycles":
        counts["cycles_found"] += len(result)
    elif name == "cycles.find_bridges":
        counts["bridges_found"] += len(result)
    elif name == "normalize.three_kernelize":
        program, trace = result
        counts["steps"] += len(trace.steps)
        counts["rules_in"] += len(args[0].rules)
        counts["rules_out"] += len(program.rules)


class Tracer:
    """Records spans of the wrapped functions while a command is active."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, command]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.command: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # names in TRACED the program lacks

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _wrap(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.command is None:
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.command])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            _count_result(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` that exists; list those
        that do not in ``missing`` (their metrics stay at zero)."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "aspnf" or n.startswith("aspnf."))]
        missing = []
        for module_name, fn_name in TRACED:
            module = sys.modules.get(f"aspnf.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                missing.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        self.missing = missing

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore = []


def dump(recorded, path) -> None:
    """Write spans as JSON: a name table and one row per span,
    ``[name index, start, end, parent row, command id]``."""
    names = sorted({s[0] for s in recorded})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in recorded]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"names": names, "fields": ["name", "start", "end", "parent", "command"],
                   "spans": rows}, handle, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: defaultdict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_name, start, end, _parent, _cmd) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def command_totals_mismatch(spans, selfs) -> float:
    """Largest gap, over commands, between the sum of the command's
    self times and the duration of its ``cli.main`` span; 0 when they
    agree."""
    total: defaultdict[int, float] = defaultdict(float)
    root_span: dict[int, float] = {}
    for span, own in zip(spans, selfs):
        total[span[4]] += own
        if span[0] == "cli.main" and span[3] is None:
            root_span[span[4]] = span[2] - span[1]
    if set(total) != set(root_span):
        return float("inf")
    return max((abs(total[c] - root_span[c]) for c in total), default=0.0)


def per_function(spans, selfs) -> dict[str, tuple[int, float]]:
    """Calls and summed self time per span name."""
    out: defaultdict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, selfs):
        entry = out[span[0]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in out.items()}

#!/usr/bin/env python3
"""aspnf benchmark: one workload in this process, one command at a time.

    python3 bench/run.py --workload solve-3col --seed 1 --seconds 38 --trace 0

Every command goes through ``aspnf.cli.main(argv)`` with its output
captured, as a closed loop with a single client: the next command
starts when the previous one has returned. The run generates the
workload's inputs from the seed, repeats passes over them for about
``--seconds``, checks every output against an independent answer and
prints every metric by name and unit. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the
traced ones, plus their overhead. Results and spans are written under
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gate  # noqa: E402
import spans  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median, at reference speed.
SETUP_REPEATS = 7
#: Reference loops timed before and after each set-up.
SETUP_REFERENCES = 10
#: Time of ``reference_loop`` on the host that reported times are scaled
#: to. A measured time t becomes t * REFERENCE_S / r, where r is the mean
#: time of the reference loop around it on this host at that moment.
REFERENCE_S = 1e-3

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNTS = {
    "semantics.answer_sets": "answer_sets",
    "cycles.cycles_found": "cycles_found",
    "cycles.bridges_found": "bridges_found",
    "normalize.steps": "steps",
}


def load_program():
    """Import ``aspnf.cli`` afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "aspnf" or n.startswith("aspnf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aspnf.cli

    if not Path(aspnf.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"aspnf was imported from {aspnf.cli.__file__}, not {SRC}")
    return aspnf.cli


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python dict, tuple and sort
    work, the kind the program does. The garbage collector is off while
    it runs, so its time depends on how fast this host runs Python at
    the moment and not on the program's heap."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        for i in range(2000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0) + 1
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed(references) -> float:
    """How much slower than the reference host this host ran while the
    reference loops were timed; divide a measured time by it."""
    return statistics.mean(references) / REFERENCE_S


def setup(workload: str, seed: int, workdir: Path, drawn):
    """Import plus input generation and rendering, timed together, and
    the host's speed around them. The benchmark's own selection of
    inputs, ``drawn``, is made beforehand."""
    references = [reference_loop() for _ in range(SETUP_REFERENCES)]
    start = time.perf_counter()
    cli = load_program()
    built = corpus.build(workload, seed, workdir, drawn)
    elapsed = time.perf_counter() - start
    references += [reference_loop() for _ in range(SETUP_REFERENCES)]
    return elapsed / speed(references), cli, built


def run_pass(cli, commands, tracer=None):
    """Run every command once, each after one reference loop; return
    the pass wall time, per command (exit code, stdout, seconds), and
    the host's speed over the pass."""
    results = []
    references = []
    gc.collect()
    start = time.perf_counter()
    for i, command in enumerate(commands):
        references.append(reference_loop())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = i
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(command.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a traceback is a failed command, not a crash
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - begin
        if tracer is not None:
            tracer.command = None
        results.append((code, out.getvalue(), elapsed))
    return time.perf_counter() - start, results, speed(references)


def read_traces(commands) -> list[str | None]:
    texts = []
    for command in commands:
        if command.trace_path is None:
            texts.append(None)
            continue
        try:
            texts.append(Path(command.trace_path).read_text(encoding="utf-8"))
        except OSError:
            texts.append("")
    return texts


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quantile(values, q: int) -> float:
    """The q-th percentile, by ``statistics.quantiles`` (exclusive)."""
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """One workload run: its commands, their outputs, the gate verdict."""

    def __init__(self, cli, built):
        self.cli = cli
        self.commands = built.commands
        self.stats = built.stats
        self.first = None  # (code, stdout, trace text) per command, first pass
        self.passes = 0
        self.changed: Counter = Counter()  # later passes with other output, per command
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return self.passes * len(self.commands)

    def record(self, results) -> None:
        traces = read_traces(self.commands)
        outputs = [(code, out, trace) for (code, out, _), trace in zip(results, traces)]
        self.passes += 1
        if self.first is None:
            self.first = outputs
            return
        for i, (old, new) in enumerate(zip(self.first, outputs)):
            if old != new:
                self.changed[i] += 1

    def check(self) -> None:
        """Judge each command's first output. A wrong one fails every
        execution of the command; otherwise each later execution whose
        output differed from the first fails."""
        for i, (command, (code, out, trace)) in enumerate(zip(self.commands, self.first)):
            reason = gate.check(command.kind, command.spec, code, out, trace)
            if reason is None and self.changed[i]:
                reason = f"output changed in {self.changed[i]} later passes"
                self.failed += self.changed[i]
            elif reason is not None:
                self.failed += self.passes
            if reason is not None:
                self.failures.append(f"command {i} ({command.argv[0]}): {reason}")


def answer_stats(workload: str, commands) -> dict:
    if workload == "solve-3col":
        counts = [gate.colouring_count(c.spec["nodes"], tuple(map(tuple, c.spec["edges"])))
                  for c in commands]
        return {"answer_sets": sum(counts), "uncolourable": counts.count(0)}
    if workload == "normalize-mix":
        counts = [len(gate.original_answer_sets(c.spec["text"])) for c in commands]
        return {"answer_sets": sum(counts), "inconsistent": counts.count(0)}
    return {}


def measure(run: Run, seconds: float, tracer=None):
    """Repeat rounds of passes while the next round still fits in
    ``seconds``; at least one round runs. With a tracer, a round is one
    untraced and one traced pass, in alternating order, after one
    untimed warm-up pass: the first pass over fresh inputs is the
    slowest, which would bias the traced-over-untraced ratio. The
    tracer's wrappers are installed for the traced passes only."""
    plain, traced = [], []
    start = time.perf_counter()
    if tracer is not None:
        run.record(run_pass(run.cli, run.commands)[1])
    while True:
        if tracer is None:
            order = [None]
        else:
            order = [None, tracer] if len(plain) % 2 == 0 else [tracer, None]
        round_time = 0.0
        for active in order:
            if active is None:
                wall, results, factor = run_pass(run.cli, run.commands)
            else:
                active.reset()
                active.install()
                try:
                    wall, results, factor = run_pass(run.cli, run.commands, active)
                finally:
                    active.uninstall()
            run.record(results)
            round_time += wall
            if active is None:
                plain.append((wall, [r[2] / factor for r in results], factor))
            else:
                traced.append((wall / factor, active.spans, dict(active.counts), factor))
        if time.perf_counter() - start + round_time > seconds:
            return plain, traced


def end_to_end(plain, setup_times) -> tuple[dict, dict]:
    """Times are at reference speed (see ``REFERENCE_S``). ``wall_s`` is
    the median pass; each command's latency is its median over the
    passes. Other load on a shared machine slows this host by 30-60%
    for seconds to minutes at a time, and the reference loop slows with
    it."""
    latency_ms = [statistics.median(times) * 1000 for times in zip(*(t for _, t, _ in plain))]
    return {
        "wall_s": statistics.median(sum(times) for _, times, _ in plain),
        "cmd_p50_ms": statistics.median(latency_ms),
        "cmd_p90_ms": quantile(latency_ms, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {
        "latency_samples": len(latency_ms),
        "pass_walls_s": [w for w, _, _ in plain],
        "pass_speed_factors": [f for _, _, f in plain],
    }


def per_layer(plain, traced) -> tuple[dict, dict, float, dict]:
    """Per-layer metrics from the traced passes, the units, and the
    largest gap between a command's summed self times and its span."""
    metrics, units = {}, {}
    per_pass = []
    worst = 0.0
    for _wall, recorded, _counts, factor in traced:
        selfs = spans.self_times(recorded)
        worst = max(worst, spans.command_totals_mismatch(recorded, selfs))
        per_pass.append({name: (calls, own / factor)
                         for name, (calls, own) in spans.per_function(recorded, selfs).items()})
    first_spans, first_counts = traced[0][1], traced[0][2]
    for module, fn in spans.TRACED:
        name = f"{module}.{fn}"
        metrics[f"{name}.calls"] = per_pass[0].get(name, (0, 0.0))[0]
        units[f"{name}.calls"] = "count"
        metrics[f"{name}.self_s"] = statistics.median(p.get(name, (0, 0.0))[1] for p in per_pass)
        units[f"{name}.self_s"] = "s"
    for metric, key in COUNTS.items():
        metrics[metric] = first_counts.get(key, 0)
        units[metric] = "count"
    cycle_cmds = {s[4] for s in first_spans if s[0] == "cycles.find_cycles"}
    calls = metrics["cycles.find_cycles.calls"]
    metrics["cycles.find_cycles_per_cmd"] = calls / len(cycle_cmds) if cycle_cmds else 0.0
    units["cycles.find_cycles_per_cmd"] = "calls/cmd"
    rules_in = first_counts.get("rules_in", 0)
    metrics["normalize.rules_out_per_rule_in"] = (
        first_counts.get("rules_out", 0) / rules_in if rules_in else 0.0
    )
    units["normalize.rules_out_per_rule_in"] = "ratio"
    parse_s = metrics["textio.parse_program.self_s"]
    metrics["textio.rules_per_s"] = first_counts.get("rules_parsed", 0) / parse_s if parse_s else 0.0
    units["textio.rules_per_s"] = "1/s"
    metrics["trace_overhead_ratio"] = statistics.median(t[0] for t in traced) / statistics.median(
        sum(times) for _, times, _ in plain
    )
    units["trace_overhead_ratio"] = "ratio"
    bases = {
        "cycles.find_cycles_per_cmd": f"{len(cycle_cmds)} commands that ran find_cycles",
        "normalize.rules_out_per_rule_in": f"{rules_in} rules into three_kernelize",
        "textio.rules_per_s": f"{first_counts.get('rules_parsed', 0)} rules parsed per pass",
        "trace_overhead_ratio": f"median of {len(traced)} traced over median of {len(plain)} untraced passes, at reference speed",
        "self_s": f"median over {len(traced)} traced passes, at reference speed",
    }
    return metrics, units, worst, bases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    try:
        load_program()
        drawn = corpus.draw(args.workload, args.seed)
        setups = [setup(args.workload, args.seed, workdir, drawn) for _ in range(SETUP_REPEATS)]
    except ImportError as exc:
        print(f"error: cannot import aspnf from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times = [t for t, _, _ in setups]
    _, cli, built = setups[-1]
    del setups
    run = Run(cli, built)

    tracer = spans.Tracer() if args.trace else None
    plain, traced = measure(run, args.seconds, tracer)
    e2e, sampling = end_to_end(plain, setup_times)
    run.check()

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "clients": 1,
        "setup_repeats": SETUP_REPEATS,
        "commands": len(run.commands),
        "inputs": {**run.stats, **answer_stats(args.workload, run.commands)},
        **sampling,
    }
    if args.trace:
        metrics, units, worst, bases = per_layer(plain, traced)
        provenance["traced_passes"] = len(traced)
        provenance["bases"] = bases
        provenance["untraced_functions"] = tracer.missing
        provenance["self_time_gap_s"] = worst
        if worst > 1e-6:
            run.failures.append(f"self times miss their cli.main span by {worst:.3g} s")
        OUT.mkdir(exist_ok=True)
        spans.dump(traced[0][1], OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics, units = e2e, END_TO_END_UNITS
    correct = not run.failures
    provenance["error_rate"] = run.failed / run.attempted
    provenance["failures"] = run.failures[:20]

    OUT.mkdir(exist_ok=True)
    result = {
        "provenance": provenance,
        "end_to_end": e2e,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)

    print("provenance " + json.dumps(provenance))
    print(f"error_rate = {provenance['error_rate']} ({run.failed}/{run.attempted} commands)")
    for key, value in metrics.items():
        print(f"{key} = {value} {units[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-tests of the benchmark: the gate flags tampered outputs, the
span tooling adds up, and every workload runs end to end at small size.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


@pytest.fixture
def workdir():
    path = run.OUT / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _call(cli, argv):
    _, [(code, out, _)], _ = run.run_pass(cli, [corpus.Command(argv, "", {})])
    return code, out


def test_gate_flags_dropped_answer_set(cli, workdir):
    from aspnf.generate import encode_3col, graph
    from aspnf.textio import render_program

    spec = {"nodes": 4, "edges": [(0, 1), (1, 2), (2, 3)]}
    path = workdir / "path.lp"
    path.write_text(render_program(encode_3col(graph(range(4), spec["edges"]))))
    code, out = _call(cli, ["solve", str(path), "--json", "--max-atoms", "512"])
    assert gate.check("solve", spec, code, out, None) is None
    answers = json.loads(out)
    assert len(answers) == 24
    tampered = json.dumps(answers[:-1])
    assert gate.check("solve", spec, code, tampered, None) is not None


def test_gate_flags_flipped_literal_in_3kernelize_output(cli, workdir):
    text = corpus.BRIDGE_CASES[0]
    path, trace = workdir / "case.lp", workdir / "case.trace.json"
    path.write_text(text)
    code, out = _call(cli, ["3kernelize", str(path), "--trace", str(trace)])
    trace_text = trace.read_text()
    spec = {"text": text}
    assert gate.check("3kernelize", spec, code, out, trace_text) is None
    # ``p :- not a.`` replaced the even bridge; with ``p :- a.`` the
    # answer set moves from the b side of the even cycle to the a side
    assert "p :- not a." in out
    tampered = out.replace("p :- not a.", "p :- a.")
    assert gate.check("3kernelize", spec, code, tampered, trace_text) is not None


def test_gate_flags_flipped_wfs_atom(cli, workdir):
    path = workdir / "chain.lp"
    path.write_text("".join(f"a_{k} :- not a_{k + 1}.\n" for k in range(1, 7)))
    spec = {"chain": 7}
    code, out = _call(cli, ["wfs", str(path)])
    assert gate.check("wfs", spec, code, out, None) is None
    lines = out.splitlines()
    assert lines[0] == "true: a_2, a_4, a_6"
    tampered = "\n".join(["true: a_2, a_4", "false: a_1, a_3, a_5, a_6, a_7", lines[2]])
    assert gate.check("wfs", spec, code, tampered, None) is not None


def test_gate_flags_missing_3kernel_violation(cli, workdir):
    from aspnf.generate import encode_3col, graph
    from aspnf.textio import render_program

    spec = {"graph": {"nodes": 3, "edges": [(0, 1)]}}
    path = workdir / "g.lp"
    path.write_text(render_program(encode_3col(graph(range(3), [(0, 1)]))))
    code, out = _call(cli, ["3kernel-check", str(path)])
    assert gate.check("3kernel-check", spec, code, out, None) is None
    tampered = "\n".join(out.splitlines()[:-1])
    assert gate.check("3kernel-check", spec, code, tampered, None) is not None
    # node 2 has no edges, so its n_color atoms occur in no body
    code, out = _call(cli, ["kernel-check", str(path)])
    assert code == 1
    assert gate.check("kernel-check", spec, code, out, None) is None


def test_self_time_subtracts_covered_part():
    recorded = [
        ["cli.main", 0.0, 10.0, None, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 4.0, 6.0, 0, 0],
        ["c", 4.5, 5.0, 2, 0],
    ]
    selfs = spans.self_times(recorded)
    assert selfs == [6.0, 2.0, 1.5, 0.5]
    assert spans.command_totals_mismatch(recorded, selfs) == 0.0


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_every_workload(workload, workdir):
    cli = run.load_program()
    built = corpus.build(workload, 7, workdir, corpus.draw(workload, 7, 0.05), scale=0.05)
    assert built.commands
    bench = run.Run(cli, built)
    tracer = spans.Tracer()
    plain, traced = run.measure(bench, 0.0, tracer)
    assert tracer.missing == []
    bench.check()
    assert bench.failures == []
    assert bench.failed == 0 and bench.attempted == 3 * len(built.commands)
    e2e, _ = run.end_to_end(plain, [0.1])
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    metrics, units, worst, _ = run.per_layer(plain, traced)
    assert worst < 1e-6
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["cli.main.calls"] == len(built.commands)

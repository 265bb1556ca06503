import contextlib
import errno
import glob
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from aspnf import (
    check_kernel,
    equivalent_mod_projection,
    parse_program,
    random_kernel_program,
    render_program,
    three_kernelize,
    trace_to_dict,
)
from aspnf.cli import main
from conftest import (
    CASE_II_TEXT,
    PI5_TEXT,
    PI6_TEXT,
    bridged_programs,
    kernel_expansions,
    negative_chain,
    random_kernel_programs,
)


@pytest.fixture
def pi6_file(tmp_path):
    path = tmp_path / "pi6.lp"
    path.write_text(PI6_TEXT)
    return str(path)


@pytest.fixture
def pi5_file(tmp_path):
    path = tmp_path / "pi5.lp"
    path.write_text(PI5_TEXT)
    return str(path)


def test_parse_echo(pi6_file, capsys):
    assert main(["parse", pi6_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a :- not b."
    assert len(out.splitlines()) == 5


def test_parse_dot(pi6_file, capsys):
    assert main(["parse", pi6_file, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph G {")
    assert out.count("style=dashed") == 6


def test_solve(pi6_file, capsys):
    assert main(["solve", pi6_file]) == 0
    assert capsys.readouterr().out == "b, q\n"


def test_solve_json(pi6_file, capsys):
    assert main(["solve", pi6_file, "--json"]) == 0
    assert capsys.readouterr().out == '[["b", "q"]]\n'


@pytest.mark.parametrize(
    "text, code, out",
    [
        ("p :- not p.", 1, "[]"),  # no answer set
        ("a :- a.", 0, "[[]]"),  # the empty answer set
        ("p(a,1) :- not q(b). q(b) :- not p(a,1).", 0, '[["p(a,1)"], ["q(b)"]]'),
    ],
)
def test_solve_json_edge_cases(tmp_path, capsys, text, code, out):
    path = tmp_path / "edge.lp"
    path.write_text(text)
    assert main(["solve", str(path), "--json"]) == code
    assert capsys.readouterr().out == out + "\n"


def test_solve_inconsistent_exit_code(tmp_path, capsys):
    path = tmp_path / "odd.lp"
    path.write_text("p :- not p.\n")
    assert main(["solve", str(path)]) == 1
    assert capsys.readouterr().out == ""


def test_solve_max_atoms_flag(tmp_path, capsys):
    rules = "".join(
        f"x{i} :- not y{i}.\ny{i} :- not x{i}.\n" for i in range(13)
    )
    path = tmp_path / "big.lp"
    path.write_text(rules)
    assert main(["solve", str(path)]) == 3
    assert "cap" in capsys.readouterr().err
    assert main(["solve", str(path), "--max-atoms", "26"]) == 0


def test_wfs_output(pi6_file, capsys):
    assert main(["wfs", pi6_file]) == 0
    assert capsys.readouterr().out == (
        "true: \nfalse: \nundefined: a, b, p, q\n"
    )


def test_wfs_of_a_long_chain(tmp_path, capsys):
    # x0 :- not x1. ... x19998 :- not x19999. x19999.
    path = tmp_path / "chain.lp"
    path.write_text(render_program(negative_chain(20_000)))
    assert main(["wfs", str(path)]) == 0
    captured = capsys.readouterr()
    assert "RecursionError" not in captured.err
    true, false, undefined = captured.out.splitlines()
    assert true.count(",") == false.count(",") == 9_999
    assert "x19999" in true.split(", ") and "x19998" in false.split(", ")
    assert undefined == "undefined: "


def test_kernel_check(pi6_file, tmp_path, capsys):
    assert main(["kernel-check", pi6_file]) == 0
    assert "kernel form: yes" in capsys.readouterr().out
    bad = tmp_path / "fact.lp"
    bad.write_text("a.\n")
    assert main(["kernel-check", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "kernel form: no" in out
    assert "every-atom-in-some-body" in out


def test_3kernel_check(pi6_file, pi5_file, capsys):
    assert main(["3kernel-check", pi6_file]) == 0
    capsys.readouterr()
    assert main(["3kernel-check", pi5_file]) == 1
    out = capsys.readouterr().out
    assert "condition 6" in out


def test_kernelize_prints_universe_header(pi6_file, capsys):
    assert main(["kernelize", pi6_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "% universe: a, b, p, q"
    assert lines[1] == "a :- not __bar_a."


def test_kernelize_accepts_constraints(tmp_path, capsys):
    # The constraint's guard atom is false in every answer set, so it
    # is left out of the universe rather than refused.
    path = tmp_path / "constrained.lp"
    path.write_text("a :- not b. b :- not a. :- a.\n")
    assert main(["kernelize", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "% universe: a, b"
    result = parse_program(out, allow_reserved=True)
    original = parse_program(path.read_text())
    assert equivalent_mod_projection(original, result, {"a", "b"})


def test_antichain2kernel(tmp_path, capsys):
    path = tmp_path / "chain.ac"
    path.write_text("#universe a, b.\na.\nb.\n")
    assert main(["antichain2kernel", str(path)]) == 0
    out = capsys.readouterr().out
    assert "__m :- not __bar_a, not b." in out
    assert out.strip().endswith("__bot :- not __bot, not __m.")


def test_3kernel_check_long_even_cycle(tmp_path, capsys):
    n = 1500
    path = tmp_path / "ring.lp"
    path.write_text("".join(f"a_{i} :- not a_{(i + 1) % n}.\n" for i in range(n)))
    assert main(["3kernel-check", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "3-kernel form: yes\n"
    assert captured.err == ""


@pytest.mark.parametrize("seed, lines", [(1, 49), (2, 42)])
def test_3kernel_check_past_the_cycle_cap(seed, lines, tmp_path, capsys):
    # these results have more than 10,000 circuits
    result, _ = three_kernelize(random_kernel_program(20, 36, seed=seed))
    path = tmp_path / "result.lp"
    path.write_text(render_program(result))
    assert main(["3kernel-check", "--allow-reserved", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("  - condition 5 ") == lines
    assert captured.err == ""


def test_3kernelize_with_trace(tmp_path, capsys):
    source = tmp_path / "case2.lp"
    source.write_text(CASE_II_TEXT)
    trace_path = tmp_path / "trace.json"
    assert main(["3kernelize", str(source), "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "p :- a." in out
    document = json.loads(trace_path.read_text())
    assert [step["kind"] for step in document["steps"]] == ["or-bridge-odd"]


@given(st.one_of(random_kernel_programs, kernel_expansions, bridged_programs()))
def test_3kernelize_trace_is_the_json_module_text(tmp_path_factory, program):
    assume(check_kernel(program).is_kernel)
    text = render_program(program)
    # One trace path for every example, on purpose: each write overwrites
    # the last example's trace, so this is the check that no stale tail
    # of a longer trace is left behind.
    source = tmp_path_factory.getbasetemp() / "traced.lp"
    trace_path = tmp_path_factory.getbasetemp() / "trace.json"
    source.write_text(text)
    argv = ["3kernelize", "--allow-reserved", str(source), "--trace", str(trace_path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    result, trace = three_kernelize(parse_program(text, allow_reserved=True))
    expected = json.dumps(trace_to_dict(trace)) + "\n"
    assert trace_path.read_text(encoding="utf-8") == expected
    # the trace reuses the output's rule texts, and the output is unchanged
    assert out.getvalue() == render_program(result)


def test_3kernelize_trace_without_steps(tmp_path, capsys):
    source = tmp_path / "loop.lp"
    source.write_text("a :- not b.\nb :- not a.\n")
    trace_path = tmp_path / "trace.json"
    assert main(["3kernelize", str(source), "--trace", str(trace_path)]) == 0
    assert trace_path.read_text() == '{"steps": [], "surviving_atoms": ["a", "b"]}\n'


def test_3kernelize_unwritable_trace_prints_nothing(tmp_path, capsys):
    source = tmp_path / "case2.lp"
    source.write_text(CASE_II_TEXT)
    trace_path = tmp_path / "missing" / "trace.json"
    assert main(["3kernelize", str(source), "--trace", str(trace_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
        f"{str(trace_path)!r}\n"
    )
    assert not trace_path.exists()


def test_3kernelize_directory_trace_path_prints_nothing(tmp_path, capsys):
    source = tmp_path / "case2.lp"
    source.write_text(CASE_II_TEXT)
    assert main(["3kernelize", str(source), "--trace", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
        f"{str(tmp_path)!r}\n"
    )


# merge.lp's trace has one long-rule step; even.lp's has none and is shorter.
MERGE_TEXT = "a :- not a, not b, not c.\nb :- not c.\nc :- not a.\n"
EVEN_TEXT = "a :- not b.\nb :- not a.\n"


def _write_trace(tmp_path, text, trace_path):
    source = tmp_path / "source.lp"
    source.write_text(text)
    assert main(["3kernelize", str(source), "--trace", str(trace_path)]) == 0
    return trace_path.read_bytes()


@pytest.mark.parametrize(
    "first, second",
    [(MERGE_TEXT, EVEN_TEXT), (EVEN_TEXT, MERGE_TEXT)],
    ids=["longer-first", "shorter-first"],
)
def test_3kernelize_trace_overwrites_in_place(first, second, tmp_path, capsys):
    fresh = _write_trace(tmp_path, second, tmp_path / "fresh.json")
    trace_path = tmp_path / "trace.json"
    assert len(_write_trace(tmp_path, first, trace_path)) != len(fresh)
    inode = trace_path.stat().st_ino
    assert _write_trace(tmp_path, second, trace_path) == fresh
    assert trace_path.stat().st_ino == inode


@pytest.mark.skipif(os.name != "posix", reason="POSIX null device")
def test_3kernelize_trace_to_the_null_device(tmp_path, capsys):
    source = tmp_path / "merge.lp"
    source.write_text(MERGE_TEXT)
    assert main(["3kernelize", str(source), "--trace", os.devnull]) == 0
    result, _ = three_kernelize(parse_program(MERGE_TEXT))
    assert capsys.readouterr().out == render_program(result)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_3kernelize_trace_to_a_full_device_prints_nothing(tmp_path, capsys):
    source = tmp_path / "merge.lp"
    source.write_text(MERGE_TEXT)
    assert main(["3kernelize", str(source), "--trace", "/dev/full"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize(
    "text, violations",
    [
        ("a.", "wfs-irreducible, negative-bodies-only, every-atom-in-some-body"),
        (":- a.", "wfs-irreducible, negative-bodies-only"),
    ],
)
def test_3kernelize_of_a_non_kernel_program(text, violations, tmp_path, capsys):
    # The error names the program's violations, not an internal function.
    source = tmp_path / "p.lp"
    source.write_text(text + "\n")
    assert main(["3kernelize", str(source)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the program is not in kernel form; violations: {violations}\n"
    )


def test_3kernelize_output_reparses(pi5_file, tmp_path, capsys):
    assert main(["3kernelize", pi5_file]) == 0
    out = capsys.readouterr().out
    rerun = tmp_path / "out.lp"
    rerun.write_text(out)
    assert main(["solve", str(rerun)]) == 3  # reserved atoms rejected
    capsys.readouterr()
    assert main(["solve", str(rerun), "--allow-reserved"]) == 0


def test_encode_and_decode_3col(tmp_path, capsys, monkeypatch):
    graph_file = tmp_path / "g.graph"
    graph_file.write_text("nodes: 0 1\nedge: 0 1\n")
    assert main(["encode-3col", str(graph_file)]) == 0
    encoded = capsys.readouterr().out
    assert "edge_ko(0,1) :- not n_color(0,red), not n_color(1,red)." in encoded
    program_file = tmp_path / "g.lp"
    program_file.write_text(encoded)
    assert main(["solve", str(program_file)]) == 0
    answer_lines = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(answer_lines))
    assert main(["decode-3col", str(graph_file)]) == 0
    decoded = capsys.readouterr().out.splitlines()
    assert len(decoded) == 6
    assert all("0=" in line and "1=" in line for line in decoded)


def test_graph_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("nodes: 0 1\nedge: 0 x\n")
    assert main(["encode-3col", str(bad)]) == 3
    assert "error" in capsys.readouterr().err
    for edge in ("edge: 1", "edge: 0 1 2"):
        bad.write_text(f"nodes: 0 1\n{edge}\n")
        assert main(["encode-3col", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:2: expected two node ids after 'edge:'\n"
    for lines, lineno in (("nodes: 0 x\n", 1), ("nodes: 0 1\nedge: 0 x\n", 2)):
        bad.write_text(lines)
        assert main(["encode-3col", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}:{lineno}: expected a node id, got 'x'\n"


def test_graph_file_skips_comments_and_rejects_unknown_lines(tmp_path, capsys):
    path = tmp_path / "triangle.graph"
    path.write_text("% a triangle\n\nnodes: 0 1 2 % ids\nedge: 0 1\n")
    assert main(["encode-3col", str(path)]) == 0
    encoded = capsys.readouterr().out
    path.write_text("nodes: 0 1 2\n% a comment\n\nedge: 0 1\n")
    assert main(["encode-3col", str(path)]) == 0
    assert capsys.readouterr().out == encoded
    path.write_text("nodes: 0 1\n\nvertex: 2\n")
    assert main(["encode-3col", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}:3: unrecognized line 'vertex: 2'\n"


def test_graph_file_negative_node(tmp_path, capsys):
    bad = tmp_path / "negative.graph"
    bad.write_text("nodes: -1 2\nedge: -1 2\n")
    assert main(["encode-3col", str(bad)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "negative node -1" in captured.err


def test_equiv(pi5_file, tmp_path, capsys):
    simplified = tmp_path / "simplified.lp"
    from aspnf import long_rule_simplify, parse_program, render_program

    simplified.write_text(
        render_program(long_rule_simplify(parse_program(PI5_TEXT))[0])
    )
    args = ["equiv", pi5_file, str(simplified), "--over", "p,a,b,c,d"]
    assert main(args + ["--allow-reserved"]) == 0
    assert capsys.readouterr().out == "equivalent\n"


def test_equiv_negative(tmp_path, capsys):
    even = tmp_path / "even.lp"
    even.write_text("a :- not b.\nb :- not a.\n")
    odd = tmp_path / "odd.lp"
    odd.write_text("p :- not p.\n")
    assert main(["equiv", str(even), str(odd), "--over", ""]) == 1
    assert capsys.readouterr().out == "not equivalent\n"


def test_gen_kernel(capsys):
    assert main(["gen-kernel", "--atoms", "3", "--rules", "4", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen-kernel", "--atoms", "3", "--rules", "4", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    from aspnf import check_kernel, parse_program

    assert check_kernel(parse_program(first)).is_kernel


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_missing_file_exit_code(capsys):
    assert main(["solve", "/nonexistent/file.lp"]) == 3
    assert "error" in capsys.readouterr().err


def test_syntax_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.lp"
    path.write_text("p :- q\n")
    assert main(["parse", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def _assert_clean_error(capsys):
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


def test_gen_kernel_zero_atoms_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-kernel", "--atoms", "0", "--rules", "1"])
    assert excinfo.value.code == 2
    _assert_clean_error(capsys)


@pytest.mark.parametrize(
    "sizes",
    [
        ["--atoms", "1", "--rules", "0"],
        ["--atoms", "3", "--rules", "-2"],
        ["--atoms", "2", "--rules", "3", "--max-body", "0"],
    ],
)
def test_gen_kernel_invalid_sizes_are_usage_errors(sizes, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-kernel", *sizes])
    assert excinfo.value.code == 2
    _assert_clean_error(capsys)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "command", [["solve", "F"], ["kernelize", "F"], ["equiv", "F", "F", "--over", "a"]]
)
def test_max_atoms_below_one_is_a_usage_error(command, value, pi6_file, capsys):
    argv = [pi6_file if arg == "F" else arg for arg in command]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--max-atoms", value])
    assert excinfo.value.code == 2
    _assert_clean_error(capsys)


def test_max_atoms_not_an_integer_is_a_usage_error(pi6_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve", pi6_file, "--max-atoms", "abc"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-atoms: expected an integer of at least 1, got 'abc'" in captured.err
    assert "Traceback" not in captured.err


def test_antichain2kernel_skips_comments_and_blank_lines(tmp_path, capsys):
    path = tmp_path / "chain.ac"
    path.write_text("% two atoms\n\n#universe a, b. % header\n\na.\n% last\nb.\n")
    assert main(["antichain2kernel", str(path)]) == 0
    commented = capsys.readouterr().out
    path.write_text("#universe a, b.\na.\nb.\n")
    assert main(["antichain2kernel", str(path)]) == 0
    assert capsys.readouterr().out == commented


@pytest.mark.parametrize("text", ["", "% only a comment\n\n"])
def test_antichain2kernel_missing_universe_header(tmp_path, capsys, text):
    path = tmp_path / "empty.ac"
    path.write_text(text)
    assert main(["antichain2kernel", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: missing '#universe' header\n"


def test_antichain2kernel_component_outside_universe(tmp_path, capsys):
    path = tmp_path / "outside.ac"
    path.write_text("#universe a.\nb.\n")
    assert main(["antichain2kernel", str(path)]) == 3
    _assert_clean_error(capsys)


def test_antichain2kernel_rejects_a_chain(tmp_path, capsys):
    path = tmp_path / "chain.ac"
    path.write_text("#universe a, b.\na.\na, b.\n")
    assert main(["antichain2kernel", str(path)]) == 3
    _assert_clean_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [["parse"], ["solve"], ["wfs"], ["3kernelize"], ["antichain2kernel"], ["encode-3col"]],
)
def test_non_utf8_file_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.lp"
    path.write_bytes("a :- not b.\n% caf\xe9\n".encode("latin-1"))
    assert main(argv + [str(path)]) == 3
    _assert_clean_error(capsys)


def test_solve_reads_past_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.lp"
    path.write_bytes(b"\xef\xbb\xbfa :- not b.\nb :- not a.\n")
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr() == ("a\nb\n", "")


def _assert_one_error_line(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_antichain2kernel_rejects_malformed_atoms(tmp_path, capsys):
    path = tmp_path / "bad.ac"
    path.write_text("#universe A b, c d.\nA b.\n")
    assert main(["antichain2kernel", str(path)]) == 3
    _assert_one_error_line(capsys)


def test_equiv_over_rejects_malformed_atoms(pi5_file, capsys):
    assert main(["equiv", pi5_file, pi5_file, "--over", "a, B c"]) == 3
    _assert_one_error_line(capsys)


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_run(argv, python=sys.executable):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [python, "-m", "aspnf", *argv], capture_output=True, text=True, env=env
    )


def test_calls_of_main_share_no_state(pi6_file, capsys):
    sequence = [
        ["gen-kernel", "--atoms", "0", "--rules", "1"],
        ["solve", pi6_file, "--json"],
        ["solve", pi6_file],
        ["gen-kernel", "--atoms", "3", "--rules", "4", "--seed", "5"],
        ["gen-kernel", "--atoms", "0", "--rules", "1"],
        ["solve", pi6_file],
    ]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = _fresh_run(argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def _python_3_10():
    candidates = [shutil.which("python3.10")]
    pyenv = os.path.expanduser("~/.pyenv/versions/3.10*/bin/python")
    candidates += sorted(glob.glob(pyenv))
    for python in filter(None, candidates):
        check = subprocess.run([python, "-c", "pass"], capture_output=True)
        if check.returncode == 0:
            return python
    return None


def test_runs_on_python_3_10(pi6_file, tmp_path):
    python = _python_3_10()
    if python is None:
        pytest.skip("no Python 3.10 interpreter")
    solved = _fresh_run(["solve", pi6_file], python)
    assert (solved.returncode, solved.stdout, solved.stderr) == (0, "b, q\n", "")
    path = tmp_path / "noisy.lp"
    path.write_text("% colours\nred :- not color( 0 , % c\n blue).\nb.\n")
    parsed = _fresh_run(["parse", str(path)], python)
    assert parsed.returncode == 0, parsed.stderr
    assert parsed.stdout == "red :- not color(0,blue).\nb.\n"


FUZZ_ATOMS = ["a", "b", "c", "p(1)", "__x", "__c_0", "__h0_1", "__g0_0", "__m", "__bot"]
FUZZ_TOKENS = [":-", "not", ",", ".", "%", "(", ")", " ", "\n", *FUZZ_ATOMS]
FUZZ_COMMANDS = ["parse", "solve", "wfs", "kernel-check", "3kernel-check", "3kernelize"]

fuzz_literals = st.builds(
    lambda negated, atom: "not " * negated + atom,
    st.booleans(),
    st.sampled_from(FUZZ_ATOMS),
)
fuzz_rules = st.builds(
    lambda head, body: f"{head} :- {', '.join(body)}.\n",
    st.sampled_from(["", *FUZZ_ATOMS]),
    st.lists(fuzz_literals, min_size=1, max_size=3),
)
fuzz_facts = st.sampled_from(FUZZ_ATOMS).map("{}.\n".format)
# mostly whole rules, so that about a quarter of the files parse
fuzz_texts = st.lists(
    st.one_of(
        fuzz_rules,
        fuzz_rules,
        fuzz_rules,
        fuzz_facts,
        st.sampled_from(FUZZ_TOKENS),
        st.characters(codec="utf-8"),
    ),
    max_size=12,
).map("".join)


@given(fuzz_texts)
def test_cli_survives_any_text(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.lp"
    path.write_text(text, encoding="utf-8")
    output = io.StringIO()
    for command in FUZZ_COMMANDS:
        for extra in ([], ["--allow-reserved"]):
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                assert main([command, str(path), *extra]) in (0, 1, 2, 3)

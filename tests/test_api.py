import contextlib
import dataclasses
import importlib
import importlib.util
import io
import re
from pathlib import Path

import aspnf
from aspnf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

#: Names that left the package root, each with the module that still
#: defines it. The package uses the reserved prefix and the bridge kinds
#: internally; the cycle lister and the one-bridge rewrites stay for the
#: benchmark, which traces or imports them.
MOVED_OUT_OF_ROOT = {
    "is_reserved": "model",
    "RESERVED_PREFIX": "model",
    "AND_BRIDGE": "cycles",
    "OR_BRIDGE": "cycles",
    "Cycle": "cycles",
    "find_cycles": "cycles",
    "find_or_handles": "cycles",
    "simplify_or_bridge": "normalize",
    "simplify_and_bridge": "normalize",
    "BridgeNotFoundError": "errors",
    "CycleCapExceededError": "errors",
}
#: Deleted outright (gamma(p, s) == s and a set comprehension replace
#: them) or made private to their module.
GONE_FROM_MODULE = {
    "is_answer_set": "semantics",
    "project": "kernel",
    "bar_atom": "kernel",
    "COLORS": "generate",
}


def readme_section(heading: str) -> str:
    text = README.read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n#", start + len(heading) + 2)
    return text[start:] if end == -1 else text[start:end]


def fenced_block(section: str, language: str) -> str:
    (block,) = re.findall(rf"```{language}\n(.*?)```", section, re.S)
    return block


def test_all_names_resolve_without_duplicates():
    assert len(aspnf.__all__) == len(set(aspnf.__all__))
    for name in aspnf.__all__:
        assert hasattr(aspnf, name), name
    namespace: dict = {}
    exec("from aspnf import *", namespace)
    assert set(aspnf.__all__) <= namespace.keys()


def test_program_level_reduct_route_is_gone():
    for name in ("gl_reduct", "least_model", "NegativeBodyError"):
        assert name not in aspnf.__all__
        assert not hasattr(aspnf, name)


def test_test_only_structural_api_is_gone():
    deleted = (
        "classify_rules",
        "RuleClassification",
        "TAG_IN_CYCLE",
        "TAG_AUXILIARY",
        "TAG_BRIDGE_STEP",
        "TAG_UNCLASSIFIED",
        "analysis_to_dict",
        "export_analysis_dot",
        "is_purely_negative",
        "is_wfs_irreducible",
        "AnswerSetCollection",
        "DependencyGraph",
        "build_dependency_graph",
        "OrHandle",
    )
    for name in deleted:
        assert name not in aspnf.__all__
        assert not hasattr(aspnf, name), name
    # handles come from StructuralIndex only; a Cycle is (atoms, rules)
    assert not hasattr(aspnf.cycles, "OrHandle")
    for name in ("handle", "size", "is_even"):
        assert not hasattr(aspnf.cycles.Cycle, name), name
    assert [f.name for f in dataclasses.fields(aspnf.cycles.Cycle)] == ["atoms", "rules"]
    assert not hasattr(aspnf.Rule, "body_atoms")
    assert not hasattr(aspnf.Program, "__iter__")
    # is_auxiliary is the one way to ask whether a rule is auxiliary
    index = aspnf.cycles.StructuralIndex(aspnf.parse_program("p :- not p. p :- not a."))
    assert not hasattr(index, "auxiliary")
    # the index lists no circuit; only find_cycles keeps a cap
    assert "DEFAULT_MAX_CYCLES" not in aspnf.__all__
    for name in ("circuits", "cycles"):
        assert not hasattr(aspnf.cycles.StructuralIndex, name), name


def test_benchmark_traced_names_resolve():
    # the traced benchmark run wraps these names; a missing one would
    # leave its per-layer metrics at zero
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, name in spans.TRACED:
        module = importlib.import_module(f"aspnf.{module_name}")
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_readme_api_section_lists_exactly_the_exports():
    listed = re.findall(r"`([^`]*)`", readme_section("## API"))
    assert all(name.isidentifier() for name in listed), listed
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == set(aspnf.__all__)
    assert len(aspnf.__all__) <= 50


def test_audited_names_left_the_root():
    for name in (*MOVED_OUT_OF_ROOT, *GONE_FROM_MODULE):
        assert name not in aspnf.__all__, name
        assert not hasattr(aspnf, name), name
    for name, module_name in MOVED_OUT_OF_ROOT.items():
        module = importlib.import_module(f"aspnf.{module_name}")
        assert hasattr(module, name), f"{module_name}.{name}"
    for name, module_name in GONE_FROM_MODULE.items():
        module = importlib.import_module(f"aspnf.{module_name}")
        assert not hasattr(module, name), f"{module_name}.{name}"
    assert aspnf.kernel._bar_atom("a") == "__bar_a"
    assert aspnf.generate._COLORS == ("red", "green", "blue")


def test_readme_quick_tour_prints_its_comments():
    block = fenced_block(readme_section("## Library quick tour"), "python")
    expected = [
        line.split("  # ", 1)[1].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected


def test_readme_example_session(tmp_path, capsys):
    block = fenced_block(readme_section("### Example session"), "sh")
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M)
    path = tmp_path / heredoc.group(1)
    path.write_text(heredoc.group(2))
    commands = re.findall(r"^aspnf (.*?)\s+# prints: (.*)$", block, re.M)
    assert [argv.split()[0] for argv, _ in commands] == ["solve", "3kernel-check"]
    for argv, printed in commands:
        args = [str(path) if arg == path.name else arg for arg in argv.split()]
        assert main(args) == 0, argv
        assert capsys.readouterr().out == printed + "\n", argv

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import aspnf


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
        assert not hasattr(aspnf.Cycle, name), name
    assert [f.name for f in dataclasses.fields(aspnf.Cycle)] == ["atoms", "rules"]
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

"""Rules the package source itself must keep."""

import ast
import importlib.util
import sys
from pathlib import Path

import samb


def test_no_assert_statements():
    # invariants are typed exceptions; ``python -O`` strips assert
    sources = sorted(Path(samb.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_tensor_module_imports_threads():
    # one owner of process-wide policy: the lanes of samb.tensor.run_lanes
    # and the heap policy that ctypes sets
    sources = sorted(Path(samb.__file__).parent.glob("*.py"))
    importers = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(m.split(".")[0] in ("threading", "concurrent", "ctypes") for m in modules):
                importers.add(path.name)
    assert importers == {"tensor.py"}


def test_benchmark_tracer_wiring_resolves(monkeypatch):
    # perfbench/tracer.py wraps these samb attributes by name; a deletion or
    # rename that would break the benchmark fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [("samb.tensor", attr) for attr in
             (*tracer.TENSOR_OPS, "clear_tape", "tape", "start_flop_count",
              "stop_flop_count")]
    names += [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.GENERATORS]
    for owner, attr in names:
        tracer._lookup(owner, attr)

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

"""Rules the package source itself must keep."""

import ast
import importlib.util
import sys
import types
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


def test_no_catch_all_handlers():
    # a bug must surface as its own traceback, not as a recorded failure
    sources = sorted(Path(samb.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or (isinstance(t, ast.Name)
                                 and t.id in ("Exception", "BaseException"))
                   for t in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_gumbel_noise_comes_from_the_caller():
    # the trainer's generator is the one noise stream; the model makes none
    found = []
    for name in ("attention.py", "model.py"):
        path = Path(samb.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "default_rng" in (getattr(node, "id", None), getattr(node, "attr", None)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_the_model_hands_gumbel_assign_its_noise():
    # one noise decision per forward: the model passes the draws it made,
    # never a generator that gumbel_assign could draw from itself
    path = Path(samb.__file__).parent / "model.py"
    [call] = [node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
              if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "gumbel_assign"]
    assert len(call.args) == 2, f"model.py:{call.lineno}"
    assert [kw.arg for kw in call.keywords] == ["noise"], f"model.py:{call.lineno}"


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


def test_benchmark_worker_wiring_resolves():
    # perfbench/worker.py reads samb through module aliases (``cli.main``,
    # ``trainer_mod.Trainer.run``, ...); a rename that would break the
    # benchmark's worker fails here first
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.startswith("samb.")}
    assert set(aliases) == {"cli", "data", "model_mod", "T", "trainer_mod"}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            chains.add((aliases[node.id], *attrs))
    assert ("samb.trainer", "Trainer", "run") in chains and len(chains) > 10
    for module, *attrs in sorted(chains):
        obj = importlib.import_module(module)
        for i, attr in enumerate(attrs):
            assert hasattr(obj, attr), ".".join([module, *attrs[:i + 1]])
            obj = getattr(obj, attr)
            if not isinstance(obj, (type, types.ModuleType)):
                break                            # past a module or class: a value

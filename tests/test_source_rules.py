"""Rules the package source itself must keep."""

import ast
import importlib.util
import sys
import types
from pathlib import Path

import numpy as np

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


def load_perfbench(monkeypatch, name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` as a module, without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wiring_resolves(monkeypatch):
    # perfbench/tracer.py wraps these samb attributes by name; a deletion or
    # rename that would break the benchmark fails here first
    tracer = load_perfbench(monkeypatch, "tracer")
    names = [("samb.tensor", attr) for attr in
             (*tracer.TENSOR_OPS, "clear_tape", "tape", "start_flop_count",
              "stop_flop_count")]
    names += [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.GENERATORS]
    for owner, attr in names:
        tracer._lookup(owner, attr)


def test_benchmark_tracer_sees_every_desk_train_layer(monkeypatch, tmp_path):
    # desk-train's config at 2 + 2 steps on its tiny data, then an evaluate of
    # the saved model, in-process under the benchmark's tracer: a call that
    # bypasses a wrapped name, or a tape node without what the tracer reads
    # (``output``, ``backward_fn``), fails here and not only in the benchmark
    from samb import cli, data, trainer
    from samb.model import VitSamb

    tracer_mod = load_perfbench(monkeypatch, "tracer")
    workloads = load_perfbench(monkeypatch, "workloads")
    w = workloads.WORKLOADS["desk-train"]
    tiny = dict(w.tiny, iterations_1=2, iterations_2=2)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for name, ds in data.generate(data.SyntheticSpec(
            seed=workloads.MODEL_SEED, **workloads.with_tiny(w.spec, tiny))).items():
        ds.save(str(data_dir / f"{name}.sdsh"))
    cfg_path = tmp_path / "train.cfg"
    cfg_path.write_text(workloads.config_text(workloads.with_tiny(w.config, tiny),
                                              str(data_dir)))
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        splits = cli.load_datasets(str(data_dir))
        cfg, _ = cli.train_config_from(cli.parse_config(cfg_path), splits["source_train"])
        model = VitSamb(cfg.model, np.random.default_rng(0))
        model.load(str(tmp_path / "o" / "checkpoint_stage2.samb"))
        assert 0.0 <= trainer.evaluate(model, splits["target_eval"]) <= 1.0
    finally:
        tracer.uninstall()
    tracer.check_expected(w.layers)
    assert tracer.nodes_total > 0 and tracer.backward_nodes > 0
    assert tracer.peak_tape_bytes > 0 and tracer.flops > 0


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

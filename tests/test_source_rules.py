"""Rules the package source itself must keep."""

import ast
import importlib.util
import inspect
import sys
import types
from collections import Counter
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


def test_the_model_builds_its_mask_once():
    # one call of mode_masks, in VitSamb.__init__: a forward adds bands of
    # that mask (and a dynamic mode its [B, M, N] owner bands) into the
    # scores, so no [B, T, T] mask is built per forward
    path = Path(samb.__file__).parent / "model.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "mode_masks"]
    [init] = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "VitSamb"
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"]
    assert len(calls) == 1 and init.lineno <= calls[0] <= init.end_lineno, calls


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


def test_no_module_reads_the_environment():
    # a run's outputs depend on its config and its data only
    readers = {"environ", "environb", "getenv"}
    sources = sorted(Path(samb.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            if readers & set(names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def load_perfbench(monkeypatch, name: str) -> types.ModuleType:
    """``perfbench/<name>.py`` as a module, without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def tracer_wiring(tracer) -> list[tuple[str, str]]:
    """The (owner, attribute) pairs that perfbench/tracer.py looks up."""
    names = [("samb.tensor", attr) for attr in
             (*tracer.TENSOR_OPS, "clear_tape", "tape", "start_flop_count",
              "stop_flop_count")]
    return names + [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.GENERATORS]


def test_benchmark_tracer_wiring_resolves(monkeypatch):
    # perfbench/tracer.py wraps these samb attributes by name; a deletion or
    # rename that would break the benchmark fails here first
    tracer = load_perfbench(monkeypatch, "tracer")
    for owner, attr in tracer_wiring(tracer):
        tracer._lookup(owner, attr)


def name_counts(tree: ast.AST) -> Counter:
    """How often ``tree`` reads each name or attribute name, or imports it."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute)
                   else node.asname or node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_public_tensor_function_has_a_caller(monkeypatch):
    # an op whose last caller goes is deleted with it: a public function of
    # samb.tensor is read by the package outside its own definition, by the
    # acceptance test, or by the benchmark's tracer
    import samb.tensor as T
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    assert {"add", "softmax", "backward"} <= public
    uses = Counter()
    for path in sorted(Path(samb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += name_counts(tree)
        if path.name == "tensor.py":
            for fn in tree.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in public:
                    uses[fn.name] -= name_counts(fn)[fn.name]      # its own recursion
    acceptance = Path(__file__).with_name("test_acceptance.py")
    uses += name_counts(ast.parse(acceptance.read_text(), filename=str(acceptance)))
    uses.update(attr for owner, attr in tracer_wiring(load_perfbench(monkeypatch, "tracer"))
                if owner == "samb.tensor")
    assert sorted(name for name in public if uses[name] <= 0) == []


def trace_tiny_train(monkeypatch, tmp_path, name: str, **tiny):
    """Run workload ``name``'s config, with its smoke-test overrides and
    ``tiny``, on its tiny data in-process under the benchmark's tracer, then
    an evaluate of the saved model: a call that bypasses a wrapped name, or a
    tape node without what the tracer reads (``output``, ``backward_fn``),
    fails here and not only in the benchmark."""
    from samb import cli, data, trainer
    from samb.model import VitSamb

    tracer_mod = load_perfbench(monkeypatch, "tracer")
    workloads = load_perfbench(monkeypatch, "workloads")
    w = workloads.WORKLOADS[name]
    tiny = dict(w.tiny, **tiny)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for split, ds in data.generate(data.SyntheticSpec(
            seed=workloads.MODEL_SEED, **workloads.with_tiny(w.spec, tiny))).items():
        ds.save(str(data_dir / f"{split}.sdsh"))
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
        model.load(str(max((tmp_path / "o").glob("checkpoint_stage*.samb"))))
        assert 0.0 <= trainer.evaluate(model, splits["target_eval"]) <= 1.0
    finally:
        tracer.uninstall()
    tracer.check_expected(w.layers)
    assert tracer.nodes_total > 0 and tracer.backward_nodes > 0
    assert tracer.peak_tape_bytes > 0 and tracer.flops > 0


def test_benchmark_tracer_sees_every_desk_train_layer(monkeypatch, tmp_path):
    # desk-train's config at 2 + 2 steps
    trace_tiny_train(monkeypatch, tmp_path, "desk-train", iterations_1=2, iterations_2=2)


def test_benchmark_tracer_sees_every_wide_train_layer(monkeypatch, tmp_path):
    # wide-train's config at its own 64 px, where block 0's MLP runs in
    # pieces of sequences and its attention in chunks of one head, on the lanes
    trace_tiny_train(monkeypatch, tmp_path, "wide-train", image_size=64)


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

"""The package's public surface: ``weightlab.__all__`` is what the README,
the command line and the acceptance suite use, and every name the benchmark
harness reaches by reflection still resolves.

The benchmark's files are only read here (parsed, never imported).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import re
import types
from pathlib import Path

import weightlab
import weightlab.cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
TESTS = Path(__file__).parent
ACCEPTANCE = (TESTS / "test_acceptance.py").read_text(encoding="utf-8")
CLI = Path(weightlab.cli.__file__).read_text(encoding="utf-8")
PERFBENCH = ROOT / "perfbench"


def _imported_from_weightlab(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "weightlab"
        for alias in node.names
    }


def _assigned(source: str, name: str) -> ast.expr:
    for node in ast.parse(source).body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"{name} is not assigned in the file")


def _assigned_literal(source: str, name: str):
    return ast.literal_eval(_assigned(source, name))


def _resolve(dotted: str) -> object:
    """``module.attr[.attr...]`` below ``weightlab``, attribute by attribute."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"weightlab.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_all_is_exactly_the_public_attributes():
    public = {
        name
        for name, value in vars(weightlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(weightlab.__all__) == len(set(weightlab.__all__))
    assert set(weightlab.__all__) == public


def test_every_export_is_used_by_the_readme_the_cli_or_the_acceptance_suite():
    for name in weightlab.__all__:
        pattern = rf"\b{re.escape(name)}\b"
        assert any(re.search(pattern, text) for text in (README, CLI, ACCEPTANCE)), name


def test_quickstart_and_acceptance_imports_are_exported():
    [quickstart] = re.findall(r"```python\n(.*?)```", README, re.S)
    wanted = _imported_from_weightlab(quickstart) | _imported_from_weightlab(ACCEPTANCE)
    assert wanted and wanted <= set(weightlab.__all__)


def test_cli_imports_from_the_computing_modules_are_exported():
    wanted = {
        alias.name
        for node in ast.parse(CLI).body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module != "serialize"
        for alias in node.names
        if not alias.name.startswith("_")
    }
    assert wanted and wanted <= set(weightlab.__all__)


# Spans that the benchmark still reads but whose function is gone, so their
# metrics read 0.  Remove a name here once the benchmark drops it.
KNOWN_STALE_SPANS = {
    "gehring.verify_sharp_rh",
    "grid.ancestor_value_matrix",
    "serialize.dump_csv",
    "tracer.layer_witnesses",
}


def _wrapped(span: str, methods: dict) -> bool:
    """Whether the recorder wraps ``span``: a method listed in ``spans.METHODS``,
    or a public function defined in the span's module."""
    module, name = span.split(".")
    if any(method == name for _, method in methods.get(module, ())):
        return True
    obj = getattr(importlib.import_module(f"weightlab.{module}"), name, None)
    return inspect.isfunction(obj) and obj.__module__ == f"weightlab.{module}"


def _perfbench_reached() -> set:
    """``module.name`` of every library name the workers and the input builder reach."""
    reached = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        reached |= set(re.findall(r"\bweightlab\.([a-z_]+\.[A-Za-z_]+)\b", source))
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("weightlab."):
                module = node.module.split(".", 1)[1]
                reached |= {f"{module}.{alias.name}" for alias in node.names}
    return reached


def _perfbench_read(spans: str) -> set:
    """Every span a counter hook or a ``module.function.*`` metric of
    ``BENCHMARK.json`` reads."""
    read = {ast.literal_eval(key) for key in _assigned(spans, "COUNTERS").keys}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for metric in benchmark["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) >= 3:  # the parallel layer is the _parallel module
            read.add(("_" if parts[0] == "parallel" else "") + ".".join(parts[:2]))
    return read


def test_benchmark_hooks_still_resolve():
    spans = (PERFBENCH / "spans.py").read_text(encoding="utf-8")
    methods = _assigned_literal(spans, "METHODS")
    for module, pairs in methods.items():
        for cls_name, method in pairs:
            assert method in vars(_resolve(f"{module}.{cls_name}")), (cls_name, method)
    for dotted in _assigned_literal(spans, "PEAK_FUNCTIONS"):
        # a module function, or a wrapped method named after its module
        module, name = dotted.split(".")
        is_method = any(method == name for _, method in methods.get(module, ()))
        assert is_method or callable(_resolve(dotted)), dotted
    # the library names the workers and the input builder reach
    reached = _perfbench_reached()
    for dotted in ("gehring.max_epsilon_empirical", "weights.TabulatedWeight",
                   "grid.DyadicGrid", "sparse.build_sparse_cz"):
        assert dotted in reached, dotted
    for dotted in reached:
        if dotted.split(".")[-1] != "__file__":
            _resolve(dotted)
    # every span a counter hook or a module.function.* metric reads is wrapped,
    # so no deletion silently zeroes a metric; the stale list can only shrink
    read = _perfbench_read(spans)
    assert KNOWN_STALE_SPANS <= read
    assert {span for span in read if not _wrapped(span, methods)} == KNOWN_STALE_SPANS


def _referenced_names(tree: ast.Module) -> dict:
    """Top-level definition name (or None) -> the names its code loads."""
    refs: dict = {}
    for node in tree.body:
        owner = getattr(node, "name", None)
        refs.setdefault(owner, set()).update(
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
        )
    return refs


def test_every_public_function_is_exported_used_or_benchmarked():
    # a public module-level function that only tests call is a second path
    # beside the one the program runs; it belongs in tests/helpers.py
    spans = (PERFBENCH / "spans.py").read_text(encoding="utf-8")
    benchmarked = _perfbench_reached() | _perfbench_read(spans)
    benchmarked |= set(_assigned_literal(spans, "PEAK_FUNCTIONS"))
    package = Path(weightlab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    refs = {module: _referenced_names(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            used = any(
                node.name in names
                for other, scopes in refs.items()
                for owner, names in scopes.items()
                if (other, owner) != (module, node.name)
            )
            if not (node.name in weightlab.__all__ or used
                    or f"{module}.{node.name}" in benchmarked):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_no_module_imports_a_private_name_of_grid_characteristics_or_sparse():
    # a name another module needs is public; a private one is the module's own
    package = Path(weightlab.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in (
                "grid", "characteristics", "sparse"
            ):
                private += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


_CROSS_REFERENCE = re.compile(r":(?:func|meth|class|mod):`~?([^`]+)`")


def _has_path(obj: object, attrs: list) -> bool:
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _resolves(target: str, module: types.ModuleType) -> bool:
    """Whether a cross-reference in ``module`` names an attribute path of the
    module, a ``weightlab.``-qualified path or a method of one of its classes."""
    parts = target.split(".")
    if parts[0] == "weightlab" and len(parts) > 1:
        try:
            return _has_path(importlib.import_module(f"weightlab.{parts[1]}"), parts[2:])
        except ModuleNotFoundError:
            return False
    classes = [value for value in vars(module).values()
               if inspect.isclass(value) and value.__module__ == module.__name__]
    return _has_path(module, parts) or any(_has_path(cls, parts) for cls in classes)


def test_docstring_cross_references_resolve():
    # a deletion takes the references to what it deletes with it
    package = Path(weightlab.__file__).parent
    checked, dangling = 0, []
    for path in sorted(package.glob("*.py")):
        name = "weightlab" if path.stem == "__init__" else f"weightlab.{path.stem}"
        module = importlib.import_module(name)
        for target in _CROSS_REFERENCE.findall(path.read_text(encoding="utf-8")):
            checked += 1
            if not _resolves(target, module):
                dangling.append(f"{path.name}: {target}")
    assert checked and dangling == []


def test_cross_reference_check_rejects_dangling_names():
    operators = importlib.import_module("weightlab.operators")
    tracer = importlib.import_module("weightlab.tracer")
    assert _resolves("weightlab.tracer.build_good_set", operators)
    assert _resolves("GoodSetResult.good_fraction", tracer)
    assert _resolves("good_fraction", tracer)  # a method of a class in the module
    assert not _resolves("equivalence_scaffold", operators)
    assert not _resolves("weightlab.operators.equivalence_scaffold", tracer)
    assert not _resolves("weightlab.no_such_module.name", tracer)


def test_every_helper_is_used():
    # a helper that no test reaches, directly or through other helpers, is
    # dead code beside the oracles in use
    helpers = ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8"))
    calls = {
        node.name: {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        for node in helpers.body
        if isinstance(node, ast.FunctionDef)
    }
    reached = set()
    for path in sorted(TESTS.glob("*.py")):
        if path.name != "helpers.py":
            reached |= set(re.findall(r"\w+", path.read_text(encoding="utf-8"))) & set(calls)
    frontier = list(reached)
    while frontier:
        for name in (calls[frontier.pop()] & set(calls)) - reached:
            reached.add(name)
            frontier.append(name)
    assert sorted(set(calls) - reached) == []

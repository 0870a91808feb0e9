"""Static checks on the package source (``ast`` only): every imported name
is used, every private module-level function, class and constant is read
somewhere in the package, every public function is exported or referenced
somewhere in the repository's code, and the scan layers sum rows without
BLAS products; and a pin of the numpy behaviour that last check relies on."""

import ast
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spapprox"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _annotation_strings(tree):
    """Names read by string annotations such as ``-> "Spectrum"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.append(node.returns)
            annotations.extend(
                a.annotation
                for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if a is not None
            )
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for ann in filter(None, annotations):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                inner = ast.parse(sub.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def _read_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_strings(tree)


@pytest.mark.parametrize("name", [p.name for p in MODULES if p.name != "__init__.py"])
def test_no_unused_imports(name):
    tree = TREES[name]
    used = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{bound} (line {node.lineno})")
    assert not unused, f"{name} imports names it never uses: {', '.join(unused)}"


def _module_names(node):
    """Names a module-level statement defines: a function or class, or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def test_private_functions_are_referenced():
    # private functions, classes and constants alike: a name counts as
    # referenced where src/ reads it (an assignment alone does not count)
    referenced = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    orphans = [
        f"{name}:{defined}"
        for name, tree in TREES.items()
        for node in tree.body
        for defined in _module_names(node)
        if defined.startswith("_") and not defined.startswith("__")
        and defined not in referenced
    ]
    assert not orphans, f"private names nothing in src/ reads: {', '.join(orphans)}"


def test_public_functions_are_exported_or_referenced():
    # a name counts as referenced where any module of src/, tests/ or
    # perfbench/ reads it, imports it or spells it as a string (the tracer
    # wraps functions by name); a definition alone does not count
    root = SRC.parents[1]
    trees = list(TREES.values()) + [
        ast.parse(path.read_text(), filename=str(path))
        for folder in ("tests", "perfbench") for path in sorted((root / folder).glob("*.py"))
    ]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    exported = {
        alias.asname or alias.name
        for node in TREES["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    orphans = [
        f"{name}:{node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in exported | referenced
    ]
    assert not orphans, f"public functions neither exported nor used: {', '.join(orphans)}"


def test_psi_classes_define_their_own_stream_and_power_sum():
    # perfbench/tracing.py wraps vars(cls)["stream"] and
    # vars(cls)["power_sum_total"] of each psi class, so neither may move
    # into the PsiSystem base class
    from spapprox import ExplicitSeqPsi, ExplicitTablePsi, PhasedPsi, ProductPsi, RadialPsi

    for cls in (ProductPsi, RadialPsi, ExplicitTablePsi, ExplicitSeqPsi, PhasedPsi):
        assert {"stream", "power_sum_total"} <= set(vars(cls)), cls.__name__


def test_traced_names_resolve():
    # perfbench/tracing.py wraps these names from outside the package; a
    # name that no longer resolves breaks traced benchmark runs
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{attr}" for mod, attr in tracing.FUNCTION_SPANS
        if not hasattr(importlib.import_module(f"spapprox.{mod}"), attr)
    ]
    methods = list(tracing.METHOD_SPANS) + [("moduli", "PhiFunction", "pow_p")]
    methods += [("psi", cls, meth) for cls in tracing.PSI_CLASSES for meth in ("stream", "power_sum_total")]
    for mod, cls, meth in methods:
        if meth not in vars(getattr(importlib.import_module(f"spapprox.{mod}"), cls, object)):
            missing.append(f"{mod}.{cls}.{meth}")
    assert not missing, f"traced names missing from spapprox: {', '.join(missing)}"


@pytest.mark.parametrize("name", ["moduli.py", "jackson.py"])
def test_scan_layers_have_no_matrix_product(name):
    # a BLAS product may round a row's sum by the row's place in the batch;
    # the scan layers sum rows with np.einsum (pinned below)
    lines = [
        node.lineno for node in ast.walk(TREES[name])
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not lines, f"{name} multiplies matrices with @ at lines {lines}"


@pytest.mark.parametrize("shape", [(190, 24), (2048, 14)])
def test_einsum_row_sums_do_not_depend_on_the_batch(shape):
    # observed on numpy 2.4.6, not a documented guarantee: np.einsum sums
    # each row of "ij,j->i" and "ij,jk->ik" in one order, so a row reads the
    # same bits alone, in a batch of 5 rows and in the whole batch
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    vec, mat = rng.standard_normal(shape[1]), rng.standard_normal((shape[1], 3))
    whole = np.einsum("ij,j->i", a, vec), np.einsum("ij,jk->ik", a, mat)
    for start in range(0, shape[0], 5):
        rows = a[start:start + 5]
        assert np.einsum("ij,j->i", rows, vec).tobytes() == whole[0][start:start + 5].tobytes()
        assert np.einsum("ij,jk->ik", rows, mat).tobytes() == whole[1][start:start + 5].tobytes()
    for i in range(shape[0]):
        row = a[i:i + 1]
        assert np.einsum("ij,j->i", row, vec).tobytes() == whole[0][i:i + 1].tobytes()
        assert np.einsum("ij,jk->ik", row, mat).tobytes() == whole[1][i:i + 1].tobytes()

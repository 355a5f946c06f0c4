"""One module per job: the symmetry matrices, the built-in models and the
eigenphases of a unitary each have one home.

Every symmetry the package applies goes through
``ProjectorFamily.act``, which skips the identity, and the untwisting
gauge through ``ProjectorFamily.twist``.  A module that fetches
``tau_power`` or ``theta_matrix``, or reads a family's ``.tau`` or
``.theta`` for more than an ``is None`` test, keeps a second copy of a
symmetry product; these tests fail first.  Likewise a module other than
``models.py`` that names a built-in model keeps a second list of them
beside ``models.BUILTINS``, and one other than ``linalg.py`` that clusters
eigenvalues keeps a second branch step beside ``linalg.unitary_phases``,
and one other than ``certify.py`` that defines a certificate function
keeps a second certificate beside the one ``report`` recomputes.  The
gap gate has one home too: only ``ProjectorFamily.grid_frames`` raises
``GapClosed``, on the worst point the torus sample keeps, and no module
but ``models.py`` reads that sample.
"""
import ast
import pathlib
import re

import blochframe
from blochframe import certify
from blochframe.models import BUILTINS

PACKAGE = pathlib.Path(blochframe.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _code_constants(tree):
    """String constants of a module's code, its docstrings left out."""
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    return [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def _called_names(tree):
    """Names of the functions a module calls, bare or as an attribute."""
    return [node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_no_module_but_models_fetches_a_symmetry_matrix():
    assert "models.py" in [path.name for path in SOURCES]
    fetches = {
        path.name: re.findall(r"\b(?:tau_power|theta_matrix)\(", path.read_text())
        for path in SOURCES
        if path.name != "models.py"
    }
    assert {name: found for name, found in fetches.items() if found} == {}


def test_no_module_but_models_reads_the_symmetry_matrices():
    reads = {
        path.name: re.findall(r"\.(?:tau|theta)\b(?!\s+is\s+(?:not\s+)?None\b)", path.read_text())
        for path in SOURCES
        if path.name != "models.py"
    }
    assert {name: found for name, found in reads.items() if found} == {}


def test_no_module_but_models_names_a_built_in_model():
    assert "haldane" in BUILTINS
    named = {
        path.name: [c for c in _code_constants(ast.parse(path.read_text())) if c in BUILTINS]
        for path in SOURCES
        if path.name != "models.py"
    }
    assert {name: found for name, found in named.items() if found} == {}


def test_no_module_but_linalg_clusters_eigenvalues():
    assert "cluster_labels" in _called_names(ast.parse((PACKAGE / "linalg.py").read_text()))
    calls = {
        path.name: [f for f in _called_names(ast.parse(path.read_text())) if f == "cluster_labels"]
        for path in SOURCES
        if path.name != "linalg.py"
    }
    assert {name: found for name, found in calls.items() if found} == {}


CERTIFICATES = {
    "final_residuals", "_trim_obstruction_defects", "reflection_defect",
    "reality_check", "localization_report", "rows", "verdict",
}


def _defined_functions(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_no_module_but_certify_defines_a_certificate():
    assert CERTIFICATES <= _defined_functions(ast.parse((PACKAGE / "certify.py").read_text()))
    defined = {
        path.name: sorted(_defined_functions(ast.parse(path.read_text())) & CERTIFICATES)
        for path in SOURCES
        if path.name != "certify.py"
    }
    assert {name: found for name, found in defined.items() if found} == {}
    assert all(callable(getattr(certify, name)) for name in CERTIFICATES)


def _stacked_norm_calls(tree):
    """Lines of ``np.linalg.norm(..., axis=(-2, -1))`` calls in a module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "norm"
            and any(kw.arg == "axis" and ast.literal_eval(kw.value) == (-2, -1)
                    for kw in node.keywords)]


def test_certificate_norms_have_one_kernel():
    """``certify.py`` and ``smoothing.py`` take every stacked Frobenius norm
    through ``frames.frobenius``; ``frames.py`` itself keeps the transport
    step's ``np.linalg.norm``, which a pointwise walk pins bit for bit."""
    assert _stacked_norm_calls(ast.parse((PACKAGE / "frames.py").read_text()))
    found = {
        name: _stacked_norm_calls(ast.parse((PACKAGE / name).read_text()))
        for name in ("certify.py", "smoothing.py")
    }
    assert found == {"certify.py": [], "smoothing.py": []}
    assert all("frobenius" in _called_names(ast.parse((PACKAGE / name).read_text()))
               for name in found)


def _raising_functions(tree, exc_name):
    """Names of the functions in a module that raise ``exc_name``."""
    def raised(node):
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(target, "id", None) or getattr(target, "attr", None)

    return [func.name for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(func)
            if isinstance(node, ast.Raise) and node.exc is not None and raised(node) == exc_name]


def test_only_the_sample_gate_raises_gap_closed():
    raised = {
        path.name: _raising_functions(ast.parse(path.read_text()), "GapClosed")
        for path in SOURCES
    }
    assert {name: found for name, found in raised.items() if found} == {
        "models.py": ["grid_frames"]}


def test_no_module_but_models_reads_the_torus_sample():
    reads = {path.name: re.findall(r"\b_torus_sample\b", path.read_text()) for path in SOURCES}
    assert reads.pop("models.py")
    assert {name: found for name, found in reads.items() if found} == {}

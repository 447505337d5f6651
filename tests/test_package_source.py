"""Checks on the package source itself: runtime checks raise real errors,
because `python -O` strips every `assert` statement, and every name the
benchmark reaches into the package for is still there."""
import ast
import importlib
from pathlib import Path

from vampcf import kernels

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vampcf"


def test_package_has_no_assert_statements():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_benchmark_tracer_finds_and_restores_every_name_it_patches(monkeypatch):
    """perfbench's tracer patches package functions by attribute and its
    runner reads ``kernels.BACKEND_NAME``: a deleted name fails here, not
    only in the next traced benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert isinstance(kernels.BACKEND_NAME, str)

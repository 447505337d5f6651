"""Checks on the package source itself: runtime checks raise real errors,
because `python -O` strips every `assert` statement, every name the
benchmark reaches into the package for is still there, and the number of
settable values is pinned."""
import argparse
import ast
import importlib
from pathlib import Path

from vampcf import cli, config, kernels

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


def test_settable_values_are_counted():
    """Defaulted function parameters, `vampcf` options and config keys. A
    new setting fails here until its change updates the pin and says why."""
    defaults = sum(
        len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = sum(len(a.option_strings) for sub in commands.values()
                  for a in sub._actions if not isinstance(a, argparse._HelpAction))
    keys = sum(len(table) for table in config.SECTIONS.values())
    assert (defaults, options, keys) == (35, 28, 16)

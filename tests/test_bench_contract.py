"""The package names that the benchmark harness in bench/ relies on.

bench/ reaches into the package by name: `bench/tracing.py` wraps the
functions in its TARGETS list, and the other scripts import what they time
or check. A rename in the package would otherwise only show when the
benchmark runs. bench/tracing.py is loaded by path; the other scripts are
only parsed, not run.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

from latentvqe import circuit, cli, optimize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def resolves(module: str, name: str) -> bool:
    """Whether `from module import name` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def package_imports(script: str) -> list[tuple[str, str]]:
    """(module, name) for every `from latentvqe[.x] import name` in bench/<script>."""
    tree = ast.parse((BENCH / script).read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "latentvqe"
            for alias in node.names]


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(m, f) for m, f in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"latentvqe.{m}"), f, None))]
    assert missing == []


def test_micro_and_checks_imports_resolve():
    names = package_imports("micro.py") + package_imports("checks.py")
    assert ("latentvqe.qae", "latent_vqe_circuit") in names
    assert ("latentvqe.optimize", "dataset_from_csv") in names
    assert [(m, n) for m, n in names if not resolves(m, n)] == []


def test_names_shared_across_modules():
    # bench/selfcheck.py asserts these identities before and after tracing
    assert optimize.apply_circuit is circuit.apply_circuit
    assert cli.staged_gate_optimize is optimize.staged_gate_optimize

"""The package names and call shapes that the benchmark harness in bench/ relies on.

bench/ reaches into the package by name: `bench/tracing.py` wraps the
functions in its TARGETS list, and every script imports what it times,
checks or runs. A rename or a signature change in the package would
otherwise only show when the benchmark runs. bench/tracing.py is loaded by
path; the scripts are only parsed, not run.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from latentvqe import circuit, cli, optimize

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_object(module: str, name: str):
    """What `from module import name` binds; ImportError if it would fail."""
    obj = getattr(importlib.import_module(module), name, None)
    return importlib.import_module(f"{module}.{name}") if obj is None else obj


def resolves(module: str, name: str | None) -> bool:
    """Whether `from module import name` (`import module` if name is None) would succeed."""
    try:
        importlib.import_module(module) if name is None else package_object(module, name)
    except ImportError:
        return False
    return True


def package_imports(script: str) -> list[tuple[str, str | None]]:
    """(module, name) for every `from latentvqe[.x] import name` in bench/<script>, and
    (module, None) for every `import latentvqe[.x]`."""
    tree = ast.parse((BENCH / script).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latentvqe":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "latentvqe"]
    return found


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(m, f) for m, f in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"latentvqe.{m}"), f, None))]
    assert missing == []


def test_bench_imports_resolve():
    names = {path.name: set(package_imports(path.name)) for path in BENCH.glob("*.py")}
    assert {("latentvqe.qae", "latent_vqe_circuit"),
            ("latentvqe.optimize", "dataset_from_csv")} <= names["micro.py"] | names["checks.py"]
    circuit_names = {"Circuit", "Gate", "Param", "apply_circuit"}
    assert {("latentvqe.circuit", n) for n in circuit_names} <= names["tracing.py"]
    assert {("latentvqe", "circuit"), ("latentvqe", "cli"), ("latentvqe", "optimize"),
            ("latentvqe.hamiltonian", "exact_ground_energy"),
            ("latentvqe.hamiltonian", "hamiltonian_for_distance")} <= names["selfcheck.py"]
    assert {("latentvqe.cli", None), ("latentvqe.cli", "main")} <= names["run.py"]
    assert sorted((script, m, n) for script, found in names.items() for m, n in found
                  if not resolves(m, n)) == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def bound_imports(scope: ast.AST) -> dict[str, tuple[str, str]]:
    """name -> (module, name) for each `from latentvqe[.x] import name` that binds in
    `scope` itself, not in a function or class defined inside it."""
    found, stack = {}, list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPES):
            continue
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latentvqe":
            found.update({alias.asname or alias.name: (node.module, alias.name)
                          for alias in node.names})
        stack.extend(ast.iter_child_nodes(node))
    return found


def package_calls(script: str) -> list[tuple[str, object, ast.Call]]:
    """(source text, callee, call) for every call in bench/<script> to a name that it
    imports from latentvqe, or to an attribute of one (`mlp.train`, `Param.ref`).

    A name resolves against the imports of the module and of each function that
    encloses the call, so a function's local import does not reach module level.
    """
    text = (BENCH / script).read_text()
    calls = []

    def visit(node: ast.AST, imported: dict) -> None:
        if isinstance(node, _SCOPES):
            imported = {**imported, **bound_imports(node)}
        func = node.func if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Name) and func.id in imported:
            calls.append((ast.get_source_segment(text, node), package_object(*imported[func.id]),
                          node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            callee = getattr(package_object(*imported[func.value.id]), func.attr)
            calls.append((ast.get_source_segment(text, node), callee, node))
        for child in ast.iter_child_nodes(node):
            visit(child, imported)

    tree = ast.parse(text)
    visit(tree, bound_imports(tree))
    return calls


def test_bench_call_shapes_bind():
    calls = [call for path in sorted(BENCH.glob("*.py")) for call in package_calls(path.name)]
    sources = [src for src, _, _ in calls]
    for shape in ("staged_gate_optimize(latent, h_next, anchor, config, bounds=box)",
                  "ParameterDataset(records, 12)", "mlp.TrainConfig(epochs=epochs)",
                  "Param.ref(0)", "exact_ground_energy(hamiltonian_for_distance(r))",
                  "main(list(step.argv))"):
        assert shape in sources
    assert any(src.startswith("QaeModel(encoder, ") for src in sources)
    unbound = []
    for src, callee, call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"{src}: {exc}")
    assert unbound == []
    # tracing.overhead_per_call times apply_circuit by handing it to a helper
    assert "cost_of(apply_circuit, state, u3, angles)" in (BENCH / "tracing.py").read_text()
    inspect.signature(circuit.apply_circuit).bind("state", "u3", "angles")


def test_batched_trash_cost_fn_returns_cost_and_gradient():
    # bench/micro.py unpacks `_, grad = _batched_trash_cost_fn(encoder, states)`
    from latentvqe.qae import ENCODER, _batched_trash_cost_fn, training_states_for

    pair = _batched_trash_cost_fn(ENCODER, training_states_for((0.5, 1.0)))
    assert isinstance(pair, tuple) and len(pair) == 2
    assert all(callable(f) for f in pair)


def test_names_shared_across_modules():
    # bench/selfcheck.py asserts these identities before and after tracing
    assert optimize.apply_circuit is circuit.apply_circuit
    assert cli.staged_gate_optimize is optimize.staged_gate_optimize

"""Span tracer that wraps the public functions at each module boundary.

`Tracer.install()` replaces each target function with a wrapper and rebinds
the name in every `latentvqe` module that imported it (for example
`optimize.apply_circuit` as well as `circuit.apply_circuit`), so calls made
through any import path are recorded. `uninstall()` restores the originals.
Wrappers only time and count: arguments and results pass through unchanged,
so tracing cannot change artifact bytes.

A span is [name, start_ns, end_ns, parent_index]. Spans stay in memory and
are written out once, at the end of the traced run. A span's self time is
its duration minus the durations of its direct children; the layer of a span
is its name's module prefix. `optimize.sweep_step_s.high` is the slowest
sweep step: a traced round makes about 20, too few for a percentile above the
median with ten samples beyond it.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, function) pairs wrapped at their module boundary.
TARGETS = (
    ("circuit", "apply_circuit"),
    ("optimize", "energy_fn"),
    ("optimize", "minimize"),
    ("optimize", "staged_gate_optimize"),
    ("optimize", "adam_minimize"),
    ("optimize", "batched_shift_gradient"),
    ("optimize", "constrained_sweep"),
    ("optimize", "optimize_vqe"),
    ("qae", "train_qae"),
    ("mlp", "train"),
    ("mlp", "loss_gradients"),
    ("mlp", "predict"),
    ("hamiltonian", "hamiltonian_for_distance"),
    ("hamiltonian", "exact_ground_energy"),
    ("statevector", "pauli_sum_matrix"),
)

STAGED_SWEEP_CAP = 10  # optimize.staged_gate_optimize stops after this many sweeps


def first_recording(cost, first: list):
    """`cost` that also keeps its first value in `first` (minimize's wrapper)."""
    def recording(x):
        value = cost(x)
        if not first:
            first.append(float(value))
        return value
    return recording


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sweep_steps_ns: list[int] = []
        self.oracle_bonds: set[float] = set()
        self._gate_counts: dict[int, tuple] = {}
        self._undo: list[tuple] = []

    # --- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _wrap(self, fn, name, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    # --- per-function hooks -----------------------------------------------

    def _gates(self, circuit):
        key = id(circuit)
        if key not in self._gate_counts:
            cnot = sum(g.kind == "CNOT" for g in circuit.gates)
            # keep the circuit alive so its id cannot be reused
            self._gate_counts[key] = (circuit, len(circuit.gates) - cnot, cnot)
        return self._gate_counts[key][1:]

    def _after_apply(self, idx, args, kwargs, result):
        amp, circuit = args[0], args[1]
        one_q, cnot = self._gates(circuit)
        columns = amp.shape[1] if amp.ndim > 1 else 1
        self.counts["gates_1q"] += one_q
        self.counts["gates_cnot"] += cnot
        self.counts["gate_apps_1q"] += one_q * columns
        self.counts["gate_apps_cnot"] += cnot * columns

    def _wrap_energy_fn(self, fn):
        build = self._wrap(fn, "optimize.energy_fn")

        @wraps(fn)
        def energy_fn(*args, **kwargs):
            return self._wrap(build(*args, **kwargs), "optimize.energy")
        return energy_fn

    def _wrap_minimize(self, fn):
        @wraps(fn)
        def minimize(cost, initial, *args, **kwargs):
            first = []
            idx = self.open("optimize.minimize")
            try:
                result = fn(first_recording(cost, first), initial, *args, **kwargs)
            finally:
                self.close(idx)
            self.counts["nm_calls"] += 1
            self.counts["nm_evals"] += result["evaluations"]
            self.counts["nm_improving"] += bool(first and result["value"] < first[0])
            return result
        return minimize

    def _after_staged(self, idx, args, kwargs, result):
        self.counts["staged_calls"] += 1
        self.counts["staged_sweeps"] += result["sweeps"]
        self.counts["staged_cap_hits"] += result["sweeps"] >= STAGED_SWEEP_CAP
        parent = self.spans[idx][3]
        if parent >= 0 and self.spans[parent][0] == "optimize.constrained_sweep":
            span = self.spans[idx]
            self.sweep_steps_ns.append(span[2] - span[1])

    def _after_adam(self, idx, args, kwargs, result):
        if self.inside("qae.train_qae"):
            self.counts["qae_restarts"] += 1
            self.counts["qae_adam_iters"] += result["evaluations"] - 1

    def _after_loss_gradients(self, idx, args, kwargs, result):
        if self.inside("mlp.train"):
            self.counts["mlp_epochs"] += 1

    def _after_oracle(self, idx, args, kwargs, result):
        self.oracle_bonds.add(float(args[0].bond_length))

    # --- install / uninstall ----------------------------------------------

    def _wrapper_for(self, module: str, func: str, fn):
        special = {
            "energy_fn": self._wrap_energy_fn,
            "minimize": self._wrap_minimize,
        }
        if func in special:
            return special[func](fn)
        after = {
            "apply_circuit": self._after_apply,
            "staged_gate_optimize": self._after_staged,
            "adam_minimize": self._after_adam,
            "loss_gradients": self._after_loss_gradients,
            "exact_ground_energy": self._after_oracle,
        }.get(func)
        return self._wrap(fn, f"{module}.{func}", after)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "latentvqe" or name.startswith("latentvqe.")]
        for module, func in TARGETS:
            original = getattr(sys.modules[f"latentvqe.{module}"], func)
            wrapper = self._wrapper_for(module, func, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    # --- reduction ----------------------------------------------------------

    def self_times(self):
        """(self_ns per span, stage root index per span)."""
        n = len(self.spans)
        child_ns = [0] * n
        root = [0] * n
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                root[i] = root[parent]
            else:
                root[i] = i
        self_ns = [s[2] - s[1] - c for s, c in zip(self.spans, child_ns)]
        return self_ns, root

    def breakdown(self) -> dict:
        """{stage span name: {"wall_s", "self_s": {layer: seconds}}} over root spans."""
        self_ns, root = self.self_times()
        out: dict = {}
        per_root: dict = defaultdict(lambda: defaultdict(int))
        for i, s in enumerate(self.spans):
            per_root[root[i]][s[0].split(".")[0]] += self_ns[i]
        for r, layers in per_root.items():
            name, t0, t1, _ = self.spans[r]
            out[name] = {"wall_s": (t1 - t0) / 1e9,
                         "self_s": {k: v / 1e9 for k, v in sorted(layers.items())}}
        return out

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times (seconds) across all recorded spans."""
        self_ns, _ = self.self_times()
        calls: Counter = Counter()
        self_by_name: Counter = Counter()
        total_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        for s, own in zip(self.spans, self_ns):
            calls[s[0]] += 1
            self_by_name[s[0]] += own
            total_by_name[s[0]] += s[2] - s[1]
            self_by_layer[s[0].split(".")[0]] += own
        c = self.counts
        gates = c["gates_1q"] + c["gates_cnot"]
        apply_self = self_by_name["circuit.apply_circuit"] / 1e9
        steps = sorted(self.sweep_steps_ns)
        oracle_calls = calls["hamiltonian.exact_ground_energy"]
        m = {
            "circuit.apply_calls": calls["circuit.apply_circuit"],
            "circuit.gate_apps_1q": c["gate_apps_1q"],
            "circuit.gate_apps_cnot": c["gate_apps_cnot"],
            "circuit.apply_self_s": apply_self,
            "circuit.us_per_gate": 1e6 * apply_self / gates if gates else 0.0,
            "statevector.pauli_sum_matrix_calls": calls["statevector.pauli_sum_matrix"],
            "statevector.self_s": self_by_layer["statevector"] / 1e9,
            "optimize.energy_evals": calls["optimize.energy"],
            "optimize.energy_fn_builds": calls["optimize.energy_fn"],
            "optimize.nm_calls": c["nm_calls"],
            "optimize.nm_evals": c["nm_evals"],
            "optimize.nm_improving_ratio": c["nm_improving"] / c["nm_calls"] if c["nm_calls"] else 0.0,
            "optimize.staged_calls": c["staged_calls"],
            "optimize.staged_sweeps_mean":
                c["staged_sweeps"] / c["staged_calls"] if c["staged_calls"] else 0.0,
            "optimize.staged_cap_hits": c["staged_cap_hits"],
            "optimize.sweep_step_s.median": statistics.median(steps) / 1e9 if steps else 0.0,
            "optimize.sweep_step_s.high": steps[-1] / 1e9 if steps else 0.0,
            "optimize.grad_calls": calls["optimize.batched_shift_gradient"],
            "optimize.grad_self_s": self_by_name["optimize.batched_shift_gradient"] / 1e9,
            "optimize.self_s": self_by_layer["optimize"] / 1e9,
            "qae.adam_iters": c["qae_adam_iters"],
            "qae.restarts_used": c["qae_restarts"],
            "qae.self_s": self_by_layer["qae"] / 1e9,
            "mlp.epochs": c["mlp_epochs"],
            "mlp.epoch_us": total_by_name["mlp.train"] / 1e3 / c["mlp_epochs"] if c["mlp_epochs"] else 0.0,
            "mlp.predict_calls": calls["mlp.predict"],
            "mlp.self_s": self_by_layer["mlp"] / 1e9,
            "hamiltonian.build_calls": calls["hamiltonian.hamiltonian_for_distance"],
            "hamiltonian.build_self_s": self_by_name["hamiltonian.hamiltonian_for_distance"] / 1e9,
            "hamiltonian.oracle_calls": oracle_calls,
            "hamiltonian.oracle_self_s": self_by_name["hamiltonian.exact_ground_energy"] / 1e9,
            "hamiltonian.oracle_reuse_ratio":
                len(self.oracle_bonds) / oracle_calls if oracle_calls else 0.0,
            "cli.self_s": self_by_layer["cli"] / 1e9,
        }
        return m

    def dump(self, path) -> None:
        """Write every span as `index,parent,name,start_ns,end_ns` CSV."""
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")


def overhead_per_call() -> dict:
    """Seconds tracing adds per span, per apply_circuit span and per NM evaluation.

    Each is the median per-call time of a traced call minus the same call
    untraced, on fixed inputs (micro.per_call_s). The difference of a traced
    and an untraced solve time would mostly measure the machine's drift.
    """
    import numpy as np

    from latentvqe.circuit import Circuit, Gate, Param, apply_circuit
    from micro import per_call_s

    def noop(*args):
        return 0.0

    t = Tracer()

    def cost_of(fn, *args):
        def call():
            fn(*args)
            if len(t.spans) > 4096:  # keep memory flat; the check runs untraced too
                t.spans.clear()
        return per_call_s(call)

    state = np.full(16, 0.25, dtype=complex)
    u3 = Circuit(4, (Gate("U3", (1,), (Param.ref(0), Param.ref(1), Param.ref(2))),), 3)
    angles = np.array([0.3, 0.7, 1.1])
    return {
        "span_s": cost_of(t._wrap(noop, "x.noop"), 1.0) - cost_of(noop, 1.0),
        "apply_span_s": (cost_of(t._wrap(apply_circuit, "circuit.apply_circuit", t._after_apply),
                                 state, u3, angles)
                         - cost_of(apply_circuit, state, u3, angles)),
        "nm_eval_s": cost_of(first_recording(noop, []), 1.0) - cost_of(noop, 1.0),
    }


def overhead_s(tracer: Tracer, per_call: dict) -> float:
    """Estimated seconds that tracing added to the traced round."""
    apply_calls = sum(s[0] == "circuit.apply_circuit" for s in tracer.spans)
    return (per_call["span_s"] * (len(tracer.spans) - apply_calls)
            + per_call["apply_span_s"] * apply_calls
            + per_call["nm_eval_s"] * tracer.counts["nm_evals"])

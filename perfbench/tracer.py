"""Outside tracer: spans around the package's public functions, added by rebinding.

`Tracer.install()` replaces each traced function in every `spinwitness` module
namespace that holds it (the package re-exports names, and `cli` and
`protocol` import them directly), wraps `QuantumState.__post_init__` as the
state-validation span, and wraps `numpy.linalg.eigh` / `eigvalsh` as eigensolve
spans.  `uninstall()` restores every binding.  No private helper is wrapped,
so refactors inside a module do not break the benchmark.

Spans live in memory as ``[name, start, end, parent, task, info]`` lists and
are written out when the run ends.  An eigensolve is charged to the layer of
its nearest traced parent, which gives the ``<layer>.eigensolve.calls`` rows.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (defining module, function name) of every traced public function.
TRACED = (
    ("cli", "main"),
    ("spin", "collective_operator"),
    ("spin", "rotate_about_z"),
    ("witness", "build_qk_direct"),
    ("witness", "build_qk_closed_form"),
    ("witness", "pos_operator"),
    ("witness", "score"),
    ("noise", "apply_depolarizing"),
    ("seesaw", "seesaw_maximize"),
    ("protocol", "run_protocol"),
    ("protocol", "run_protocol_subensembles"),
)

LAYERS = ("cli", "spin", "witness", "states", "noise", "seesaw", "protocol")
EIGENSOLVE = "linalg.eigensolve"
VALIDATE = "states.validate"
_MARK = "__perfbench_original__"


def _describe_depolarizing(args, kwargs, result):
    model = kwargs["model"] if "model" in kwargs else args[1]
    return model.kind


def _describe_validate(args, kwargs, result):
    return "rho" if args[0].rho is not None else "ket"


def _describe_seesaw(args, kwargs, result):
    return [result.iterations, result.converged]


def _describe_protocol(args, kwargs, result):
    return result.rounds


def _describe_eigensolve(args, kwargs, result):
    return int(args[0].shape[-1])


_DESCRIBE = {
    "noise.apply_depolarizing": _describe_depolarizing,
    "seesaw.seesaw_maximize": _describe_seesaw,
    "protocol.run_protocol": _describe_protocol,
    "protocol.run_protocol_subensembles": _describe_protocol,
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = -1  # the benchmark sets this before each task
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, describe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if describe is not None:
                record[5] = describe(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _rebind(self, owner, attr, wrapper):
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import numpy

        for module_name, _ in TRACED:
            importlib.import_module(f"spinwitness.{module_name}")
        from spinwitness.states import QuantumState

        modules = [m for n, m in list(sys.modules.items()) if n == "spinwitness" or n.startswith("spinwitness.")]
        for module_name, func_name in TRACED:
            original = getattr(sys.modules[f"spinwitness.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = self._wrap(name, original, _DESCRIBE.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)
        post_init = QuantumState.__post_init__
        self._rebind(QuantumState, "__post_init__", self._wrap(VALIDATE, post_init, _describe_validate))
        for attr in ("eigh", "eigvalsh"):
            solver = getattr(numpy.linalg, attr)
            self._rebind(numpy.linalg, attr, self._wrap(EIGENSOLVE, solver, _describe_eigensolve))

    def uninstall(self) -> None:
        while self._bindings:
            owner, attr, original = self._bindings.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "task": task, "info": info}) + "\n")


def leftover_wrappers() -> list[str]:
    """Names of bindings that still point at a tracer wrapper (empty after uninstall)."""
    import numpy
    from spinwitness.states import QuantumState

    owners = [(n, m) for n, m in list(sys.modules.items()) if n == "spinwitness" or n.startswith("spinwitness.")]
    owners += [("numpy.linalg", numpy.linalg), ("QuantumState", QuantumState)]
    return [f"{name}.{attr}" for name, owner in owners for attr, value in list(vars(owner).items())
            if hasattr(value, _MARK)]


def _self_times(spans):
    durations = [end - start for _, start, end, _, _, _ in spans]
    selfs = list(durations)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            selfs[span[3]] -= durations[i]
    return durations, selfs


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat in ("s", "self_s", "layer_s"):
        return "s"
    if stat in ("converged_frac", "overhead_frac"):
        return "ratio"
    if stat == "rounds_per_s":
        return "1/s"
    return "count"


def layer_of(span) -> str:
    return span[0].split(".", 1)[0]


def per_layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the benchmark's per-layer metrics (name -> value)."""
    durations, selfs = _self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for span, d, s in zip(spans, durations, selfs):
        calls[span[0]] = calls.get(span[0], 0) + 1
        total[span[0]] = total.get(span[0], 0.0) + d
        own[span[0]] = own.get(span[0], 0.0) + s

    m: dict[str, float] = {}
    layer_s = dict.fromkeys(LAYERS, 0.0)
    solves = dict.fromkeys(LAYERS, 0)
    solve_dims = []
    depolarize_self = {"global": 0.0, "local": 0.0}
    seesaw_runs = []
    rounds = 0
    validate_rho = 0
    for span, d, s in zip(spans, durations, selfs):
        name = span[0]
        if name == EIGENSOLVE:
            solve_dims.append(span[5])
            if span[3] >= 0:
                owner = layer_of(spans[span[3]])
                layer_s[owner] += d
                solves[owner] += 1
            continue
        layer_s[layer_of(span)] += s
        if name == "noise.apply_depolarizing":
            depolarize_self[span[5]] += s
        elif name == "seesaw.seesaw_maximize":
            seesaw_runs.append(span[5])
        elif name.startswith("protocol.run_protocol"):
            rounds += span[5]
        elif name == VALIDATE and span[5] == "rho":
            validate_rho += 1

    def stat(fn, *stats):
        for st in stats:
            src = {"calls": calls, "s": total, "self_s": own}[st]
            m[f"{fn}.{st}"] = src.get(fn, 0)

    stat("seesaw.seesaw_maximize", "calls", "s", "self_s")
    m["seesaw.iterations"] = sum(it for it, _ in seesaw_runs)
    m["seesaw.converged_frac"] = sum(c for _, c in seesaw_runs) / len(seesaw_runs) if seesaw_runs else 0.0
    stat("witness.build_qk_direct", "calls", "s")
    stat("witness.pos_operator", "calls", "self_s")
    stat("witness.build_qk_closed_form", "s")
    stat("witness.score", "calls", "s")
    m["linalg.eigensolve.calls"] = len(solve_dims)
    m["linalg.eigensolve.s"] = total.get(EIGENSOLVE, 0.0)
    m["linalg.eigensolve.max_dim"] = max(solve_dims, default=0)
    m["linalg.eigensolve.dim3"] = sum(n**3 for n in solve_dims)
    stat("spin.collective_operator", "calls", "s")
    stat("spin.rotate_about_z", "s")
    stat(VALIDATE, "calls", "s")
    m["states.validate.rho_calls"] = validate_rho
    m["noise.apply_depolarizing.global.self_s"] = depolarize_self["global"]
    m["noise.apply_depolarizing.local.self_s"] = depolarize_self["local"]
    stat("noise.apply_depolarizing", "calls")
    stat("protocol.run_protocol", "calls", "s")
    stat("protocol.run_protocol_subensembles", "calls", "s")
    m["protocol.rounds"] = rounds
    protocol_s = total.get("protocol.run_protocol", 0.0) + total.get("protocol.run_protocol_subensembles", 0.0)
    m["protocol.rounds_per_s"] = rounds / protocol_s if protocol_s > 0 else 0.0
    stat("cli.main", "calls", "self_s")
    for layer in ("witness", "spin", "states", "seesaw", "protocol"):
        m[f"{layer}.eigensolve.calls"] = solves[layer]
    for layer in LAYERS:
        m[f"{layer}.layer_s"] = layer_s[layer]
    return m

"""Per-layer tracing for the traced benchmark run.

The tracer wraps the public functions of each symext layer in spans and wraps
numpy's dense factorizations in counters. It lives entirely in the benchmark:
nothing under ``src/`` knows about it. Spans are aggregated as they close
(calls and self time per function) rather than stored one by one.

Wrapping has to patch every module namespace that binds a wrapped function,
because the layers import each other with ``from .cayley import defect_data``:
patching ``symext.cayley`` alone would leave ``symext.neumann.defect_data``
pointing at the original. ``restore`` puts every original binding back, and
``installed_wrappers`` lets an untraced run prove that none is left.
"""

import contextlib
import functools
import math
import sys
import time
from collections import Counter

import numpy as np
import numpy.linalg

# The layers and their public functions, in dependency order.
LAYERS = {
    "subspaces": ("orthonormalize", "Subspace.complement", "Subspace.intersect"),
    "operators": ("is_symmetric", "is_injective", "operator_from_generators",
                  "inverse_op", "graph_contains"),
    "cayley": ("defect_data", "forbidden_operator", "is_admissible"),
    "neumann": ("extend", "recover_parameter"),
    "invertibility": ("check_invertibility", "build_invertible_selfadjoint"),
    "resolvents": ("compressed_resolvent", "frak_f", "frak_b", "script_l",
                   "shtraus_resolvent", "i_admissibility_test"),
    "checks": ("run_suite",),
    "serialize": ("json_dump", "chain_file", "load_operator",
                  "decode_embedded_extension"),
    "cli": ("cmd_gen", "cmd_build_sa", "cmd_resolvent", "cmd_verify"),
}

# numpy.linalg function -> counter it feeds. ``inv`` is an LU solve against the
# identity and counts as a solve; ``qr`` only feeds the flop estimate.
FACTORIZATIONS = {"svd": "svd_calls", "eigh": "eigh_calls", "eigvalsh": "eigh_calls",
                  "lstsq": "lstsq_calls", "solve": "solve_calls", "inv": "solve_calls",
                  "qr": None}
MODULE_COUNTERS = ("svd_calls", "eigh_calls", "lstsq_calls", "solve_calls",
                   "flops_computed", "errors")

CHAIN_BUILDER = ("invertibility", "build_invertible_selfadjoint")
EXTEND = ("neumann", "extend")
JSON_DUMP = ("serialize", "json_dump")

_MARK = "_perfbench_wrapper"


def _linalg_namespaces():
    """numpy.linalg and the private module whose globals numpy's own code uses.

    ``np.linalg.norm(m, 2)`` of a matrix calls ``svd`` through the private
    module's globals, so that binding is patched too: a matrix 2-norm is an SVD.
    """
    spaces = [numpy.linalg]
    for private in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        mod = sys.modules.get(private)
        if mod is not None and hasattr(mod, "svd"):
            spaces.append(mod)
            break
    return spaces


def _symext_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "symext" or name.startswith("symext."))]


def factorization_flops(name, args, kwargs) -> int:
    """Real flops of one LAPACK call, computed from the operand shapes.

    Standard dense counts (Golub and Van Loan), times 4 for complex operands,
    times the number of stacked matrices. This is an estimate computed from
    shapes, not a hardware count.
    """
    a = np.asarray(args[0])
    if a.ndim < 2:
        return 0
    m, n = a.shape[-2:]
    big, k = max(m, n), min(m, n)
    batch = math.prod(a.shape[:-2])
    scale = 4 if np.iscomplexobj(a) else 1

    def arg(pos, key, default):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(key, default)

    def rhs_cols():
        b = np.asarray(arg(1, "b", np.zeros((m, 1))))
        return 1 if b.ndim < 2 else b.shape[-1]

    if name == "svd":
        if not arg(2, "compute_uv", True):
            flops = 4 * big * k * k - 4 * k ** 3 / 3
        elif arg(1, "full_matrices", True):
            flops = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
        else:
            flops = 14 * big * k * k + 8 * k ** 3
    elif name == "eigh":
        flops = 9 * n ** 3
    elif name == "eigvalsh":
        flops = 4 * n ** 3 / 3
    elif name == "lstsq":
        flops = 4 * big * k * k - 4 * k ** 3 / 3 + 2 * m * n * rhs_cols()
    elif name == "solve":
        flops = 2 * n ** 3 / 3 + 2 * n * n * rhs_cols()
    elif name == "inv":
        flops = 2 * n ** 3
    else:  # qr with the explicit Q
        flops = 8 * big * k * k - 8 * k ** 3 / 3
    return int(round(flops * scale * batch))


class Tracer:
    """Spans around symext layer functions plus per-layer factorization counts."""

    def __init__(self):
        self._stack = []          # open spans: [key, start_ns, child_ns]
        self._patches = []        # (namespace, attribute, original)
        self._last_error = None
        self.active = True
        self.calls = Counter()    # (module, function) -> calls
        self.self_ns = Counter()  # (module, function) -> self time
        self.counts = Counter()   # (module, counter) -> value
        self.chain_steps = 0
        self.chain_extends = 0
        self.json_bytes = 0

    # -- spans -------------------------------------------------------------

    def _enter(self, key):
        if key == EXTEND and any(frame[0] == CHAIN_BUILDER for frame in self._stack):
            self.chain_extends += 1
        self._stack.append([key, time.perf_counter_ns(), 0])

    def _exit(self, result=None, error=None):
        key, start, child = self._stack.pop()
        duration = time.perf_counter_ns() - start
        self.calls[key] += 1
        self.self_ns[key] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if error is not None:
            if error is not self._last_error:
                # counted once, in the innermost span it escaped from
                self._last_error = error
                self.counts[(key[0], "errors")] += 1
        elif key == CHAIN_BUILDER:
            self.chain_steps += len(result.steps)
        elif key == JSON_DUMP:
            self.json_bytes += len(result.encode("utf-8"))

    def _span(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(error=exc)
                raise
            tracer._exit(result=result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _counter(self, name, fn):
        tracer = self
        counter = FACTORIZATIONS[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active and tracer._stack:
                module = tracer._stack[-1][0][0]
                if counter is not None:
                    tracer.counts[(module, counter)] += 1
                tracer.counts[(module, "flops_computed")] += factorization_flops(
                    name, args, kwargs)
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation --------------------------------------------------------

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def install(self):
        """Wrap every binding of the layer functions and the factorizations."""
        import symext.cli  # noqa: F401  (loads every layer module)
        modules = _symext_modules()
        for module_name, functions in LAYERS.items():
            home = sys.modules[f"symext.{module_name}"]
            for function in functions:
                key = (module_name, function)
                if "." in function:
                    cls_name, method = function.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, method, self._span(key, vars(cls)[method]))
                    continue
                original = getattr(home, function)
                wrapper = self._span(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for name in FACTORIZATIONS:
            original = getattr(numpy.linalg, name)
            wrapper = self._counter(name, original)
            for space in _linalg_namespaces():
                if getattr(space, name, None) is original:
                    self._patch(space, name, wrapper)

    def restore(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, every name present even when its count is 0."""
        out = {}
        for module_name, functions in LAYERS.items():
            for function in functions:
                key = (module_name, function)
                out[f"{module_name}.{function}.calls"] = (self.calls[key], "count")
                out[f"{module_name}.{function}.self_ms"] = (self.self_ns[key] / 1e6, "ms")
        for module_name in LAYERS:
            for counter in MODULE_COUNTERS:
                unit = "flop" if counter == "flops_computed" else "count"
                out[f"{module_name}.{counter}"] = (self.counts[(module_name, counter)], unit)
        per_step = self.chain_extends / self.chain_steps if self.chain_steps else 0.0
        out["invertibility.chain.steps"] = (self.chain_steps, "count")
        out["invertibility.chain.extend_per_step"] = (per_step, "ratio")
        out["serialize.json_dump.bytes"] = (self.json_bytes, "B")
        return out


def installed_wrappers() -> list:
    """Every symext or numpy.linalg binding that still holds a tracing wrapper."""
    found = []
    spaces = _symext_modules() + _linalg_namespaces()
    spaces += [getattr(mod, "Subspace") for mod in spaces if hasattr(mod, "Subspace")]
    for space in spaces:
        for attr, value in list(vars(space).items()):
            if getattr(value, _MARK, False):
                found.append(f"{getattr(space, '__name__', space)}.{attr}")
    return sorted(set(found))

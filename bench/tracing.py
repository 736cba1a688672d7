"""Run-time tracing of rigidlin's layers, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
module, and rebinds every name under which another rigidlin module (or
the package itself) imported them, so calls made inside the library are
traced too.  A span stack gives each layer its self time: a span's
duration minus the time its child spans cover.  Generators are traced
per item, each ``next`` being one span.  ``uninstall`` restores every
original binding.

Counts repeat exactly from run to run.  Times are indicative: the wrapper
itself costs about a microsecond per call, and for the ring layer, whose
operations are often cheaper than that, this cost is inside its self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("rings", "matrix", "normal_forms", "groups", "witnesses", "suites")

RING_OPS = ("add", "mul", "neg", "sub", "divmod", "exact_div")
MATRIX_METHODS = ("__init__", "__matmul__", "det", "inverse", "apply")

# Functions sharing a key are one kind of call: a key is counted and timed
# only at its outermost span, so evaluate_word -> GeneratorWord.evaluate is
# one word evaluation and nested streams yield each vector once.
KEYS = {
    "Matrix.__init__": "build",
    "Matrix.__matmul__": "matmul",
    "hermite_normal_form": "hnf",
    "smith_normal_form": "snf",
    "kernel_basis": "kernel",
    "solution_stream": "stream",
    "combination_stream": "stream",
    "annihilating_functionals": "stream",
    "principal_kernel_family": "stream",
    "evaluate_word": "word_eval",
    "GeneratorWord.evaluate": "word_eval",
    "GeneratorWord.token_matrix": "generator",
    "elementary_matrix": "generator",
    "unitary_generator": "generator",
    "StabilizerContext.__init__": "context",
    "conjugate_by_stabilizer": "conjugate",
    "run_suite": "run",
}

# Verified witnesses: returned by these calls or yielded by these streams.
EMITTERS = {
    "intersection_witnesses",
    "block_unipotent_witnesses",
    "conjugate_by_stabilizer",
    "transvection",
    "transvection_short",
}


class Tracer:
    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.stack: list[list[float]] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.items: Counter = Counter()
        self.det_seen: set = set()
        self.emitted = 0
        self.mul_len_total = 0
        self.max_len = 0

    # -- wrapping -------------------------------------------------------------
    def _wrap_ring_op(self, fn, name: str):
        """A lean wrapper: ring operations are the most frequent calls and
        never nest inside themselves.  The operand length of mul and divmod
        is the number of coefficients of a polynomial, or of 64-bit words
        of an integer."""
        key = f"rings.{name}"
        tracer = self
        stack, calls, self_s = self.stack, self.calls, self.self_s
        clock = time.perf_counter
        measure = name in ("mul", "divmod")

        def wrapper(*args):
            if measure:
                x, y = args[1], args[2]
                a = len(x) if type(x) is tuple else (x.bit_length() + 63) >> 6
                b = len(y) if type(y) is tuple else (y.bit_length() + 63) >> 6
                if name == "mul":
                    tracer.mul_len_total += a + b
                if a > tracer.max_len or b > tracer.max_len:
                    tracer.max_len = max(a, b)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args)
            finally:
                duration = clock() - start
                stack.pop()
                self_s["rings"] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                calls[key] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, fn, layer: str, qualname: str):
        key = f"{layer}.{KEYS.get(qualname, qualname.rsplit('.', 1)[-1])}"
        emits = qualname in EMITTERS
        is_det = layer == "matrix" and qualname.endswith(".det")
        tracer = self
        stack, depth, self_s, inclusive = self.stack, self.depth, self.self_s, self.inclusive
        clock = time.perf_counter

        def span(call, *args, **kwargs):
            """Run call as a span; returns (result, outermost for its key)."""
            frame = [0.0]
            stack.append(frame)
            level = depth[key]
            depth[key] = level + 1
            start = clock()
            try:
                return call(*args, **kwargs), level == 0
            finally:
                duration = clock() - start
                stack.pop()
                depth[key] = level
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if level == 0:
                    inclusive[key] += duration

        def traced_items(gen):
            while True:
                try:
                    item, outermost = span(next, gen)
                except StopIteration:
                    return
                if outermost:
                    tracer.items[key] += 1
                if emits:
                    tracer.emitted += 1
                yield item

        def wrapper(*args, **kwargs):
            if is_det:
                tracer.det_seen.add(hash(args[0]))
            try:
                result, outermost = span(fn, *args, **kwargs)
            except BaseException:
                if depth[key] == 0:
                    tracer.calls[key] += 1
                raise
            if outermost:
                tracer.calls[key] += 1
            if inspect.isgenerator(result):
                return traced_items(result)
            if emits:
                tracer.emitted += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, name: str, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self, package):
        """Wrap every layer of an imported rigidlin package."""
        prefix = package.__name__
        originals: dict[int, object] = {}
        for layer in LAYERS:
            if layer == "rings":
                continue  # the ring classes are wrapped below
            module = sys.modules[f"{prefix}.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if layer == "matrix":
                        continue  # traced through the Matrix methods alone
                    wrapped = self._wrap(value, layer, name)
                    originals[id(value)] = wrapped
                    self._patch(module, name, wrapped)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
        # rings: the ring classes, including private bases such as the
        # polynomial base class that defines add/mul for Fp[x] and Z[x]
        rings = sys.modules[f"{prefix}.rings"]
        for value in list(vars(rings).values()):
            if inspect.isclass(value) and issubclass(value, rings.Ring):
                for op in RING_OPS:
                    if op in vars(value):
                        self._patch(value, op, self._wrap_ring_op(vars(value)[op], op))
        # rebind the names other modules imported
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == prefix or module_name.startswith(prefix + ".")):
                continue
            for name, value in list(vars(module).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._patch(module, name, wrapped)

    def _wrap_class(self, cls, layer: str):
        names = MATRIX_METHODS if layer == "matrix" else [
            n for n in vars(cls) if not n.startswith("_") or n == "__init__"
        ]
        for name in names:
            fn = vars(cls).get(name)
            if inspect.isfunction(fn):
                self._patch(cls, name, self._wrap(fn, layer, f"{cls.__name__}.{name}"))

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer metrics of everything this tracer has traced."""
        c, t = self.calls, self.inclusive
        ring_calls = sum(n for k, n in c.items() if k.startswith("rings."))
        det_calls = c["matrix.det"]
        return {
            "rings.calls": ring_calls,
            "rings.mul_calls": c["rings.mul"],
            "rings.divmod_calls": c["rings.divmod"],
            "rings.self_s": self.self_s["rings"],
            "rings.mul_operand_len": self.mul_len_total / (2 * c["rings.mul"]) if c["rings.mul"] else 0.0,
            "rings.max_operand_len": self.max_len,
            "matrix.det_calls": det_calls,
            "matrix.det_distinct_ratio": len(self.det_seen) / det_calls if det_calls else 0.0,
            "matrix.det_s": t["matrix.det"],
            "matrix.inverse_calls": c["matrix.inverse"],
            "matrix.inverse_s": t["matrix.inverse"],
            "matrix.matmul_calls": c["matrix.matmul"],
            "matrix.matmul_s": t["matrix.matmul"],
            "matrix.checked_builds": c["matrix.build"],
            "matrix.self_s": self.self_s["matrix"],
            "normal_forms.hnf_calls": c["normal_forms.hnf"],
            "normal_forms.snf_calls": c["normal_forms.snf"],
            "normal_forms.kernel_calls": c["normal_forms.kernel"],
            "normal_forms.hnf_s": t["normal_forms.hnf"],
            "normal_forms.snf_s": t["normal_forms.snf"],
            "normal_forms.kernel_s": t["normal_forms.kernel"],
            "normal_forms.stream_vectors": self.items["normal_forms.stream"],
            "normal_forms.stream_s": t["normal_forms.stream"],
            "normal_forms.self_s": self.self_s["normal_forms"],
            "groups.word_evals": c["groups.word_eval"],
            "groups.generator_calls": c["groups.generator"],
            "groups.preserves_form_calls": c["groups.preserves_form"],
            "groups.preserves_form_s": t["groups.preserves_form"],
            "groups.self_s": self.self_s["groups"],
            "witnesses.contexts": c["witnesses.context"],
            "witnesses.context_s": t["witnesses.context"],
            "witnesses.emitted": self.emitted,
            "witnesses.conjugate_calls": c["witnesses.conjugate"],
            "witnesses.conjugate_s": t["witnesses.conjugate"],
            "witnesses.self_s": self.self_s["witnesses"],
            "suites.run_s": t["suites.run"],
            "suites.self_s": self.self_s["suites"],
        }

"""In-memory spans around calls into overlap_lab's public functions.

``Tracer.install`` replaces each traced function wherever a module of the
package binds it (its own module, modules that imported it by name, and the
package namespace), so nested calls record their parent span.  Nothing under
``src/`` is changed on disk; ``uninstall`` restores the originals.

It also counts what the lab computes (``counts``): ``rng`` generators made
by ``numpy.random.default_rng`` (one per disorder sample, by the lab's seeding
contract) and ``gibbs`` Gibbs measures computed, one per ``lab._softmax``
call and one per row of a ``lab._softmax_last`` call (a quadrature grid).
"""

from __future__ import annotations

import functools
import json
import time

#: Traced public functions, by defining module.
TRACED = {
    "graphs": ("canonicalize",),
    "operators": ("delta", "wick_contract", "big_delta", "theorem_verify", "apply_word"),
    "exprio": ("parse_monomial", "parse_polynomial", "format_monomial",
               "format_polynomial", "as_jsonable"),
    "lab": ("identity_check", "wick_baseline_check", "deformed_expectation",
            "quadrature_expectation", "sk_model", "ea_model"),
}


class Tracer:
    def __init__(self, package):
        self._package = package
        self._modules = [package] + [
            getattr(package, name) for name in ("graphs", "operators", "exprio", "lab", "cli")
        ]
        self.names: list[str] = []
        # One span per call: [name index, start, end, parent span index or -1].
        self.spans: list[list] = []
        self.wick_inputs: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.counts = {"rng": 0, "gibbs": 0}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        wick_inputs = self.wick_inputs if name == "operators.wick_contract" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wick_inputs is not None and args and hasattr(args[0], "items"):
                wick_inputs.update(g for g, _ in args[0].items())
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _count(self, key: str, fn, per_call):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += per_call(*args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import numpy.random  # loaded by the lab already; not by untraced passes

        lab = self._package.lab
        counted = [(numpy.random, "default_rng", "rng", lambda *a: 1),
                   (lab, "_softmax", "gibbs", lambda x: 1),
                   (lab, "_softmax_last", "gibbs", lambda x: x.size // x.shape[-1])]
        for module, attr, key, per_call in counted:
            original = getattr(module, attr)
            setattr(module, attr, self._count(key, original, per_call))
            self._patched.append((module, attr, original))
        wrappers = {}
        for mod_name, fn_names in TRACED.items():
            module = getattr(self._package, mod_name)
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                self.originals[f"{mod_name}.{fn_name}"] = original
                wrappers[id(original)] = self._wrap(f"{mod_name}.{fn_name}", original)
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, start: int, stop: int) -> dict:
        """Per function: total seconds and self seconds (span minus the time
        its direct children cover), over spans[start:stop]; plus the seconds
        covered by top-level spans."""
        child_time = [0.0] * (stop - start)
        top = 0.0
        for span in self.spans[start:stop]:
            dur = span[2] - span[1]
            parent = span[3]
            if parent >= start:
                child_time[parent - start] += dur
            elif parent == -1:
                top += dur
        out: dict[str, dict] = {}
        for k, span in enumerate(self.spans[start:stop]):
            row = out.setdefault(self.names[span[0]], {"s": 0.0, "self_s": 0.0})
            dur = span[2] - span[1]
            row["s"] += dur
            row["self_s"] += dur - child_time[k]
        return {"functions": out, "top_level_s": top}

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name_id, t0, t1, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], t0, t1, parent]) + "\n")

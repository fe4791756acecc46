"""Span recorder that wraps opzeta's public functions from outside the package.

`Tracer.install()` replaces every public module-level function of each layer
module with a wrapper that records one span per call: the op it belongs to,
the function, the span that called it, start, end and self time (duration
minus the time covered by its child spans). The wrapper is installed on the
defining module and on every other opzeta module or module-level dict that
holds the same function object, so names imported directly (`cli` imports
`pipoly_eval`, `bernoulli_number`, `euler_number`, `taylor_flow`,
`parity_anomaly` and `apply_recip_gamma_op`; `specfun` imports the number
generators) are traced too.

Spans stay in memory, packed into one float array, and are summarised once
at the end. Recursive functions (`bernoulli_number`, `euler_number`) record a
span per call, so call counts include recursion; inclusive time is summed
over outermost spans only, and self time is disjoint by construction, so no
interval is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

LAYERS = ("cli", "registry", "operators", "series", "specfun", "exactnum", "divmatrix")

# per-call work counts taken from a traced function's result
COUNTS = {"divmatrix.build_matrix": lambda result: result.nnz}

_FIELDS = 8  # op, span id, function id, parent span id, start, end, self, outermost


class Tracer:
    def __init__(self):
        self.op = 0
        self.names: list[str] = []
        self.spans = array("d")
        self.counts: dict[str, list[float]] = {name: [] for name in COUNTS}
        self._stack: list[list] = []
        self._depth: list[int] = []
        self._next_id = 0

    def install(self) -> None:
        modules = [importlib.import_module(f"opzeta.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("opzeta"), *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        stack, depth, spans = self._stack, self._depth, self.spans
        count = COUNTS.get(name)
        sink = self.counts.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            outer = depth[fid] == 0
            depth[fid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[fid] -= 1
                stack.pop()
                duration = t1 - t0
                if parent is not None:
                    parent[1] += duration
                spans.extend((self.op, span_id, fid, -1 if parent is None else parent[0],
                              t0, t1, duration - frame[1], outer))
            if count is not None:
                sink.append(count(result))
            return result

        return traced

    def summary(self) -> dict:
        """{'functions': {name: [calls, outermost calls, outermost seconds,
        self seconds]}, 'counts': {name: [value per call]}}."""
        stats = {name: [0, 0, 0.0, 0.0] for name in self.names}
        s = self.spans
        for i in range(0, len(s), _FIELDS):
            row = stats[self.names[int(s[i + 2])]]
            row[0] += 1
            row[3] += s[i + 6]
            if s[i + 7]:
                row[1] += 1
                row[2] += s[i + 5] - s[i + 4]
        return {"functions": stats, "counts": self.counts}


def merge(summaries: list[dict]) -> dict:
    functions: dict[str, list] = {}
    counts: dict[str, list] = {}
    for summ in summaries:
        for name, row in summ["functions"].items():
            acc = functions.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, values in summ["counts"].items():
            counts.setdefault(name, []).extend(values)
    return {"functions": functions, "counts": counts}

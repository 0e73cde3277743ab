"""Per-layer tracing of the dualspace modules, installed from the benchmark.

A ``Tracer`` wraps, at run time, every public function and every
dataclass constructor defined in the six library modules.  ``install``
rebinds each name under which a ``dualspace`` module refers to a wrapped
function (``from .embeddings import p_embed`` in ``verify`` and ``cli``
included), so calls between modules are seen as well.  The library's
files are not edited; ``uninstall`` restores every original binding.

Each call becomes a span (sequence number, name, start, end, parent
sequence number, op id) kept in memory in flat arrays, together with
running totals of calls and self time (the span minus its child spans)
per name.  ``write`` stores the spans as JSON lines when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import subprocess
import sys
import time
from array import array

LAYERS = ("numkernel", "spaces", "lattice", "embeddings", "verify", "cli")


class Tracer:
    """Wrappers for the library modules, built once; ``install`` and
    ``uninstall`` switch them on and off, so traced and untraced ops can
    alternate in one process.  The library modules must be imported first."""

    def __init__(self):
        self.names = []    # name id -> "layer.function"
        self.calls = []    # name id -> number of calls
        self.self_s = []   # name id -> self time in seconds
        self.op = -1       # id of the op in progress, set by the caller
        self._seq = 0
        self._stack = []   # open spans: [sequence number, seconds spent in children]
        self._spans = {key: array(code) for key, code in
                       (("seq", "q"), ("name", "i"), ("start", "d"),
                        ("end", "d"), ("parent", "q"), ("op", "q"))}
        self._bindings = []  # (owner, attribute, original, wrapper)
        self._build()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, fn, nid: int):
        tracer = self
        stack = self._stack
        spans = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            tracer._seq += 1
            frame = [tracer._seq, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[nid] += 1
                tracer.self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans["seq"].append(frame[0])
                spans["name"].append(nid)
                spans["start"].append(start)
                spans["end"].append(end)
                spans["parent"].append(parent)
                spans["op"].append(tracer.op)

        return traced

    def _build(self):
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules["dualspace." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, self._name_id(f"{layer}.{attr}"))
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    init = obj.__init__
                    wrapper = self._wrap(init, self._name_id(f"{layer}.{attr}"))
                    self._bindings.append((obj, "__init__", init, wrapper))
        for name, mod in list(sys.modules.items()):
            if name != "dualspace" and not name.startswith("dualspace."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._bindings.append((mod, attr, obj, wrapped[obj]))

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    @property
    def span_count(self) -> int:
        return len(self._spans["seq"])

    def per_op(self, ops: int) -> dict:
        """{name: (calls per op, self ms per op)} over ``ops`` traced ops."""
        return {name: (self.calls[i] / ops, self.self_s[i] * 1e3 / ops)
                for i, name in enumerate(self.names)}

    def write(self, path):
        """JSON lines: a header with the span fields and names, then one array per span."""
        cols = [self._spans[k] for k in ("seq", "name", "start", "end", "parent", "op")]
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["seq", "name", "start", "end", "parent", "op"],
                                 "names": self.names}) + "\n")
            for row in zip(*cols):
                fh.write("[%d,%d,%.9f,%.9f,%d,%d]\n" % row)


def import_ms(env: dict) -> dict:
    """Self import time in ms of numpy, scipy and dualspace, summed over each
    package's modules, from one ``python -X importtime`` start of the CLI."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dualspace.cli"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"importing dualspace.cli failed:\n{proc.stderr[-2000:]}")
    totals = {"numpy": 0.0, "scipy": 0.0, "dualspace": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, package = line[len("import time:"):].split("|")
        root = package.strip().split(".")[0]
        if root in totals:
            totals[root] += int(self_us) / 1e3
    return totals

"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of the layer modules in
the module that defines it, and rebinds every ``opapprox`` module
attribute that refers to the same object (the modules import each other's
functions with ``from .linalg import pinv``, so patching only the defining
module would miss most internal calls).  Dataclasses with a
``__post_init__`` hook are timed through that hook, which counts their
validating constructions.  ``uninstall`` puts every original back.

Each call records a span (name, start, end, parent span, manifest id) in
memory; ``write_spans`` dumps them at the end.  Statistics per span name:

* ``calls``: exact count;
* ``s``: inclusive time, counted once per outermost activation;
* ``self_s``: the span minus the spans of wrapped functions it called.

Two functions get extra counters, computed outside their own span: for
``linalg.svd_with_rank`` the computed flop count of a full complex SVD and
the number of distinct input matrices per manifest; for the Matrix Market
reader and writer the bytes of the file.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer name -> defining module; oracles is left out on purpose, it is the
# correctness check's, not the program's
LAYERS = {
    "manifest": "opapprox.manifest",
    "cli": "opapprox.cli",
    "wls": "opapprox.wls",
    "spline": "opapprox.spline",
    "smoothing": "opapprox.smoothing",
    "shorted": "opapprox.shorted",
    "schatten": "opapprox.schatten",
    "linalg": "opapprox.linalg",
}


def svd_flops(shape) -> int:
    """Computed flops of a full complex SVD with both factors (Golub-Van Loan
    4m^2n + 8mn^2 + 9n^3 for m >= n, times four for complex arithmetic).
    An integer, so that sums repeat exactly between runs."""
    m, n = max(shape), min(shape)
    return 4 * (4 * m * m * n + 8 * m * n * n + 9 * n**3)


def _svd_extra(tracer, args, kwargs):
    matrix = args[0] if args else kwargs["M"]
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype=complex)))
    digest = hashlib.blake2b(a.tobytes() + repr(a.shape).encode(), digest_size=16).digest()
    stats = tracer.stats["linalg.svd_with_rank"]
    stats["flops_est"] += svd_flops(a.shape)
    if digest not in tracer.seen_inputs:
        tracer.seen_inputs.add(digest)
        stats["unique_inputs"] += 1


def _file_bytes(stats_name):
    def extra(tracer, args, kwargs):
        path = args[0] if args else kwargs["path"]
        if os.path.exists(path):
            tracer.stats[stats_name]["bytes"] += os.path.getsize(path)
    return extra


# name -> (hook run before the span, hook run after it)
EXTRAS = {
    "linalg.svd_with_rank": (_svd_extra, None),
    "manifest.read_matrix": (_file_bytes("manifest.read_matrix"), None),
    "manifest.write_matrix": (None, _file_bytes("manifest.write_matrix")),
}


class Tracer:
    def __init__(self, layers=None, clock=time.perf_counter):
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.spans = []  # [name, start, end, parent index, manifest id]
        self.stats = defaultdict(lambda: defaultdict(float))
        self.seen_inputs = set()
        self.manifest_id = None
        self._stack = []  # [name, span index, start, time in wrapped children]
        self._active = defaultdict(int)
        self._patches = []  # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------
    def targets(self):
        """(span name, owner, attribute, original) for every wrapped callable."""
        for layer, modname in self.layers.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", module, attr, obj
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    yield f"{layer}.{attr}", obj, "__post_init__", vars(obj)["__post_init__"]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, owner, attr, original in self.targets():
            wrapper = self._wrap(name, original)
            wrappers[id(original)] = (original, wrapper)
            self._patch(owner, attr, wrapper)
        # rebind every other opapprox module attribute bound to a wrapped function
        for modname, module in sorted(sys.modules.items()):
            if modname != "opapprox" and not modname.startswith("opapprox."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        before, after = EXTRAS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._untimed(before, args, kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
                if after is not None:
                    tracer._untimed(after, args, kwargs)

        return wrapper

    # -- span bookkeeping -------------------------------------------------
    def begin_manifest(self, manifest_id) -> None:
        """Start attributing spans to ``manifest_id``; distinct-input counts restart."""
        self.manifest_id = manifest_id
        self.seen_inputs = set()

    def _untimed(self, hook, args, kwargs):
        # hook time is charged to no span: the enclosing span treats it as a child
        start = self.clock()
        hook(self, args, kwargs)
        if self._stack:
            self._stack[-1][3] += self.clock() - start

    def _enter(self, name):
        parent = self._stack[-1][1] if self._stack else None
        index = len(self.spans)
        start = self.clock()
        self.spans.append([name, start, None, parent, self.manifest_id])
        self._stack.append([name, index, start, 0.0])
        self._active[name] += 1

    def _exit(self):
        end = self.clock()
        name, index, start, children = self._stack.pop()
        self.spans[index][2] = end
        elapsed = end - start
        self._active[name] -= 1
        stats = self.stats[name]
        stats["calls"] += 1
        stats["self_s"] += elapsed - children
        if not self._active[name]:
            stats["s"] += elapsed
        if self._stack:
            self._stack[-1][3] += elapsed

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, mid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "manifest": mid}) + "\n")

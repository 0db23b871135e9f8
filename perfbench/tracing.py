"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of every ``nlse4`` module and
every transform of ``numpy.fft`` (and of ``scipy.fft`` when something has
imported it), at every module namespace that binds the original by name, so
a call made through ``evolution.hydro_decompose`` and one made through
``hydro.hydro_decompose`` are both recorded.  ``Tracer.uninstall`` puts every
original back.

A span records its name, start, end, parent span and, for transforms, the
computed byte size of the input array.  Spans live in flat arrays and are
written to disk once, by ``Tracer.save``, after the run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import re
import sys
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

import numpy as np

#: Transform names in numpy.fft / scipy.fft (fft, ifft, rfft2, irfftn, hfft,
#: dct, idstn, ...); helpers such as fftfreq and fftshift do not match.
TRANSFORM_RE = re.compile(r"^i?[rh]?fft[2n]?$|^i?(dct|dst)n?$")
FFT_MODULES = ("numpy.fft", "scipy.fft")
WRAPPED_MARK = "__perfbench_original__"


def nlse4_modules() -> list:
    """Every submodule of the nlse4 package.

    Submodules are imported by full name because the package re-exports some
    functions under their module's name (``nlse4.currents`` is the function),
    which shadows the module attribute.
    """
    import nlse4

    return [importlib.import_module(f"nlse4.{info.name}")
            for info in pkgutil.iter_modules(nlse4.__path__)]


def patch_targets() -> list:
    """Module namespaces the tracer patches: nlse4, its submodules and the
    transform modules that are already imported."""
    import nlse4

    mods = [nlse4] + nlse4_modules()
    mods += [sys.modules[name] for name in FFT_MODULES if name in sys.modules]
    return mods


def installed_wrappers() -> list:
    """(module, attribute) pairs that still hold a tracer wrapper."""
    return [(mod.__name__, attr) for mod in patch_targets()
            for attr, obj in vars(mod).items() if hasattr(obj, WRAPPED_MARK)]


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("q")
        self._stack = [-1]
        self._patches: list = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int, nbytes: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.nbytes.append(nbytes)
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code (one timed operation)."""
        idx = self._open(self._intern(name), 0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, fn, name: str, transform: bool):
        nid = self._intern(name)
        opened = self._open
        stack = self._stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nbytes = 0
            if transform and args:
                nbytes = getattr(args[0], "nbytes", None)
                if nbytes is None:
                    nbytes = np.asarray(args[0]).nbytes
            idx = opened(nid, nbytes)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in nlse4_modules():
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}", False))
        for modname in FFT_MODULES:
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if TRANSFORM_RE.match(attr) and callable(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"fft.{attr}", True))
        try:
            for mod in patch_targets():
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(mod, attr, hit[1])
                        self._patches.append((mod, attr, obj))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
        )


# --- attribution -----------------------------------------------------------

#: Functions that open a self-time bucket for their layer.  A span's self
#: time goes to the bucket of its nearest ancestor-or-self in the same layer
#: that opens one; a Floquet integration inside a bisection belongs to the
#: bisection.
BUCKET_ROOTS = {
    "hydro.hydro_decompose": "hydro.decompose",
    "hydro.fourth_order_composites": "hydro.composites",
    "evolution.evolve": "evolution.evolve",
    "evolution.nonlinear_multiplier": "evolution.multiplier",
    "functionals.functional_pair": "functionals.pair",
    "diagnostics.observables_sample": "diagnostics.sample",
    "currents.continuity_residual": "currents.continuity",
    "currents.currents": "currents.currents",
    "bands.band_edge_bisection": "bands.bisection",
    "bands.floquet_analyze": "bands.chart",
    "bands.band_edges": "bands.fourier_edges",
}
#: Bucket for a span no root of its layer encloses; layers not listed fall
#: into "<layer>.other".
LAYER_BUCKETS = {"fft": "fft", "spectral": "spectral", "io": "io.write", "cli": "cli.overhead"}


def named_buckets() -> set:
    """Buckets a per-layer metric reports; the rest is unattributed time."""
    return set(BUCKET_ROOTS.values()) | set(LAYER_BUCKETS.values())


def attribute(tr: Tracer) -> dict:
    """Aggregate the spans into per-bucket self times and scoped counts.

    Returns a dict with ``self_s`` (seconds per bucket), ``calls`` (spans
    per function name), ``inclusive_s`` and ``opened`` (total duration and
    number of the spans that opened each bucket), ``fft_bytes`` (summed
    input bytes of all transforms) and ``scoped``, which counts hydro
    decompositions inside an observables sample and Floquet integrations
    inside a bisection.
    """
    names = tr.names
    nid, parent, start, end = tr.name_id, tr.parent, tr.start, tr.end
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    ctx = [None] * n
    self_s: dict = {}
    calls: dict = {}
    inclusive: dict = {}
    opened: dict = {}
    scoped = {"decompose_in_sample": 0, "floquet_in_bisection": 0}
    fft_bytes = 0
    empty: dict = {}
    for i in range(n):
        name = names[nid[i]]
        layer = name.split(".", 1)[0]
        p = parent[i]
        inherited = ctx[p] if p >= 0 else empty
        current = inherited.get(layer)
        root = BUCKET_ROOTS.get(name)
        if name == "bands.floquet_analyze" and current == "bands.bisection":
            root = None
            scoped["floquet_in_bisection"] += 1
        if root is not None:
            bucket = root
            ctx[i] = inherited if root == current else {**inherited, layer: root}
            inclusive[root] = inclusive.get(root, 0.0) + dur[i]
            opened[root] = opened.get(root, 0) + 1
        else:
            bucket = current or LAYER_BUCKETS.get(layer, layer + ".other")
            ctx[i] = inherited
        if name == "hydro.hydro_decompose" and inherited.get("diagnostics") == "diagnostics.sample":
            scoped["decompose_in_sample"] += 1
        if layer == "fft":
            fft_bytes += tr.nbytes[i]
        self_s[bucket] = self_s.get(bucket, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
    return {"self_s": self_s, "calls": calls, "scoped": scoped, "fft_bytes": fft_bytes,
            "inclusive_s": inclusive, "opened": opened}

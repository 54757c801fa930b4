"""In-memory spans around the calls into each ikmig layer.

The wrappers are installed as module attributes, under the names that
``ikmig.cli`` and the layers look up at call time, so no file of the
package changes.  ``cli`` binds its imports by name, which is why most
entries patch ``ikmig.cli`` rather than the defining module.

Only the main thread opens spans, so the spans of one pass nest cleanly
and their self times partition the pass.  Calls made from migration
worker threads run unwrapped, except the kernel-entry counter.  The
Hankel clock is not locked: no workload evaluates Hankel functions off
the main thread (2-D scenes migrate at one thread).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import threading
import time
import tracemalloc

# (module looked up at call time, attribute, span name).  The span name's
# prefix is the layer its self time is charged to.
SPANS = (
    ("ikmig.cli", "main", "cli.main"),
    ("ikmig.cli", "preset_scene", "scene.load"),
    ("ikmig.cli", "parse_scene", "scene.load"),
    ("ikmig.cli", "intensity_data", "forward.synth"),
    ("ikmig.cli", "array_response_band", "forward.synth"),
    ("ikmig.cli", "linearization_residual", "forward.synth"),
    ("ikmig.stochastic", "total_field_band", "forward.synth"),
    # recover_band imports direct_arrivals inside its body, so the
    # attribute on ikmig.forward is what it finds.
    ("ikmig.forward", "direct_arrivals", "forward.synth"),
    ("ikmig.cli", "write_intensity_csv", "forward.csv_write"),
    ("ikmig.cli", "write_illumination_csv", "forward.csv_write"),
    ("ikmig.cli", "write_field_csv", "forward.csv_write"),
    ("ikmig.cli", "read_intensity_csv", "forward.csv_read"),
    ("ikmig.cli", "read_field_csv", "forward.csv_read"),
    ("ikmig.cli", "sample_illumination", "stochastic.illum"),
    ("ikmig.cli", "noisy_power_data", "stochastic.power"),
    ("ikmig.cli", "clean_power_data", "stochastic.power"),
    ("ikmig.stochastic", "sample_noise", "stochastic.noise"),
    ("ikmig.cli", "recover_band", "recover.band"),
    ("ikmig.cli", "condition_number", "recover.condition"),
    ("ikmig.cli", "check_geometric_condition", "recover.geometry"),
    ("ikmig.cli", "migrate_broadband_stack", "migrate.stack"),
    ("ikmig.cli", "image_metrics", "migrate.metrics"),
    ("ikmig.cli", "write_image_csv", "migrate.export"),
    ("ikmig.cli", "write_image_pgm", "migrate.export"),
)

# Scalar special-function entry points, called up to ~10^6 times a pass.
# They get a counter and a clock instead of a span each.
HANKEL = (
    ("ikmig.forward", "hankel0_1"),
    ("ikmig.recover", "hankel0_1"),
    ("ikmig.migrate", "hankel0_1"),
)

LAYERS = ("cli", "scene", "forward", "stochastic", "recover", "migrate", "specfun")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "leaf_start", "leaf_s")

    def __init__(self, sid, name, parent, start, leaf_start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.leaf_start = leaf_start
        self.leaf_s = 0.0


class Tracer:
    """Records spans and counts; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, migrate_peak_alloc: bool = True):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self._migrate_peak_alloc = migrate_peak_alloc
        self.hankel_s = 0.0
        self.hankel_calls = 0
        self.kernel_evals_seen = 0
        self.csv_bytes = 0
        self.substreams = 0
        self.migrate_calls: list[dict] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), self.hankel_s)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.leaf_s = self.hankel_s - span.leaf_start
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, module_name: str, attr: str, wrapper_factory) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_factory(original))

    def _spanned(self, name: str, fn):
        tracer = self
        hook = self._hook(name, fn)

        def wrapper(*args, **kwargs):
            if threading.current_thread() is not tracer._main:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if hook is not None:
                hook(args, kwargs)
            return result

        return wrapper

    def _hook(self, name: str, fn):
        """Counts derived from a call's arguments, taken after it returns."""
        if name in ("forward.csv_write", "forward.csv_read"):
            def sizes(args, kwargs):
                paths = [a for a in args if isinstance(a, (str, os.PathLike))]
                self.csv_bytes += sum(os.path.getsize(p) for p in paths if os.path.exists(p))
            return sizes
        if name == "stochastic.illum":
            def illum(args, kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                self.substreams += len(bound.arguments["grid"].omegas)
            return illum
        if name == "stochastic.noise":
            def noise(args, kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs)
                a = bound.arguments
                self.substreams += a["n_receivers"] * len(a["grid"].omegas)
            return noise
        return None

    def _migrate_wrapper(self, fn):
        """Span plus the problem size and the tracemalloc peak of the call."""
        tracer = self

        def wrapper(*args, **kwargs):
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            window = a["window"] or a["scene"].window
            f, n, s = a["stack"].shape
            peak = tracer._migrate_peak_alloc and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span = tracer.open("migrate.stack")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
                peak_mb = tracemalloc.get_traced_memory()[1] / 1e6 if peak else 0.0
                if peak:
                    tracemalloc.stop()
            tracer.migrate_calls.append({
                "cells": window.cells_per_side ** 2, "n": n, "f": f, "s": s,
                "threads": a["threads"], "seconds": span.end - span.start,
                "peak_alloc_mb": peak_mb, "arguments": dict(a),
            })
            return result

        return wrapper

    def _hankel(self, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(t):
            start = clock()
            try:
                return fn(t)
            finally:
                tracer.hankel_s += clock() - start
                tracer.hankel_calls += 1 if isinstance(t, float) else int(getattr(t, "size", 1))

        return wrapper

    def _kernel_counter(self, fn):
        """Counts (cell, receiver) kernel entries built by the migration."""
        tracer = self

        def wrapper(d_recv, *args, **kwargs):
            with tracer._lock:
                tracer.kernel_evals_seen += int(d_recv.size)
            return fn(d_recv, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            if name == "migrate.stack":
                self._patch(module, attr, self._migrate_wrapper)
            else:
                self._patch(module, attr, lambda fn, name=name: self._spanned(name, fn))
        for module, attr in HANKEL:
            self._patch(module, attr, self._hankel)
        self._patch("ikmig.migrate", "_apply_kernel", self._kernel_counter)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reports -----------------------------------------------------------

    def self_times(self, root: str = "cli.main") -> dict[str, float]:
        """Self seconds per layer over the subtrees rooted at ``root`` spans.

        A span's self time is its duration minus its direct children's
        durations minus the Hankel time spent directly inside it; the
        Hankel time is charged to ``specfun``.
        """
        children: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append(sp)
        totals = dict.fromkeys(LAYERS, 0.0)

        def visit(sp: Span) -> None:
            kids = children.get(sp.id, [])
            child_s = sum(k.end - k.start for k in kids)
            child_leaf = sum(k.leaf_s for k in kids)
            own_leaf = sp.leaf_s - child_leaf
            layer = sp.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (sp.end - sp.start) - child_s - own_leaf
            totals["specfun"] += own_leaf
            for k in kids:
                visit(k)

        for sp in self.spans:
            if sp.parent is None and sp.name == root:
                visit(sp)
        return totals

    def inclusive(self, name: str) -> float:
        """Seconds inside outermost spans called ``name``."""
        total = 0.0
        by_id = {sp.id: sp for sp in self.spans}
        for sp in self.spans:
            parent = by_id.get(sp.parent)
            nested = False
            while parent is not None:
                if parent.name == name:
                    nested = True
                    break
                parent = by_id.get(parent.parent)
            if sp.name == name and not nested:
                total += sp.end - sp.start
        return total

    def dump(self, origin: float) -> list[dict]:
        return [
            {"id": sp.id, "name": sp.name, "parent": sp.parent,
             "start": sp.start - origin, "end": sp.end - origin,
             "hankel_s": sp.leaf_s}
            for sp in self.spans
        ]

"""Spans around the calls into each scx layer, recorded from outside the package.

install() rebinds layer functions in the module namespaces where they are
looked up, so calls made by scx.cli, by other scx modules and by the
workloads all pass through a wrapper that records one span per call: name,
start, end, parent span, item id and whether it raised.  Spans stay in
memory until the run ends.  Exact counts (bytes read, facets written, DFS
nodes, certificate pairs) are taken from the same calls' arguments and
results.  uninstall() puts every original back.
"""

import functools
import inspect
import os
import threading
import time
from collections import Counter

# (module attribute of the namespace object, name bound there, span name).
# scx.cli binds the layer functions it calls under their own names, and
# scx.census binds is_endo_collapsible for census(); each binding is wrapped.
FUNCTIONS = (
    ("cli", "main", "cli"),
    ("cli", "read_complex", "scxio.read_complex"),
    ("cli", "read_certificate", "scxio.read_certificate"),
    ("cli", "complex_to_text", "scxio.complex_to_text"),
    ("cli", "certificate_to_text", "scxio.certificate_to_text"),
    ("cli", "sd_k", "subdivision.sd_k"),
    ("cli", "is_endo_collapsible", "collapse.is_endo_collapsible"),
    ("cli", "verify_certificate", "verify.verify_certificate"),
    ("cli", "reconstruct", "reconstruct.reconstruct"),
    ("collapse", "is_endo_collapsible", "collapse.is_endo_collapsible"),
    ("collapse", "is_collapsible", "collapse.is_collapsible"),
    ("collapse", "collapses_to", "collapse.collapses_to"),
    ("verify", "verify_certificate", "verify.verify_certificate"),
    ("census", "canonical_label", "census.canonical_label"),
    ("census", "enumerate_disks", "census.enumerate_disks"),
    ("census", "enumerate_surfaces", "census.enumerate_surfaces"),
    ("census", "census", "census.census"),
    ("census", "iso", "census.iso"),
    ("census", "is_endo_collapsible", "collapse.is_endo_collapsible"),
    ("families", "polygon_triangulations", "families.polygon_triangulations"),
)
METHODS = (
    ("classify_surface", "complexes.classify_surface"),
    ("dual_graph", "complexes.dual_graph"),
)
SPAN_NAMES = tuple(sorted({s for _, _, s in FUNCTIONS} | {s for _, s in METHODS}))


def _count_read(counts, args, result):
    counts["scxio.bytes_read"] += os.path.getsize(args[0])


def _count_sd(counts, args, result):
    counts["subdivision.facets_out"] += len(result.complex.facets)


def _count_search(counts, args, result):
    counts["collapse.dfs_nodes"] += result.nodes
    if result.verdict == "yes" and result.certificate is not None:
        counts["collapse.cert_pairs"] += len(result.certificate.pairs)


def _count_verify(counts, args, result):
    counts["verify.pairs"] += len(args[0].pairs)


COUNTERS = {
    "scxio.read_complex": _count_read,
    "scxio.read_certificate": _count_read,
    "subdivision.sd_k": _count_sd,
    "collapse.is_endo_collapsible": _count_search,
    "collapse.is_collapsible": _count_search,
    "collapse.collapses_to": _count_search,
    "verify.verify_certificate": _count_verify,
}
COUNT_NAMES = ("scxio.bytes_read", "subdivision.facets_out",
               "collapse.dfs_nodes", "collapse.cert_pairs", "verify.pairs")


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item, raised]
        self.counts = Counter()
        self.item = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._saved = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first span hangs under the main thread's open span
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, time.perf_counter(), None, parent, self.item, False]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return stack

    def _close(self, stack, raised):
        span = self.spans[stack.pop()]
        span[2] = time.perf_counter()
        span[5] = raised

    def wrap(self, fn, name):
        count = COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stack = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                except BaseException:
                    self._close(stack, True)
                    raise
                self._close(stack, False)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(stack, True)
                raise
            self._close(stack, False)
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def install(self, mods):
        for attr, fname, span in FUNCTIONS:
            module = getattr(mods, attr)
            original = getattr(module, fname)
            self._saved.append((module, fname, original))
            setattr(module, fname, self.wrap(original, span))
        cls = mods.complexes.SimplicialComplex
        for fname, span in METHODS:
            original = cls.__dict__[fname]
            self._saved.append((cls, fname, original))
            setattr(cls, fname, self.wrap(original, span))

    def uninstall(self):
        while self._saved:
            owner, fname, original = self._saved.pop()
            setattr(owner, fname, original)

    def layer_times(self, scale=None):
        """{span name: (busy_s, self_s, calls)}.

        Self time is the span's duration minus the union of the intervals its
        child spans cover, so overlapping children in pool threads count once.
        scale(start, end), when given, rescales each span's times.
        """
        children = {}
        for i, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        out = {name: [0.0, 0.0, 0] for name in SPAN_NAMES}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c in sorted(children.get(i, ()), key=lambda c: self.spans[c][1]):
                cs, ce = self.spans[c][1], self.spans[c][2]
                cs = max(cs, reach)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            factor = scale(start, end) if scale else 1.0
            row = out[name]
            row[0] += (end - start) * factor
            row[1] += (end - start - covered) * factor
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path, items):
        """Write the spans as tab-separated lines, item labels resolved."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\titem\traised\n")
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, item, raised) in enumerate(self.spans):
                label = items[item][0] if item is not None else ""
                fh.write("%d\t%s\t%.6f\t%.6f\t%s\t%s\t%d\n" % (
                    i, name, start - t0, end - t0,
                    "" if parent is None else parent, label, raised))

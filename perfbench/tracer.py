"""In-place tracing of the tautclass layers, for the traced benchmark run.

`Tracer.install` replaces the public layer functions listed in `TARGETS`
with wrappers, in every loaded ``tautclass`` module that holds them (the
package imports names across modules, so patching one module is not
enough), and `Tracer.uninstall` puts the originals back.  The program
source is not modified.

Wrappers record only while an op is open (`Tracer.op`), so input
generation and answer checks outside the op stay uncounted.  Each
wrapped call is a span (name, start, end, parent span, op id); counters
are kept at the same boundaries.  Self time is the span's duration
minus the time its child spans cover, accumulated per name as spans
close.  Spans stay in memory up to `SPAN_CAP` and are written out by
the caller when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# (metric stem, module, attribute, kind).  A dotted attribute names a
# method.  "span" records calls and self time, "count" only calls.
TARGETS = [
    ("reps.load_rep", "tautclass.reps", "load_rep", "span"),
    ("complexes.surface_complex", "tautclass.complexes", "surface_complex", "span"),
    ("complexes.product_complex", "tautclass.complexes", "product_complex", "span"),
    ("flatbundles.bundle_from_surface_rep", "tautclass.flatbundles", "bundle_from_surface_rep", "span"),
    ("flatbundles.product_bundle", "tautclass.flatbundles", "product_bundle", "span"),
    ("flatbundles.validate", "tautclass.flatbundles", "FlatBundle.validate", "span"),
    ("flatbundles.random_generic_section", "tautclass.flatbundles", "random_generic_section", "span"),
    ("flatbundles.is_generic_section", "tautclass.flatbundles", "is_generic_section", "span"),
    ("flatbundles.joint_scalar_sets", "tautclass.flatbundles", "joint_scalar_sets", "span"),
    ("flatbundles.evaluate_class", "tautclass.flatbundles", "evaluate_class", "span"),
    ("configs.u_symbol", "tautclass.configs", "u_symbol", "span"),
    ("configs.uplus_symbol", "tautclass.configs", "uplus_symbol", "span"),
    ("configs.witt_triple_symbol", "tautclass.configs", "witt_triple_symbol", "span"),
    ("exactmath.Matrix.inverse", "tautclass.exactmath", "Matrix.inverse", "span"),
    ("exactmath.determinant", "tautclass.exactmath", "determinant", "span"),
    ("exactmath.unique_relation", "tautclass.exactmath", "unique_relation", "span"),
    ("exactmath.solve_square", "tautclass.exactmath", "solve_square", "span"),
    ("exactmath.rank", "tautclass.exactmath", "rank", "span"),
    ("exactmath.is_linearly_generic", "tautclass.exactmath", "is_linearly_generic", "span"),
    ("kernels.det_int", "tautclass._kernels", "det_int", "span"),
    ("kernels.rank_int", "tautclass._kernels", "rank_int", "span"),
    ("witt.WittElement.add", "tautclass.witt", "WittElement.__add__", "span"),
    ("witt.is_zero", "tautclass.witt", "WittElement.is_zero", "span"),
    ("witt.hilbert_symbol", "tautclass.witt", "hilbert_symbol", "count"),
    ("witt.square_class", "tautclass.witt", "square_class", "count"),
]

OP = "op"
PHASES = ("op.setup", "op.solve")
BOOKKEEPING = "trace.bookkeeping"
SPAN_CAP = 100_000  # spans kept for writing out; self times count every span


def _determinant_kind(rows) -> str:
    if all(isinstance(x, int) for row in rows for x in row):
        return "int"
    if all(isinstance(x, (int, Fraction)) for row in rows for x in row):
        return "frac"
    return "quad"


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [id, name, start, child time]
        self._op_id = None
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self._op_id))
        else:
            self.spans_dropped += 1

    def span(self, name: str):
        return _Span(self, name)

    def op(self, op_id: int):
        """Open the root span of one op; wrappers record only inside it."""
        return _Span(self, OP, op_id)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self
        calls = name + ".calls"

        def traced(*args, **kwargs):
            if tracer._op_id is None:
                return fn(*args, **kwargs)
            tracer.counts[calls] += 1
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def _count_wrapper(self, name, fn):
        tracer = self
        calls = name + ".calls"

        def counted(*args, **kwargs):
            if tracer._op_id is not None:
                tracer.counts[calls] += 1
            return fn(*args, **kwargs)

        return counted

    def _determinant_wrapper(self, name, fn):
        traced = self._span_wrapper(name, fn)
        tracer = self

        def determinant(rows):
            if tracer._op_id is not None:
                tracer.counts[f"{name}.calls.{_determinant_kind(rows)}"] += 1
            return traced(rows)

        return determinant

    def _is_zero_wrapper(self, name, fn):
        traced = self._span_wrapper(name, fn)
        tracer = self

        def is_zero(element):
            if tracer._op_id is not None:
                # size of the decided element; its own cost is kept out of
                # the witt layers by running it unrecorded in a separate span
                tracer._enter(BOOKKEEPING)
                op_id, tracer._op_id = tracer._op_id, None
                try:
                    tracer.counts["witt.dimension"] += element.dimension()
                    tracer.counts["witt.places"] += len(element.relevant_places())
                finally:
                    tracer._op_id = op_id
                    tracer._exit()
            return traced(element)

        return is_zero

    def _wrap(self, name, kind, fn):
        if name == "exactmath.determinant":
            return self._determinant_wrapper(name, fn)
        if name == "witt.is_zero":
            return self._is_zero_wrapper(name, fn)
        if kind == "count":
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self) -> None:
        """Wrap every target in place; the package must already be imported."""
        for name, module, attr, kind in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, kind, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, kind, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("tautclass"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)
        original_new = Fraction.__dict__["__new__"]
        self._patches.append((Fraction, "__new__", original_new))
        new = self._count_wrapper("exactmath.fraction_new", original_new.__func__)
        Fraction.__new__ = staticmethod(new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


class _Span:
    __slots__ = ("tracer", "name", "op_id")

    def __init__(self, tracer: Tracer, name: str, op_id=None):
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        if self.op_id is not None:
            self.tracer._op_id = self.op_id
        self.tracer._enter(self.name)

    def __exit__(self, *exc):
        self.tracer._exit()
        if self.op_id is not None:
            self.tracer._op_id = None
        return False

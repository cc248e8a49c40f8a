"""Spans around koszulab's public functions, recorded from outside the package.

`Tracer.install` replaces each function in `FUNCTIONS` in every `koszulab.*`
namespace that holds it, and each method in `METHODS` on its class, with a
wrapper that records a span: name, start, end, parent span, operation id and
up to two sizes computed from the arguments and the result.  Spans are kept in
one flat array in memory (a traced suite-w9 pass records over a million) and
are written out once, after the measurement.  `uninstall` restores the
originals.

Sizes are computed after the span's end time is taken, so their cost is
counted in the caller's self time; it is part of the tracing overhead.
"""
from __future__ import annotations

import array
import gzip
import sys
import time

SETUP_OP = -1


def _matmul_sizes(args, kwargs, result):
    a, b = args
    return a.rows * a.cols * b.cols, 0


def _matrix_sizes(args, kwargs, result):
    m = args[0]
    return m.rows * m.cols, 0


def _max_bits(rows):
    return max((abs(x).bit_length() for r in rows for x in r), default=0)


def _integer_smith_sizes(args, kwargs, result):
    transforms = args[3] if len(args) > 3 else kwargs.get("transforms", True)
    return _max_bits(args[0]), int(bool(transforms))


def _verify_complex_sizes(args, kwargs, result):
    """Multiply-adds of the d o d products, computed from the shapes.
    verify_complex forms d[j] @ d[j+1] for a homological complex and
    d[j+1] @ d[j] for a cohomological one."""
    C = args[0]
    ds = C.differentials
    if C.orientation == "homological":
        return sum(a.rows * a.cols * b.cols for a, b in zip(ds, ds[1:])), 0
    return sum(b.rows * b.cols * a.cols for a, b in zip(ds, ds[1:])), 0


def _bar_complex_sizes(args, kwargs, result):
    return args[1], id(args[0])        # weight, and which algebra


def _simplices_sizes(args, kwargs, result):
    return sum(len(v) for v in result.values()), 0


def _partition_complex_sizes(args, kwargs, result):
    ds = result.complex.differentials
    return (sum(d.rows * d.cols for d in ds),
            sum(len(r) - r.count(0) for d in ds for r in d.entries))


# (module, function, sizes); span name "<module>.<function>"
FUNCTIONS = (
    ("padic", "smith_normal_form", None),
    ("padic", "solve", None),
    ("padic", "kernel_basis", None),
    ("padic", "inverse_mod", None),
    ("padic", "integer_smith", _integer_smith_sizes),
    ("complexes", "verify_complex", _verify_complex_sizes),
    ("complexes", "homology", None),
    ("algebra", "load_dataset", None),
    ("algebra", "tensor_over_coeff", None),
    ("algebra", "iterated_tensor", None),
    ("bar", "bar_complex", _bar_complex_sizes),
    ("bar", "bar_complex_with_module", None),
    ("bar", "koszul_module", None),
    ("bar", "koszul_complex", None),
    ("isogeny", "build_mic", None),
    ("isogeny", "dualize_bar_to_mic", None),
    ("isogeny", "verify_theorem_10_2", None),
    ("isogeny", "validate_package", None),
    ("partition", "nondegenerate_simplices", _simplices_sizes),
    ("partition", "partition_complex", _partition_complex_sizes),
    ("synthetic", "synthetic_height1_dataset", None),
    ("cli", "run", None),
)

# (module, class, method, span name, sizes)
METHODS = (
    ("padic", "PAdicMatrix", "__init__", "padic.matrix", _matrix_sizes),
    ("padic", "PAdicMatrix", "__matmul__", "padic.matmul", _matmul_sizes),
    ("padic", "PAdicMatrix", "kron", "padic.kron", None),
    ("algebra", "Dataset", "validate", "algebra.validate", None),
)

# The per-module metrics a traced run reports: (name, unit).
PER_MODULE = (
    [(f"padic.matmul.{q}", u) for q, u in
     (("calls", "count"), ("self_s", "s"), ("madds", "count"))]
    + [("padic.kron.calls", "count"), ("padic.kron.self_s", "s"),
       ("padic.matrix.built", "count"), ("padic.matrix.cells", "count"),
       ("padic.matrix.self_s", "s")]
    + [(f"padic.{f}.{q}", u) for f in
       ("smith_normal_form", "solve", "kernel_basis", "inverse_mod")
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("padic.integer_smith.calls", "count"),
       ("padic.integer_smith.self_s", "s"),
       ("padic.integer_smith.max_entry_bits", "bits")]
    + [("complexes.verify_complex.calls", "count"),
       ("complexes.verify_complex.self_s", "s"),
       ("complexes.verify_complex.madds", "count"),
       ("complexes.homology.calls", "count"),
       ("complexes.homology.self_s", "s"),
       ("complexes.homology.generic_ratio", "ratio")]
    + [("algebra.load_dataset.self_s", "s"), ("algebra.validate.self_s", "s")]
    + [(f"algebra.{f}.{q}", u) for f in ("tensor_over_coeff", "iterated_tensor")
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("bar.bar_complex.calls", "count"), ("bar.bar_complex.self_s", "s"),
       ("bar.bar_complex.distinct_ratio", "ratio")]
    + [(f"bar.{f}.{q}", u) for f in
       ("bar_complex_with_module", "koszul_module", "koszul_complex")
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"isogeny.{f}.{q}", u) for f in
       ("build_mic", "dualize_bar_to_mic", "verify_theorem_10_2", "validate_package")
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("partition.nondegenerate_simplices.self_s", "s"),
       ("partition.nondegenerate_simplices.simplices", "count"),
       ("partition.partition_complex.self_s", "s"),
       ("partition.partition_complex.cells", "count"),
       ("partition.partition_complex.nnz", "count")]
    + [("synthetic.synthetic_height1_dataset.self_s", "s"),
       ("cli.run.self_s", "s")]
)

# the names of a span's sizes in the span file, by span name
SIZE_KEYS = {
    "padic.matmul": ("madds",),
    "padic.matrix": ("cells",),
    "padic.integer_smith": ("max_entry_bits", "transforms"),
    "complexes.verify_complex": ("madds",),
    "bar.bar_complex": ("weight", "algebra_id"),
    "partition.nondegenerate_simplices": ("simplices",),
    "partition.partition_complex": ("cells", "nnz"),
}


# A span's slots in Tracer.buf, in order.
NAME, PARENT, OP, START, END, SIZE_A, SIZE_B = range(7)
STRIDE = 7


class Tracer:
    """Spans in one flat array of doubles, STRIDE slots each.

    One `extend` call writes all of a span's slots, so a deadline exception,
    which lands between two bytecodes, cannot misalign them; `end_op` closes
    any span such an exception left open.
    """

    def __init__(self):
        self.names = []
        self.buf = array.array("d")
        self.stack = []
        self.current_op = SETUP_OP
        self._op_first = 0
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, sizes):
        nid = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        buf, stack = self.buf, self.stack

        def traced(*args, **kwargs):
            i = len(buf) // STRIDE
            buf.extend((nid, stack[-1] if stack else -1, self.current_op,
                        perf(), 0.0, 0.0, 0.0))
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf[i * STRIDE + END] = perf()
                stack.pop()
            if sizes is not None:
                buf[i * STRIDE + SIZE_A], buf[i * STRIDE + SIZE_B] = \
                    sizes(args, kwargs, result)
            return result
        return traced

    def span(self, name):
        """Wrap a callable of the benchmark itself, such as one operation."""
        return self._wrap(name, lambda f: f(), None)

    def begin_op(self, op):
        self.current_op = op
        self._op_first = len(self.buf) // STRIDE

    def end_op(self):
        """After an exception in the operation: close its open spans."""
        now = time.perf_counter()
        buf = self.buf
        for i in range(self._op_first, len(buf) // STRIDE):
            if buf[i * STRIDE + END] == 0.0:
                buf[i * STRIDE + END] = now
        self.stack.clear()

    def install(self):
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "koszulab" or k.startswith("koszulab.")]
        for module, fname, sizes in FUNCTIONS:
            orig = getattr(sys.modules[f"koszulab.{module}"], fname)
            wrapper = self._wrap(f"{module}.{fname}", orig, sizes)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, key, wrapper)
                        self._undo.append((ns, key, orig))
        for module, cname, meth, name, sizes in METHODS:
            cls = getattr(sys.modules[f"koszulab.{module}"], cname)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, orig, sizes))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- analysis -------------------------------------------------------------

    def _span(self, i):
        """(name, parent, op, start, end, size_a, size_b) of span i."""
        b = self.buf[i * STRIDE:(i + 1) * STRIDE]
        return (self.names[int(b[NAME])], int(b[PARENT]), int(b[OP]),
                b[START], b[END], int(b[SIZE_A]), int(b[SIZE_B]))

    def per_module(self):
        """Every PER_MODULE metric.  Set-up spans count only for the
        dataset generator; all others come from the traced pass."""
        buf = self.buf
        n = len(buf) // STRIDE
        covered = [0.0] * n
        for i in range(n):
            p = int(buf[i * STRIDE + PARENT])
            if p >= 0:
                covered[p] += buf[i * STRIDE + END] - buf[i * STRIDE + START]
        calls, self_s = {}, {}
        size_a_sum, size_a_max, size_b_sum = {}, {}, {}
        bar_keys = set()
        generic_parents = set()
        homology_spans = []
        for i in range(n):
            nm, parent, op, start, end, a, b = self._span(i)
            if op == SETUP_OP and nm != "synthetic.synthetic_height1_dataset":
                continue
            calls[nm] = calls.get(nm, 0) + 1
            self_s[nm] = self_s.get(nm, 0.0) + end - start - covered[i]
            size_a_sum[nm] = size_a_sum.get(nm, 0) + a
            size_a_max[nm] = max(size_a_max.get(nm, 0), a)
            size_b_sum[nm] = size_b_sum.get(nm, 0) + b
            if nm == "bar.bar_complex":
                bar_keys.add((op, b, a))
            elif nm == "padic.integer_smith" and b:
                generic_parents.add(parent)
            elif nm == "complexes.homology":
                homology_spans.append(i)

        def ratio(x, y):
            return x / y if y else 0.0

        out = {}
        for metric, _ in PER_MODULE:
            module, fname, q = metric.split(".")
            nm = f"{module}.{fname}"
            if q in ("calls", "built"):
                v = calls.get(nm, 0)
            elif q == "self_s":
                v = self_s.get(nm, 0.0)
            elif q in ("madds", "cells", "simplices"):
                v = size_a_sum.get(nm, 0)
            elif q == "nnz":
                v = size_b_sum.get(nm, 0)
            elif q == "max_entry_bits":
                v = size_a_max.get(nm, 0)
            elif q == "generic_ratio":
                v = ratio(sum(1 for i in homology_spans if i in generic_parents),
                          len(homology_spans))
            elif q == "distinct_ratio":
                v = ratio(len(bar_keys), calls.get(nm, 0))
            else:
                raise KeyError(metric)
            out[metric] = v
        return out

    def write(self, path):
        """One JSON object per line: name, start, end, parent, op, sizes."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.buf) // STRIDE):
                nm, parent, op, start, end, a, b = self._span(i)
                sizes = ",".join(f'"{k}":{v}' for k, v in zip(SIZE_KEYS.get(nm, ()), (a, b)))
                fh.write(f'{{"name":"{nm}","start":{start!r},"end":{end!r},'
                         f'"parent":{parent},"op":{op},"sizes":{{{sizes}}}}}\n')

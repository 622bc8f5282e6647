"""Spans and counters recorded from outside the library.

`Tracer.install` wraps the public functions of every hadsplit module (plus
a few methods and one private helper that mark a layer boundary) and puts
each wrapper into every hadsplit namespace that holds the original, since
modules import names directly (`from .exactla import rref`) and a wrapper
installed only in the defining module would miss those calls without any
error.  `uninstall` restores the originals.

Each call records a span (name, start, end, parent) in memory.  A span's
self time is its duration minus the durations of its direct children,
which never overlap in this single-threaded loop.  Counters are computed
from the shapes, dtypes and results seen at the wrappers; none is read
from inside the library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "core", "splitting", "constructions", "feasibility", "search",
    "exactla", "gf", "latin", "schemes", "cli",
)

# Methods and private helpers that mark a layer boundary.
METHODS = {
    "core": {"IntMatrix": ("__init__", "__matmul__")},
    "schemes": {"AuxiliarySet": ("__init__", "lemma_c_ok")},
    "gf": {"GF": ("__init__", "elements", "add", "sub", "mul", "neg", "inv", "chi")},
    "latin": {"LatinSquare": ("is_latin", "is_symmetric", "has_constant_diagonal")},
}
PRIVATE = {"core": ("_check_hadamard",)}

SCHEME_BUILDERS = (
    "build_4class_symmetric", "build_4class_nonsymmetric", "build_5class",
    "build_6class", "hamming_scheme", "muzychuk_fusion",
)

# Per-layer metrics in report order, with units.  Every count and time is
# per traced cycle of the workload mix; ratios are over the whole run.
# Flops are multiply-adds; "computed" counts come from shapes and dtypes.
LAYER_METRICS = {
    "core.matmul.calls": "count",
    "core.matmul.self_s": "s",
    "core.matmul.flops_computed": "flop",
    "core.matmul.bytes_computed": "byte",
    "core.matmul.object_route": "count",
    "core.kronecker.self_s": "s",
    "core.construct.self_s": "s",
    "core.construct.entries": "count",
    "core.validate.self_s": "s",
    "core.io.parse_s": "s",
    "core.io.serialize_s": "s",
    "core.io.bytes": "byte",
    "splitting.check_split.calls": "count",
    "splitting.check_split.self_s": "s",
    "splitting.direct_srg_params.self_s": "s",
    "splitting.search_splits.subsets": "count",
    "splitting.search_splits.check_ratio": "ratio",
    "constructions.calls": "count",
    "constructions.self_s": "s",
    "constructions.recheck_share": "ratio",
    "feasibility.eigvec_search.self_s": "s",
    "feasibility.eigvec_search.survivors": "count",
    "exactla.rref.calls": "count",
    "exactla.rref.self_s": "s",
    "exactla.rref.cells": "count",
    "search.max_clique.calls": "count",
    "search.max_clique.self_s": "s",
    "search.max_clique.vertices": "count",
    "feasibility.enumerate.self_s": "s",
    "feasibility.enumerate.rows": "count",
    "schemes.aux.self_s": "s",
    "schemes.lift_latin.self_s": "s",
    "schemes.build.self_s": "s",
    "schemes.verify_scheme.self_s": "s",
    "schemes.verify_scheme.products": "count",
    "schemes.verify_scheme.flops_computed": "flop",
    "schemes.eigenmatrices.self_s": "s",
    "gf.self_s": "s",
    "latin.self_s": "s",
    "latin.compose_ufs.calls": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.exit_nonzero": "count",
    "trace.overhead_ratio": "ratio",
}


def _itemsize(m) -> int:
    """Bytes per entry of a library matrix (pointer size for object arrays)."""
    dtype = getattr(getattr(m, "_a", None), "dtype", None)
    return 8 if dtype is None else dtype.itemsize


def _is_object(m) -> bool:
    dtype = getattr(getattr(m, "_a", None), "dtype", None)
    return dtype is not None and dtype.kind == "O"


def _count_matmul(c, args, kwargs, result) -> None:
    a, b = args
    m, k = a.shape
    n = b.shape[1]
    c["core.matmul.flops_computed"] += m * k * n
    c["core.matmul.bytes_computed"] += (
        _itemsize(a) * m * k + _itemsize(b) * k * n + _itemsize(result) * m * n
    )
    c["core.matmul.object_route"] += _is_object(result)


def _count_construct(c, args, kwargs, result) -> None:
    rows, cols = args[0].shape
    c["core.construct.entries"] += rows * cols


def _count_parse(c, args, kwargs, result) -> None:
    c["core.io.bytes"] += len(args[0])


def _count_serialize(c, args, kwargs, result) -> None:
    c["core.io.bytes"] += len(result)


def _count_search_splits(c, args, kwargs, result) -> None:
    h = args[0]
    ell = args[1] if len(args) > 1 else kwargs["ell"]
    c["splitting.search_splits.subsets"] += math.comb(h.order, ell)


def _count_eigvec(c, args, kwargs, result) -> None:
    c["feasibility.eigvec_search.survivors"] += len(result.survivors)


def _count_enumerate(c, args, kwargs, result) -> None:
    c["feasibility.enumerate.rows"] += len(result)


def _count_rref(c, args, kwargs, result) -> None:
    m = args[0]
    c["exactla.rref.cells"] += len(m) * len(m[0]) if m else 0


def _count_clique(c, args, kwargs, result) -> None:
    c["search.max_clique.vertices"] += len(args[0])


def _count_verify(c, args, kwargs, result) -> None:
    mats = args[0]
    d1, v = len(mats), mats[0].nrows
    c["schemes.verify_scheme.products"] += d1 * d1
    c["schemes.verify_scheme.flops_computed"] += d1 * d1 * v**3


def _count_exit(c, args, kwargs, result) -> None:
    c["cli.exit_nonzero"] += result != 0


# Span name -> counter update run after the call returns.
COUNTERS = {
    "core.IntMatrix.__matmul__": _count_matmul,
    "core.IntMatrix.__init__": _count_construct,
    "core.parse_matrix": _count_parse,
    "core.serialize_matrix": _count_serialize,
    "splitting.search_splits": _count_search_splits,
    "feasibility.eigvec_search": _count_eigvec,
    "feasibility.enumerate_seidel": _count_enumerate,
    "feasibility.enumerate_case_a": _count_enumerate,
    "exactla.rref": _count_rref,
    "search.max_clique": _count_clique,
    "schemes.verify_scheme": _count_verify,
    "cli.main": _count_exit,
}


class Tracer:
    """In-memory spans and counters for the hadsplit modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent span or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        idx_name = self._name_index[name]
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def _targets(self):
        """(span name, owner, attribute) for every wrapped callable."""
        for short in MODULES:
            mod = importlib.import_module(f"hadsplit.{short}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in list(names) + list(PRIVATE.get(short, ())):
                obj = vars(mod).get(attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{short}.{attr}", mod, attr
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = vars(mod)[cls_name]
                for meth in methods:
                    yield f"{short}.{cls_name}.{meth}", cls, meth

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sys.modules.items() if k == "hadsplit" or k.startswith("hadsplit.")]
        for name, owner, attr in self._targets():
            if isinstance(owner, type):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ------------------------------------------------------------ analysis

    def layer_metrics(self, cycles: int, overhead_ratio: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS, per traced cycle (ratios whole-run)."""
        names = self.names
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        in_search = [False] * n
        in_construction = [False] * n
        search_idx = self._name_index.get("splitting.search_splits", -2)
        for i, (name_i, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
                pname = self.spans[parent][0]
                in_search[i] = in_search[parent] or pname == search_idx
                in_construction[i] = in_construction[parent] or names[pname].startswith("constructions.")
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        checks_in_search = 0
        recheck = 0.0
        construction_top = 0.0
        for i, (name_i, _, _, _) in enumerate(self.spans):
            name = names[name_i]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            incl[name] += dur[i]
            if name == "splitting.check_split":
                checks_in_search += in_search[i]
                if in_construction[i]:
                    recheck += dur[i]
            if name.startswith("constructions.") and not in_construction[i]:
                construction_top += dur[i]

        def total(table, pred) -> float:
            return sum(v for k, v in table.items() if pred(k))

        c = self.counts
        subsets = c["splitting.search_splits.subsets"]
        raw = {
            "core.matmul.calls": calls["core.IntMatrix.__matmul__"],
            "core.matmul.self_s": self_s["core.IntMatrix.__matmul__"],
            "core.matmul.flops_computed": c["core.matmul.flops_computed"],
            "core.matmul.bytes_computed": c["core.matmul.bytes_computed"],
            "core.matmul.object_route": c["core.matmul.object_route"],
            "core.kronecker.self_s": self_s["core.kronecker"],
            "core.construct.self_s": self_s["core.IntMatrix.__init__"],
            "core.construct.entries": c["core.construct.entries"],
            "core.validate.self_s": self_s["core._check_hadamard"],
            "core.io.parse_s": incl["core.parse_matrix"],
            "core.io.serialize_s": incl["core.serialize_matrix"],
            "core.io.bytes": c["core.io.bytes"],
            "splitting.check_split.calls": calls["splitting.check_split"],
            "splitting.check_split.self_s": self_s["splitting.check_split"],
            "splitting.direct_srg_params.self_s": self_s["splitting.direct_srg_params"],
            "splitting.search_splits.subsets": subsets,
            "constructions.calls": total(calls, lambda k: k.startswith("constructions.")),
            "constructions.self_s": total(self_s, lambda k: k.startswith("constructions.")),
            "feasibility.eigvec_search.self_s": self_s["feasibility.eigvec_search"],
            "feasibility.eigvec_search.survivors": c["feasibility.eigvec_search.survivors"],
            "exactla.rref.calls": calls["exactla.rref"],
            "exactla.rref.self_s": self_s["exactla.rref"],
            "exactla.rref.cells": c["exactla.rref.cells"],
            "search.max_clique.calls": calls["search.max_clique"],
            "search.max_clique.self_s": self_s["search.max_clique"],
            "search.max_clique.vertices": c["search.max_clique.vertices"],
            "feasibility.enumerate.self_s": self_s["feasibility.enumerate_seidel"]
            + self_s["feasibility.enumerate_case_a"],
            "feasibility.enumerate.rows": c["feasibility.enumerate.rows"],
            "schemes.aux.self_s": total(self_s, lambda k: k.startswith("schemes.AuxiliarySet.")),
            "schemes.lift_latin.self_s": self_s["schemes.lift_latin"],
            "schemes.build.self_s": sum(self_s[f"schemes.{b}"] for b in SCHEME_BUILDERS),
            "schemes.verify_scheme.self_s": self_s["schemes.verify_scheme"],
            "schemes.verify_scheme.products": c["schemes.verify_scheme.products"],
            "schemes.verify_scheme.flops_computed": c["schemes.verify_scheme.flops_computed"],
            "schemes.eigenmatrices.self_s": self_s["schemes.eigenmatrices"],
            "gf.self_s": total(self_s, lambda k: k.startswith("gf.")),
            "latin.self_s": total(self_s, lambda k: k.startswith("latin.")),
            "latin.compose_ufs.calls": calls["latin.compose_ufs"],
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "cli.exit_nonzero": c["cli.exit_nonzero"],
        }
        out = {k: float(v) / cycles for k, v in raw.items()}
        out["splitting.search_splits.check_ratio"] = checks_in_search / subsets if subsets else 0.0
        out["constructions.recheck_share"] = recheck / construction_top if construction_top else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return {k: out[k] for k in LAYER_METRICS}

    def dump(self) -> dict:
        """Spans as plain data for the trace file."""
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}

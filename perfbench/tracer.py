"""Span tracer for lie2alg, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module (and the
arithmetic methods of ``Matrix``) and rebinds every module attribute that
refers to the original, so callers that imported a function by name
(``from .core import bracket00``) are traced too.  Each call records a span:
id, parent id, name, start and end.  Spans stay in memory and are written
out by ``write_spans`` when the benchmark ends.

Self time is a span's duration minus the time covered by its child spans.
Work counts are recorded at the same boundaries (see ``_HOOKS``).  Time
spent in untraced helpers is part of the self time of the traced function
that called them.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter

LAYERS = ("linalg", "core", "morphisms", "cohomology", "classify", "builders",
          "documents", "cli")

# Per-entry scalar and vector helpers run hundreds of thousands of times per
# item; a span each would cost more than the work measured.  Their time
# counts as self time of the traced caller.
UNTRACED = {
    "linalg": {"rat", "vec", "vec_zero", "vec_add", "vec_sub", "vec_neg",
               "vec_scale", "is_zero_vec"},
    "core": {"perm_sign"},
    "documents": {"format_rational", "parse_rational"},
}
MATRIX_METHODS = ("__matmul__", "__add__", "__sub__", "__neg__", "__rmul__", "apply")

# bracket00, bracket_mixed, jacobiator and coherence_lhs are one contraction
# primitive in four shapes; core.contract reports them together.
CONTRACTIONS = ("core.bracket00", "core.bracket_mixed", "core.jacobiator",
                "core.coherence_lhs")


def verify_tuples(n0: int, n1: int) -> int:
    """Basis tuples ``core.verify`` checks on an n0 + n1 algebra."""
    return (n0 * n1 + n1 * n1 + math.comb(n0, 3) + n1 * math.comb(n0, 2)
            + math.comb(n0, 4))


def verify_morphism_tuples(n0: int, n1: int) -> int:
    """Basis tuples ``morphisms.verify_morphism`` checks for an n0 + n1 source."""
    return n1 + math.comb(n0, 2) + n1 * n0 + math.comb(n0, 3)


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rref_hook(tr, args, result):
    m = args[0]
    tr.counts["linalg.rref.cells"] += m.rows * m.cols
    if tr.active["linalg.complement"]:
        tr.counts["linalg.complement.rref_calls"] += 1
    if m.entries:
        bits = max(_entry_bits(x) for x in m.entries)
        if bits > tr.counts["linalg.max_entry_bits"]:
            tr.counts["linalg.max_entry_bits"] = bits


def _verify_hook(tr, args, result):
    L = args[0]
    tr.counts["core.verify.tuples"] += verify_tuples(L.n0, L.n1)


def _verify_morphism_hook(tr, args, result):
    m = args[0]
    tr.counts["morphisms.verify_morphism.tuples"] += verify_morphism_tuples(
        m.source.n0, m.source.n1)


def _delta_matrix_hook(tr, args, result):
    n, rep = args[0], args[1]
    tr.counts["cohomology.delta_matrix.cells"] += result.rows * result.cols
    tr.delta_keys.add((n, rep))


def _bytes_hook(tr, args, result):
    text = args[0] if isinstance(args[0], str) else result
    tr.counts["documents.bytes"] += len(text.encode("utf-8"))


_HOOKS = {
    "linalg.rref": _rref_hook,
    "core.verify": _verify_hook,
    "morphisms.verify_morphism": _verify_morphism_hook,
    "cohomology.delta_matrix": _delta_matrix_hook,
    "documents.loads": _bytes_hook,
    "documents.dumps": _bytes_hook,
}


class Tracer:
    def __init__(self):
        self.spans = []           # (id, parent id, name, start ns, end ns)
        self.items = []           # (item index, first span id)
        self.stats = {}           # name -> [calls, self ns]
        self.counts = Counter()
        self.active = Counter()   # name -> open spans
        self.delta_keys = set()
        self._stack = []          # [span id, ns covered by children]
        self._next_id = 1
        self._patched = []        # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap the public functions of every layer and rebind each module
        attribute (in lie2alg and in ``extra_modules``) bound to one."""
        package = importlib.import_module("lie2alg")
        modules = {name: importlib.import_module(f"lie2alg.{name}") for name in LAYERS}
        owners = [package, *modules.values(), *extra_modules]
        wrappers = {}
        for layer, mod in modules.items():
            skip = UNTRACED.get(layer, set())
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in skip or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)][1])
        matrix = modules["linalg"].Matrix
        for meth in MATRIX_METHODS:
            original = matrix.__dict__[meth]
            self._patched.append((matrix, meth, original))
            setattr(matrix, meth, self._wrap(f"linalg.Matrix.{meth}", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        active = self.active
        stat = self.stats.setdefault(name, [0, 0])
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur - frame[1]
                spans.append((sid, parent, name, start, end))
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self, args, result)
                if stack:
                    # the hook is tracer work: keep it out of the caller's self time
                    stack[-1][1] += clock() - end
            return result

        return traced

    # -- results ------------------------------------------------------------

    def mark_item(self, index: int) -> None:
        self.items.append((index, self._next_id))

    def summary(self) -> dict:
        """Plain-data totals: calls and self seconds per traced function and
        per layer, and the work counts."""
        funcs = {name: {"calls": c, "self_s": ns / 1e9}
                 for name, (c, ns) in sorted(self.stats.items()) if c}
        counts = dict(self.counts)
        counts["cohomology.delta_matrix.distinct"] = len(self.delta_keys)
        return {"functions": funcs, "counts": counts}

    def write_spans(self, path: str, header: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "names": names, "items": self.items,
                                 "fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            fh.write("\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"[{sid},{parent},{index[name]},{start},{end}]\n")


def merge_summaries(parts) -> dict:
    """Add up summaries from several processes (the traced cli children)."""
    funcs, counts = {}, Counter()
    for part in parts:
        for name, rec in part["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += rec["calls"]
            acc["self_s"] += rec["self_s"]
        for key, value in part["counts"].items():
            if key == "linalg.max_entry_bits":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return {"functions": funcs, "counts": dict(counts)}

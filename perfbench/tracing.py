"""Layer tracing installed from outside the program.

:func:`install` wraps the public entry points of each layer module of the
package at run time: module-level functions (re-bound in every package
module that imported them by name) and the methods of the module's public
classes, including ``__init__`` and operator aliases such as
``AlgebraElement.__mul__``.  Private helpers (names starting with ``_``,
such as the reduction's ``_phase_*`` and the algebra's ``_fn_*``) are left
alone: their time is self time of the public call that runs them.

Every wrapped call is a span whose parent is the innermost open span.
Spans stay in memory, aggregated per call path, until the run ends:
:meth:`Tracer.summary` turns them into per-layer counts and self times and
:meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("words", "shift", "clopen", "rings", "algebra", "reduction",
          "structure", "parsing")
PACKAGE = "subshift_algebra"
OP_LAYER = "op"  # the layer of the benchmark's own op spans


# -- probes: counters read off arguments and results at layer boundaries -----


def _legal(c, args, kwargs, result):
    c["shift.legal_checks"] += 1
    c["shift.legal_true"] += bool(result)


def _extensions(c, args, kwargs, result):
    c["shift.extension_words"] += len(result)


def _clopen_init(c, args, kwargs, result):
    c["clopen.sets_built"] += 1
    c["clopen.words_stored"] += len(args[0].words)


def _refine(c, args, kwargs, result):
    c["clopen.refine_in"] += len(args[0].words)
    c["clopen.refine_out"] += len(result.words)


def _element_init(c, args, kwargs, result):
    c["algebra.elements_built"] += 1
    c["algebra.support_words"] += sum(len(fn.coeffs) for fn in args[0].components.values())


def _mul(c, args, kwargs, result):
    c["algebra.mul_calls"] += 1
    c["algebra.mul_pairs"] += len(args[0].components) * len(args[1].components)


def _reduce(c, args, kwargs, result):
    c["reduction.reduces"] += 1
    if result.trace is not None:
        c["reduction.factors"] += len(result.trace)


def _evaluate(c, args, kwargs, result):
    c["parsing.evaluate_calls"] += 1
    c["parsing.chars"] += len(args[0])


PROBES = {
    "FollowerGraph.is_prefix_legal": _legal,
    "FollowerGraph.extensions": _extensions,
    "ClopenSet.__init__": _clopen_init,
    "ClopenSet.refine": _refine,
    "AlgebraElement.__init__": _element_init,
    "AlgebraElement.mul": _mul,
    "reduce": _reduce,
    "evaluate": _evaluate,
}


class Tracer:
    """Spans aggregated per call path.

    A scaling pass makes millions of layer calls, so instead of one record
    per call the tracer keeps, for every distinct path of span names from the
    op down to the call, its call count, total time and self time.  Self time
    is a span's duration minus the durations of its child spans.
    """

    def __init__(self):
        self.names: list[tuple[str, str]] = []  # name id -> (layer, qualname)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.paths: list[tuple[int, int]] = []  # path id -> (parent path, name id)
        self._path_ids: dict[tuple[int, int], int] = {}
        self.calls: list[int] = []  # per path id
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [[-1, 0.0]]  # open spans: [path id, time of children]

    def name_id(self, layer: str, qualname: str) -> int:
        key = (layer, qualname)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        return self._name_ids[key]

    def _path(self, key: tuple[int, int]) -> int:
        pid = self._path_ids.get(key)
        if pid is None:
            pid = self._path_ids[key] = len(self.paths)
            self.paths.append(key)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return pid

    def wrap(self, fn, layer: str, qualname: str):
        nid = self.name_id(layer, qualname)
        probe = PROBES.get(qualname)
        stack, path_ids, new_path = self._stack, self._path_ids, self._path
        calls, total, self_time = self.calls, self.total, self.self_time
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent[0], nid)
            pid = path_ids.get(key)
            if pid is None:
                pid = new_path(key)
            frame = [pid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - start
                stack.pop()
                parent[1] += d
                calls[pid] += 1
                total[pid] += d
                self_time[pid] += d - frame[1]
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def _root_label(self, pid: int) -> str | None:
        """Label of the outermost op span on a path, if any."""
        label = None
        while pid >= 0:
            pid, nid = self.paths[pid]
            layer, qualname = self.names[nid]
            if layer == OP_LAYER:
                label = qualname
        return label

    def summary(self, per_op: tuple[str, ...] = ()) -> dict:
        """Call count, total time and self time per (layer, qualname), plus
        the total time of the names in ``per_op`` per enclosing op label.

        A name's total counts only its outermost spans, so the time of a
        recursive call such as ``eval_expr`` is not counted twice."""
        calls, total, self_time, under_op = Counter(), Counter(), Counter(), Counter()
        for pid, (parent, nid) in enumerate(self.paths):
            key = self.names[nid]
            calls[key] += self.calls[pid]
            self_time[key] += self.self_time[pid]
            if not self._has_ancestor(parent, nid):
                total[key] += self.total[pid]
                if key[1] in per_op:
                    under_op[key[1], self._root_label(pid)] += self.total[pid]
        return {"calls": calls, "total": total, "self": self_time, "under_op": under_op}

    def _has_ancestor(self, pid: int, nid: int) -> bool:
        while pid >= 0:
            pid, anc = self.paths[pid]
            if anc == nid:
                return True
        return False

    def dump(self, path) -> None:
        """Write one line per call path: calls, total seconds, self seconds
        and the path as ``;``-separated span names (outermost first)."""
        with open(path, "w") as f:
            f.write("calls\ttotal_s\tself_s\tpath\n")
            for pid in range(len(self.paths)):
                names = []
                p = pid
                while p >= 0:
                    p, nid = self.paths[p]
                    names.append(self.names[nid][1])
                f.write(f"{self.calls[pid]}\t{self.total[pid]!r}\t{self.self_time[pid]!r}\t"
                        f"{';'.join(reversed(names))}\n")


# -- installation ----------------------------------------------------------------


def _public_functions(cls) -> dict[str, object]:
    """Attributes of ``cls`` to wrap: public methods, ``__init__``, and any
    other name bound to a public method (operator aliases)."""
    own = vars(cls)
    out = {}
    for attr, val in own.items():
        fn = val.__func__ if isinstance(val, staticmethod) else val
        if not inspect.isfunction(fn):
            continue
        public = not attr.startswith("_") or attr == "__init__" \
            or (not fn.__name__.startswith("_") and own.get(fn.__name__) is val)
        if public:
            out[attr] = val
    return out


def install(tracer: Tracer):
    """Wrap the layers' public entry points; returns an undo list for
    :func:`uninstall`."""
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    undo = []
    wrapped: dict[int, object] = {}

    def wrapper_for(fn, layer):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = tracer.wrap(fn, layer, fn.__qualname__)
        return wrapped[id(fn)]

    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                w = wrapper_for(obj, layer)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            undo.append((m, attr, val))
                            setattr(m, attr, w)
            elif inspect.isclass(obj):
                for attr, val in _public_functions(obj).items():
                    if isinstance(val, staticmethod):
                        w = staticmethod(wrapper_for(val.__func__, layer))
                    else:
                        w = wrapper_for(val, layer)
                    undo.append((obj, attr, val))
                    setattr(obj, attr, w)
    return undo


def uninstall(undo) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)

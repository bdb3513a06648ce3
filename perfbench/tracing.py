"""Spans and counters taken from outside btdfuse, by wrapping its functions.

The traced run replaces each public function of every ``btdfuse.*`` module by
a timing wrapper, in every ``btdfuse`` namespace that binds it (so that
``btdfuse.solver.btd_reconstruct`` is wrapped as well as
``btdfuse.model.btd_reconstruct``), plus ``numpy.linalg.eigh`` and
``scipy.linalg.eigh`` under the one name ``linalg.eigh``.  Spans are kept in
memory and written out by the caller when its work ends.  Nothing in the
program itself changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# modules whose public functions are not wrapped: the CLI layer gets one
# explicit span per command instead
SKIP_MODULES = ("btdfuse.cli",)

EIGH_NAME = "linalg.eigh"


def _read_bytes(args, kwargs, result):
    return result.nbytes


def _write_bytes(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs["t"]
    return getattr(t, "nbytes", 0)


# layers whose bytes moved are counted, from the array sizes they handle
BYTES_OF = {
    "tensorfile.read_tensor": _read_bytes,
    "tensorfile.write_tensor": _write_bytes,
}


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent, name, start, end)`` on the monotonic
    ``time.perf_counter`` clock, which on Linux is shared by every process of
    the machine, so spans of several interpreters can be merged.  All spans of
    one tracer share ``run_id``.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.bytes: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        self.calls[name] += 1
        try:
            yield rec
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrap(self, fn, name: str):
        count_bytes = BYTES_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count_bytes is not None:
                self.bytes[name] += count_bytes(args, kwargs, result)
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "bytes": dict(self.bytes),
        }


def _public_functions(module):
    """(attribute, function, span name) for each btdfuse function ``module`` binds."""
    for attr, value in list(vars(module).items()):
        if not inspect.isfunction(value) or attr != value.__name__:
            continue
        home = sys.modules.get(value.__module__)
        if home is None or not value.__module__.startswith("btdfuse.") or value.__module__ in SKIP_MODULES:
            continue
        if attr not in getattr(home, "__all__", ()):
            continue
        yield attr, value, f"{value.__module__[len('btdfuse.'):]}.{attr}"


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every public btdfuse function in every namespace that binds it.

    Returns the patches as ``(namespace, attribute, original)`` so that
    :func:`uninstall` can put every original back.  The same original gets the
    same wrapper everywhere it is bound.
    """
    import numpy.linalg
    import scipy.linalg

    patches = []
    wrappers = {}
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "btdfuse" or n.startswith("btdfuse."))]
    for module in namespaces:
        for attr, fn, name in _public_functions(module):
            if fn not in wrappers:
                wrappers[fn] = tracer.wrap(fn, name)
            patches.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])
    for module in (numpy.linalg, scipy.linalg):
        fn = module.eigh
        patches.append((module, "eigh", fn))
        setattr(module, "eigh", tracer.wrap(fn, EIGH_NAME))
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Undo :func:`install`, last patch first."""
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its children.

    Children are the spans whose ``parent`` is the span's id; each is clipped
    to the parent's interval first.  Returned in the order of ``spans``.
    """
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        start, end = s["start"], s["end"]
        kids = [(max(c["start"], start), min(c["end"], end)) for c in children.get(s["id"], ())]
        covered = union_length([k for k in kids if k[1] > k[0]])
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict:
    """Sum of self time per span name."""
    totals: dict = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def unattributed(spans, wall_start: float, wall_end: float) -> float:
    """Wall time in ``[wall_start, wall_end]`` that no top-level span covers."""
    tops = [(max(s["start"], wall_start), min(s["end"], wall_end))
            for s in spans if s["parent"] is None]
    return (wall_end - wall_start) - union_length([t for t in tops if t[1] > t[0]])

"""Layer tracing for one benchmark pass, installed from outside modgeod.

The tracer replaces module and class attributes through which one modgeod
layer calls another with timing wrappers, and puts the originals back when
the pass ends.  No file of the program changes.

- Coarse calls ("span" targets) become spans: id, name, parent span id,
  wall-clock start and end, busy time and self time.  A generator's busy
  time is the time spent producing its items, not the time its consumer
  holds it.
- Kernel calls ("counter" targets), which number in the millions, become
  counters aggregated per (name, parent name): calls, busy and self time.
- "count" targets are counted without timing; their time stays in the
  caller's self time.

Busy time is the calling thread's CPU time (``time.thread_time``), so time a
thread spends waiting for the interpreter lock or for a thread pool is not
counted, and busy times from pool threads add up without double counting.
Self time is busy time minus the busy time of the wrapped calls made on the
same thread.  A wrapped call that starts on a pool thread with nothing open on
that thread takes the innermost call open on the main thread as its parent.
Everything stays in memory until ``report`` is called.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import threading
from time import perf_counter, thread_time

# (target, metric group, kind); a target is "module:attribute" or
# "module:Class.attribute", and the group's first component is its layer
TARGETS = (
    ("modgeod.cli:main", "cli.main", "span"),
    # enumeration
    ("modgeod.enumeration:classes", "enumeration.classes", "span"),
    ("modgeod.geometry:classes", "enumeration.classes", "span"),
    ("modgeod.enumeration:reciprocal_classes", "enumeration.reciprocal_classes", "span"),
    ("modgeod.enumeration:lower_bound_witnesses", "enumeration.lower_bound_witnesses", "span"),
    ("modgeod.enumeration:phi", "enumeration.phi", "counter"),
    ("modgeod.enumeration:phi_inverse", "enumeration.phi_inverse", "counter"),
    ("modgeod.enumeration:power_map", "enumeration.power_map", "counter"),
    # binwords kernels, at each module that calls them
    ("modgeod.enumeration:_min_rotation_bits", "binwords.min_rotation", "counter"),
    ("modgeod.binwords:_min_rotation_bits", "binwords.min_rotation", "counter"),
    ("modgeod.enumeration:_smallest_period_bits", "binwords.smallest_period", "counter"),
    ("modgeod.binwords:_smallest_period_bits", "binwords.smallest_period", "counter"),
    ("modgeod.enumeration:_max_cyclic_run_bits", "binwords.max_cyclic_run", "counter"),
    ("modgeod.binwords:_max_cyclic_run_bits", "binwords.max_cyclic_run", "counter"),
    ("modgeod.binwords:_reverse_bits", "binwords.mirror", "counter"),
    ("modgeod.enumeration:_full_from_half_bits", "binwords.half_to_full", "counter"),
    ("modgeod.binwords:BinaryWord.__init__", "binwords.word_api", "counter"),
    ("modgeod.binwords:BinaryWord.from_entries", "binwords.word_api", "counter"),
    ("modgeod.binwords:rotate", "binwords.word_api", "counter"),
    ("modgeod.geometry:rotate", "binwords.word_api", "counter"),
    ("modgeod.binwords:runs_of", "binwords.word_api", "counter"),
    # counting
    ("modgeod.counting:cumulative", "counting.cumulative", "span"),
    ("modgeod.counting:necklace_count", "counting.necklace", "counter"),
    ("modgeod.counting:primitive_class_count", "counting.primitive", "counter"),
    ("modgeod.counting:primitive_class_count_mobius", "counting.primitive_mobius", "counter"),
    ("modgeod.counting:reciprocal_count", "counting.reciprocal", "counter"),
    ("modgeod.counting:bounded_compositions", "counting.bounded_compositions", "counter"),
    ("modgeod.counting:alpha", "counting.alpha", "counter"),
    ("modgeod.counting:closed_form_compositions", "counting.closed_form", "counter"),
    ("modgeod.counting:lowlying_lower_bound", "counting.lower_bound", "counter"),
    ("modgeod.counting:growth_target", "counting.growth_target", "counter"),
    # geometry
    ("modgeod.geometry:audit_lemma71", "geometry.audit_lemma71", "span"),
    ("modgeod.geometry:max_depth", "geometry.max_depth", "span"),
    ("modgeod.geometry:encode", "geometry.encode", "counter"),
    ("modgeod.geometry:_bfs_min_c", "geometry.bfs", "counter"),
    ("modgeod.geometry:ProjectiveMatrix.__mul__", "geometry.matmul", "count"),
    ("modgeod.geometry:classify", "geometry.classify", "counter"),
    ("modgeod.geometry:apex_height", "geometry.apex_height", "counter"),
    # verify
    ("modgeod.verify:run_suite", "verify.run_suite", "span"),
)

# targets whose calls are one candidate word each, for enumeration.words_scanned
SCAN_TARGETS = (
    "modgeod.enumeration:_min_rotation_bits",
    "modgeod.enumeration:_full_from_half_bits",
)


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [group, child seconds, span id]
        self.spans: list[tuple] = []
        self.counters: dict[tuple[str, str], list] = {}  # -> [calls, busy_s, self_s]
        self.tallies: dict[str, int] = {}  # calls per wrapped target


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- installing -------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target, group, kind in targets:
            modname, _, path = target.partition(":")
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            try:
                for name in outer:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.absent.append(target)
                continue
            setattr(owner, attr, self._wrap(original, target, group, kind))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, original, target: str, group: str, kind: str):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, target, group, kind))
        fn = original
        if kind == "count":
            def counted(*args, **kwargs):
                st = self._state()
                key = (group, st.stack[-1][0] if st.stack else "")
                entry = st.counters.get(key)
                if entry is None:
                    entry = st.counters[key] = [0, 0.0, 0.0]
                entry[0] += 1
                st.tallies[target] = st.tallies.get(target, 0) + 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            def generator(*args, **kwargs):
                st = self._state()
                st.tallies[target] = st.tallies.get(target, 0) + 1
                return self._iterate(group, kind, fn(*args, **kwargs))
            return generator

        def timed(*args, **kwargs):
            st = self._state()
            parent, local = self._parent(st)
            frame = [group, 0.0, next(self._ids) if kind == "span" else 0]
            st.stack.append(frame)
            w0 = perf_counter()
            c0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = thread_time() - c0
                w1 = perf_counter()
                st.stack.pop()
                st.tallies[target] = st.tallies.get(target, 0) + 1
                if local:
                    parent[1] += busy
                self._record(st, parent, frame, kind, w0, w1, busy, 0)
        return timed

    # -- recording --------------------------------------------------------

    def _parent(self, st: _ThreadState):
        """The caller's frame, and whether it is on this thread."""
        if st.stack:
            return st.stack[-1], True
        if st is not self._main:
            try:
                return self._main.stack[-1], False
            except IndexError:
                pass
        return None, False

    def _iterate(self, group: str, kind: str, inner):
        st = self._state()
        parent, local = self._parent(st)
        frame = [group, 0.0, next(self._ids)]
        start = perf_counter()
        busy, items = 0.0, 0
        try:
            while True:
                st.stack.append(frame)
                c0 = thread_time()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = thread_time() - c0
                    st.stack.pop()
                    busy += dt
                    if local:
                        parent[1] += dt
                items += 1
                yield item
        finally:
            inner.close()
            self._record(st, parent, frame, kind, start, perf_counter(), busy, items)

    def _record(self, st, parent, frame, kind, w0, w1, busy, items) -> None:
        group, child, span_id = frame
        if kind == "span":
            parent_id = parent[2] if parent is not None else 0
            st.spans.append((span_id, group, parent_id, w0, w1, busy, busy - child, items))
            return
        key = (group, parent[0] if parent is not None else "")
        entry = st.counters.get(key)
        if entry is None:
            entry = st.counters[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child

    # -- reading ----------------------------------------------------------

    def report(self) -> dict:
        """Spans and counters from every thread, merged once at the end."""
        spans = sorted((s for st in self._states for s in st.spans), key=lambda s: s[0])
        counters: dict[tuple[str, str], list] = {}
        tallies: dict[str, int] = {}
        for st in self._states:
            for target, calls in st.tallies.items():
                tallies[target] = tallies.get(target, 0) + calls
            for key, (calls, total, own) in st.counters.items():
                entry = counters.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {
            "spans": [
                {"id": i, "name": n, "parent": p, "start": a, "end": b, "busy_s": busy,
                 "self_s": own, "items": items}
                for i, n, p, a, b, busy, own, items in spans
            ],
            "counters": [
                {"name": n, "parent": p, "calls": c, "busy_s": tot, "self_s": own}
                for (n, p), (c, tot, own) in sorted(counters.items())
            ],
            "target_calls": tallies,
            "absent": list(self.absent),
        }

"""Outside-in span tracer.

Wraps functions of an already imported package from the outside: every
module attribute (and every extra container slot) that holds the original
function object is replaced by one wrapper, so a call cannot bypass the span
by going through a name that another module bound with ``from x import f``.
Nothing in the traced package is edited on disk.

Spans are kept in flat arrays (name, start, end, parent, value, raised) and
written out once, at the end of the run.  ``value`` is an optional number an
observer derives from the call (points evaluated, a hit flag, a residual).
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.raised = array("b")
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, object, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.value.append(0.0)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._open(self.name_id(name))
        try:
            yield idx
        except BaseException:
            self.raised[idx] = 1
            raise
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(args, kwargs, result) -> float
        is stored as the span's value."""
        nid = self.name_id(name)
        open_, close = self._open, self._close
        raised, value = self.raised, self.value

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(idx)
                raised[idx] = 1
                raise
            close(idx)
            if observe is not None:
                value[idx] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch_everywhere(self, package: str, original, wrapped) -> int:
        """Rebind every attribute of package's modules that is `original`."""
        count = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.patch_slot(mod, attr, wrapped)
                    count += 1
        return count

    def patch_slot(self, owner, key, wrapped) -> None:
        """Rebind one attribute, or one entry when owner is a dict."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapped
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, wrapped)

    def unpatch(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    Spans come from one synchronous call stack, so children of a span never
    overlap and the covered time is the sum of their durations."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur - covered

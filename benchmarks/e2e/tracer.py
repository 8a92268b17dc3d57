"""Per-layer tracing from outside the program: wrap public names, time them.

A :class:`Seam` names one function the program calls across a layer
boundary, *at the place the caller looks it up*: ``plan_suite`` is
wrapped as ``repro.engine.executor.plan_suite`` because the executor
imported it by name, and wrapping ``repro.engine.plan.plan_suite`` would
catch nothing.  Installing a seam whose name no longer resolves raises,
so a refactor that moves a seam fails loudly instead of reporting zero.

Each wrapper records a span: its duration, and the part of that
interval its child spans (wrapped calls made inside it, on the same
thread) cover.  A layer's self time is the difference.  Stats survive
uninstalling, so one :class:`Tracer` can be entered once per traced
round and read at the end.

An *observer* sees each call of one seam that returns: its arguments,
its result and its start and end times.  It derives numbers a span
alone does not give, such as how long a job waited between two seams.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Seam", "Tracer", "installed_wrappers"]

_MARK = "__e2e_seam__"


@dataclass(frozen=True)
class Seam:
    """``name`` is the stat key; ``target`` is ``module:attr`` where
    ``attr`` is ``func``, ``Class.method`` or ``DICT[key]``."""

    name: str
    target: str

    def resolve(self):
        """(owner, attribute key, current value); raises if absent."""
        module_name, _, path = self.target.partition(":")
        owner = importlib.import_module(module_name)
        if path.endswith("]"):
            dict_name, _, key = path[:-1].partition("[")
            mapping = getattr(owner, dict_name)
            if key not in mapping:
                raise KeyError(f"seam {self.target} does not resolve")
            return mapping, key, mapping[key]
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        if isinstance(owner, type):
            if attr not in vars(owner):
                raise AttributeError(f"seam {self.target} does not resolve")
            return owner, attr, vars(owner)[attr]
        return owner, attr, getattr(owner, attr)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Wrap a set of seams while entered; accumulate per-seam stats.

    ``observers`` maps a seam name to ``fn(args, kwargs, result, start,
    end)``, called after each call of that seam returns.
    """

    def __init__(self, seams, observers=None) -> None:
        self.seams = tuple(seams)
        self.observers = dict(observers or {})
        #: name -> [calls, total seconds, self seconds]; several seams
        #: may share a name (one function looked up in two modules)
        self.stats: dict[str, list[float]] = {s.name: [0, 0.0, 0.0] for s in self.seams}
        #: seam target -> calls, so each lookup site is checked on its own
        self.hits: dict[str, int] = {s.target: 0 for s in self.seams}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, frame: list[float], start: float, target: str | None) -> None:
        elapsed = time.perf_counter() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        with self._lock:
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[0]
            if target is not None:
                self.hits[target] += 1

    @contextmanager
    def span(self, name: str):
        """A span the harness opens itself (an op, as the client sees it)."""
        frame = [0.0]
        self._stack().append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start, None)

    def _wrap(self, seam: Seam, fn):
        observe = self.observers.get(seam.name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack().append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(seam.name, frame, start, seam.target)
            if observe is not None:
                observe(args, kwargs, result, start, time.perf_counter())
            return result

        setattr(wrapper, _MARK, seam.name)
        return wrapper

    # ------------------------------------------------------------ install
    def __enter__(self) -> Tracer:
        try:
            for seam in self.seams:
                owner, key, value = seam.resolve()
                if isinstance(value, classmethod):
                    wrapped = classmethod(self._wrap(seam, value.__func__))
                else:
                    wrapped = self._wrap(seam, value)
                self._saved.append((owner, key, value))
                _set(owner, key, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            _set(owner, key, value)


def installed_wrappers(seams) -> list[str]:
    """Seams whose target currently holds a tracer wrapper."""
    found = []
    for seam in seams:
        _owner, _key, value = seam.resolve()
        fn = value.__func__ if isinstance(value, classmethod) else value
        if hasattr(fn, _MARK):
            found.append(seam.name)
    return found

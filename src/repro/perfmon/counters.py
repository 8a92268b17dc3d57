"""Hardware-counter emulation: the counter registry and CounterSet.

The SX series exposed its performance counters to users through the
PROGINF runtime summary — execution cycles, vector-element counts,
average vector length, FLOP count, memory/bank-conflict time.  This
module is the bookkeeping half of that emulation:

* :func:`declare_counters` — each machine component (``vector_unit``,
  ``scalar_unit``, ``memory``, ``cache``, ``ixs``, ``iop``, ``xmu``,
  ``processor``) declares the counters it populates, at import time.
  The declaration is what the repo linter's REPO006 rule checks: a
  component that consumes trace operations without declaring counters
  is invisible to the profiler, which is a bug, not a choice.
* :class:`CounterSet` — an additive ``component.counter -> float``
  store.  Components only ever *increment*; reports derive ratios
  (vector-operation ratio, average vector length, Mflops) afterwards.

This module is a leaf: machine components import it, so it must not
import anything from :mod:`repro.machine`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

__all__ = [
    "COMPONENT_COUNTERS",
    "declare_counters",
    "CounterSet",
]

#: Component name -> declared counter names, populated by
#: :func:`declare_counters` calls at component-module import time.
COMPONENT_COUNTERS: dict[str, tuple[str, ...]] = {}


def declare_counters(component: str, names: tuple[str, ...]) -> None:
    """Register the counters a component populates.

    Idempotent and additive: re-declaring a component unions the names,
    so reloading a module never shrinks the registry.
    """
    if not component or not component.replace("_", "").isalnum():
        raise ValueError(f"component names are identifiers, got {component!r}")
    if not names:
        raise ValueError(f"component {component!r} must declare at least one counter")
    for name in names:
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"counter names are identifiers, got {name!r}")
    existing = COMPONENT_COUNTERS.get(component, ())
    merged = tuple(dict.fromkeys(existing + tuple(names)))
    COMPONENT_COUNTERS[component] = merged


class CounterSet:
    """Additive performance counters, grouped by machine component.

    Increments are validated against the :data:`COMPONENT_COUNTERS`
    registry so a typo in a recording site fails loudly in tests rather
    than silently splitting a counter in two.
    """

    def __init__(self) -> None:
        self._values: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------ write
    def add(self, component: str, name: str, value: float = 1.0) -> None:
        """Increment one counter (declared components/names only)."""
        declared = COMPONENT_COUNTERS.get(component)
        if declared is None:
            raise KeyError(
                f"component {component!r} never called declare_counters(); "
                f"declared components: {', '.join(sorted(COMPONENT_COUNTERS))}"
            )
        if name not in declared:
            raise KeyError(
                f"counter {component}.{name} is not declared; declared "
                f"counters: {', '.join(declared)}"
            )
        bucket = self._values.setdefault(component, {})
        bucket[name] = bucket.get(name, 0.0) + float(value)

    def add_many(self, component: str, increments: Mapping[str, float]) -> None:
        """Increment several counters of one component."""
        for name, value in increments.items():
            self.add(component, name, value)

    def merge(self, other: "CounterSet") -> None:
        """Fold another CounterSet into this one (sum per counter)."""
        for component, bucket in other._values.items():
            for name, value in bucket.items():
                self.add(component, name, value)

    # ------------------------------------------------------------- read
    def get(self, component: str, name: str, default: float = 0.0) -> float:
        return self._values.get(component, {}).get(name, default)

    def component(self, component: str) -> dict[str, float]:
        """A copy of one component's counters (empty if never touched)."""
        return dict(self._values.get(component, {}))

    def components(self) -> tuple[str, ...]:
        """Components with at least one recorded counter, insertion order."""
        return tuple(self._values)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._values.values())

    def __bool__(self) -> bool:
        return bool(self._values)

    def __iter__(self) -> Iterator[tuple[str, str, float]]:
        """Yield (component, counter, value) triples in insertion order."""
        for component, bucket in self._values.items():
            for name, value in bucket.items():
                yield component, name, value

    # ------------------------------------------------ (de)serialization
    def to_dict(self) -> dict[str, dict[str, float]]:
        """Plain nested-dict form, for JSON export."""
        return {component: dict(bucket) for component, bucket in self._values.items()}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, float]]) -> "CounterSet":
        """Rebuild from :meth:`to_dict` output.

        Components/counters unknown to this build are kept verbatim (a
        profile written by a newer build must still diff against an old
        one), bypassing declaration checks.
        """
        counters = cls()
        for component, bucket in payload.items():
            target = counters._values.setdefault(str(component), {})
            for name, value in bucket.items():
                target[str(name)] = float(value)
        return counters

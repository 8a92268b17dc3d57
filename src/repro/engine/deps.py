"""Static dependency tracing and content-addressed experiment digests.

The cache key for an experiment must change exactly when its result
could: the engine never *runs* anything to decide staleness.  So the
key is a digest over

1. the experiment id,
2. the source bytes of every ``repro.*`` module the experiment's
   builder function *transitively* imports (traced statically, below),
3. the machine-preset configuration fingerprint (the clock periods the
   calibrated presets are built around), and
4. a digest schema version, so a change to the keying scheme itself
   invalidates every prior entry.

Tracing is per-builder, not per-module: ``repro.suite.experiments``
imports every kernel, so hashing *its* import closure would make any
kernel edit invalidate the whole suite.  Instead we walk the builder
function's AST, resolve the names it references against the module's
import table (following module-local helpers like ``_sx4``), and take
the transitive ``repro.*`` closure of only those seeds.  Editing
``rfft.py`` therefore invalidates ``figure6`` and ``figure7`` but not
``table1``.  The experiments module itself is always part of the key —
an edit there conservatively invalidates everything.

A digest sits on the blocking path of every engine call, so its cost
is a handful of file reads.  Each module's import edges, and each
builder's seeds, are memoised under the sha256 of the source bytes the
digest reads anyway: a module version is parsed once per process, an
edit is seen on the next call, and no AST is kept.  Within one call
each file is read and hashed once, however many experiments share it.
"""

from __future__ import annotations

import ast
import hashlib
import os
import threading
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import repro
from repro.machine import presets
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters

__all__ = [
    "DIGEST_SCHEMA",
    "EXPERIMENTS_MODULE",
    "SERVICE_RESOLVE_MODULE",
    "ExperimentDigest",
    "builder_entry_points",
    "package_root",
    "module_path",
    "dependency_closure",
    "closure_digest",
    "experiment_dependencies",
    "machine_fingerprint",
    "experiment_digest",
    "suite_digests",
]

#: Bump when the keying scheme changes: old cache entries become stale.
DIGEST_SCHEMA = 1

#: The module whose builder functions define the suite.
EXPERIMENTS_MODULE = "repro.suite.experiments"

#: The service's request-resolution registry; its resolvers join the
#: builder entry points so the effect analyzer holds the HTTP surface
#: to the same determinism contract as the experiment builders.
SERVICE_RESOLVE_MODULE = "repro.service.resolve"

_PACKAGE = "repro"

declare_counters("deps", ("modules_hashed", "modules_parsed"))

#: module name -> (sha256 of its bytes, the ``repro.*`` modules they
#: import).  One entry per module, replaced when its bytes change.
_IMPORT_EDGES: dict[str, tuple[bytes, frozenset[str]]] = {}

#: ``EXPERIMENTS_MODULE`` -> (sha256 of its bytes, top-level function
#: name -> the modules it references, following local helpers).
_BUILDER_SEEDS: dict[str, tuple[bytes, dict[str, frozenset[str]]]] = {}

#: Serialises ``ast.parse``: some CPython releases keep the tree
#: converter's recursion counter in interpreter-wide state, and two
#: threads parsing at once can fail with "SystemError: AST constructor
#: recursion depth mismatch" (seen on 3.11.7).
_PARSE_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def package_root() -> Path:
    """Directory holding the installed ``repro`` package sources."""
    return Path(repro.__file__).resolve().parent


def module_path(dotted: str) -> Path | None:
    """File for a dotted ``repro.*`` module name, or None if no such module."""
    if dotted != _PACKAGE and not dotted.startswith(_PACKAGE + "."):
        return None
    base = os.path.join(package_root(), *dotted.split(".")[1:])
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return Path(candidate)
    return None


def _memoised(memo: dict, name: str, digest: bytes, derive: Callable[[], object]):
    """``memo[name]``'s value if it was derived from bytes hashing to
    ``digest``; else ``derive()``, stored in its place.

    The store is one dict assignment of an immutable pair, so threads
    that race on a module at worst each derive the same value once
    (their parses take turns; see ``_PARSE_LOCK``).
    """
    entry = memo.get(name)
    if entry is None or entry[0] != digest:
        entry = memo[name] = (digest, derive())
    return entry[1]


class _Reads:
    """One digest call's view of the tree, each file read once.

    Holds every module's resolved path and its ``(bytes, sha256)`` for
    the call's lifetime, so the closure walk, the seed lookup and the
    digest share them, as do all the experiments of one call.
    """

    def __init__(self) -> None:
        self.paths: dict[str, Path | None] = {}
        self.sources: dict[str, tuple[bytes, bytes]] = {}
        self.parsed = 0

    def path(self, name: str) -> Path | None:
        if name not in self.paths:
            self.paths[name] = module_path(name)
        return self.paths[name]

    def source(self, name: str) -> tuple[bytes, bytes]:
        """``(bytes, sha256 digest)`` of a module that exists."""
        if name not in self.sources:
            blob = self.path(name).read_bytes()
            self.sources[name] = (blob, hashlib.sha256(blob).digest())
        return self.sources[name]

    def parse(self, name: str) -> ast.Module:
        self.parsed += 1
        with _PARSE_LOCK:
            return ast.parse(self.source(name)[0], filename=str(self.path(name)))

    def imports(self, name: str) -> frozenset[str]:
        """The ``repro.*`` modules a module imports, parsed once per version."""
        return _memoised(
            _IMPORT_EDGES, name, self.source(name)[1],
            lambda: frozenset(_imported_modules(self.parse(name), name.rsplit(".", 1)[0])),
        )

    def record(self) -> None:
        """Fold the call's work into the active perfmon profile, if any.

        ``suite_digests`` and ``closure_digest``, the program's two ways
        in, record; the helpers they call do not.
        """
        perfmon_record("deps", {"modules_hashed": float(len(self.sources)),
                                "modules_parsed": float(self.parsed)})


def _imported_modules(tree: ast.AST, current_package: str) -> set[str]:
    """Every ``repro.*`` module a parsed source imports (anywhere in it).

    ``from repro.kernels import hint`` names the *submodule* — resolve
    each alias against the filesystem to tell submodules from symbols.
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if module_path(alias.name) is not None:
                    found.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative import: resolve against this package
                pkg_parts = current_package.split(".")
                module = ".".join(pkg_parts[: len(pkg_parts) - node.level + 1]
                                  + ([module] if module else []))
            if module_path(module) is None:
                continue
            for alias in node.names:
                submodule = f"{module}.{alias.name}"
                found.add(submodule if module_path(submodule) is not None else module)
    return found


def dependency_closure(
    seeds: Iterable[str], no_traverse: Iterable[str] = (), *, _reads: _Reads | None = None
) -> dict[str, Path]:
    """Transitive ``repro.*`` import closure of the seed modules.

    Package ``__init__`` files are *hashed but never traversed*: they run
    on import (so their bytes belong in the key), but they re-export
    wide — ``repro.kernels`` imports every kernel — and following them
    would collapse every experiment's closure into the whole repo.  This
    repo's modules import submodules directly, which is the path the
    tracer follows.  ``no_traverse`` marks additional hash-only modules
    (the experiments module, whose imports span the suite by design).
    ``_reads`` shares one digest call's file reads.
    """
    reads = _Reads() if _reads is None else _reads
    closure: dict[str, Path] = {}
    hash_only = set(no_traverse)
    frontier = [s for s in seeds if reads.path(s) is not None]
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        path = reads.path(name)
        if path is None:
            continue
        closure[name] = path
        # A module implies its ancestor packages (their __init__ runs on
        # import) — included hash-only.
        parts = name.split(".")
        for i in range(1, len(parts)):
            ancestor = ".".join(parts[:i])
            if ancestor not in closure:
                ancestor_path = reads.path(ancestor)
                if ancestor_path is not None:
                    closure[ancestor] = ancestor_path
        if name in hash_only or path.name == "__init__.py":
            continue
        frontier.extend(reads.imports(name))
    return closure


def builder_entry_points() -> tuple[tuple[str, str, str], ...]:
    """``(exp_id, module, function)`` for every registered builder.

    Enumerated *statically* from the ``EXPERIMENTS`` dict literal in the
    experiments module — no builder runs, mirroring how the rest of this
    module treats staleness.  This is the contract surface the effect
    analyzer (:mod:`repro.analysis.effects`) checks: each entry point
    must be transitively deterministic (DET001–DET004) and, because the
    executor dispatches these same functions into pool workers, free of
    module-global mutation (DET005).
    """
    entries = list(_registry_entry_points(EXPERIMENTS_MODULE, "EXPERIMENTS"))
    entries.extend(
        (f"service:{kind}", module, func)
        for kind, module, func in _registry_entry_points(
            SERVICE_RESOLVE_MODULE, "JOB_RESOLVERS"
        )
    )
    return tuple(entries)


def _registry_entry_points(
    module: str, registry: str
) -> tuple[tuple[str, str, str], ...]:
    """Statically enumerate a module-level ``{str: function}`` dict literal.

    Returns ``(key, module, function)`` for every entry whose key is a
    string constant and whose value names a top-level function of the
    module.  An absent module yields no entries — the engine must keep
    working in trees that ship without the optional registries.
    """
    reads = _Reads()
    if reads.path(module) is None:
        return ()
    tree = reads.parse(module)
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    entries: list[tuple[str, str, str]] = []
    for node in tree.body:
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == registry for t in node.targets
        ):
            value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == registry
        ):
            value = node.value
        if not isinstance(value, ast.Dict):
            continue
        for key, builder in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(builder, ast.Name)
                and builder.id in functions
            ):
                entries.append((key.value, module, builder.id))
    return tuple(entries)


def _builder_seed_table(tree: ast.Module) -> dict[str, frozenset[str]]:
    """Top-level function name -> modules it references, following local helpers."""
    imports: dict[str, str] = {}
    functions: dict[str, ast.FunctionDef] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if module_path(alias.name) is not None:
                    imports[(alias.asname or alias.name).split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module_path(module) is None:
                continue
            for alias in node.names:
                submodule = f"{module}.{alias.name}"
                target = submodule if module_path(submodule) is not None else module
                imports[alias.asname or alias.name] = target
        elif isinstance(node, ast.FunctionDef):
            functions[node.name] = node
    # Each function's own seeds and the local helpers it calls ...
    own: dict[str, tuple[set[str], set[str]]] = {}
    for name, fn in functions.items():
        seeds = _imported_modules(fn, EXPERIMENTS_MODULE.rsplit(".", 1)[0])
        helpers: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imports:
                    seeds.add(imports[node.id])
                elif node.id in functions:
                    helpers.add(node.id)
        own[name] = (seeds, helpers)
    # ... then the union over everything reachable through helpers.
    table: dict[str, frozenset[str]] = {}
    for name in functions:
        seeds = set()
        visited: set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current not in visited:
                visited.add(current)
                seeds |= own[current][0]
                stack.extend(own[current][1])
        table[name] = frozenset(seeds)
    return table


def _builder_seeds(builder_name: str, reads: _Reads) -> frozenset[str]:
    """Modules a builder function references, following local helpers."""
    table = _memoised(
        _BUILDER_SEEDS, EXPERIMENTS_MODULE, reads.source(EXPERIMENTS_MODULE)[1],
        lambda: _builder_seed_table(reads.parse(EXPERIMENTS_MODULE)),
    )
    if builder_name not in table:
        raise KeyError(f"no builder function {builder_name!r} in {EXPERIMENTS_MODULE}")
    return table[builder_name]


def _seeds_for(exp_id: str, reads: _Reads) -> frozenset[str]:
    from repro.suite.experiments import EXPERIMENTS

    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    builder = EXPERIMENTS[exp_id]
    module = getattr(builder, "__module__", "")
    if module == EXPERIMENTS_MODULE:
        return _builder_seeds(builder.__name__, reads)
    # A builder registered from elsewhere (tests, extensions): seed from
    # its defining module if that is a repro module, else nothing — the
    # experiments module below still anchors the digest.
    return frozenset({module} if reads.path(module) is not None else ())


def closure_digest(seeds: Iterable[str]) -> str:
    """Digest over the source bytes of the seeds' transitive closure.

    The generic form of :func:`experiment_digest`'s module section:
    callers that key a cache on "the code that computes this value"
    (``repro.explore`` keys grid-sweep chunks this way) fold it into
    their own content hash, so any edit to a costing module invalidates
    exactly the chunks it could have changed.
    """
    reads = _Reads()
    deps = dependency_closure(seeds, _reads=reads)
    hasher = hashlib.sha256()
    hasher.update(f"schema={DIGEST_SCHEMA}\x00".encode())
    for name in sorted(deps):
        hasher.update(f"{name}\x00".encode())
        hasher.update(reads.source(name)[1])
        hasher.update(b"\x00")
    reads.record()
    return hasher.hexdigest()


def experiment_dependencies(
    exp_id: str, *, _reads: _Reads | None = None
) -> dict[str, Path]:
    """Module name -> source file for everything the experiment depends on."""
    reads = _Reads() if _reads is None else _reads
    seeds = _seeds_for(exp_id, reads) | {EXPERIMENTS_MODULE}
    return dependency_closure(seeds, no_traverse={EXPERIMENTS_MODULE}, _reads=reads)


def machine_fingerprint() -> str:
    """Digest of the machine-preset configuration the suite is built on."""
    config = {
        "benchmark_clock_ns": presets.BENCHMARK_CLOCK_NS,
        "production_clock_ns": presets.PRODUCTION_CLOCK_NS,
    }
    text = ",".join(f"{k}={v!r}" for k, v in sorted(config.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentDigest:
    """The content-addressed identity of one experiment's result."""

    exp_id: str
    key: str  # sha256 hex over id + dep sources + machine config
    modules: tuple[str, ...]  # sorted dependency module names


def experiment_digest(
    exp_id: str,
    sources: Mapping[str, bytes] | None = None,
    *,
    _reads: _Reads | None = None,
) -> ExperimentDigest:
    """Digest for one experiment.

    ``sources`` overrides the on-disk bytes per module name — the seam
    tests (and ``plan --what-if`` style tooling) use to ask "what would
    an edit to module X invalidate?" without touching the tree.
    """
    reads = _Reads() if _reads is None else _reads
    deps = experiment_dependencies(exp_id, _reads=reads)
    hasher = hashlib.sha256()
    hasher.update(f"schema={DIGEST_SCHEMA}\x00".encode())
    hasher.update(f"exp_id={exp_id}\x00".encode())
    hasher.update(f"machine={machine_fingerprint()}\x00".encode())
    for name in sorted(deps):
        if sources is not None and name in sources:
            blob_digest = hashlib.sha256(sources[name]).digest()
        else:
            blob_digest = reads.source(name)[1]
        hasher.update(f"{name}\x00".encode())
        hasher.update(blob_digest)
        hasher.update(b"\x00")
    return ExperimentDigest(exp_id=exp_id, key=hasher.hexdigest(),
                            modules=tuple(sorted(deps)))


def suite_digests(
    exp_ids: Iterable[str] | None = None,
    sources: Mapping[str, bytes] | None = None,
) -> dict[str, ExperimentDigest]:
    """Digests for the requested experiments (default: all, paper order)."""
    from repro.suite.experiments import EXPERIMENTS

    ids = list(EXPERIMENTS) if exp_ids is None else list(exp_ids)
    reads = _Reads()
    digests = {
        exp_id: experiment_digest(exp_id, sources, _reads=reads) for exp_id in ids
    }
    reads.record()
    return digests

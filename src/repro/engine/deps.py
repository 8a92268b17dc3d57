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

A digest sits on the blocking path of every engine call, so it must
describe the code this process runs and cost nothing once known.  Each
module's sha256 is *pinned* once per process, from the file the loaded
module came from (``module.__file__``, read after the import), beside
the file's ``(st_mtime_ns, st_size)``.  Import edges and builder seeds
are parsed once from the pinned bytes, which are dropped once parsed,
and every experiment and closure digest is then memoised for the life
of the process: a warm call opens, stats and hashes no file.  A
running process never sees an edit; a fresh one does.  The pinned stats
serve only :func:`code_drift`, which names the modules edited on disk
since they were pinned: the server's health check and the engine CLI
report it, and the keys stay the loaded code's.  Pool workers check the
pins the job carries against the code they loaded (:func:`code_mismatch`).
"""

from __future__ import annotations

import ast
import hashlib
import importlib
import os
import sys
import threading
from collections.abc import Iterable, Mapping
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
    "experiment_code",
    "code_mismatch",
    "code_drift",
    "pin_loaded",
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


@dataclass(frozen=True)
class ExperimentDigest:
    """The content-addressed identity of one experiment's result."""

    exp_id: str
    key: str  # sha256 hex over id + dep sources + machine config
    modules: tuple[str, ...]  # sorted dependency module names


@dataclass(frozen=True)
class _Pin:
    """The source file a loaded module came from, as first read here."""

    path: str
    sha256: bytes
    stat: tuple[int, int]  # (st_mtime_ns, st_size), taken before the read


#: module name -> its pin; taken once, never replaced.
_PINS: dict[str, _Pin] = {}

#: module name -> its pinned source bytes, kept until they are parsed.
_UNPARSED: dict[str, bytes] = {}

#: module name -> the ``repro.*`` modules its pinned source imports.
_IMPORT_EDGES: dict[str, frozenset[str]] = {}

#: ``EXPERIMENTS_MODULE``'s top-level function name -> the modules it
#: references, following local helpers; filled when that module is parsed.
_BUILDER_SEEDS: dict[str, frozenset[str]] = {}

#: ``(exp_id, builder __module__, builder __name__)`` -> digest.  Not the
#: function object: a ``functools.wraps`` wrapper keeps its builder's
#: digest, and a builder registered from another module gets its own.
_EXPERIMENT_DIGESTS: dict[tuple[str, str, str], ExperimentDigest] = {}

#: seed tuple -> :func:`closure_digest`.
_CLOSURE_DIGESTS: dict[tuple[str, ...], str] = {}

#: Held to fill any table above (see ``_memoised``).  It also keeps
#: ``ast.parse`` to one thread: some CPython releases keep the tree
#: converter's recursion counter in interpreter-wide state, and two
#: threads parsing at once can fail with "SystemError: AST constructor
#: recursion depth mismatch" (seen on 3.11.7).
_LOCK = threading.RLock()


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


def _memoised(table: dict, key, compute):
    """``table[key]``, computed under the lock on first use.

    A warm read is one dict lookup and takes no lock; threads racing on
    an empty entry compute it once and agree.
    """
    value = table.get(key)
    if value is None:
        with _LOCK:
            value = table.get(key)
            if value is None:
                value = table[key] = compute()
    return value


def _pin(name: str) -> _Pin:
    """A module's pin, taken on first use from the file it was loaded from."""
    return _memoised(_PINS, name, lambda: _read_pin(name))


def _read_pin(name: str) -> _Pin:
    path = importlib.import_module(name).__file__
    with open(path, "rb") as source:
        stat = os.fstat(source.fileno())
        blob = source.read()
    _UNPARSED[name] = blob
    perfmon_record("deps", {"modules_hashed": 1.0})
    return _Pin(path, hashlib.sha256(blob).digest(), (stat.st_mtime_ns, stat.st_size))


def _import_edges(name: str) -> frozenset[str]:
    """The ``repro.*`` modules a module's pinned source imports."""
    return _memoised(_IMPORT_EDGES, name, lambda: _parse_pinned(name))


def _parse_pinned(name: str) -> frozenset[str]:
    """Parse a module's pinned bytes and drop them: its import edges, and
    for the experiments module the builder seed table too."""
    path = _pin(name).path
    tree = ast.parse(_UNPARSED.pop(name), filename=path)
    perfmon_record("deps", {"modules_parsed": 1.0})
    if name == EXPERIMENTS_MODULE:
        _BUILDER_SEEDS.update(_builder_seed_table(tree))
    return frozenset(_imported_modules(tree, name.rsplit(".", 1)[0]))


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
    seeds: Iterable[str], no_traverse: Iterable[str] = ()
) -> dict[str, Path]:
    """Transitive ``repro.*`` import closure of the seed modules.

    Package ``__init__`` files are *hashed but never traversed*: they run
    on import (so their bytes belong in the key), but they re-export
    wide — ``repro.kernels`` imports every kernel — and following them
    would collapse every experiment's closure into the whole repo.  This
    repo's modules import submodules directly, which is the path the
    tracer follows.  ``no_traverse`` marks additional hash-only modules
    (the experiments module, whose imports span the suite by design).
    Edges come from the pinned sources, so the closure is the loaded
    code's.
    """
    closure: dict[str, Path] = {}
    hash_only = set(no_traverse)
    frontier = list(seeds)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        path = module_path(name)
        if path is None:
            continue
        closure[name] = path
        # A module implies its ancestor packages (their __init__ runs on
        # import) — included hash-only.
        parts = name.split(".")
        for i in range(1, len(parts)):
            ancestor = ".".join(parts[:i])
            if ancestor not in closure:
                ancestor_path = module_path(ancestor)
                if ancestor_path is not None:
                    closure[ancestor] = ancestor_path
        if name in hash_only or path.name == "__init__.py":
            continue
        frontier.extend(_import_edges(name))
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
    working in trees that ship without the optional registries.  The
    source is read from disk, as the effect analyzer reads the tree.
    """
    path = module_path(module)
    if path is None:
        return ()
    with _LOCK:
        tree = ast.parse(path.read_bytes(), filename=str(path))
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


def _builder_seeds(builder_name: str) -> frozenset[str]:
    """Modules a builder function references, following local helpers."""
    _import_edges(EXPERIMENTS_MODULE)  # parsing it fills the seed table
    if builder_name not in _BUILDER_SEEDS:
        raise KeyError(f"no builder function {builder_name!r} in {EXPERIMENTS_MODULE}")
    return _BUILDER_SEEDS[builder_name]


def _builder(exp_id: str):
    from repro.suite.experiments import EXPERIMENTS

    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[exp_id]


def _seeds_for(exp_id: str) -> frozenset[str]:
    builder = _builder(exp_id)
    module = getattr(builder, "__module__", "")
    if module == EXPERIMENTS_MODULE:
        return _builder_seeds(builder.__name__)
    # A builder registered from elsewhere (tests, extensions): seed from
    # its defining module if that is a repro module, else nothing — the
    # experiments module below still anchors the digest.
    return frozenset({module} if module_path(module) is not None else ())


def _hash_modules(hasher, names: Iterable[str], sources: Mapping[str, bytes]) -> None:
    """Fold each module's pinned sha256 (or its ``sources`` override) in."""
    for name in sorted(names):
        if name in sources:
            blob_digest = hashlib.sha256(sources[name]).digest()
        else:
            blob_digest = _pin(name).sha256
        hasher.update(f"{name}\x00".encode())
        hasher.update(blob_digest)
        hasher.update(b"\x00")


def closure_digest(seeds: Iterable[str]) -> str:
    """Digest over the pinned sources of the seeds' transitive closure.

    The generic form of :func:`experiment_digest`'s module section:
    callers that key a cache on "the code that computes this value"
    (``repro.explore`` keys grid-sweep chunks this way) fold it into
    their own content hash, so any edit to a costing module invalidates
    exactly the chunks it could have changed.  Memoised per seed tuple
    for the life of the process.
    """
    seeds = tuple(seeds)

    def compute() -> str:
        hasher = hashlib.sha256()
        hasher.update(f"schema={DIGEST_SCHEMA}\x00".encode())
        _hash_modules(hasher, dependency_closure(seeds), {})
        return hasher.hexdigest()

    return _memoised(_CLOSURE_DIGESTS, seeds, compute)


def experiment_dependencies(exp_id: str) -> dict[str, Path]:
    """Module name -> source file for everything the experiment depends on."""
    seeds = _seeds_for(exp_id) | {EXPERIMENTS_MODULE}
    return dependency_closure(seeds, no_traverse={EXPERIMENTS_MODULE})


def machine_fingerprint() -> str:
    """Digest of the machine-preset configuration the suite is built on."""
    config = {
        "benchmark_clock_ns": presets.BENCHMARK_CLOCK_NS,
        "production_clock_ns": presets.PRODUCTION_CLOCK_NS,
    }
    text = ",".join(f"{k}={v!r}" for k, v in sorted(config.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _experiment_digest(exp_id: str, sources: Mapping[str, bytes]) -> ExperimentDigest:
    deps = experiment_dependencies(exp_id)
    hasher = hashlib.sha256()
    hasher.update(f"schema={DIGEST_SCHEMA}\x00".encode())
    hasher.update(f"exp_id={exp_id}\x00".encode())
    hasher.update(f"machine={machine_fingerprint()}\x00".encode())
    _hash_modules(hasher, deps, sources)
    return ExperimentDigest(exp_id=exp_id, key=hasher.hexdigest(),
                            modules=tuple(sorted(deps)))


def experiment_digest(
    exp_id: str, sources: Mapping[str, bytes] | None = None
) -> ExperimentDigest:
    """Digest for one experiment, memoised for the life of the process.

    ``sources`` overrides the pinned bytes per module name — the seam
    tests (and ``plan --what-if`` style tooling) use to ask "what would
    an edit to module X invalidate?" without touching the tree.  Such a
    digest is computed afresh each call.
    """
    builder = _builder(exp_id)
    if sources is not None:
        return _experiment_digest(exp_id, sources)
    key = (exp_id, getattr(builder, "__module__", ""), getattr(builder, "__name__", ""))
    return _memoised(_EXPERIMENT_DIGESTS, key, lambda: _experiment_digest(exp_id, {}))


def suite_digests(
    exp_ids: Iterable[str] | None = None,
    sources: Mapping[str, bytes] | None = None,
) -> dict[str, ExperimentDigest]:
    """Digests for the requested experiments (default: all, paper order)."""
    from repro.suite.experiments import EXPERIMENTS

    ids = EXPERIMENTS if exp_ids is None else exp_ids
    return {exp_id: experiment_digest(exp_id, sources) for exp_id in ids}


def experiment_code(exp_id: str) -> tuple[tuple[str, bytes], ...]:
    """``(module, pinned sha256)`` for every module of the experiment's key.

    A pool job carries it, so the worker can check that the code it
    loaded is the code the result will be stored under.
    """
    return tuple((name, _pin(name).sha256) for name in experiment_digest(exp_id).modules)


def code_mismatch(code: Iterable[tuple[str, bytes]]) -> tuple[str, ...]:
    """Modules whose source, as loaded here, differs from the sha256 given.

    A process that pinned a module (a forked pool worker inherits its
    parent's pins) compares the pin.  Otherwise, as in a worker started
    by ``spawn``, it hashes the file the module was loaded from without
    pinning it, so the check writes no module state.
    """
    return tuple(name for name, sha256 in code if _loaded_sha256(name) != sha256)


def _loaded_sha256(name: str) -> bytes:
    pin = _PINS.get(name)
    if pin is not None:
        return pin.sha256
    with open(importlib.import_module(name).__file__, "rb") as source:
        return hashlib.sha256(source.read()).digest()


def code_drift() -> tuple[str, ...]:
    """Pinned modules whose file changed on disk since it was pinned.

    One ``stat`` per pin, against the ``(st_mtime_ns, st_size)`` taken
    with it.  Nothing on the digest path calls it: a drifted process
    keeps serving under its pinned keys, which still describe the code
    it runs.  A same-size edit within one mtime tick goes unreported; it
    cannot make a wrong key.
    """
    return tuple(name for name, pin in sorted(_PINS.items()) if _stat(pin.path) != pin.stat)


def _stat(path: str) -> tuple[int, int] | None:
    try:
        stat = os.stat(path)
    except OSError:  # deleted or unreadable: drifted
        return None
    return stat.st_mtime_ns, stat.st_size


def pin_loaded() -> None:
    """Pin every ``repro`` module this process has loaded.

    A long-lived process calls it at start, so its keys date from then
    and not from its first digest.  It hashes; it parses nothing.
    """
    for name, module in sorted(sys.modules.items()):
        if (name == _PACKAGE or name.startswith(_PACKAGE + ".")) and getattr(
            module, "__file__", None
        ):
            _pin(name)

"""Repo-invariant linter: AST checks generic linters cannot express.

Walks ``src/repro`` and ``tests`` and enforces the conventions this
repository depends on:

========  ==============================================================
rule      invariant
========  ==============================================================
REPO001   every kernel module exposes a functional entry point AND a
          trace builder (the two-faces contract of repro.machine)
REPO002   ``__all__`` matches the module's public definitions
REPO003   operation descriptors are only built with known intrinsic
          names (the :data:`repro.machine.operations.INTRINSICS` set)
REPO004   no wall-clock or randomness in simulator code paths (the
          determinism invariant of :mod:`repro.events`)
REPO005   no magic unit constants (1e6/1e9/1e12) where
          :mod:`repro.units` symbols exist
REPO006   every machine component that consumes trace operations
          (references VectorOp/ScalarOp) registers perfmon counters via
          a top-level :func:`repro.perfmon.counters.declare_counters`
          call — the observability contract of the counter emulation
REPO008   every ``fault_point`` call site names its site with a string
          literal drawn from :data:`repro.faults.inject.FAULT_SITES` —
          the registry that also declares the ``fault.<site>`` perfmon
          counter, so every injectable site is observable in profiles
REPO010   CLI entry modules honor the uniform exit-code contract:
          0 = success, 1 = operation failed, 2 = usage error.  Literal
          ``sys.exit(N)`` / ``raise SystemExit(N)`` with any other
          integer is rejected — richer failure taxonomies (like
          ``engine run``'s 3/4/5 failure kinds) must flow through a
          named, documented code map, never inline magic numbers
REPO012   ``except`` clauses in :mod:`repro.service` that name
          ``TimeoutError``/``OSError`` (or a subclass — the connection
          family) must re-raise, log, or count what they caught: a
          service that silently eats a timeout or a hangup reports
          ``ready`` while requests disappear.  Compliance is a
          ``raise`` statement or a call to a reporting/counting helper
          (``print``, logger methods, perfmon ``record``/``add``/
          ``add_many``, the app's ``_count``/``_record``/``note_*``
          hooks) anywhere in the handler body
========  ==============================================================

All findings are ERROR severity — the CLI exits non-zero on any, which
is how CI gates on this.  Escape hatches, for the rare legitimate case:

* ``# repolint: skip`` on the offending line suppresses that line;
* ``# repolint: exempt=REPO001 -- reason`` anywhere in a module exempts
  the whole module from the listed (comma-separated) rules.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, Severity
from repro.faults.inject import FAULT_SITES
from repro.machine.operations import INTRINSICS

__all__ = ["lint_repo", "lint_file", "repo_root", "module_exemptions", "skipped_lines"]

#: Kernel functional entry points that do not follow the ``*_kernel``
#: naming pattern (solver-style or multi-transform interfaces).
FUNCTIONAL_ENTRY_ALTERNATES = frozenset(
    {"solve", "hint_integrate", "rfft_multi", "vfft_multi", "run_accuracy_suite"}
)

#: Magic constants REPO005 rejects in arithmetic, with the repro.units
#: replacement to name in the message.
MAGIC_UNIT_CONSTANTS = {1e6: "MEGA", 1e9: "GIGA", 1e12: "TERA"}

#: Subtrees of src/repro where the determinism invariant (REPO004) holds:
#: simulator state may only advance through event time, never host time.
SIMULATOR_PATHS = ("machine", "iosim", "scheduler", "superux", "events.py")

_EXEMPT_RE = re.compile(r"#\s*repolint:\s*exempt=([A-Z0-9,\s]+?)(?:\s+--.*)?$", re.M)
_SKIP_RE = re.compile(r"#\s*repolint:\s*skip\b")


def repo_root() -> Path:
    """The repository root, located from this package's install path."""
    return Path(__file__).resolve().parents[3]


def module_exemptions(source: str) -> set[str]:
    """Rule ids a module opts out of via ``# repolint: exempt=...``.

    Shared with :mod:`repro.analysis.effects`, whose DET rules honor the
    same pragma vocabulary.
    """
    exempt: set[str] = set()
    for match in _EXEMPT_RE.finditer(source):
        exempt.update(r.strip() for r in match.group(1).split(",") if r.strip())
    return exempt


def skipped_lines(source: str) -> set[int]:
    """1-based line numbers carrying a ``# repolint: skip`` pragma."""
    return {
        i for i, line in enumerate(source.splitlines(), start=1) if _SKIP_RE.search(line)
    }


def _top_level_defs(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(all defined top-level names, public def/class names)."""
    defined: set[str] = set()
    public_defs: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
            if not node.name.startswith("_"):
                public_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            defined.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            defined.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return defined, public_defs


def _literal_all(tree: ast.Module) -> tuple[int, list[str]] | None:
    """(__all__ line number, names) if the module declares a literal __all__."""
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            continue
        if isinstance(node.value, (ast.List, ast.Tuple)):
            names = [
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
            return node.lineno, names
    return None


# ---------------------------------------------------------------- rules
def _check_kernel_contract(
    path: Path, rel: str, tree: ast.Module
) -> list[Diagnostic]:
    """REPO001: a kernel module has both faces — function and trace."""
    has_builder = False
    has_functional = False
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name == "build_trace" or node.name.endswith("_trace"):
            has_builder = True
        if "kernel" in node.name or node.name in FUNCTIONAL_ENTRY_ALTERNATES:
            has_functional = True
    missing = []
    if not has_functional:
        missing.append("a functional entry point (*_kernel or equivalent)")
    if not has_builder:
        missing.append("a trace builder (build_trace/*_trace)")
    if not missing:
        return []
    return [
        Diagnostic(
            rule_id="REPO001",
            severity=Severity.ERROR,
            location=f"{rel}:1",
            message=(
                f"kernel module lacks {' and '.join(missing)}; every benchmark "
                f"has two faces — the computation and its machine-model trace"
            ),
        )
    ]


def _check_all_exports(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO002: __all__ and the public definitions agree."""
    declared = _literal_all(tree)
    if declared is None:
        return []
    lineno, names = declared
    defined, public_defs = _top_level_defs(tree)
    found = []
    for name in names:
        if name not in defined:
            found.append(
                Diagnostic(
                    rule_id="REPO002",
                    severity=Severity.ERROR,
                    location=f"{rel}:{lineno}",
                    message=f"__all__ exports {name!r} but the module never defines it",
                )
            )
    for name in sorted(public_defs - set(names)):
        found.append(
            Diagnostic(
                rule_id="REPO002",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=(
                    f"public definition {name!r} is missing from __all__ "
                    f"(export it or prefix it with an underscore)"
                ),
            )
        )
    return found


def _check_intrinsic_names(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO003: intrinsic mixes only use names the machine model knows."""

    def bad_keys(mapping: ast.Dict) -> list[tuple[int, str]]:
        out = []
        for key in mapping.keys:
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and key.value not in INTRINSICS
            ):
                out.append((key.lineno, key.value))
        return out

    found = []
    for node in ast.walk(tree):
        candidates: list[ast.Dict] = []
        if isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg in ("intrinsics", "intrinsic_calls") and isinstance(
                    kw.value, ast.Dict
                ):
                    candidates.append(kw.value)
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(
                isinstance(t, ast.Name) and "INTRINSIC" in t.id for t in node.targets
            ):
                candidates.append(node.value)
        for mapping in candidates:
            for lineno, name in bad_keys(mapping):
                found.append(
                    Diagnostic(
                        rule_id="REPO003",
                        severity=Severity.ERROR,
                        location=f"{rel}:{lineno}",
                        message=(
                            f"unknown intrinsic {name!r}; the machine model "
                            f"prices only {', '.join(INTRINSICS)}"
                        ),
                    )
                )
    return found


#: time-module members that read the host clock (REPO004).
_CLOCK_MEMBERS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def _forbidden_origin(path: str) -> str | None:
    """REPO004 message fragment when a dotted origin is impure, else None."""
    if path == "random" or path.startswith("random."):
        return path
    if path == "numpy.random" or path.startswith("numpy.random."):
        return path
    if path.startswith("time.") and path.split(".", 1)[1] in _CLOCK_MEMBERS:
        return f"{path}()"
    return None


def _check_determinism(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO004: simulator code never reads host clocks or entropy.

    Flags both the imports and the usages they enable.  Usage sites are
    resolved through an alias table, so from-imports and renames —
    ``from time import time``, ``from time import perf_counter as now``,
    ``import numpy.random as nr`` — are caught alongside the
    attribute-style ``time.time()`` / ``np.random.rand()`` forms the
    original check was limited to.
    """
    found = []
    flagged: set[tuple[int, str]] = set()

    def flag(lineno: int, what: str) -> None:
        if (lineno, what) in flagged:
            return
        flagged.add((lineno, what))
        found.append(
            Diagnostic(
                rule_id="REPO004",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=(
                    f"{what} in a simulator code path; simulated time only "
                    f"advances through the event queue (determinism invariant)"
                ),
            )
        )

    # Pass 1: imports — flag the forbidden ones, and build the alias
    # table usage resolution reads (local name -> dotted origin).
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                aliases[alias.asname or root] = alias.name if alias.asname else root
                if root in ("time", "random") or alias.name.startswith("numpy.random"):
                    flag(node.lineno, f"import of {alias.name!r}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            module_flagged = module.split(".")[0] in ("time", "random") or (
                module.startswith("numpy.random")
            )
            if module_flagged:
                flag(node.lineno, f"import of {module!r}")
            for alias in node.names:
                if alias.name == "*":
                    continue
                origin = f"{module}.{alias.name}" if module else alias.name
                aliases[alias.asname or alias.name] = origin
                if _forbidden_origin(origin) is not None and not module_flagged:
                    # e.g. ``from numpy import random`` — the forbidden
                    # module arrives under a name the module check above
                    # could not see, so flag the symbol itself.
                    flag(node.lineno, f"import of {origin!r}")

    # Pass 2: usages, resolved through the alias table.  Only outermost
    # attribute chains are flagged, so ``np.random.rand`` is one finding.
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def resolve(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            return f"{base}.{node.attr}" if base is not None else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(parents.get(node), ast.Attribute):
                continue  # an enclosing chain will consider the full path
            origin = resolve(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if isinstance(parents.get(node), (ast.Attribute, ast.Import, ast.ImportFrom)):
                continue
            origin = aliases.get(node.id)
            # A bare module reference is not itself a clock/entropy read;
            # member origins (``from time import time``) are.
            if origin is not None and "." not in origin:
                origin = None
            if origin is not None and node.id != origin.rsplit(".", 1)[1]:
                member = _forbidden_origin(origin)
                if member is not None:
                    flag(node.lineno, f"{member} (as {node.id!r})")
                continue
        else:
            continue
        if origin is None:
            continue
        fragment = _forbidden_origin(origin)
        if fragment is not None:
            flag(node.lineno, fragment)
    return found


def _check_magic_units(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO005: scale factors come from repro.units, not literals."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.BinOp) or not isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            continue
        for operand in (node.left, node.right):
            if (
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                and operand.value in MAGIC_UNIT_CONSTANTS
            ):
                symbol = MAGIC_UNIT_CONSTANTS[operand.value]
                found.append(
                    Diagnostic(
                        rule_id="REPO005",
                        severity=Severity.ERROR,
                        location=f"{rel}:{operand.lineno}",
                        message=(
                            f"magic unit constant {operand.value:g}; use "
                            f"repro.units.{symbol} so scale factors are named"
                        ),
                    )
                )
    return found


def _check_perfmon_registration(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO006: op-consuming machine components declare perfmon counters.

    A component that times :class:`VectorOp`/:class:`ScalarOp` work is a
    source of PROGINF truth — if it never registers counters, profiles
    silently under-report whatever it models.
    """
    op_refs = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in ("VectorOp", "ScalarOp"))
        or (isinstance(node, ast.Attribute) and node.attr in ("VectorOp", "ScalarOp"))
    ]
    if not op_refs:
        return []
    for node in tree.body:
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "declare_counters":
            return []
    return [
        Diagnostic(
            rule_id="REPO006",
            severity=Severity.ERROR,
            location=f"{rel}:{min(op_refs)}",
            message=(
                "machine component consumes trace operations but never calls "
                "repro.perfmon.counters.declare_counters at module level; "
                "components that time ops must register the counters they "
                "populate (PROGINF would otherwise under-report)"
            ),
        )
    ]


def _check_fault_sites(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO008: fault_point call sites name a registered site, literally.

    :data:`repro.faults.inject.FAULT_SITES` is both the site registry
    and (via the module-level ``declare_counters``) the ``fault.*``
    counter registry — a call site whose first argument is a literal
    member of it is guaranteed an observable counter.  A non-literal
    site defeats that static guarantee, so it is rejected outright.
    """
    found = []

    def flag(lineno: int, message: str) -> None:
        found.append(
            Diagnostic(
                rule_id="REPO008",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=message,
            )
        )

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "fault_point":
            continue
        site = node.args[0] if node.args else None
        if site is None:
            for kw in node.keywords:
                if kw.arg == "site":
                    site = kw.value
        if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
            flag(
                node.lineno,
                "fault_point site must be a string literal so the hook "
                "site and its fault.* counter are statically checkable",
            )
        elif site.value not in FAULT_SITES:
            flag(
                node.lineno,
                f"fault_point site {site.value!r} is not registered in "
                f"repro.faults.inject.FAULT_SITES {FAULT_SITES}; register "
                f"it there (which also declares its fault.* counter)",
            )
    return found


#: Exit codes every ``repro.*`` CLI may use as inline literals.  The
#: shared contract — 0 success, 1 failure, 2 usage — is what lets shell
#: scripts and CI treat the tools uniformly; anything finer-grained
#: (``engine run``'s failure kinds) must come from a named code map.
CONTRACT_EXIT_CODES = (0, 1, 2)


def _exit_code_literal(node: ast.AST) -> tuple[int, int] | None:
    """(lineno, code) when ``node`` exits with a literal int, else None.

    Matches ``sys.exit(N)`` / ``exit(N)`` calls and ``raise
    SystemExit(N)``; non-literal arguments (variables, dict lookups
    like ``FAILURE_EXIT_CODES[kind]``) are out of scope by design —
    a named map is exactly the documented escape this rule demands.
    """
    call: ast.expr | None = None
    if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
        func = node.exc.func
        if isinstance(func, ast.Name) and func.id == "SystemExit":
            call = node.exc
    elif isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "exit":
            call = node
    if call is None or len(call.args) != 1 or call.keywords:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, int):
        return node.lineno, arg.value
    return None


def _check_exit_codes(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO010: CLI entry modules keep to the 0/1/2 exit-code contract.

    Applies to ``cli.py`` / ``__main__.py`` modules and any src module
    defining a top-level ``main`` function.  Only *literal* integer
    codes outside the contract are findings: exits through a named
    failure-kind map (``sys.exit(FAILURE_EXIT_CODES[kind])``) are the
    sanctioned way to express richer taxonomies, because the map is a
    single documented, greppable surface instead of scattered numbers.
    """
    found = []
    for node in ast.walk(tree):
        hit = _exit_code_literal(node)
        if hit is None:
            continue
        lineno, code = hit
        if code in CONTRACT_EXIT_CODES:
            continue
        found.append(
            Diagnostic(
                rule_id="REPO010",
                severity=Severity.ERROR,
                location=f"{rel}:{lineno}",
                message=(
                    f"CLI exits with literal code {code}, outside the "
                    f"uniform contract {CONTRACT_EXIT_CODES} "
                    f"(0 ok / 1 failure / 2 usage); route richer "
                    f"failure kinds through a named exit-code map"
                ),
            )
        )
    return found


#: Exception names REPO012 treats as the timeout/connection family —
#: the errors a service is most tempted to shrug off and least able to
#: afford losing track of.
SWALLOWABLE_NETWORK_ERRORS = frozenset(
    {
        "TimeoutError",
        "OSError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "ConnectionAbortedError",
        "BrokenPipeError",
        "InterruptedError",
    }
)

#: Call names REPO012 accepts as "the handler made the error observable":
#: stdout/stderr reporting, logger methods, and the perfmon counting
#: surface (module helpers and the app's private wrappers).
OBSERVABILITY_CALLS = frozenset(
    {
        "print",
        "log",
        "debug",
        "info",
        "warning",
        "error",
        "exception",
        "critical",
        "record",
        "add",
        "add_many",
        "_count",
        "_record",
    }
)


def _names_network_error(annotation: ast.expr | None) -> bool:
    """True when an except clause names a REPO012 family member.

    Bare ``except:`` / ``except Exception`` are out of scope: those are
    catch-all boundaries (the server's 500 fence, the worker loop), not
    handlers that singled the network family out to discard it.
    """
    if annotation is None:
        return False
    if isinstance(annotation, ast.Tuple):
        return any(_names_network_error(elt) for elt in annotation.elts)
    if isinstance(annotation, ast.Name):
        return annotation.id in SWALLOWABLE_NETWORK_ERRORS
    if isinstance(annotation, ast.Attribute):
        # socket.timeout / asyncio.TimeoutError style references.
        return annotation.attr in SWALLOWABLE_NETWORK_ERRORS or (
            annotation.attr == "timeout"
        )
    return False


def _handler_observes(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and (
                name in OBSERVABILITY_CALLS or name.startswith("note_")
            ):
                return True
    return False


def _check_swallowed_timeouts(rel: str, tree: ast.Module) -> list[Diagnostic]:
    """REPO012: service code never silently swallows timeouts/hangups.

    The lifecycle layer's honesty depends on every timeout and
    connection error landing somewhere visible — a counter, a log line,
    or the caller (via re-raise).  An ``except OSError: pass`` in the
    service keeps ``/v1/health`` green while the failure it hid recurs,
    which is precisely the failure mode the drain/breaker/watchdog
    machinery exists to surface.
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _names_network_error(node.type):
            continue
        if _handler_observes(node):
            continue
        caught = ast.unparse(node.type) if node.type is not None else "..."
        found.append(
            Diagnostic(
                rule_id="REPO012",
                severity=Severity.ERROR,
                location=f"{rel}:{node.lineno}",
                message=(
                    f"except clause catches {caught} but neither re-raises, "
                    f"logs, nor counts it; a service that silently swallows "
                    f"timeouts/hangups reports healthy while losing requests "
                    f"(re-raise, print, or record a perfmon counter)"
                ),
            )
        )
    return found


# ---------------------------------------------------------------- driver
def _is_kernel_module(rel_parts: tuple[str, ...]) -> bool:
    return (
        len(rel_parts) == 4
        and rel_parts[:3] == ("src", "repro", "kernels")
        and rel_parts[3] != "__init__.py"
    )


def _is_machine_component(rel_parts: tuple[str, ...]) -> bool:
    """Machine component modules REPO006 applies to (not the operation
    vocabulary or its columnar lowering, which define and transport the
    ops rather than timing them — timing stays in the components)."""
    return (
        len(rel_parts) == 4
        and rel_parts[:3] == ("src", "repro", "machine")
        and rel_parts[3] not in ("__init__.py", "operations.py", "compiled.py")
    )


def _is_simulator_path(rel_parts: tuple[str, ...]) -> bool:
    if rel_parts[:2] != ("src", "repro") or len(rel_parts) < 3:
        return False
    return rel_parts[2] in SIMULATOR_PATHS


def _in_src(rel_parts: tuple[str, ...]) -> bool:
    return rel_parts[:2] == ("src", "repro")


def _is_service_module(rel_parts: tuple[str, ...]) -> bool:
    """Modules REPO012 holds to the no-swallowed-timeouts contract."""
    return rel_parts[:3] == ("src", "repro", "service")


def _is_cli_entry(rel_parts: tuple[str, ...], tree: ast.Module) -> bool:
    """Modules REPO010 holds to the exit-code contract: the conventional
    entry-point filenames, plus any src module exposing a top-level
    ``main`` (however it is named, it is somebody's entry point)."""
    if not _in_src(rel_parts):
        return False
    if rel_parts[-1] in ("cli.py", "__main__.py"):
        return True
    return any(
        isinstance(node, ast.FunctionDef) and node.name == "main"
        for node in tree.body
    )


def lint_file(path: Path, root: Path) -> list[Diagnostic]:
    """All repo-invariant findings for one file."""
    rel_parts = path.relative_to(root).parts
    rel = "/".join(rel_parts)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule_id="REPO000",
                severity=Severity.ERROR,
                location=f"{rel}:{exc.lineno or 1}",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    exempt = module_exemptions(source)
    skipped = skipped_lines(source)

    found: list[Diagnostic] = []
    if _is_kernel_module(rel_parts):
        found.extend(_check_kernel_contract(path, rel, tree))
    found.extend(_check_all_exports(rel, tree))
    found.extend(_check_intrinsic_names(rel, tree))
    if _is_simulator_path(rel_parts):
        found.extend(_check_determinism(rel, tree))
    if _is_machine_component(rel_parts):
        found.extend(_check_perfmon_registration(rel, tree))
    if _in_src(rel_parts) and rel_parts[-1] != "units.py":
        found.extend(_check_magic_units(rel, tree))
    if _in_src(rel_parts):
        found.extend(_check_fault_sites(rel, tree))
    if _is_service_module(rel_parts):
        found.extend(_check_swallowed_timeouts(rel, tree))
    if _is_cli_entry(rel_parts, tree):
        found.extend(_check_exit_codes(rel, tree))

    def kept(diag: Diagnostic) -> bool:
        if diag.rule_id in exempt:
            return False
        lineno = int(diag.location.rsplit(":", 1)[1])
        return lineno not in skipped

    return [d for d in found if kept(d)]


def lint_repo(root: Path | None = None) -> DiagnosticReport:
    """Lint src/repro and tests; report is CI-gating (any finding fails)."""
    root = root or repo_root()
    report = DiagnosticReport(subject=str(root))
    files: list[Path] = []
    for sub in ("src/repro", "tests"):
        base = root / sub
        if base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    for path in files:
        if "egg-info" in str(path):
            continue
        report.diagnostics.extend(lint_file(path, root))
    return report

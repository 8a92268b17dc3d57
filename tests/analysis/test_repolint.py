"""Repolint tests: each REPO rule against synthetic modules, and the
repo itself, which must be clean at head (the CI gate)."""

import textwrap

from repro.analysis.repolint import lint_file, lint_repo, repo_root


def write_module(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def rule_ids(diagnostics):
    return [d.rule_id for d in diagnostics]


class TestKernelContract:
    def test_missing_both_faces(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/kernels/bad.py", "def helper():\n    pass\n"
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO001"]
        assert "functional entry point" in found[0].message
        assert "trace builder" in found[0].message

    def test_both_faces_satisfy_the_contract(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/kernels/good.py",
            """
            def good_kernel(a):
                return a

            def build_trace(n):
                return None
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_alternate_entry_and_suffixed_builder(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/kernels/alt.py",
            """
            def solve(a, b):
                return b

            def throughput_trace(name):
                return None
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_module_exempt_pragma(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/kernels/shared.py",
            """
            # repolint: exempt=REPO001 -- shared machinery, no benchmark face
            def helper():
                pass
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_non_kernel_module_is_out_of_scope(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/suite/misc.py", "def helper():\n    pass\n"
        )
        assert lint_file(path, tmp_path) == []


class TestAllExports:
    def test_phantom_export_and_missing_public_def(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/suite/exports.py",
            """
            __all__ = ["phantom"]


            def public_fn():
                pass
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO002", "REPO002"]
        messages = " ".join(d.message for d in found)
        assert "phantom" in messages
        assert "public_fn" in messages

    def test_matching_all_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/suite/ok.py",
            """
            __all__ = ["public_fn"]


            def public_fn():
                pass


            def _private():
                pass
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_module_without_all_is_not_checked(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/suite/no_all.py", "def public_fn():\n    pass\n"
        )
        assert lint_file(path, tmp_path) == []


class TestIntrinsicNames:
    def test_unknown_intrinsic_in_call_kwarg(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/suite/mix.py",
            'op = VectorOp.make("v", 8, intrinsics={"tanh": 1.0})\n',
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO003"]
        assert "tanh" in found[0].message

    def test_unknown_key_in_intrinsic_table(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/suite/table.py",
            'MY_INTRINSIC_RATES = {"exp": 1.0, "cosh": 2.0}\n',
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO003"]

    def test_known_names_are_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/suite/okmix.py",
            'op = VectorOp.make("v", 8, intrinsics={"exp": 1.0, "sqrt": 0.5})\n',
        )
        assert lint_file(path, tmp_path) == []

    def test_line_skip_pragma(self, tmp_path):
        path = write_module(
            tmp_path,
            "tests/test_neg.py",
            'op = VectorOp.make("v", 8, intrinsics={"tanh": 1.0})  # repolint: skip\n',
        )
        assert lint_file(path, tmp_path) == []


class TestDeterminism:
    SOURCE = """
    import time
    import numpy as np


    def now():
        return time.perf_counter() + np.random.rand()
    """

    def test_clock_and_entropy_in_simulator_path(self, tmp_path):
        path = write_module(tmp_path, "src/repro/machine/clocky.py", self.SOURCE)
        ids = rule_ids(lint_file(path, tmp_path))
        assert ids.count("REPO004") == 3  # import, time.perf_counter, np.random

    def test_same_code_outside_simulator_paths_is_allowed(self, tmp_path):
        path = write_module(tmp_path, "src/repro/kernels/hosty.py", self.SOURCE)
        assert "REPO004" not in rule_ids(lint_file(path, tmp_path))

    def test_event_time_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/scheduler/fine.py",
            "def advance(queue):\n    return queue.pop()\n",
        )
        assert lint_file(path, tmp_path) == []

    def test_from_import_of_clock_is_flagged(self, tmp_path):
        # Regression: ``from time import time`` used to dodge the
        # attribute-style usage check entirely.
        path = write_module(
            tmp_path,
            "src/repro/machine/sneaky.py",
            """
            from time import time


            def now():
                return time()
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO004", "REPO004"]  # import + usage
        assert any("time.time()" in d.message for d in found)

    def test_aliased_from_import_usage_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/renamed.py",
            """
            from time import perf_counter as wall
            from random import random as draw


            def sample():
                return wall() + draw()
            """,
        )
        found = lint_file(path, tmp_path)
        usage = [d for d in found if "as " in d.message]
        assert len(usage) == 2
        assert any("time.perf_counter() (as 'wall')" in d.message for d in usage)
        assert any("random.random (as 'draw')" in d.message for d in usage)

    def test_aliased_module_import_usage_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/iosim/clocked.py",
            """
            import time as clock


            def now():
                return clock.monotonic()
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO004", "REPO004"]
        assert any("time.monotonic()" in d.message for d in found)

    def test_numpy_random_from_import_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/superux/entropy.py",
            """
            from numpy.random import rand


            def noise(n):
                return rand(n)
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO004", "REPO004"]
        assert any("numpy.random.rand" in d.message for d in found)

    def test_unrelated_from_imports_stay_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/fine2.py",
            """
            from math import sqrt
            from itertools import count


            def grow(x):
                return sqrt(x) + next(iter(count()))
            """,
        )
        assert lint_file(path, tmp_path) == []


class TestMagicUnits:
    def test_literal_scale_factor_in_src(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/suite/scales.py", "mflops = flops / 1e6\n"
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO005"]
        assert "MEGA" in found[0].message

    def test_units_module_itself_is_exempt(self, tmp_path):
        path = write_module(tmp_path, "src/repro/units.py", "MEGA = 1.0 * 1e6\n")
        assert lint_file(path, tmp_path) == []

    def test_tests_are_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "tests/test_scales.py", "x = 3.0 * 1e9\n")
        assert lint_file(path, tmp_path) == []

    def test_non_unit_literals_are_fine(self, tmp_path):
        path = write_module(
            tmp_path, "src/repro/suite/maths.py", "y = x * 2.5e6\n"
        )
        assert lint_file(path, tmp_path) == []


class TestPerfmonRegistration:
    CONSUMER = """
    from repro.machine.operations import VectorOp


    def time_op(op: VectorOp) -> float:
        return op.length * 1e-9  # repolint: skip
    """

    def test_component_without_declaration_is_flagged(self, tmp_path):
        path = write_module(tmp_path, "src/repro/machine/widget.py", self.CONSUMER)
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO006"]
        assert "declare_counters" in found[0].message
        assert "PROGINF" in found[0].message

    DECLARES = """
    from repro.perfmon.counters import declare_counters

    declare_counters("widget", ("ops",))
    """

    DECLARES_VIA_ATTRIBUTE = """
    from repro.perfmon import counters

    counters.declare_counters("widget", ("ops",))
    """

    def test_component_with_declaration_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/widget.py",
            self.CONSUMER + self.DECLARES,
        )
        assert lint_file(path, tmp_path) == []

    def test_attribute_call_form_counts(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/widget.py",
            self.CONSUMER + self.DECLARES_VIA_ATTRIBUTE,
        )
        assert lint_file(path, tmp_path) == []

    def test_scalar_op_reference_also_triggers(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/scalarish.py",
            "def cost(op):\n    return operations.ScalarOp is type(op)\n",
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO006"]

    def test_outside_machine_package_is_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/widget.py", self.CONSUMER)
        assert "REPO006" not in rule_ids(lint_file(path, tmp_path))

    def test_operations_module_itself_is_exempt(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/operations.py",
            "class VectorOp:\n    pass\n",
        )
        assert "REPO006" not in rule_ids(lint_file(path, tmp_path))

    def test_module_exempt_pragma(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/widget.py",
            """
            # repolint: exempt=REPO006 -- pass-through, counters live elsewhere
            from repro.machine.operations import VectorOp


            def time_op(op: VectorOp) -> float:
                return 0.0
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_component_not_touching_ops_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/machine/inert.py",
            "def helper(x):\n    return x + 1\n",
        )
        assert lint_file(path, tmp_path) == []


class TestFaultSiteRegistry:
    """REPO008: fault_point call sites name a registered site, literally."""

    def test_registered_literal_site_is_clean(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/engine/hooks.py",
            'action = fault_point("executor_job", injector, exp_id)\n',
        )
        assert lint_file(path, tmp_path) == []

    def test_unregistered_site_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/engine/hooks.py",
            'action = fault_point("warp_core", injector, exp_id)\n',
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO008"]
        assert "warp_core" in found[0].message
        assert "FAULT_SITES" in found[0].message

    def test_non_literal_site_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/engine/hooks.py",
            "action = fault_point(site_variable, injector, exp_id)\n",
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO008"]
        assert "string literal" in found[0].message

    def test_site_keyword_form_is_checked_too(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/engine/hooks.py",
            'action = fault_point(site="warp_core", injector=i, exp_id=e)\n',
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO008"]

    def test_attribute_call_form_counts(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/engine/hooks.py",
            'action = inject.fault_point("warp_core", injector, exp_id)\n',
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO008"]

    def test_tests_are_out_of_scope(self, tmp_path):
        path = write_module(
            tmp_path,
            "tests/test_hooks.py",
            'action = fault_point("warp_core", injector, exp_id)\n',
        )
        assert lint_file(path, tmp_path) == []


class TestExitCodeContract:
    """REPO010: CLI entry modules keep to the 0/1/2 exit contract."""

    def test_literal_code_outside_contract_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/widget/cli.py",
            """
            import sys

            def main():
                sys.exit(7)
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO010"]
        assert "literal code 7" in found[0].message

    def test_contract_codes_pass(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/widget/cli.py",
            """
            import sys

            def main(ok):
                if ok:
                    sys.exit(0)
                sys.exit(1)
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_raise_systemexit_literal_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/widget/__main__.py",
            "raise SystemExit(9)\n",
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO010"]

    def test_named_code_map_is_the_sanctioned_escape(self, tmp_path):
        # engine run's 3/4/5 failure kinds flow through a named map —
        # non-literal exit arguments are out of scope by design.
        path = write_module(
            tmp_path,
            "src/repro/widget/cli.py",
            """
            import sys

            FAILURE_EXIT_CODES = {"error": 3, "crash": 4}

            def main(kind):
                sys.exit(FAILURE_EXIT_CODES[kind])
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_main_defining_module_is_in_scope(self, tmp_path):
        # Not named cli.py, but it exposes main(): still an entry point.
        path = write_module(
            tmp_path,
            "src/repro/widget/tool.py",
            """
            import sys

            def main():
                sys.exit(42)
            """,
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO010"]

    def test_non_cli_module_out_of_scope(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/widget/lib.py",
            """
            import sys

            def helper():
                sys.exit(42)
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_tests_are_out_of_scope(self, tmp_path):
        path = write_module(
            tmp_path,
            "tests/cli.py",
            "import sys\n\n\ndef main():\n    sys.exit(42)\n",
        )
        assert lint_file(path, tmp_path) == []

    def test_raise_systemexit_main_result_passes(self, tmp_path):
        # The ubiquitous __main__ idiom: the code is main's return
        # value, not a literal — out of scope.
        path = write_module(
            tmp_path,
            "src/repro/widget/__main__.py",
            """
            from repro.widget.cli import main

            raise SystemExit(main())
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_skip_pragma_suppresses(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/widget/cli.py",
            """
            import sys

            def main():
                sys.exit(77)  # repolint: skip
            """,
        )
        assert lint_file(path, tmp_path) == []


def test_syntax_error_is_repo000(tmp_path):
    path = write_module(tmp_path, "src/repro/suite/broken.py", "def oops(:\n")
    found = lint_file(path, tmp_path)
    assert rule_ids(found) == ["REPO000"]


def test_lint_repo_walks_and_aggregates(tmp_path):
    write_module(tmp_path, "src/repro/kernels/bad.py", "def helper():\n    pass\n")
    write_module(tmp_path, "tests/test_ok.py", "def test_x():\n    assert True\n")
    report = lint_repo(tmp_path)
    assert rule_ids(report.diagnostics) == ["REPO001"]


class TestSwallowedTimeouts:
    def test_silent_oserror_pass_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/service/bad.py",
            """
            def poke(sock):
                try:
                    sock.send(b"x")
                except OSError:
                    pass
            """,
        )
        found = lint_file(path, tmp_path)
        assert rule_ids(found) == ["REPO012"]
        assert "OSError" in found[0].message

    def test_timeout_family_tuple_is_flagged(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/service/bad2.py",
            """
            def poke(sock):
                try:
                    sock.send(b"x")
                except (TimeoutError, ConnectionResetError):
                    return None
            """,
        )
        assert rule_ids(lint_file(path, tmp_path)) == ["REPO012"]

    def test_reraise_complies(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/service/good.py",
            """
            def poke(sock, attempts):
                try:
                    sock.send(b"x")
                except OSError:
                    if attempts > 3:
                        raise
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_logging_or_counting_complies(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/service/good2.py",
            """
            def poke(app, sock):
                try:
                    sock.send(b"x")
                except ConnectionError:
                    app.note_client_disconnect()
                try:
                    sock.recv(1)
                except TimeoutError as exc:
                    print(f"timed out: {exc}")
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_broad_handlers_are_out_of_scope(self, tmp_path):
        """Bare/Exception handlers are catch-all boundaries, not REPO012."""
        path = write_module(
            tmp_path,
            "src/repro/service/fence.py",
            """
            def handle(app):
                try:
                    app.dispatch()
                except Exception:
                    return None
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_rule_only_applies_to_service_modules(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/analysis/elsewhere.py",
            """
            def poke(sock):
                try:
                    sock.send(b"x")
                except OSError:
                    pass
            """,
        )
        assert lint_file(path, tmp_path) == []

    def test_exempt_pragma_escapes(self, tmp_path):
        path = write_module(
            tmp_path,
            "src/repro/service/escaped.py",
            """
            # repolint: exempt=REPO012 -- probing a socket that may be gone
            def poke(sock):
                try:
                    sock.send(b"x")
                except OSError:
                    pass
            """,
        )
        assert lint_file(path, tmp_path) == []


def test_repo_is_clean_at_head():
    """The CI gate: the repository's own invariants all hold."""
    report = lint_repo(repo_root())
    assert report.clean, "\n".join(str(d) for d in report)


def test_repo_root_points_at_the_checkout():
    root = repo_root()
    assert (root / "src" / "repro").is_dir()
    assert (root / "tests").is_dir()

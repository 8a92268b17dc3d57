"""Repository-level consistency checks.

These tests keep the documentation honest as the code grows: every
module documents itself, every experiment the registry knows is recorded
in EXPERIMENTS.md and in DESIGN.md's experiment index.
"""

import importlib
import pathlib
import pkgutil
import re

import repro
from repro.suite.experiments import EXPERIMENTS

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        missing = []
        for name in _walk_modules():
            module = importlib.import_module(name)
            if not (module.__doc__ or "").strip():
                missing.append(name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_module_imports_cleanly(self):
        count = 0
        for name in _walk_modules():
            importlib.import_module(name)
            count += 1
        # The repo holds a lot of subsystems; a silent collapse of the
        # package tree (e.g. a broken __init__) would show up here.
        assert count >= 45


class TestDocumentationSync:
    def test_every_experiment_recorded_in_experiments_md(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        labels = {
            "table1": "Table 1", "table2": "Table 2", "table3": "Table 3",
            "table4": "Table 4", "table5": "Table 5", "table6": "Table 6",
            "table7": "Table 7", "figure5": "Figure 5", "figure6": "Figure 6",
            "figure7": "Figure 7", "figure8": "Figure 8",
            "sec2": "§2", "sec3": "§3", "sec4.1": "§4.1", "sec4.4": "§4.4",
            "sec4.5": "§4.5", "sec4.6": "§4.6", "sec4.7.3": "§4.7.3",
        }
        assert set(labels) == set(EXPERIMENTS), "registry/docs label map drifted"
        for exp_id, label in labels.items():
            assert label in text, f"{exp_id} ({label}) missing from EXPERIMENTS.md"

    def test_headline_check_count_matches_the_suite(self):
        from repro.suite.runner import run_suite

        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        headline = re.search(r"All (\d+) shape checks pass \((\d+) experiments\)", text)
        assert headline, "EXPERIMENTS.md lost its headline check count"
        passed, total = run_suite().check_counts
        assert passed == total
        assert (int(headline[1]), int(headline[2])) == (total, len(EXPERIMENTS))

    def test_every_experiment_is_in_the_design_table(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        section = text.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:-1] for line in section.splitlines()
                if line.startswith("| ")]
        column = [cell.strip() for cell in rows[0]].index("Experiment id")
        tabled = [row[column].strip().strip("`") for row in rows[1:]]
        assert sorted(tabled) == sorted(EXPERIMENTS), "DESIGN.md §3 drifted from the registry"

    def test_design_md_names_every_subpackage(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for package in ("machine", "kernels", "ccm2", "mom", "pop",
                        "iosim", "scheduler", "superux", "suite"):
            assert package in text, f"DESIGN.md does not mention {package!r}"

    def test_examples_exist_and_are_runnable_scripts(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 5
        for path in examples:
            head = path.read_text().splitlines()
            assert head[0].startswith("#!"), f"{path.name} missing shebang"
            assert '"""' in head[1], f"{path.name} missing docstring"

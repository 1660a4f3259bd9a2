"""Tests for the custom AST lint suite (tools/repro_lints).

Each rule is exercised against synthetic snippets — one that must
trigger and near-miss variants that must stay silent — plus the
meta-properties the suite guarantees: scope filtering, per-line
waivers, deterministic ordering, and (the point of the exercise) a
clean verdict on the real tree.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lints import RULES, lint_paths, lint_source
from tools.repro_lints.__main__ import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]

HOT_PATH = "src/repro/dram/somefile.py"
WRITER_PATH = "src/repro/campaigns/trials.py"


def rules_of(violations):
    return [v.rule for v in violations]


# ----------------------------------------------------------------------
# unseeded-random
# ----------------------------------------------------------------------
class TestUnseededRandom:
    def test_module_level_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["unseeded-random"]

    def test_unseeded_random_instance_flagged(self):
        src = "import random\nrng = random.Random()\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["unseeded-random"]

    def test_from_import_flagged(self):
        src = "from random import shuffle\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["unseeded-random"]

    def test_seeded_instance_allowed(self):
        src = "import random\nrng = random.Random(1234)\n"
        assert lint_source(src, HOT_PATH) == []

    def test_method_on_instance_allowed(self):
        src = "def f(rng):\n    return rng.random()\n"
        assert lint_source(src, HOT_PATH) == []


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    @pytest.mark.parametrize(
        "call", ["time.time()", "time.perf_counter()", "time.monotonic_ns()"]
    )
    def test_clock_reads_flagged(self, call):
        src = f"import time\nt = {call}\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["wall-clock"]

    def test_from_time_import_flagged(self):
        src = "from time import perf_counter\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["wall-clock"]

    def test_time_sleep_allowed(self):
        src = "import time\ntime.sleep(0.1)\n"
        assert lint_source(src, HOT_PATH) == []


# ----------------------------------------------------------------------
# iteration-order
# ----------------------------------------------------------------------
class TestIterationOrder:
    def test_for_over_set_call_flagged(self):
        src = "def f(xs):\n    for x in set(xs):\n        pass\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["iteration-order"]

    def test_comprehension_over_set_literal_flagged(self):
        src = "ys = [x for x in {1, 2, 3}]\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["iteration-order"]

    def test_set_algebra_flagged(self):
        src = "def f(a, b):\n    for x in set(a) - set(b):\n        pass\n"
        assert rules_of(lint_source(src, HOT_PATH)) == ["iteration-order"]

    def test_sorted_set_allowed(self):
        src = "def f(xs):\n    for x in sorted(set(xs)):\n        pass\n"
        assert lint_source(src, HOT_PATH) == []

    def test_list_iteration_allowed(self):
        src = "def f(xs):\n    for x in list(xs):\n        pass\n"
        assert lint_source(src, HOT_PATH) == []


# ----------------------------------------------------------------------
# registry-bypass
# ----------------------------------------------------------------------
class TestRegistryBypass:
    def test_direct_construction_flagged(self):
        src = "policy = TpracPolicy(tb_window=100.0)\n"
        found = lint_source(src, "src/repro/attacks/example.py")
        assert rules_of(found) == ["registry-bypass"]
        assert 'make_policy("tprac")' in found[0].message

    def test_defining_module_exempt(self):
        src = "policy = TpracPolicy(tb_window=100.0)\n"
        assert lint_source(src, "src/repro/mitigations/tprac.py") == []

    def test_registry_assembly_exempt(self):
        src = "factory = AboOnlyPolicy\npolicy = AboOnlyPolicy()\n"
        assert lint_source(src, "src/repro/mitigations/__init__.py") == []

    def test_tests_out_of_scope(self):
        src = "policy = TpracPolicy(tb_window=100.0)\n"
        assert lint_source(src, "tests/mitigations/test_tprac.py") == []

    def test_subclassing_allowed(self):
        src = "class Custom(TpracPolicy):\n    pass\n"
        assert lint_source(src, "src/repro/attacks/example.py") == []


# ----------------------------------------------------------------------
# slots-required
# ----------------------------------------------------------------------
class TestSlotsRequired:
    def test_missing_slots_flagged(self):
        src = "class MemRequest:\n    def __init__(self):\n        self.addr = None\n"
        found = lint_source(src, "src/repro/controller/request.py")
        assert rules_of(found) == ["slots-required"]

    def test_declared_slots_clean(self):
        src = 'class MemRequest:\n    __slots__ = ("addr",)\n'
        assert lint_source(src, "src/repro/controller/request.py") == []

    def test_other_classes_in_module_free(self):
        src = "class RequestPool:\n    pass\n"
        assert lint_source(src, "src/repro/controller/request.py") == []


# ----------------------------------------------------------------------
# float-format-drift
# ----------------------------------------------------------------------
class TestFloatFormatDrift:
    def test_round_flagged(self):
        src = "payload = {'x': round(1.23456, 3)}\n"
        assert rules_of(lint_source(src, WRITER_PATH)) == ["float-format-drift"]

    def test_float_fstring_spec_flagged(self):
        src = "def f(x):\n    return f'{x:.3f}'\n"
        assert rules_of(lint_source(src, WRITER_PATH)) == ["float-format-drift"]

    def test_plain_fstring_allowed(self):
        src = "def f(name):\n    return f'run {name} done'\n"
        assert lint_source(src, WRITER_PATH) == []

    def test_int_format_spec_allowed(self):
        src = "def f(n):\n    return f'{n:04d}'\n"
        assert lint_source(src, WRITER_PATH) == []

    def test_display_modules_out_of_scope(self):
        src = "def f(x):\n    return f'{x:.3f}'\n"
        assert lint_source(src, "src/repro/obs/report.py") == []


# ----------------------------------------------------------------------
# no-print
# ----------------------------------------------------------------------
class TestNoPrint:
    def test_print_in_library_flagged(self):
        src = "def f(x):\n    print(x)\n"
        found = lint_source(src, "src/repro/experiments/runner.py")
        assert rules_of(found) == ["no-print"]
        assert "repro.obs.log" in found[0].message

    def test_cli_exempt(self):
        src = "print('table')\n"
        assert lint_source(src, "src/repro/cli.py") == []

    def test_obs_package_exempt(self):
        src = "print('progress')\n"
        assert lint_source(src, "src/repro/obs/progress.py") == []

    def test_docstring_mention_allowed(self):
        src = '"""Never print(...) here."""\nx = 1\n'
        assert lint_source(src, "src/repro/campaigns/trials.py") == []

    def test_waiver_suppresses(self):
        src = "print('one-off')  # repro-lint: allow(no-print)\n"
        assert lint_source(src, "src/repro/experiments/runner.py") == []

    def test_shadowed_method_allowed(self):
        src = "def f(doc):\n    doc.print(2)\n"
        assert lint_source(src, "src/repro/experiments/runner.py") == []

    def test_tests_out_of_scope(self):
        src = "print('debugging')\n"
        assert lint_source(src, "tests/obs/test_trace.py") == []


# ----------------------------------------------------------------------
# suite mechanics
# ----------------------------------------------------------------------
class TestSuiteMechanics:
    def test_waiver_suppresses_only_named_rule(self):
        src = "t = round(1.5, 1)  # repro-lint: allow(float-format-drift)\n"
        assert lint_source(src, WRITER_PATH) == []
        wrong = "t = round(1.5, 1)  # repro-lint: allow(wall-clock)\n"
        assert rules_of(lint_source(wrong, WRITER_PATH)) == ["float-format-drift"]

    def test_rule_names_unique_and_nonempty(self):
        names = [cls.name for cls in RULES]
        assert len(names) == len(set(names))
        assert all(names)
        assert all(cls.rationale for cls in RULES)

    def test_violations_sorted_and_formatted(self):
        src = "import time\na = time.time()\nb = time.time()\n"
        tmp = REPO_ROOT / "src/repro/dram"
        found = lint_source(src, HOT_PATH)
        assert [v.line for v in found] == [2, 3]
        assert str(found[0]).startswith(f"{HOT_PATH}:2:")

    def test_real_tree_is_clean(self):
        violations = lint_paths(
            [str(REPO_ROOT / "src" / "repro")], root=str(REPO_ROOT)
        )
        assert violations == [], "\n".join(str(v) for v in violations)

    def test_cli_exit_codes(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "dram" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        # main() resolves scopes relative to cwd; drive the module as a
        # subprocess from tmp_path so path scoping matches the layout.
        env_root = str(REPO_ROOT)
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lints", "src/repro"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "[wall-clock]" in proc.stdout

    def test_explain_lists_every_rule(self, capsys):
        assert lint_main(["--explain"]) == 0
        out = capsys.readouterr().out
        for cls in RULES:
            assert cls.name in out

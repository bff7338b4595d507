"""simlint: per-rule fixtures, suppressions, scoping, CLI, and the meta-test
that the repo's own tree is clean under its own analyzer."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.config import SimlintConfig, load_config, path_matches
from repro.analysis.engine import package_relpath, run_simlint
from repro.analysis.registry import all_rule_classes, register
from repro.analysis.types import Rule
from repro.cli import main as repro_main

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "simlint" / "repro"
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"

BAD_FIXTURES = [
    "bad_d001.py",
    "bad_d002.py",
    "malformed.py",
    "serving/bad_d003.py",
    "bad_d004.py",
    "bad_d005.py",
    "bad_d006.py",
    # Lives under serving/ so the fixture's package-relative path falls
    # inside the pyproject D007 scope, mirroring serving/bad_d003.py.
    "serving/d007",
    "bad_d008.py",
    # Lives under serving/ so the path falls inside the D009 runtime
    # scope (file writes are fine in offline tooling).
    "serving/bad_d009.py",
]


def lint(*names: str, config: SimlintConfig | None = None):
    paths = [FIXTURES / name for name in names]
    violations, _ = run_simlint(paths, config if config else SimlintConfig())
    return violations


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


# --------------------------------------------------------------------- #
# Rule catalogue
# --------------------------------------------------------------------- #
def test_catalogue_is_d001_through_d009_in_order():
    codes = [cls.code for cls in all_rule_classes()]
    assert codes == [f"D00{i}" for i in range(1, 10)]


def test_every_rule_carries_rationale_and_hint():
    for cls in all_rule_classes():
        assert cls.name and cls.rationale and cls.hint


def test_registry_lookup():
    """Each code names one class: a second class claiming a taken code (or
    none) is rejected instead of silently replacing the first."""
    by_code = {cls.code: cls for cls in all_rule_classes()}
    assert by_code["D004"].name == "mutable-default"

    class Duplicate(Rule):
        code = "D004"

    class Nameless(Rule):
        pass

    with pytest.raises(ValueError, match="duplicate rule code D004"):
        register(Duplicate)
    with pytest.raises(ValueError, match="has no code"):
        register(Nameless)
    assert {cls.code: cls for cls in all_rule_classes()} == by_code


# --------------------------------------------------------------------- #
# True positives, one fixture per rule
# --------------------------------------------------------------------- #
def test_d001_flags_ambient_rng():
    violations = lint("bad_d001.py")
    assert [v.code for v in violations] == ["D001", "D001"]
    assert "random.random" in violations[0].message
    assert "numpy.random.default_rng" in violations[1].message


def test_d002_flags_wall_clock():
    violations = lint("bad_d002.py")
    assert [v.code for v in violations] == ["D002"]
    assert violations[0].line == 7


def test_d003_flags_unordered_iteration_in_scope():
    violations = lint("serving/bad_d003.py")
    assert [v.code for v in violations] == ["D003"] * 4
    messages = " / ".join(v.message for v in violations)
    assert "bare set" in messages
    assert "next(iter(...))" in messages
    assert "popitem" in messages
    assert "hash order" in messages


def test_d004_flags_mutable_defaults():
    violations = lint("bad_d004.py")
    assert [v.code for v in violations] == ["D004", "D004"]
    assert "enqueue" in violations[0].message
    assert "tally" in violations[1].message


def test_d005_flags_id_ordering():
    violations = lint("bad_d005.py")
    assert [v.code for v in violations] == ["D005", "D005"]


def test_d006_flags_unregistered_and_dynamic_stream_names():
    violations = lint("bad_d006.py")
    assert [v.code for v in violations] == ["D006", "D006"]
    messages = " / ".join(v.message for v in violations)
    assert "not-a-registered-stream" in messages
    assert "not a string literal" in messages


def test_d007_flags_read_of_never_written_key():
    violations = lint("serving/d007")
    assert [v.code for v in violations] == ["D007"]
    assert "never_written_key" in violations[0].message
    assert violations[0].path.endswith("reader.py")


def test_d008_flags_blanket_type_ignore():
    violations = lint("bad_d008.py")
    assert [v.code for v in violations] == ["D008"]


def test_d009_flags_runtime_file_writes_in_scope():
    violations = lint("serving/bad_d009.py")
    assert [v.code for v in violations] == ["D009"] * 3
    messages = " / ".join(v.message for v in violations)
    assert "'w'" in messages
    assert "'a'" in messages
    assert "write_text" in messages


# --------------------------------------------------------------------- #
# True negatives, suppressions, allowlists, scoping
# --------------------------------------------------------------------- #
def test_clean_fixture_has_no_violations():
    assert lint("clean.py") == []


def test_d003_does_not_fire_outside_its_scope():
    assert lint("unordered_out_of_scope.py") == []


def test_d009_does_not_fire_outside_its_scope():
    assert lint("filewrite_out_of_scope.py") == []


def test_justified_suppression_silences_the_line():
    assert lint("suppressed_d002.py") == []


def test_malformed_suppressions_are_reported_as_d000():
    violations = lint("malformed.py")
    # Line 7: ignore[D002] without '-- why' silences D002 but earns a D000.
    # Line 11: a code-less ignore suppresses nothing — D002 stays, plus D000.
    assert [(v.code, v.line) for v in violations] == [
        ("D000", 7), ("D002", 11), ("D000", 11)]
    assert "justification" in violations[0].message
    assert "rule code" in violations[2].message


def test_allowlist_switches_a_rule_off_for_a_path():
    config = SimlintConfig(allow={"D001": ("bad_d001.py",)})
    assert lint("bad_d001.py", config=config) == []


def test_select_restricts_the_rule_set():
    config = SimlintConfig(select=("D001",))
    assert lint("bad_d004.py", config=config) == []
    assert [v.code for v in lint("bad_d001.py", config=config)] == ["D001", "D001"]


def test_path_matches_exact_prefix_and_glob():
    assert path_matches("sim/rng.py", "sim/rng.py")
    assert path_matches("serving/engine.py", "serving/")
    assert not path_matches("serving_other.py", "serving/")
    assert path_matches("experiments/fig26.py", "experiments/fig*.py")


def test_package_relpath_anchors_at_the_repro_directory():
    assert package_relpath(FIXTURES / "serving" / "bad_d003.py") == \
        "serving/bad_d003.py"
    assert package_relpath(SRC_REPRO / "sim" / "rng.py") == "sim/rng.py"


def test_load_config_picks_up_pyproject_tables(tmp_path):
    pytest.importorskip("tomllib")  # Python 3.10 falls back to defaults
    (tmp_path / "pyproject.toml").write_text(
        '[tool.simlint.allow]\nD005 = ["legacy/"]\n')
    config = load_config(tmp_path)
    assert config.allowed("D005", "legacy/old.py")
    assert config.allowed("D002", "util/wallclock.py")  # defaults retained


def test_violation_render_format():
    violation = lint("bad_d002.py")[0]
    rendered = violation.render()
    assert rendered.startswith(f"{violation.path}:7:")
    assert " D002 " in rendered
    assert "[fix:" in rendered


# --------------------------------------------------------------------- #
# CLI entry points
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("fixture", BAD_FIXTURES)
def test_cli_exits_nonzero_on_each_seeded_fixture(fixture):
    result = run_cli(str(FIXTURES / fixture))
    assert result.returncode == 1, result.stdout + result.stderr
    assert "violation" in result.stdout


def test_cli_exits_zero_on_clean_input():
    result = run_cli(str(FIXTURES / "clean.py"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_exits_two_on_missing_path():
    result = run_cli(str(FIXTURES / "no_such_file.py"))
    assert result.returncode == 2


def test_cli_list_rules_prints_the_catalogue():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for i in range(1, 10):
        assert f"D00{i}" in result.stdout
    assert "D000" in result.stdout


def test_cli_select_runs_only_named_rules():
    result = run_cli("--select", "D001", str(FIXTURES / "bad_d004.py"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_repro_cli_lint_subcommand_delegates():
    assert repro_main(["lint", str(FIXTURES / "clean.py")]) == 0
    assert repro_main(["lint", str(FIXTURES / "bad_d004.py")]) == 1


def test_repo_source_tree_is_clean_under_its_own_analyzer():
    result = run_cli(str(SRC_REPRO))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout

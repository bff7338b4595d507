"""Reach gate: every public name in ``src/repro`` is used outside ``tests/``.

A public function, class, method or property that only tests reference
is an option nobody sets or a helper nobody calls: delete it, or put it
on ``ALLOWLIST`` with the reason a user needs it.  ``public_reach``
defines what counts as a definition and as a reference; matching is by
name, so the gate is a ratchet, not a proof.
"""

from pathlib import Path

from public_reach import gate_failures

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
REFERENCE_ROOTS = [PACKAGE, ROOT / "examples", ROOT / "benchmarks",
                   ROOT / "perfbench"]

#: Names kept although only tests reference them, each with its reason.
ALLOWLIST = {
    "report_from_json": "the entry point the module docstring of "
                        "experiments/report.py documents for rendering a "
                        "saved --json payload",
    "used": "GpuDevice's per-category memory read; the accounting tests "
            "check every reservation through it",
}


def test_every_public_name_is_reached_outside_tests():
    failures = gate_failures(ROOT, PACKAGE, REFERENCE_ROOTS,
                             [ROOT / "README.md"], ALLOWLIST)
    assert not failures, "\n".join(failures)


def test_allowlist_is_short_and_every_entry_has_a_reason():
    assert len(ALLOWLIST) <= 3
    assert all(reason.strip() for reason in ALLOWLIST.values())


# --------------------------------------------------------------------- #
# The scan on a fixture tree
# --------------------------------------------------------------------- #
FIXTURE = {
    "src/repro/__init__.py": '''\
from repro.mod import exported, helper

__all__ = ["exported", "helper"]
''',
    "src/repro/mod.py": '''\
"""Mentions documented_only(), which no code calls."""
from repro.registry import register


class Thing:
    def used_method(self):
        return self.prop

    @property
    def prop(self):
        return 1

    def test_only_method(self):
        return 2

    def wrapped_by_name(self):
        return 3


@register
class SomeRule:
    def check(self):
        return ()


def helper():
    return Thing().used_method()


def exported():
    return 4


def documented_only():
    """Call as documented_only()."""


def _private():
    return 5
''',
    "src/repro/registry.py": '''\
def register(cls):
    return cls
''',
    "perfbench/layers.py": '''\
from repro.mod import helper

WRAPPED = ("Thing.wrapped_by_name",)
helper()
''',
    "tests/test_mod.py": '''\
from repro.mod import Thing, documented_only, exported

Thing().test_only_method()
exported()
documented_only()
''',
}


def _fixture(tmp_path, allowlist=None):
    for relpath, source in FIXTURE.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    package = tmp_path / "src" / "repro"
    return gate_failures(tmp_path, package,
                         [package, tmp_path / "perfbench"], [],
                         allowlist or {})


def test_scan_reports_names_only_tests_reach(tmp_path):
    failures = _fixture(tmp_path)
    assert failures == [
        "src/repro/mod.py:13: test_only_method is referenced only from tests",
        "src/repro/mod.py:30: exported is referenced only from tests",
        "src/repro/mod.py:34: documented_only is referenced only from tests",
    ]


def test_scan_counts_string_names_and_skips_registered_rules(tmp_path):
    failures = "\n".join(_fixture(tmp_path))
    assert "wrapped_by_name" not in failures   # perfbench wraps it by name
    assert "SomeRule" not in failures and "check" not in failures


def test_scan_fails_on_a_stale_allowlist(tmp_path):
    failures = _fixture(tmp_path, allowlist={
        "test_only_method": "kept for users",
        "helper": "called by perfbench",
        "gone": "deleted long ago",
    })
    assert failures == [
        "src/repro/mod.py:30: exported is referenced only from tests",
        "src/repro/mod.py:34: documented_only is referenced only from tests",
        "allowlisted gone is no longer defined",
        "allowlisted helper is referenced now",
    ]

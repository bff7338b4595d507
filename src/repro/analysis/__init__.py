"""simlint — AST static analysis for determinism & simulation discipline.

Every headline number in this reproduction rests on paired randomness and
byte-identical reruns: all stochasticity flows through named
:class:`~repro.sim.rng.RngStreams` substreams, nothing on the simulation
path reads the wall clock, and iteration order never leaks into event
scheduling or summaries.  ``simlint`` turns that discipline from a
convention into a machine-checked property.

The package is a small, fully typed analysis framework:

* :mod:`repro.analysis.types` — the typed core: :class:`Violation`,
  :class:`Module`, the :class:`Rule` base class.
* :mod:`repro.analysis.registry` — the rule registry (``@register``).
* :mod:`repro.analysis.rules` — the determinism rule catalogue
  (D001..D008; D000 is emitted by the engine itself).
* :mod:`repro.analysis.config` — path-scoped allowlists and rule scopes,
  loaded from ``[tool.simlint]`` in ``pyproject.toml``.
* :mod:`repro.analysis.engine` — file walking, suppression comments
  (``# simlint: ignore[D002] -- reason``), filtering, reporting.
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` /
  ``python -m repro.cli lint``.

Run it::

    PYTHONPATH=src python -m repro.analysis src/repro

Exit status is 0 when clean, 1 when violations remain, 2 on usage errors.
"""

from repro.analysis.config import SimlintConfig, load_config
from repro.analysis.engine import run_simlint
from repro.analysis.registry import all_rule_classes
from repro.analysis.types import Module, Rule, Violation

__all__ = [
    "Module",
    "Rule",
    "SimlintConfig",
    "Violation",
    "all_rule_classes",
    "load_config",
    "run_simlint",
]

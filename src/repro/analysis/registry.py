"""Rule registry: the static catalogue of simlint rules.

Rules self-register at import time via the :func:`register` decorator;
:func:`all_rule_classes` returns them sorted by code so every run visits
rules in one deterministic order.
"""

from __future__ import annotations

from repro.analysis.types import Rule

_RULES: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the catalogue.

    Codes are unique; re-registering one is a programming error caught
    eagerly rather than a silent last-writer-wins.
    """
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _RULES:
        raise ValueError(f"duplicate rule code {cls.code}: "
                         f"{_RULES[cls.code].__name__} vs {cls.__name__}")
    _RULES[cls.code] = cls
    return cls


def all_rule_classes() -> list[type[Rule]]:
    """Every registered rule class, sorted by code."""
    _ensure_loaded()
    return [_RULES[code] for code in sorted(_RULES)]


def _ensure_loaded() -> None:
    # The catalogue lives in repro.analysis.rules; importing it populates
    # the registry.  Deferred so registry/types stay import-cycle-free.
    import repro.analysis.rules  # noqa: F401  (imported for side effect)

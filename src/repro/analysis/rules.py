"""The simlint determinism & simulation-discipline rule catalogue.

Each rule is a small AST pass over one parsed :class:`Module` (or, for
cross-module properties, an accumulate-then-:meth:`finalize` pass over the
whole tree).  Rules report *statically decidable* violations only; runtime
behavior is never consulted, so the analyzer is itself deterministic.

The catalogue (rationales live on each class and in the README):

========  ==========================================================
D001      ambient RNG outside the stream factory
D002      wall-clock reads outside the sanctioned reporting layer
D003      unordered iteration on the simulation path
D004      mutable default arguments
D005      ``id()``-based ordering / hash-order tiebreaks
D006      unregistered or non-literal ``RngStreams`` stream names
D007      ``summary().extra`` key drift between writers and readers
D008      blanket ``type: ignore`` without an error code
D009      file writes from runtime modules (telemetry exports only)
========  ==========================================================

(D000, malformed/unjustified suppression comments, is emitted by the
engine's suppression scanner, not by an AST rule.)
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.analysis.registry import register
from repro.analysis.types import Module, Rule, Violation
from repro.sim.rng import STREAM_REGISTRY

if TYPE_CHECKING:
    from repro.analysis.config import SimlintConfig

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains as a dotted string (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map locally bound names to the canonical dotted path they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import time`` -> ``{"time": "time.time"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = f"{node.module}.{alias.name}"
    return aliases


def canonical_call_target(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The called name with its leading import alias expanded."""
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head)
    if expanded is None:
        return dotted
    return f"{expanded}.{rest}" if rest else expanded


def _is_name_call(node: ast.expr, names: frozenset[str]) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names)


# --------------------------------------------------------------------- #
# D001 — ambient RNG
# --------------------------------------------------------------------- #


@register
class AmbientRngRule(Rule):
    """All randomness must flow through a named ``RngStreams`` substream.

    One stray ``random.random()`` or ``np.random.default_rng()`` on the
    simulation path un-pairs every A/B comparison: the ambient draw
    consumes entropy whose position depends on incidental execution
    order, so two system variants stop replaying the same workload.
    """

    code = "D001"
    name = "ambient-rng"
    rationale = ("ambient random.* / np.random.* draws un-pair A/B runs; "
                 "all stochasticity must come from a named RngStreams "
                 "substream")
    hint = ("draw from RngStreams(seed).get(\"<registered stream>\") "
            "instead (see repro.sim.rng.STREAM_REGISTRY)")

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = canonical_call_target(node, aliases)
            if target is None:
                continue
            if target.startswith("random.") or target == "random":
                yield self.violation(
                    module, node,
                    f"ambient stdlib RNG call '{target}'")
            elif target.startswith("numpy.random."):
                yield self.violation(
                    module, node,
                    f"ambient numpy RNG call '{target}'")


# --------------------------------------------------------------------- #
# D002 — wall clock
# --------------------------------------------------------------------- #

_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@register
class WallClockRule(Rule):
    """Nothing outside the sanctioned reporting layer reads real time.

    A simulation whose numbers depend on how fast the host happens to run
    is not reproducible; the simulated clock (``Simulator.now``) is the
    only "now" the simulation path may see.
    """

    code = "D002"
    name = "wall-clock"
    rationale = ("host-clock reads make runs machine-dependent; only the "
                 "allowlisted reporting layer (util/wallclock.py) may "
                 "touch real time")
    hint = ("use repro.util.wallclock (Stopwatch / wall_now) for elapsed-"
            "time reporting, or Simulator.now for simulated time")

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = canonical_call_target(node, aliases)
            if target in _WALL_CLOCK_CALLS:
                yield self.violation(
                    module, node, f"wall-clock read '{target}'")


# --------------------------------------------------------------------- #
# D003 — unordered iteration on the simulation path
# --------------------------------------------------------------------- #

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_SET_ANNOTATION_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted_name(annotation)
    if name is None:
        return False
    return name.split(".")[-1] in _SET_ANNOTATION_NAMES


def scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function/class scopes.

    Keeps name-based type guesses honest: ``evacuated`` may be a set in
    one method and a list in its neighbor, so evidence must never cross a
    scope boundary.  Deterministic breadth-first order.
    """
    queue: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while queue:
        node = queue.pop(0)
        yield node
        if not isinstance(node, _SCOPE_NODES):
            queue.extend(ast.iter_child_nodes(node))


def all_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module plus every nested function/class scope."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, _SCOPE_NODES):
            yield node


def _is_set_valued(value: ast.expr | None) -> bool:
    return value is not None and (
        isinstance(value, (ast.Set, ast.SetComp))
        or _is_name_call(value, _SET_CONSTRUCTORS))


def _set_typed_attrs(tree: ast.Module) -> frozenset[str]:
    """Attribute names (``self.x`` / class attrs) statically known as sets.

    Attributes are object state shared across methods, so — unlike plain
    names — evidence for them is collected module-wide.
    """
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            if not (_is_set_annotation(node.annotation)
                    or _is_set_valued(node.value)):
                continue
            if isinstance(node.target, ast.Attribute):
                attrs.add(node.target.attr)
        elif isinstance(node, ast.Assign) and _is_set_valued(node.value):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        for node in scope_walk(class_node):
            if isinstance(node, ast.Assign) and _is_set_valued(node.value):
                attrs.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)
                  and (_is_set_annotation(node.annotation)
                       or _is_set_valued(node.value))):
                attrs.add(node.target.id)
    return frozenset(attrs)


def _set_typed_names(scope: ast.AST) -> frozenset[str]:
    """Plain names assigned a set value/annotation within one scope."""
    names: set[str] = set()
    for node in scope_walk(scope):
        if isinstance(node, ast.AnnAssign):
            if (_is_set_annotation(node.annotation)
                    or _is_set_valued(node.value)):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        elif isinstance(node, ast.Assign) and _is_set_valued(node.value):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for arg in (*scope.args.posonlyargs, *scope.args.args,
                    *scope.args.kwonlyargs):
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                names.add(arg.arg)
    return frozenset(names)


@register
class UnorderedIterationRule(Rule):
    """No hash-order iteration where it can reach scheduling or summaries.

    ``set`` iteration order is salted per interpreter run in principle and
    insertion-history-dependent in practice; any event ordering or summary
    derived from it silently varies between otherwise identical runs.
    """

    code = "D003"
    name = "unordered-iteration"
    rationale = ("set iteration order / dict popitem / next(iter(...)) "
                 "leak hash order into event scheduling and summaries")
    hint = "wrap the iterable in sorted(...) with an explicit key"

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        set_attrs = _set_typed_attrs(module.tree)
        for scope in all_scopes(module.tree):
            yield from self._check_scope(module, scope, set_attrs)

    def _check_scope(self, module: Module, scope: ast.AST,
                     set_attrs: frozenset[str]) -> Iterator[Violation]:
        set_names = _set_typed_names(scope)

        def is_set_expr(expr: ast.expr) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if _is_name_call(expr, _SET_CONSTRUCTORS):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in set_names
            if isinstance(expr, ast.Attribute):
                return expr.attr in set_attrs
            return False

        for node in scope_walk(scope):
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                yield self.violation(
                    module, node.iter, "iteration over a bare set")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if is_set_expr(comp.iter):
                        yield self.violation(
                            module, comp.iter,
                            "comprehension over a bare set")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "popitem":
                    yield self.violation(
                        module, node,
                        "popitem() removes in container order",
                        hint="pop an explicitly chosen key instead")
                elif (isinstance(func, ast.Attribute) and func.attr == "pop"
                      and not node.args and not node.keywords
                      and is_set_expr(func.value)):
                    yield self.violation(
                        module, node,
                        "set.pop() removes an arbitrary element",
                        hint="pop min(...)/max(...) of the set instead")
                elif (isinstance(func, ast.Name) and func.id == "next"
                      and node.args
                      and _is_name_call(node.args[0], frozenset({"iter"}))):
                    yield self.violation(
                        module, node,
                        "next(iter(...)) depends on container order",
                        hint="index a sorted(...) view or name the key "
                             "explicitly")
                elif (isinstance(func, ast.Name)
                      and func.id in ("list", "tuple")
                      and len(node.args) == 1
                      and is_set_expr(node.args[0])):
                    yield self.violation(
                        module, node,
                        f"{func.id}() materializes a set in hash order")


# --------------------------------------------------------------------- #
# D004 — mutable default arguments
# --------------------------------------------------------------------- #

_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict",
})


@register
class MutableDefaultRule(Rule):
    """No mutable default arguments (the PR 1 ``EngineConfig`` bug class).

    A mutable default is one object shared by every call — state leaks
    between supposedly independent replicas/runs, exactly the shared-
    ``EngineConfig`` bug PR 1 had to fix.

    Only builtin containers (literals, comprehensions and the constructors
    in ``_MUTABLE_CONSTRUCTORS``) are recognised.  A default that
    instantiates a class, such as a non-frozen dataclass, is just as
    shared but is not flagged; make such classes frozen instead.
    """

    code = "D004"
    name = "mutable-default"
    rationale = ("a mutable default is shared across calls; replica/run "
                 "state bleeds through it (the PR 1 EngineConfig bug)")
    hint = "default to None and construct the container inside the body"

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: list[ast.expr] = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if (isinstance(default, (ast.List, ast.Dict, ast.Set,
                                         ast.ListComp, ast.DictComp,
                                         ast.SetComp))
                        or _is_name_call(default, _MUTABLE_CONSTRUCTORS)):
                    yield self.violation(
                        module, default,
                        f"mutable default argument in {node.name}()")


# --------------------------------------------------------------------- #
# D005 — id()-based ordering
# --------------------------------------------------------------------- #

_ORDERING_FUNCS = frozenset({"sorted", "min", "max"})


def _contains_id_call(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if _is_name_call(node, frozenset({"id"})):
            return True
        # A bare ``key=id`` passes the builtin itself.
        if isinstance(node, ast.Name) and node.id == "id":
            return True
    return False


@register
class IdOrderingRule(Rule):
    """No ``id()``-based sort keys or ordering tiebreaks.

    ``id()`` is a memory address: allocator-dependent, varying run to run.
    Membership tests on ``id()`` are fine; *ordering* by it is not.
    """

    code = "D005"
    name = "id-ordering"
    rationale = ("id() is a memory address; ordering by it varies across "
                 "runs and machines")
    hint = "order by a stable field (request_id, arrival_time, index)"

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                is_ordering = (
                    (isinstance(func, ast.Name) and func.id in _ORDERING_FUNCS)
                    or (isinstance(func, ast.Attribute) and func.attr == "sort"))
                if not is_ordering:
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "key" and _contains_id_call(keyword.value):
                        yield self.violation(
                            module, node, "id()-based ordering key")
            elif isinstance(node, ast.Compare):
                ordered = any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                              for op in node.ops)
                if not ordered:
                    continue
                operands = [node.left, *node.comparators]
                if any(_is_name_call(operand, frozenset({"id"}))
                       for operand in operands):
                    yield self.violation(
                        module, node, "ordering comparison on id() values")


# --------------------------------------------------------------------- #
# D006 — stream-registry discipline
# --------------------------------------------------------------------- #


def _rng_streams_receivers(tree: ast.Module) -> tuple[frozenset[str], frozenset[str]]:
    """(plain names, attribute names) statically known as ``RngStreams``."""
    names: set[str] = set()
    attrs: set[str] = set()

    def is_rng_streams_call(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = dotted_name(expr.func)
        return dotted is not None and dotted.split(".")[-1] == "RngStreams"

    def is_rng_streams_annotation(annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            return annotation.value.strip("\"'") == "RngStreams"
        dotted = dotted_name(annotation)
        return dotted is not None and dotted.split(".")[-1] == "RngStreams"

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_rng_streams_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
        elif isinstance(node, ast.AnnAssign):
            typed = is_rng_streams_annotation(node.annotation) or (
                node.value is not None and is_rng_streams_call(node.value))
            if typed:
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    attrs.add(node.target.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = [*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs]
            for arg in args:
                if is_rng_streams_annotation(arg.annotation):
                    names.add(arg.arg)
    return frozenset(names), frozenset(attrs)


@register
class StreamRegistryRule(Rule):
    """Stream names are string literals registered in ``STREAM_REGISTRY``.

    The set of stochastic inputs must be statically enumerable: a stream
    name computed at runtime (or minted ad hoc) cannot be audited, and an
    unregistered literal is a stream the documentation does not know
    exists.
    """

    code = "D006"
    name = "stream-registry"
    rationale = ("stream names must be literals registered in "
                 "repro.sim.rng.STREAM_REGISTRY so the full set of "
                 "stochastic inputs is enumerable")
    hint = ("register the stream in repro.sim.rng.STREAM_REGISTRY and "
            "pass it as a string literal")

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        names, attrs = _rng_streams_receivers(module.tree)

        def is_streams_receiver(expr: ast.expr) -> bool:
            if isinstance(expr, ast.Call):
                dotted = dotted_name(expr.func)
                return (dotted is not None
                        and dotted.split(".")[-1] == "RngStreams")
            if isinstance(expr, ast.Name):
                return expr.id in names
            if isinstance(expr, ast.Attribute):
                return expr.attr in attrs
            return False

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in ("get", "spawn")
                    and is_streams_receiver(func.value)):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                yield self.violation(
                    module, node,
                    f"RngStreams.{func.attr}() stream name is not a "
                    "string literal")
            elif arg.value not in STREAM_REGISTRY:
                yield self.violation(
                    module, node,
                    f"stream {arg.value!r} is not registered in "
                    "STREAM_REGISTRY")


# --------------------------------------------------------------------- #
# D007 — summary().extra key drift
# --------------------------------------------------------------------- #


def _is_extra_receiver(expr: ast.expr) -> bool:
    return ((isinstance(expr, ast.Name) and expr.id == "extra")
            or (isinstance(expr, ast.Attribute) and expr.attr == "extra"))


def _dict_literal_keys(expr: ast.expr) -> Iterator[str]:
    if isinstance(expr, ast.Dict):
        for key in expr.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value


@register
class ExtraKeyDriftRule(Rule):
    """Every ``summary().extra`` key read somewhere is written somewhere.

    The ``extra`` mapping is a stringly-typed contract between the cluster
    layer (writer) and experiments/CLI (readers); a renamed write key
    turns every reader into a silent ``KeyError``-at-runtime (or a
    silently wrong ``.get`` default).  This is a whole-project rule:
    reads are collected per module and judged against the union of writes.
    """

    code = "D007"
    name = "extra-key-drift"
    rationale = ("summary().extra keys are a cross-module contract; a "
                 "read of a never-written key is drift that fails (or "
                 "defaults) only at runtime")
    hint = ("match the literal to a key written via extra.update()/"
            "extra[...] (grep summary() in serving/replica.py)")

    def __init__(self, config: "SimlintConfig") -> None:
        super().__init__(config)
        self._written: set[str] = set()
        self._reads: list[tuple[Module, ast.expr, str]] = []

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return iter(())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute) and func.attr == "update"
                        and _is_extra_receiver(func.value)):
                    for keyword in node.keywords:
                        if keyword.arg is not None:
                            self._written.add(keyword.arg)
                        else:  # extra.update(**mapping) — opaque, skip
                            self._written.update(
                                _dict_literal_keys(keyword.value))
                    for arg in node.args:
                        self._written.update(_dict_literal_keys(arg))
                elif (isinstance(func, ast.Attribute) and func.attr == "get"
                        and _is_extra_receiver(func.value) and node.args):
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and \
                            isinstance(first.value, str):
                        self._reads.append((module, node, first.value))
                else:
                    for keyword in node.keywords:
                        if keyword.arg == "extra":
                            self._written.update(
                                _dict_literal_keys(keyword.value))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and _is_extra_receiver(target.value)
                            and isinstance(target.slice, ast.Constant)
                            and isinstance(target.slice.value, str)):
                        self._written.add(target.slice.value)
                    elif _is_extra_receiver(target):
                        self._written.update(_dict_literal_keys(node.value))
            elif (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Load)
                    and _is_extra_receiver(node.value)
                    and isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                self._reads.append((module, node, node.slice.value))
        return iter(())

    def finalize(self, modules: Sequence[Module]) -> Iterator[Violation]:
        for module, node, key in self._reads:
            if key not in self._written:
                yield self.violation(
                    module, node,
                    f"extra key {key!r} is read but never written "
                    "anywhere in the scanned tree")


# --------------------------------------------------------------------- #
# D008 — blanket mypy suppressions
# --------------------------------------------------------------------- #


@register
class BareTypeIgnoreRule(Rule):
    """Mypy suppressions must carry an error code.

    A blanket suppression hides every future error on that line, not just
    the one it was written for; ``[code]`` scoping keeps the debt visible
    and lets ``mypy --strict`` stay meaningful.
    """

    code = "D008"
    name = "bare-type-ignore"
    rationale = ("a code-less mypy suppression hides all future errors "
                 "on the line, not just the one it was written for")
    hint = "scope it: add the mypy error code in brackets"

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        pattern = re.compile(r"\btype:\s*ignore\b(?!\s*\[)")
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(module.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                if pattern.search(token.string):
                    yield Violation(
                        path=str(module.path),
                        line=token.start[0],
                        col=token.start[1],
                        code=self.code,
                        message="blanket mypy suppression without an "
                                "error code",
                        hint=self.hint,
                    )
        except tokenize.TokenError:  # pragma: no cover - ast parsed already
            return


# --------------------------------------------------------------------- #
# D009 — file writes on the simulation path
# --------------------------------------------------------------------- #


@register
class FileWriteRule(Rule):
    """Runtime modules must not open files for writing.

    A mid-run file write is a hidden side channel: it can block on the
    OS, its failure modes are invisible to the simulator, and its output
    interleaving depends on host state rather than the event order.  All
    run telemetry flows through in-memory sinks (``repro.obs``) and is
    exported *after* the run by the sanctioned exporter module.
    """

    code = "D009"
    name = "runtime-file-write"
    rationale = ("a file write inside a runtime module is a hidden side "
                 "channel with host-dependent interleaving; telemetry "
                 "must buffer in memory and export after the run")
    hint = ("collect into a repro.obs sink during the run and write via "
            "repro.obs.export afterwards")

    #: ``open()`` mode characters that make the handle writable.
    _WRITE_CHARS = frozenset("wax+")

    def check(self, module: Module) -> Iterator[Violation]:
        if not self.in_scope(module):
            return
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("write_text", "write_bytes")):
                yield self.violation(
                    module, node,
                    f".{func.attr}() writes a file from a runtime module")
                continue
            target = canonical_call_target(node, aliases)
            if target not in ("open", "builtins.open", "io.open",
                              "os.fdopen"):
                continue
            mode = self._literal_mode(node)
            if mode is not None and self._WRITE_CHARS & set(mode):
                yield self.violation(
                    module, node,
                    f"open(..., {mode!r}) writes a file from a runtime "
                    "module")

    @staticmethod
    def _literal_mode(node: ast.Call) -> str | None:
        """The literal mode string of an ``open`` call, else ``None``.

        Only statically decidable modes are reported: a computed mode is
        skipped rather than guessed at.
        """
        for keyword in node.keywords:
            if keyword.arg == "mode":
                value = keyword.value
                return (value.value
                        if isinstance(value, ast.Constant)
                        and isinstance(value.value, str) else None)
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            return node.args[1].value
        return None


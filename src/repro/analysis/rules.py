"""Determinism lint rules: the registry and the AST checkers.

Each rule owns a stable code (``DET1xx`` for determinism contracts,
``HOT2xx`` for hot-path contracts, ``SUP9xx`` for suppression
hygiene), a short kebab-case name usable in suppression comments, and
a ``check`` function over one parsed module.  Rules are pure: they
read the AST and the :class:`FileContext`, and yield
:class:`Finding` objects — suppression handling, scoping, and
reporting live in :mod:`repro.analysis.lint`.

Scope: the determinism rules only apply to files inside the
sim-affecting packages (``SCOPED_PACKAGES``) — analysis code,
experiment drivers, and the CLI may read clocks or environment
variables freely; simulation state may not.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: Packages whose code feeds simulated state: a nondeterministic read
#: here corrupts traces, tables, and cached results.
SCOPED_PACKAGES = frozenset(
    {
        "sim",
        "pfs",
        "machine",
        "faults",
        "apps",
        "policies",
        "workloads",
        "pablo",
        # The sweep engine schedules simulations: its worker seeds and
        # point identities must derive from the grid spec, never from
        # ambient entropy (real-time scheduler deadlines carry
        # justified suppressions).
        "sweep",
        # Deliberately NOT scoped: ``serve`` (the HTTP service, job
        # manager and client).  Serving is an operational layer —
        # request latencies, socket timeouts, thread scheduling — whose
        # reads never feed simulated state; the runs it schedules
        # execute inside the scoped packages above, where the
        # determinism rules already apply.
    }
)

#: The one module allowed to touch entropy sources: every stochastic
#: element draws from its named substreams.
ENTROPY_BOUNDARY = ("sim", "rng.py")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.code} [{self.rule}] {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class FileContext:
    """Per-file inputs shared by every rule."""

    #: Path as reported in findings (repo-relative when possible).
    path: str
    #: Path components, for scope decisions.
    parts: Tuple[str, ...]
    #: Whether the determinism rules apply to this file.
    scoped: bool

    @property
    def is_entropy_boundary(self) -> bool:
        return len(self.parts) >= 2 and self.parts[-2:] == ENTROPY_BOUNDARY


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    summary: str
    #: Whether the rule only applies inside ``SCOPED_PACKAGES``.
    scoped_only: bool
    check: Callable[[ast.Module, FileContext], Iterator[Finding]]


#: Ordered rule registry: code -> Rule.  Iteration order is the
#: (deterministic) registration order — the linter reports findings
#: sorted by location anyway.
RULES: Dict[str, Rule] = {}

#: Name -> code lookup for suppression comments (both spellings work).
RULE_NAMES: Dict[str, str] = {}


def register(
    code: str, name: str, summary: str, scoped_only: bool = True
) -> Callable[
    [Callable[[ast.Module, FileContext], Iterator[Finding]]],
    Callable[[ast.Module, FileContext], Iterator[Finding]],
]:
    """Class-free rule registration decorator."""

    def wrap(
        fn: Callable[[ast.Module, FileContext], Iterator[Finding]]
    ) -> Callable[[ast.Module, FileContext], Iterator[Finding]]:
        if code in RULES or name in RULE_NAMES:
            raise ValueError(f"duplicate rule registration: {code}/{name}")
        RULES[code] = Rule(
            code=code,
            name=name,
            summary=summary,
            scoped_only=scoped_only,
            check=fn,
        )
        RULE_NAMES[name] = code
        return fn

    return wrap


def resolve_rule(token: str) -> Optional[Rule]:
    """Look a rule up by code or by name (as suppressions may use either)."""
    code = RULE_NAMES.get(token, token)
    return RULES.get(code)


# ---------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------

#: Builtins that consume an iterable order-insensitively (or impose
#: their own deterministic order): iterating a set through these is
#: safe.
_ORDER_SAFE_SINKS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Builtins that materialize iteration order: feeding them a set leaks
#: hash order into simulation state.
_ORDER_LEAK_SINKS = frozenset(
    {"list", "tuple", "iter", "enumerate", "reversed", "next"}
)


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Attribute/Name chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Alias -> real dotted module for every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = name.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _canonical(dotted: str, aliases: Dict[str, str]) -> str:
    """Resolve the leading segment of ``dotted`` through the module's
    import aliases (``np.random.default_rng`` ->
    ``numpy.random.default_rng``)."""
    head, _, rest = dotted.partition(".")
    real = aliases.get(head)
    if real is None:
        return dotted
    return f"{real}.{rest}" if rest else real


def _is_setish(node: ast.AST, set_locals: Set[str]) -> bool:
    """Whether ``node`` syntactically produces a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra keeps set-ness; only report when a side is known.
        return _is_setish(node.left, set_locals) or _is_setish(
            node.right, set_locals
        )
    return False


def _collect_set_locals(tree: ast.Module) -> Set[str]:
    """Names assigned a set literal / ``set()`` call anywhere in the
    module (simple flow-insensitive tracking — one namespace is enough
    for lint purposes; false negatives are acceptable, false positives
    are not)."""
    names: Set[str] = set()
    reassigned_other: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        setish = _is_setish(value, names)
        for target in targets:
            if isinstance(target, ast.Name):
                if setish:
                    names.add(target.id)
                else:
                    reassigned_other.add(target.id)
    # A name that is *ever* rebound to something non-set is ambiguous:
    # drop it rather than risk a false positive.
    return names - reassigned_other


# ---------------------------------------------------------------------
# DET101 — unordered set iteration
# ---------------------------------------------------------------------

@register(
    "DET101",
    "set-iteration",
    "iteration over an unordered set leaks hash order into sim state",
)
def check_set_iteration(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Finding]:
    """Set iteration order depends on ``PYTHONHASHSEED`` for str/bytes
    (and on allocation history for objects): any loop, comprehension,
    unpacking, or order-materializing call over a set inside sim code
    can reorder events between processes.  Wrap the set in
    ``sorted(...)`` or keep an explicitly ordered container."""
    set_locals = _collect_set_locals(tree)

    def finding(node: ast.AST, how: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            code="DET101",
            rule="set-iteration",
            message=(
                f"{how} iterates a set in unordered hash order; "
                "wrap it in sorted(...) or use an ordered container"
            ),
        )

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_setish(node.iter, set_locals):
                yield finding(node.iter, "for loop")
        elif isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
        ):
            # Iterating a set inside a SetComp/set() is order-safe only
            # when the *result* is consumed safely; flag the generator
            # source regardless for List/Dict/GeneratorExp.
            if isinstance(node, ast.SetComp):
                continue
            for gen in node.generators:
                if _is_setish(gen.iter, set_locals):
                    yield finding(gen.iter, "comprehension")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_LEAK_SINKS
                and node.args
                and _is_setish(node.args[0], set_locals)
            ):
                yield finding(node, f"{func.id}(...)")
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "join"
                and node.args
                and _is_setish(node.args[0], set_locals)
            ):
                yield finding(node, "str.join(...)")
        elif isinstance(node, ast.Starred) and _is_setish(
            node.value, set_locals
        ):
            yield finding(node, "starred unpacking")


# ---------------------------------------------------------------------
# DET102 — entropy / wall-clock reads outside sim/rng.py
# ---------------------------------------------------------------------

#: Call prefixes that read wall-clock time or ambient entropy.
_ENTROPY_PREFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "random.",
    "uuid.",
    "secrets.",
    "os.urandom",
    "numpy.random.",
)


@register(
    "DET102",
    "entropy",
    "wall-clock/RNG/uuid read outside the sim/rng.py boundary",
)
def check_entropy(tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
    """All randomness must flow through the named substreams of
    ``repro.sim.rng`` so that adding a consumer never perturbs the
    draws of existing ones; wall-clock reads differ between hosts and
    runs by construction."""
    if ctx.is_entropy_boundary:
        return
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted is None:
            continue
        canonical = _canonical(dotted, aliases)
        for prefix in _ENTROPY_PREFIXES:
            hit = (
                canonical == prefix
                or canonical == prefix.rstrip(".")
                or (prefix.endswith(".") and canonical.startswith(prefix))
                or canonical.startswith(prefix + ".")
            )
            if hit:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code="DET102",
                    rule="entropy",
                    message=(
                        f"call to {canonical}() reads wall-clock time or "
                        "ambient entropy; route randomness through "
                        "repro.sim.rng named substreams"
                    ),
                )
                break


# ---------------------------------------------------------------------
# DET103 — id()-based ordering / tie-breaking
# ---------------------------------------------------------------------

_ORDER_CMP = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _key_uses_id(keyword: ast.keyword) -> bool:
    value = keyword.value
    if isinstance(value, ast.Name) and value.id == "id":
        return True
    if isinstance(value, ast.Lambda):
        for sub in ast.walk(value.body):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
    return False


@register(
    "DET103",
    "id-ordering",
    "object id() used as a sort key or ordering tie-break",
)
def check_id_ordering(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Finding]:
    """``id()`` is an allocation address: comparing or sorting by it
    ties simulation order to the memory allocator.  Identity *equality*
    (``a is b``, ``id(a) == id(b)``) stays legal — only ordered
    comparisons and sort keys are flagged."""

    def finding(node: ast.AST, how: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=node.lineno,
            col=node.col_offset,
            code="DET103",
            rule="id-ordering",
            message=(
                f"{how}: id() values order by allocation address, which "
                "is nondeterministic; derive an explicit sequence number"
            ),
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func_name = None
            if isinstance(node.func, ast.Name):
                func_name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            if func_name in ("sorted", "sort", "min", "max", "nsmallest",
                             "nlargest"):
                for keyword in node.keywords:
                    if keyword.arg == "key" and _key_uses_id(keyword):
                        yield finding(node, f"{func_name}(key=id)")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            ordered = any(isinstance(op, _ORDER_CMP) for op in node.ops)
            if not ordered:
                continue
            for operand in operands:
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "id"
                ):
                    yield finding(node, "ordered comparison of id()")
                    break


# ---------------------------------------------------------------------
# DET104 — os.environ reads outside the config boundary
# ---------------------------------------------------------------------

@register(
    "DET104",
    "environ-read",
    "os.environ access inside sim code (cache-key safety)",
)
def check_environ(tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
    """Run behavior must be fully determined at run setup: flags read
    from the environment mid-run cannot be folded into cached-run
    keys, so cached and live results drift apart.  All ``REPRO_*``
    parsing lives in :mod:`repro.flags`; sim code receives resolved
    values through constructors."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        dotted: Optional[str] = None
        if isinstance(node, (ast.Attribute, ast.Name)):
            dotted = _dotted_name(node)
        if dotted is None:
            continue
        canonical = _canonical(dotted, aliases)
        if canonical in ("os.environ", "os.getenv", "os.putenv"):
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                code="DET104",
                rule="environ-read",
                message=(
                    f"{canonical} accessed inside a sim-affecting package; "
                    "resolve flags once at run setup via repro.flags and "
                    "thread the value through configuration"
                ),
            )


# ---------------------------------------------------------------------
# HOT201 — per-event telemetry registry lookups in dispatch loops
# ---------------------------------------------------------------------

#: Registry factory methods: calling one resolves (or creates) an
#: instrument by name — a dict lookup plus label canonicalization that
#: must happen once at wiring time, not per event.
_REGISTRY_LOOKUPS = frozenset({"counter", "gauge", "histogram"})


@register(
    "HOT201",
    "hot-telemetry",
    "telemetry registry lookup inside a dispatch loop",
)
def check_hot_telemetry(
    tree: ast.Module, ctx: FileContext
) -> Iterator[Finding]:
    """Engine/datapath/client dispatch loops must use pre-bound
    instruments (``inc = registry.counter(...).inc`` hoisted out of
    the loop): a string-keyed registry lookup per event costs a dict
    probe and label canonicalization on the hottest paths in the
    simulator."""

    class LoopVisitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.depth = 0
            self.found: List[Finding] = []

        def _visit_loop(self, node: ast.AST) -> None:
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1

        visit_For = _visit_loop
        visit_AsyncFor = _visit_loop
        visit_While = _visit_loop

        def visit_Call(self, node: ast.Call) -> None:
            if (
                self.depth > 0
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRY_LOOKUPS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self.found.append(
                    Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="HOT201",
                        rule="hot-telemetry",
                        message=(
                            f".{node.func.attr}({node.args[0].value!r}) "
                            "resolves an instrument by name inside a loop; "
                            "pre-bind the instrument (or its bound method) "
                            "outside the dispatch loop"
                        ),
                    )
                )
            self.generic_visit(node)

    visitor = LoopVisitor()
    visitor.visit(tree)
    yield from visitor.found

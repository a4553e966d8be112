"""Determinism rules (DET0xx).

The repository's core guarantee is that published datasets are
byte-identical across every execution path — serial, process pools,
sharded, remote, elastic churn, and streaming.  That only holds
while every random draw derives from ``stable_user_seed`` via
:mod:`repro.rng`, no publish-path code reads the wall clock, and
nothing enumerates a ``set`` into ordered output.  These rules make
each of those hand-enforced habits a machine-checked invariant.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Tuple

from repro.lintkit.rules import Finding, LintConfig, ModuleInfo, Rule, register

#: Stdlib-``random`` call roots: *any* function on the module-level
#: singleton shares one global, scheduling-ordered state.
_GLOBAL_RANDOM_ROOTS = ("random.",)

#: Legacy numpy global-state API (``np.random.rand`` & co.).  The
#: Generator API (``default_rng``) is fine *when seeded*.
_NUMPY_GLOBAL_PREFIX = "numpy.random."
_NUMPY_GENERATOR_CTORS = frozenset(
    {"numpy.random.default_rng", "numpy.random.Generator", "numpy.random.SeedSequence"}
)
#: Non-call uses of numpy.random we must not flag: type annotations and
#: isinstance checks mention numpy.random.Generator without drawing.
_NUMPY_SAFE = frozenset(
    {
        "numpy.random.Generator",
        "numpy.random.BitGenerator",
        "numpy.random.SeedSequence",
    }
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_OS_ENTROPY = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})
#: ``secrets`` is *deliberate* unpredictability (auth nonces) — flagged
#: only on the publish path, where unpredictability breaks byte-identity.
_SECRETS_PREFIX = "secrets."

#: Consumers whose argument order becomes visible output ordering.
_ORDER_SENSITIVE_CONSUMERS = frozenset(
    {"list", "tuple", "enumerate", "iter", "next", "zip", "map", "filter"}
)
#: Consumers that erase iteration order (safe to feed a set).
_ORDER_ERASING_CONSUMERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: ``%``/``format`` float conversions that do not round-trip float64.
_LOSSY_PERCENT = ("%f", "%e", "%g", "%.")


def _first_arg_is_seed(node: ast.Call) -> bool:
    """True when a Generator constructor received a non-``None`` seed."""
    if node.args:
        arg = node.args[0]
        return not (isinstance(arg, ast.Constant) and arg.value is None)
    for keyword in node.keywords:
        if keyword.arg in ("seed", None):
            value = keyword.value
            return not (isinstance(value, ast.Constant) and value.value is None)
    return False


@register
class UnseededRandomRule(Rule):
    id = "DET001"
    title = "unseeded or global-state RNG call"
    severity = "error"
    rationale = """Every draw must derive from an explicit seed through
    repro/rng.py so the same user protects identically on every
    executor.  The stdlib ``random`` module and numpy's legacy
    ``np.random.*`` functions share hidden global state whose sequence
    depends on import and scheduling order, and an unseeded
    ``default_rng()`` pulls OS entropy."""

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        if module.relpath == config.rng_module:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name.startswith(_GLOBAL_RANDOM_ROOTS) and name != "random.Random":
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"call to stdlib global RNG `{name}`; derive a seeded "
                    "generator via repro.rng.make_rng/stable_user_seed instead",
                )
            elif name == "random.Random" and not _first_arg_is_seed(node):
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    "`random.Random()` without a seed draws OS entropy; pass "
                    "an explicit seed",
                )
            elif name in _NUMPY_GENERATOR_CTORS:
                if name == "numpy.random.default_rng" and not _first_arg_is_seed(
                    node
                ):
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        "`default_rng()` without a seed draws OS entropy; "
                        "thread a seed (repro.rng.make_rng accepts one)",
                    )
            elif name.startswith(_NUMPY_GLOBAL_PREFIX) and name not in _NUMPY_SAFE:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"legacy numpy global-state RNG `{name}`; use a seeded "
                    "numpy.random.Generator from repro.rng instead",
                )


@register
class WallClockRule(Rule):
    id = "DET002"
    title = "wall clock read on the publish path"
    severity = "error"
    rationale = """Publish-path code (core, lppm, attacks, stream,
    synth, datasets, poi, geo, metrics, analysis, experiments) must be a
    pure function of corpus + seed: a ``time.time()`` or
    ``datetime.now()`` that reaches window assignment, seeding, or any
    published value makes two identical runs diverge.  Durations belong
    to ``time.monotonic()`` in the service layer; timestamps travel in
    the data."""

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        if not config.in_publish_path(module.relpath):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in _WALL_CLOCK:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"wall-clock read `{name}` on the publish path; thread "
                    "timestamps through the data (or keep timing in the "
                    "service/bench layer)",
                )


@register
class OsEntropyRule(Rule):
    id = "DET003"
    title = "operating-system entropy source"
    severity = "error"
    rationale = """``os.urandom``/``uuid.uuid4`` are unseedable by
    construction, so any value they influence can never be reproduced.
    ``secrets`` is allowed off the publish path (auth nonces are
    *supposed* to be unpredictable) but never on it."""

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name in _OS_ENTROPY:
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"unseedable entropy source `{name}`; derive ids and "
                    "draws from the seeded stream",
                )
            elif name.startswith(_SECRETS_PREFIX) and config.in_publish_path(
                module.relpath
            ):
                yield self.finding(
                    module.relpath,
                    node.lineno,
                    f"`{name}` on the publish path; cryptographic "
                    "unpredictability and byte-identical replay cannot mix",
                )


def _is_set_expr(node: ast.AST, module: ModuleInfo) -> bool:
    """Does *node* evaluate to a ``set``/``frozenset``?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = module.resolve(node.func)
        if name in ("set", "frozenset"):
            return True
        # set algebra helpers that return sets
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value, module)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, module) or _is_set_expr(node.right, module)
    return False


@register
class SetIterationRule(Rule):
    id = "DET004"
    title = "set iteration feeding ordered output"
    severity = "error"
    rationale = """``for x in {...}`` (and ``list(a_set)``) enumerate
    hash order, which varies per process under PYTHONHASHSEED — two
    workers fanning the same users out of a set publish in different
    orders.  Wrap the set in ``sorted(...)`` (or consume it with an
    order-erasing reduction like ``len``/``sum``/``min``)."""

    def _consumed_order_safely(self, node: ast.AST, parent: ast.AST) -> bool:
        return (
            isinstance(parent, ast.Call)
            and bool(parent.args)
            and parent.args[0] is node
        )

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            iters: Iterator[Tuple[ast.AST, int]] = iter(())
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = iter([(node.iter, node.lineno)])
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iters = iter(
                    (gen.iter, gen.iter.lineno) for gen in node.generators
                )
            elif isinstance(node, ast.Call):
                name = module.resolve(node.func)
                if name in _ORDER_SENSITIVE_CONSUMERS and node.args:
                    iters = iter([(node.args[0], node.args[0].lineno)])
            for expr, lineno in iters:
                if _is_set_expr(expr, module):
                    yield self.finding(
                        module.relpath,
                        lineno,
                        "iterating a set in an order-sensitive position; "
                        "hash order varies per process — wrap in sorted(...)",
                    )


def _lossy_format_spec(spec: str) -> bool:
    """True for precision-truncating float specs like ``.3f``/``.2e``."""
    return "." in spec and spec.rstrip("}").endswith(("f", "e", "g", "F", "E", "G"))


def _format_spec_text(node: ast.FormattedValue) -> Optional[str]:
    if node.format_spec is None:
        return None
    parts = []
    for value in getattr(node.format_spec, "values", []):
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            parts.append(value.value)
    return "".join(parts)


@register
class LossyFloatFormatRule(Rule):
    id = "DET005"
    title = "lossy float formatting near the wire codec"
    severity = "error"
    rationale = """The codec's byte-identity contract rests on Python's
    shortest-repr float encoding, which round-trips float64 exactly.  A
    ``%.3f``/``f"{x:.2f}"`` anywhere in the service or stream layers is
    one copy-paste away from a wire body, and a truncated coordinate
    de-syncs every downstream fingerprint.  Human-facing truncation
    belongs in the CLI/report layers."""

    def check_module(
        self, module: ModuleInfo, config: LintConfig
    ) -> Iterable[Finding]:
        if not config.in_codec_path(module.relpath):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FormattedValue):
                spec = _format_spec_text(node)
                if spec and _lossy_format_spec(spec):
                    yield self.finding(
                        module.relpath,
                        node.lineno,
                        f"lossy float format spec `:{spec}` in a codec-layer "
                        "module; wire values must use shortest-repr encoding",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                left = node.left
                if isinstance(left, ast.Constant) and isinstance(left.value, str):
                    if any(token in left.value for token in _LOSSY_PERCENT):
                        yield self.finding(
                            module.relpath,
                            node.lineno,
                            "lossy %-style float formatting in a codec-layer "
                            "module; wire values must use shortest-repr "
                            "encoding",
                        )

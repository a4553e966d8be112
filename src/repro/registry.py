"""Plugin registries: the single catalog behind the protection API.

Every pluggable component of the system — LPPMs, re-identification
attacks, fine-grained split policies, composition-search strategies,
dataset executors, and corpus providers — registers itself under a
short, stable slug:

    from repro.registry import register_lppm

    @register_lppm("geoi")
    class GeoInd(LPPM): ...

Components are then constructible from plain, JSON-serialisable *specs*
(deterministic routing: the spec names the component, the registry does
the lookup, the constructor gets the remaining keys as kwargs)::

    build("lppm", "geoi")                      # defaults
    build("lppm", {"name": "geoi", "epsilon": 0.02})

This is what makes :class:`repro.config.ProtectionConfig` fully
declarative: a whole run is a dict of specs, and
:meth:`repro.core.engine.ProtectionEngine.from_config` rebuilds every
object from it.

Registered objects are usually classes (instantiated with the spec's
keyword arguments).  ``split_policy`` entries are an exception: they are
plain callables ``trace -> (left, right)`` used as-is (parameters, when
given, are bound with :func:`functools.partial`).

The ``executor`` kind catalogs the batch backends of
:meth:`repro.core.engine.ProtectionEngine.protect_dataset` — built-ins
``serial``, ``process``, and ``remote`` (specs like ``{"name":
"process", "jobs": 4}`` or ``{"name": "remote", "endpoints":
["10.0.0.1:7464"], "shards": 8}``), all required to publish
byte-identical datasets on the same corpus.

The module is intentionally import-light (only :mod:`repro.errors`), so
component modules can import it without cycles; the built-in catalog is
loaded lazily on first lookup.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Mapping, Union

from repro.errors import ConfigurationError

#: A component spec: either a bare registered name, or a dict with a
#: ``"name"`` key plus constructor keyword arguments.
Spec = Union[str, Mapping[str, Any]]

#: The component kinds the system routes through registries.
KINDS = ("lppm", "attack", "split_policy", "search_strategy", "executor", "corpus")

_REGISTRIES: Dict[str, Dict[str, Any]] = {kind: {} for kind in KINDS}
_BUILTINS_LOADED = False


def _check_kind(kind: str) -> None:
    if kind not in _REGISTRIES:
        raise ConfigurationError(
            f"unknown registry kind {kind!r}; choose from {KINDS}"
        )


def _ensure_builtins() -> None:
    """Import the modules whose decorators populate the built-in catalog.

    The flag is only set once every import succeeded: a failed first
    load must surface its ImportError again on the next lookup instead
    of leaving the catalog silently partial.  (Safe from recursion —
    the imported modules only call :func:`register`, never lookups.)
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.attacks  # noqa: F401  (registers poi/pit/ap)
    import repro.core.engine  # noqa: F401  (registers split policies, executors)
    import repro.core.search  # noqa: F401  (registers search strategies)
    import repro.datasets.generators  # noqa: F401  (registers the classic corpora)
    import repro.lppm  # noqa: F401  (registers the LPPM suite)
    import repro.synth.corpus  # noqa: F401  (registers the synth corpus)

    _BUILTINS_LOADED = True


def register(kind: str, name: str) -> Callable[[Any], Any]:
    """Decorator: catalog *obj* under ``(kind, name)`` and return it."""
    _check_kind(kind)
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"registry name must be a non-empty str, got {name!r}")

    def decorator(obj: Any) -> Any:
        existing = _REGISTRIES[kind].get(name)
        if existing is not None and existing is not obj:
            raise ConfigurationError(
                f"{kind} {name!r} is already registered to {existing!r}"
            )
        _REGISTRIES[kind][name] = obj
        try:
            obj.registry_name = name
        except (AttributeError, TypeError):  # pragma: no cover - exotic objects
            pass
        return obj

    return decorator


def register_lppm(name: str) -> Callable[[Any], Any]:
    """``@register_lppm("geoi")`` — catalog an LPPM class."""
    return register("lppm", name)


def register_attack(name: str) -> Callable[[Any], Any]:
    """``@register_attack("poi")`` — catalog an attack class."""
    return register("attack", name)


def register_split_policy(name: str) -> Callable[[Any], Any]:
    """``@register_split_policy("half")`` — catalog a trace splitter."""
    return register("split_policy", name)


def register_search_strategy(name: str) -> Callable[[Any], Any]:
    """``@register_search_strategy("greedy")`` — catalog a search strategy."""
    return register("search_strategy", name)


def register_executor(name: str) -> Callable[[Any], Any]:
    """``@register_executor("process")`` — catalog an execution backend."""
    return register("executor", name)


def register_corpus(name: str) -> Callable[[Any], Any]:
    """``@register_corpus("synth")`` — catalog a corpus provider.

    Corpus providers expose ``name``, ``n_users``, a lazy
    ``iter_traces()`` iterator, and a materialising ``generate()``.
    """
    return register("corpus", name)


def available(kind: str) -> List[str]:
    """Sorted names registered under *kind* (built-ins included)."""
    _check_kind(kind)
    _ensure_builtins()
    return sorted(_REGISTRIES[kind])


def get(kind: str, name: str) -> Any:
    """The raw registered object for ``(kind, name)``.

    Raises :class:`~repro.errors.ConfigurationError` listing the known
    names, so config typos fail with an actionable message.
    """
    _check_kind(kind)
    _ensure_builtins()
    try:
        return _REGISTRIES[kind][name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; registered: {available(kind)}"
        ) from None


def normalize_spec(spec: Spec) -> Dict[str, Any]:
    """Canonicalise *spec* to a plain ``{"name": ..., **params}`` dict."""
    if isinstance(spec, str):
        return {"name": spec}
    if isinstance(spec, Mapping):
        out = dict(spec)
        name = out.get("name")
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"component spec needs a non-empty 'name' key, got {spec!r}"
            )
        return out
    raise ConfigurationError(
        f"component spec must be a name or a dict, got {type(spec).__name__}"
    )


def build(kind: str, spec: Spec) -> Any:
    """Construct a component of *kind* from a plain *spec*.

    Classes are instantiated with the spec's keyword arguments;
    ``split_policy`` callables are returned as-is (or partially applied
    when the spec carries parameters).  The canonical spec is attached to
    the result so :func:`spec_of` can round-trip it.
    """
    canonical = normalize_spec(spec)
    params = {k: v for k, v in canonical.items() if k != "name"}
    factory = get(kind, canonical["name"])
    if kind == "split_policy":
        obj = functools.partial(factory, **params) if params else factory
    else:
        try:
            obj = factory(**params)
        except TypeError as exc:
            raise ConfigurationError(
                f"cannot build {kind} {canonical['name']!r} from {params!r}: {exc}"
            ) from exc
    try:
        obj._registry_spec = canonical
    except (AttributeError, TypeError):  # pragma: no cover - frozen objects
        pass
    return obj


def spec_of(obj: Any) -> Dict[str, Any]:
    """The spec *obj* was built from (or a bare-name spec for built-ins)."""
    spec = getattr(obj, "_registry_spec", None)
    if spec is not None:
        return dict(spec)
    name = getattr(obj, "registry_name", None) or getattr(
        type(obj), "registry_name", None
    )
    if name is not None:
        return {"name": name}
    raise ConfigurationError(f"{obj!r} was not built through the registry")

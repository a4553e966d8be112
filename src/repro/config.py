"""Declarative protection configuration.

A :class:`ProtectionConfig` captures a whole protection run — which
LPPMs, which attacks, the recursion floor ``δ``, the split policy, the
search strategy, the executor — as one plain, JSON-serialisable object.
Component fields hold registry *specs* (``{"name": "geoi",
"epsilon": 0.01}``) rather than live objects, so a config file alone is
enough to rebuild the full engine::

    import json
    from repro.config import ProtectionConfig
    from repro.core.engine import ProtectionEngine

    with open("run.json") as f:
        cfg = ProtectionConfig.from_dict(json.load(f))
    engine = ProtectionEngine.from_config(cfg).fit(background)
    report = engine.protect_dataset(test)

``python -m repro config validate run.json`` lints a config file without
running anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.core.engine import DEFAULT_DELTA_S
from repro.errors import ConfigurationError
from repro.registry import available, get, normalize_spec

#: The paper's §4.1.2 mechanism suite (constructor defaults carry the
#: published parameters: ε = 0.01, r = 1000 m, 800 m cells).
DEFAULT_LPPM_SPECS = ("geoi", "trl", "hmc")

#: The paper's §4.1.1 attack suite.
DEFAULT_ATTACK_SPECS = ("poi", "pit", "ap")


def _normalized_specs(specs: Any, what: str) -> List[Dict[str, Any]]:
    if not isinstance(specs, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list of specs, got {specs!r}")
    if not specs:
        raise ConfigurationError(f"{what} must not be empty")
    return [normalize_spec(s) for s in specs]


@dataclass
class ProtectionConfig:
    """Everything needed to build a :class:`~repro.core.engine.ProtectionEngine`.

    All component fields are registry specs — a bare registered name or
    a ``{"name": ..., **kwargs}`` dict.  Instances always hold the
    normalised dict form, so two configs that mean the same run compare
    equal and JSON round-trips are lossless.
    """

    #: Base mechanism set ``L`` (registry kind ``lppm``).
    lppms: List[Dict[str, Any]] = field(
        default_factory=lambda: [normalize_spec(s) for s in DEFAULT_LPPM_SPECS]
    )
    #: Re-identification attack suite ``A`` (registry kind ``attack``).
    attacks: List[Dict[str, Any]] = field(
        default_factory=lambda: [normalize_spec(s) for s in DEFAULT_ATTACK_SPECS]
    )
    #: Recursion floor ``δ`` in seconds (paper §4.2: 4 h).
    delta_s: float = DEFAULT_DELTA_S
    #: Cap on composition chain length (``None`` = all ``n`` stages).
    max_composition_length: Optional[int] = None
    #: Fine-grained splitting rule (registry kind ``split_policy``).
    split_policy: str = "half"
    #: Candidate-search strategy spec, or ``None`` for the paper's
    #: exhaustive lowest-distortion search (registry kind
    #: ``search_strategy``).
    search_strategy: Optional[Dict[str, Any]] = None
    #: Batch execution backend (registry kind ``executor``): a bare name
    #: (``"serial"``, ``"process"``, ``"sharded"``) or a
    #: spec dict with backend kwargs (``{"name": "sharded", "shards": 8}``,
    #: ``{"name": "remote", "endpoints": ["host:7464"], "shards": 8}``).
    executor: Union[str, Dict[str, Any]] = "serial"
    #: Worker count for parallel executors (``None`` = all cores).
    jobs: Optional[int] = 1
    #: Base seed; all per-user randomness derives stable children.
    seed: int = 0
    #: Service-layer settings, or ``None``: ``{"auth_key_file": PATH}``
    #: (preferred — the file's stripped bytes are the shared secret) or
    #: ``{"auth_key": SECRET}``.  Used by ``repro serve`` to require the
    #: HMAC-blake2b handshake, and inherited by a ``remote`` executor
    #: spec that does not carry its own key.
    service: Optional[Dict[str, Any]] = None
    #: Input corpus spec (registry kind ``corpus``), or ``None``.  A bare
    #: name or a spec dict such as ``{"name": "synth", "city": "lyon",
    #: "tier": "10k"}`` / ``{"name": "classic", "dataset": "privamov"}``;
    #: consumed by ``repro generate --config`` and the scale benchmark.
    corpus: Optional[Dict[str, Any]] = None
    #: Streaming-ingestion settings, or ``None`` for the defaults:
    #: :class:`repro.stream.StreamConfig` kwargs such as ``{"window":
    #: "session", "gap_s": 1800, "overflow": "degrade",
    #: "max_pending_records": 50000}``.  Used by ``repro serve`` for the
    #: ``stream_*`` verbs (see docs/STREAMING.md).
    stream: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        self.lppms = _normalized_specs(self.lppms, "lppms")
        self.attacks = _normalized_specs(self.attacks, "attacks")
        self.delta_s = float(self.delta_s)
        if self.search_strategy is not None:
            self.search_strategy = normalize_spec(self.search_strategy)
        if not isinstance(self.executor, str):
            self.executor = normalize_spec(self.executor)
        if self.seed is not None:
            self.seed = int(self.seed)
        if self.service is not None:
            self.service = dict(self.service)
        if self.corpus is not None:
            self.corpus = normalize_spec(self.corpus)
        if self.stream is not None:
            self.stream = dict(self.stream)

    # -- validation ------------------------------------------------------

    def validate(self) -> "ProtectionConfig":
        """Check every field against the registries; returns ``self``.

        Component *names* are resolved (typos fail with the list of
        registered alternatives); constructor kwargs are checked by
        :meth:`ProtectionEngine.from_config`, which actually builds them.
        """
        for spec in self.lppms:
            get("lppm", spec["name"])
        for spec in self.attacks:
            get("attack", spec["name"])
        if self.delta_s <= 0:
            raise ConfigurationError(f"delta_s must be positive, got {self.delta_s}")
        if self.max_composition_length is not None and self.max_composition_length < 1:
            raise ConfigurationError(
                f"max_composition_length must be >= 1, got {self.max_composition_length}"
            )
        if not isinstance(self.split_policy, str):
            raise ConfigurationError(
                f"split_policy must be a registered name, got {self.split_policy!r}"
            )
        get("split_policy", self.split_policy)
        if self.search_strategy is not None:
            get("search_strategy", self.search_strategy["name"])
        if isinstance(self.executor, str):
            get("executor", self.executor)
        elif isinstance(self.executor, dict):
            get("executor", self.executor["name"])
        else:
            raise ConfigurationError(
                f"executor must be a registered name or spec, got {self.executor!r}"
            )
        if self.jobs is not None and (not isinstance(self.jobs, int) or self.jobs < 1):
            raise ConfigurationError(f"jobs must be >= 1 or null, got {self.jobs!r}")
        if not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        if self.service is not None:
            if not isinstance(self.service, dict):
                raise ConfigurationError(
                    f"service must be a dict or null, got {self.service!r}"
                )
            known = {"auth_key_file", "auth_key", "cluster"}
            unknown = sorted(set(self.service) - known)
            if unknown:
                raise ConfigurationError(
                    f"unknown service keys {unknown}; known keys: {sorted(known)}"
                )
            if "auth_key_file" in self.service and "auth_key" in self.service:
                raise ConfigurationError(
                    "service config takes auth_key_file or auth_key, not both"
                )
            for key in ("auth_key_file", "auth_key"):
                value = self.service.get(key)
                if key in self.service and (
                    not isinstance(value, str) or not value
                ):
                    raise ConfigurationError(
                        f"service.{key} must be a non-empty string, got {value!r}"
                    )
            cluster = self.service.get("cluster")
            if cluster is not None:
                self._validate_cluster(cluster)
        if self.corpus is not None:
            get("corpus", self.corpus["name"])
        if self.stream is not None:
            if not isinstance(self.stream, dict):
                raise ConfigurationError(
                    f"stream must be a dict or null, got {self.stream!r}"
                )
            # StreamConfig owns the field vocabulary and bounds checks.
            from repro.stream import StreamConfig

            StreamConfig.from_dict(self.stream)
        return self

    @staticmethod
    def _validate_cluster(cluster: Any) -> None:
        """Vocabulary check for ``service.cluster`` (worker-side keys).

        ``coordinator`` names the registry endpoint this deployment
        announces itself to on ``repro serve``; ``advertise`` is the
        address peers should dial (defaults to the bound address);
        ``heartbeat_s`` the announce interval.  See docs/CLUSTER.md.
        """
        if not isinstance(cluster, dict):
            raise ConfigurationError(
                f"service.cluster must be a dict, got {cluster!r}"
            )
        known = {"coordinator", "advertise", "heartbeat_s"}
        unknown = sorted(set(cluster) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown service.cluster keys {unknown}; "
                f"known keys: {sorted(known)}"
            )
        if "coordinator" not in cluster:
            raise ConfigurationError(
                "service.cluster needs a 'coordinator' endpoint"
            )
        for key in ("coordinator", "advertise"):
            value = cluster.get(key)
            if key in cluster and (not isinstance(value, str) or not value):
                raise ConfigurationError(
                    f"service.cluster.{key} must be a non-empty string, "
                    f"got {value!r}"
                )
        hb = cluster.get("heartbeat_s")
        if hb is not None and (
            isinstance(hb, bool)
            or not isinstance(hb, (int, float))
            or float(hb) <= 0
        ):
            raise ConfigurationError(
                f"service.cluster.heartbeat_s must be a positive number, "
                f"got {hb!r}"
            )

    # -- dict / JSON round-trip ------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProtectionConfig":
        """Build and validate a config from a plain dict (e.g. parsed JSON).

        Unknown keys are rejected — a typoed field name should fail
        loudly, not silently fall back to a default.
        """
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"protection config must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown config keys {unknown}; known keys: {sorted(known)}"
            )
        return cls(**data).validate()

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-serialisable dict; ``from_dict`` round-trips it."""
        return {
            "lppms": [dict(s) for s in self.lppms],
            "attacks": [dict(s) for s in self.attacks],
            "delta_s": self.delta_s,
            "max_composition_length": self.max_composition_length,
            "split_policy": self.split_policy,
            "search_strategy": (
                dict(self.search_strategy) if self.search_strategy is not None else None
            ),
            "executor": (
                dict(self.executor) if isinstance(self.executor, dict) else self.executor
            ),
            "jobs": self.jobs,
            "seed": self.seed,
            "service": dict(self.service) if self.service is not None else None,
            "corpus": dict(self.corpus) if self.corpus is not None else None,
            "stream": dict(self.stream) if self.stream is not None else None,
        }

    @classmethod
    def from_json(cls, text: str) -> "ProtectionConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON in protection config: {exc}") from exc
        return cls.from_dict(data)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ProtectionConfig":
        try:
            text = Path(path).read_text()
        except FileNotFoundError:
            raise ConfigurationError(f"no such config file: {path}") from None
        return cls.from_json(text)

    def to_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    # -- convenience ------------------------------------------------------

    @classmethod
    def paper_defaults(cls, **overrides: Any) -> "ProtectionConfig":
        """The paper's §4 setup (three LPPMs, three attacks, δ = 4 h)."""
        return cls(**overrides).validate()

    def describe(self) -> str:
        """One human line per field — the ``config validate`` summary."""
        strategy = self.search_strategy["name"] if self.search_strategy else "exhaustive"
        executor = (
            self.executor["name"] if isinstance(self.executor, dict) else self.executor
        )
        return "\n".join(
            [
                f"lppms          : {', '.join(s['name'] for s in self.lppms)}",
                f"attacks        : {', '.join(s['name'] for s in self.attacks)}",
                f"delta_s        : {self.delta_s:.0f}s",
                f"split policy   : {self.split_policy} "
                f"(registered: {', '.join(available('split_policy'))})",
                f"search strategy: {strategy}",
                f"executor       : {executor} × jobs={self.jobs}",
                f"seed           : {self.seed}",
                "service auth   : "
                + (
                    "shared-secret handshake"
                    if self.service
                    and (
                        "auth_key" in self.service
                        or "auth_key_file" in self.service
                    )
                    else "off"
                ),
                "cluster        : "
                + (
                    "join " + self.service["cluster"]["coordinator"]
                    if self.service and self.service.get("cluster")
                    else "off"
                ),
                "corpus         : "
                + (self.corpus["name"] if self.corpus else "(from CLI args)"),
                "stream         : "
                + (
                    ", ".join(f"{k}={v}" for k, v in sorted(self.stream.items()))
                    if self.stream
                    else "defaults"
                ),
            ]
        )

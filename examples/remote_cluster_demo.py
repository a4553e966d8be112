#!/usr/bin/env python
"""Remote-cluster demo: shard a corpus across two live protection servers.

Spins up a loopback "cluster" of two `ServiceServer` instances (each the
equivalent of a `python -m repro serve` host), then protects a whole
dataset through the `remote` executor: users are partitioned by the
stable blake2b user-hash, each user travels as one `protect_request`
over the versioned wire protocol to whichever server is free, and the
merged result is byte-identical to a purely local serial run — the
distribution is transparent (docs/SERVICE.md).

Run:  python examples/remote_cluster_demo.py
"""

from repro import (
    default_attack_suite,
    default_lppm_suite,
    generate_dataset,
    train_test_split,
)
from repro.core.engine import ProtectionEngine
from repro.datasets.io import to_csv_string
from repro.service import ProtectionService, ServiceServer


def build_engine(background, **kwargs) -> ProtectionEngine:
    """One fitted engine; every host of a cluster runs this same build."""
    attacks = [attack.fit(background) for attack in default_attack_suite()]
    return ProtectionEngine(
        default_lppm_suite(background), attacks, seed=7, **kwargs
    )


def main() -> None:
    raw = generate_dataset("privamov", seed=42, n_users=8, days=6)
    background, to_share = train_test_split(raw, train_days=3, test_days=3)

    # The local reference: the serial backend's published bytes.
    serial = build_engine(background).protect_dataset(to_share, daily=True)
    reference = to_csv_string(serial.published_dataset())

    # The "cluster": two servers, each with its own equivalently-fitted
    # engine and a fresh service session (that is the byte-identity
    # contract — pseudonym counters are session-scoped).
    servers = [
        ServiceServer(ProtectionService(build_engine(background)), port=0)
        for _ in range(2)
    ]
    endpoints = []
    for server in servers:
        host, port = server.start_background()
        endpoints.append(f"{host}:{port}")
    print(f"cluster up: {', '.join(endpoints)}")

    try:
        engine = build_engine(
            background,
            executor={"name": "remote", "endpoints": endpoints, "shards": 4},
            jobs=4,  # per-endpoint in-flight requests
        )
        report = engine.protect_dataset(to_share, daily=True)
    finally:
        for server in servers:
            server.stop_background()

    published = to_csv_string(report.published_dataset())
    print(f"users protected      : {len(report.results)}")
    print(f"data loss            : {100.0 * report.data_loss():.2f}%")
    print(f"throughput           : {report.users_per_second:.2f} users/s")
    print(f"byte-identical serial: {published == reference}")
    assert published == reference, "distribution transparency violated"


if __name__ == "__main__":
    main()

"""Output checks every run makes; any failure fails the run.

* Independent attack audit (Eq. 5): a second POI/PIT/AP suite, built
  from the registry and fitted on the same background in the launcher
  process (so it shares no object or ``FeatureCache`` with the engine),
  must not re-identify any published piece as its original user.
* Record accounting: every input record is published or counted erased.
* Distortion: each piece's recomputed STD equals its reported one.
* Byte identity: the published dataset's digest, compared across
  executors by the remote workload.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Iterable, List, Sequence

from repro import ProtectionConfig
from repro.core.dataset import MobilityDataset
from repro.metrics.distortion import spatial_temporal_distortion
from repro.registry import build


def audit_suite(background: MobilityDataset) -> List[Any]:
    return [build("attack", spec).fit(background) for spec in ProtectionConfig().attacks]


def audit(pieces: Iterable[Dict[str, Any]], attacks: Sequence[Any]) -> List[str]:
    """Pieces some attack links back to their original user."""
    failures = []
    for piece in pieces:
        for attack in attacks:
            if attack.reidentify(piece["published"]) == piece["original_user"]:
                failures.append(f"{attack.name} re-identifies {piece['pseudonym']}")
    return failures


def distortion_mismatches(pieces: Iterable[Dict[str, Any]]) -> List[str]:
    out = []
    for piece in pieces:
        recomputed = spatial_temporal_distortion(piece["original"], piece["published"])
        if recomputed != piece["distortion_m"]:
            out.append(f"{piece['pseudonym']}: STD {recomputed!r} != reported {piece['distortion_m']!r}")
    return out


def accounting_mismatches(units: Iterable[Dict[str, Any]], expected: Dict[Any, int]) -> List[str]:
    """Each unit's input records == published originals + erased records.

    *units* carry ``key``, ``records`` (the input size the system saw),
    ``erased_records`` and ``published_records``; *expected* maps each
    key to the input size the benchmark sent, and every key must occur
    exactly once.
    """
    out = []
    seen: Dict[Any, int] = {}
    for unit in units:
        key = unit["key"]
        seen[key] = seen.get(key, 0) + 1
        if unit["records"] != expected.get(key):
            out.append(f"{key}: system saw {unit['records']} records, sent {expected.get(key)}")
        if unit["published_records"] + unit["erased_records"] != unit["records"]:
            out.append(
                f"{key}: {unit['published_records']} published + {unit['erased_records']} "
                f"erased != {unit['records']} records"
            )
    for key in expected:
        if seen.get(key) != 1:
            out.append(f"{key}: processed {seen.get(key, 0)} times")
    return out


def published_digest(pieces: Iterable[Dict[str, Any]]) -> str:
    """Digest of the published dataset: pseudonyms and record arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for piece in sorted(pieces, key=lambda p: p["pseudonym"]):
        trace = piece["published"]
        digest.update(piece["pseudonym"].encode())
        digest.update(trace.timestamps.tobytes())
        digest.update(trace.lats.tobytes())
        digest.update(trace.lngs.tobytes())
    return digest.hexdigest()


def output_summary(units: Sequence[Dict[str, Any]], pieces: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """``published_share`` and record-weighted ``mean_distortion_m``."""
    records = sum(u["records"] for u in units)
    erased = sum(u["erased_records"] for u in units)
    weights = sum(p["original_records"] for p in pieces)
    distortion = sum(p["distortion_m"] * p["original_records"] for p in pieces)
    return {
        "published_share": 1.0 - erased / records,
        "mean_distortion_m": distortion / weights if weights else float("inf"),
    }

"""Workload inputs, generated from the synth Lyon corpus before any clock starts.

The population is the fixed synth Lyon reference corpus (corpus seed
``CORPUS_SEED``), so every run protects the same users; ``--seed`` draws
the order in which they reach the system and, for the service workload,
the query points, query kinds and the upload interleaving.  With a
population seeded per run, the share of users that need the 12-chain
composition search (3 to 7 of 40) moved users/s by about 25% between
seeds, which no usable bound could absorb.

Each user's days 1-3 are the background every attack and HMC fit on;
days 4-7 are the traces to protect.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.dataset import MobilityDataset
from repro.core.trace import Trace
from repro.datasets.mobility import SECONDS_PER_DAY
from repro.synth import CorpusSpec, SynthCorpus

CORPUS_SEED = 0
BACKGROUND_DAYS = 3
PROTECT_DAYS = 4

#: remote-bg1000: users of the background, and the
#: fixed prefix of them whose days 4-7 are protected.
BG_USERS = 1000
PROTECT_USERS = 32

#: serve-upload-query: background size, query count and rate.
SERVE_USERS = 100
QUERIES = 1000
QUERY_RATE_HZ = 80.0
TOP_CELLS_EVERY = 5
TOP_CELLS_K = 10


@dataclass
class Inputs:
    """Everything a workload hands to the system, plus its fingerprint."""

    background: List[Trace]
    #: remote workload: whole 4-day traces, in seed order.
    protect: List[Trace] = field(default_factory=list)
    #: serve workload: ``(day_index, chunk)`` uploads, in seed order.
    uploads: List[Tuple[int, Trace]] = field(default_factory=list)
    #: serve workload: ``(due_s, kind, lat, lng)`` open-loop queries.
    queries: List[Tuple[float, str, float, float]] = field(default_factory=list)
    fingerprint: Dict[str, Any] = field(default_factory=dict)

    def background_dataset(self) -> MobilityDataset:
        return MobilityDataset("background", self.background)


def _population(n_users: int) -> Tuple[CorpusSpec, List[Trace]]:
    spec = CorpusSpec(city="lyon", n_users=n_users, seed=CORPUS_SEED, days=7)
    corpus = SynthCorpus.from_spec(spec)
    return spec, [corpus.trace(i) for i in range(n_users)]


def _fingerprint(inputs: Inputs) -> Dict[str, Any]:
    digest = hashlib.blake2b(digest_size=16)
    for trace in inputs.background:
        digest.update(trace.user_id.encode())
        digest.update(trace.fingerprint)
    for trace in inputs.protect:
        digest.update(trace.user_id.encode())
        digest.update(trace.fingerprint)
    for day, chunk in inputs.uploads:
        digest.update(f"{chunk.user_id}|{day}".encode())
        digest.update(chunk.fingerprint)
    for query in inputs.queries:
        digest.update(repr(query).encode())
    return {
        "digest": digest.hexdigest(),
        "corpus": f"synth-lyon seed={CORPUS_SEED}",
        "background_users": len(inputs.background),
        "users": len(inputs.protect) or len({c.user_id for _, c in inputs.uploads}),
        "chunks": len(inputs.uploads),
        "queries": len(inputs.queries),
    }


def scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def protect_inputs(seed: int, scale: float = 1.0) -> Inputs:
    """remote-bg1000: whole 4-day traces of a fixed prefix of users, in seed order.

    *scale* sizes the protected prefix (``PROTECT_USERS`` at 1.0).
    """
    spec, traces = _population(BG_USERS)
    cut = spec.start_t + BACKGROUND_DAYS * SECONDS_PER_DAY
    end = cut + PROTECT_DAYS * SECONDS_PER_DAY
    background = [t.slice_time(spec.start_t, cut) for t in traces]
    protect = [t.slice_time(cut, end) for t in traces[: scaled(PROTECT_USERS, scale)]]
    protect = [t for t in protect if len(t) > 0]
    random.Random(seed).shuffle(protect)
    inputs = Inputs(background=[t for t in background if len(t) > 0], protect=protect)
    inputs.fingerprint = _fingerprint(inputs)
    return inputs


def serve_inputs(seed: int, scale: float = 1.0) -> Inputs:
    """serve-upload-query: daily chunks of the background users' days 4-7.

    Uploads go day by day, as a campaign's clients would send them, with
    the users of each day in seed order.  Queries hit the cell of a
    seed-drawn background record, with every ``TOP_CELLS_EVERY``-th one
    a ``top_cells`` query, due at a fixed rate from the phase start.
    *scale* sizes the uploading users and the query count (all
    ``SERVE_USERS`` and ``QUERIES`` at 1.0); the background stays whole.
    """
    spec, traces = _population(SERVE_USERS)
    rng = random.Random(seed)
    cut = spec.start_t + BACKGROUND_DAYS * SECONDS_PER_DAY
    background = [t.slice_time(spec.start_t, cut) for t in traces]
    background = [t for t in background if len(t) > 0]
    uploads: List[Tuple[int, Trace]] = []
    for day in range(BACKGROUND_DAYS, BACKGROUND_DAYS + PROTECT_DAYS):
        lo = spec.start_t + day * SECONDS_PER_DAY
        chunks = [t.slice_time(lo, lo + SECONDS_PER_DAY) for t in traces[: scaled(SERVE_USERS, scale)]]
        chunks = [c for c in chunks if len(c) > 0]
        rng.shuffle(chunks)
        uploads.extend((day, c) for c in chunks)
    queries: List[Tuple[float, str, float, float]] = []
    for j in range(scaled(QUERIES, scale)):
        trace = background[rng.randrange(len(background))]
        i = rng.randrange(len(trace))
        kind = "top_cells" if j % TOP_CELLS_EVERY == TOP_CELLS_EVERY - 1 else "count"
        queries.append(
            (j / QUERY_RATE_HZ, kind, float(trace.lats[i]), float(trace.lngs[i]))
        )
    inputs = Inputs(background=background, uploads=uploads, queries=queries)
    inputs.fingerprint = _fingerprint(inputs)
    return inputs

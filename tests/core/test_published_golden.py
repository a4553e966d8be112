"""Golden digests of what the serial engine publishes.

Byte-identity tests compare executors and transports with each other;
these pin the published bytes themselves.  Each digest folds, user by
user (sorted ids) and piece by piece, the pseudonym, the mechanism, the
exact bits of ``distortion_m`` and the published timestamp/lat/lng
arrays.  A change that moves any of them (a new seed scheme, a kernel
that drifts by one ulp and flips a verdict) fails here and must ship as
a deliberate, called-out byte change with new digests.
"""

import hashlib

import numpy as np
import pytest

GOLDEN = {
    ("micro_ctx", "protect"): "e0007240c08f45b83563207b837573a7",
    ("micro_ctx", "protect_daily"): "7418ec788cb69dfa98cf3f734d936610",
    ("micro_cab_ctx", "protect"): "a96f590750a63f988327a67d8d11ab22",
    ("micro_cab_ctx", "protect_daily"): "3e745b8379246729bf24e842adafc700",
}


def published_digest(engine, traces, method):
    digest = hashlib.blake2b(digest_size=16)
    for trace in sorted(traces, key=lambda t: t.user_id):
        for piece in getattr(engine, method)(trace).pieces:
            digest.update(
                f"{piece.pseudonym}|{piece.mechanism}|{piece.distortion_m.hex()}|".encode()
            )
            published = piece.published
            for values in (published.timestamps, published.lats, published.lngs):
                digest.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("method", ["protect", "protect_daily"])
@pytest.mark.parametrize("context", ["micro_ctx", "micro_cab_ctx"])
def test_serial_engine_publishes_the_golden_bytes(context, method, request):
    ctx = request.getfixturevalue(context)
    digest = published_digest(ctx.engine(), ctx.test.traces(), method)
    assert digest == GOLDEN[(context, method)]

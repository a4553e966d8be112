"""Golden digests of what the serial engine publishes.

Byte-identity tests compare executors and transports with each other;
these pin the published bytes themselves.  Each digest folds, user by
user (sorted ids) and piece by piece, the pseudonym, the mechanism, the
exact bits of ``distortion_m`` and the published timestamp/lat/lng
arrays.  A change that moves any of them (a new seed scheme, a kernel
that drifts by one ulp and flips a verdict) fails here and must ship as
a deliberate, called-out byte change with new digests.

Eq. 5 is a conjunction, so the order in which the engine screens a
candidate with its attacks decides what a verdict costs, never the
verdict: every order of the default suite must publish the golden bytes
after the same number of attack-suite runs (``evaluations``).
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro.attacks import default_attack_suite

#: (context, method) -> (published digest, evaluations).
GOLDEN = {
    ("micro_ctx", "protect"): ("e0007240c08f45b83563207b837573a7", 41),
    ("micro_ctx", "protect_daily"): ("7418ec788cb69dfa98cf3f734d936610", 399),
    ("micro_cab_ctx", "protect"): ("a96f590750a63f988327a67d8d11ab22", 28),
    ("micro_cab_ctx", "protect_daily"): ("3e745b8379246729bf24e842adafc700", 109),
}

#: The default suite's screen order, and every other order of it.
DEFAULT_ORDER = tuple(attack.name for attack in default_attack_suite())
ORDERS = [order for order in itertools.permutations(DEFAULT_ORDER) if order != DEFAULT_ORDER]


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


def published(engine, ctx, method):
    """``(digest, evaluations)`` of *engine* run with *method* on *ctx*'s test traces."""
    return published_digest(engine, ctx.test.traces(), method), engine.evaluations


@pytest.mark.parametrize("method", ["protect", "protect_daily"])
@pytest.mark.parametrize("context", ["micro_ctx", "micro_cab_ctx"])
def test_serial_engine_publishes_the_golden_bytes(context, method, request):
    ctx = request.getfixturevalue(context)
    assert [attack.name for attack in ctx.attacks] == list(DEFAULT_ORDER)
    assert published(ctx.engine(), ctx, method) == GOLDEN[(context, method)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: "-".join(n.split("-")[0] for n in order))
@pytest.mark.parametrize("method", ["protect", "protect_daily"])
@pytest.mark.parametrize("context", ["micro_ctx", "micro_cab_ctx"])
def test_every_screen_order_publishes_the_golden_bytes(context, method, order, request):
    ctx = request.getfixturevalue(context)
    engine = ctx.engine(attacks=[ctx.attack_by_name[name] for name in order])
    assert published(engine, ctx, method) == GOLDEN[(context, method)]

"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single exception type at API boundaries while still
being able to discriminate finer-grained failures.  :func:`check_count`,
:func:`check_positive` and :func:`check_integer` are the one way a
constructor checks a count, a duration or a seed before raising
:class:`ConfigurationError`.
"""

from __future__ import annotations

import math
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidRecordError(ReproError, ValueError):
    """A spatio-temporal record has out-of-range coordinates or timestamp."""


class EmptyTraceError(ReproError, ValueError):
    """An operation requiring a non-empty mobility trace received an empty one."""


class UnsortedTraceError(ReproError, ValueError):
    """A trace's records are not in non-decreasing timestamp order."""


class UnknownUserError(ReproError, KeyError):
    """A user id was requested that does not exist in the dataset."""


class DuplicateUserError(ReproError, ValueError):
    """Two traces with the same user id were inserted into a dataset."""


class NotFittedError(ReproError, RuntimeError):
    """An attack was asked to re-identify before being trained on background knowledge."""


class ConfigurationError(ReproError, ValueError):
    """An LPPM, attack, or experiment was configured with invalid parameters."""


def check_count(name: str, value: Any, minimum: int = 1, optional: bool = False) -> Any:
    """Return *value* if it is an int >= *minimum* (or ``None`` when *optional*).

    ``bool`` and ``float`` are rejected rather than coerced: ``True``
    would pass as 1 and ``2.7`` would silently truncate to 2.
    """
    if value is None and optional:
        return value
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_positive(
    name: str, value: Any, optional: bool = False, finite: bool = True
) -> Any:
    """Return *value* as a float if it is a finite real > 0 (or ``None``
    when *optional*; +inf too when not *finite*).

    The check for durations: ``bool`` and numeric strings are rejected
    rather than coerced (``True`` would pass as 1 s, ``"5"`` as 5 s), and
    so are NaN and, unless *finite* is false, infinity (a bound that is
    never reached, such as a recursion floor that never splits).
    """
    if value is None and optional:
        return value
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not (0 < value < math.inf or (value == math.inf and not finite))
    ):
        what = "positive and finite" if finite else "positive"
        raise ConfigurationError(f"{name} must be {what}, got {value!r}")
    return float(value)


def check_integer(name: str, value: Any) -> int:
    """Return *value* if it is an ``int`` other than a ``bool``: the check
    for seeds.  A float, a bool or a numeric string is rejected rather
    than coerced (``2.7`` would run as seed 2, ``True`` as seed 1)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return value


class ProtectionFailedError(ReproError, RuntimeError):
    """MooD could not protect a trace and erasure was disallowed by the caller."""


class ProtocolError(ReproError, ValueError):
    """A service message violates the wire protocol (bad JSON, version, or schema)."""


class ServiceError(ReproError, RuntimeError):
    """The protection service answered a request with an error envelope."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class TransportError(ServiceError):
    """The connection to a service endpoint failed (refused, reset, timed
    out, or desynchronised) — as opposed to the service *answering* with
    an error envelope.  Transport failures are retriable on another
    endpoint; envelope errors are deterministic and are not."""

    def __init__(self, message: str) -> None:
        super().__init__("transport", message)


class StreamError(ReproError, ValueError):
    """A streaming-ingestion request violates the session contract
    (unknown session, ordinal gap, out-of-order timestamps, double
    open).  Deterministic caller errors: the service answers them with a
    ``bad_request`` envelope and the session state is left unchanged."""


class AuthenticationError(ServiceError):
    """The service rejected the peer's credentials (or their absence).

    Deliberately **not** a :class:`TransportError`: a misconfigured key
    fails the same way on every endpoint and every retry, so cluster
    clients treat it as fatal instead of burning their retry budget."""

    def __init__(self, message: str) -> None:
        super().__init__("auth", message)

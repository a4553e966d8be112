"""LPPM abstraction (paper §2.3, Eq. 2).

An LPPM is a (usually randomised) transformation ``L(Υ, T) = T'`` of a
mobility trace.  Implementations are stateless with respect to the trace
stream: all configuration lives in the constructor (the ``Υ`` of Eq. 2),
and randomness comes from an explicit generator so that experiments are
reproducible and per-user streams are independent.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.core.trace import Trace
from repro.rng import SeedLike, make_rng


class LPPM(abc.ABC):
    """Base class for all Location Privacy Protection Mechanisms."""

    #: Short, unique mechanism name used in reports and composition labels.
    name: str = "lppm"
    #: True when :meth:`apply` never reads its ``rng``: the output is a
    #: function of the trace alone and a passed generator is left as it
    #: was.  The composition search then reuses one output of a chain's
    #: leading deterministic stages for every chain that starts with them.
    deterministic: bool = False

    @abc.abstractmethod
    def apply(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        """Return the obfuscated version of *trace*.

        The output keeps the input's ``user_id``: anonymisation
        (pseudonym renewal) is a separate, later step performed by the
        publishing pipeline, exactly as in the paper where attacks try to
        re-link protected traces to known users.
        """

    def __call__(self, trace: Trace, rng: Optional[SeedLike] = None) -> Trace:
        return self.apply(trace, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def coerce_rng(rng: Optional[SeedLike]) -> np.random.Generator:
    """Shared seed-coercion helper for LPPM implementations."""
    return make_rng(rng)

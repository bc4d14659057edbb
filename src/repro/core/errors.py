"""Exception hierarchy for the lotus-eater reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A simulation or protocol configuration is invalid.

    Raised eagerly at construction time (never mid-simulation) so bad
    parameter combinations fail fast with a clear message.
    """


class ProtocolViolationError(ReproError):
    """A node attempted an action the protocol forbids.

    The simulators are strict: even attacker nodes must work through
    the interfaces the protocol exposes (unless an attack is explicitly
    modelled as out-of-band, e.g. the *ideal* lotus-eater attack).
    """


class SimulationError(ReproError):
    """The simulation reached an internally inconsistent state."""


class AnalysisError(ReproError):
    """Requested analysis cannot be computed from the given results."""

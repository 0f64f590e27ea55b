"""Exception hierarchy for the APRES reproduction.

Every error carries an optional ``details`` mapping of structured,
JSON-serialisable diagnostic state (counters, per-warp status, queue
depths) so callers — most importantly the sweep runner and the CLI — can
persist *why* a run failed without parsing the message string.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional


class ReproError(Exception):
    """Base class for all library errors.

    Attributes:
        details: Structured diagnostic payload. Always a plain dict (possibly
            empty); values should be JSON-serialisable.
    """

    def __init__(self, message: str = "", *, details: Optional[Mapping[str, Any]] = None):
        super().__init__(message)
        self.details: dict[str, Any] = dict(details or {})


class ConfigError(ReproError):
    """Invalid simulation configuration."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent or unrecoverable state."""


class InvariantError(SimulationError):
    """A conservation invariant failed mid-simulation.

    ``details`` holds a structured snapshot of the violating state (which
    invariant, the counters involved, and a machine summary) captured at
    the cycle the check ran.
    """


class WatchdogTimeout(SimulationError):
    """The watchdog detected livelock/deadlock or an exceeded cycle budget.

    ``details`` holds the diagnostic dump (per-warp status, MSHR occupancy,
    DRAM queue depths); when a dump directory is configured the same
    payload is also written to a JSON file whose path is in
    ``details["dump_path"]``.
    """


class CheckpointError(ReproError):
    """A simulator snapshot could not be written, read, or restored."""


class ShardConfigError(ConfigError):
    """Invalid or unsupported sharded-execution configuration.

    Raised when ``--shards`` is combined with a feature the epoch-barrier
    engine cannot support yet (checkpointing, telemetry hubs, trace
    capture) or when the shard/worker budget is inconsistent with
    ``--jobs``. ``details`` names the offending combination.
    """


class ShardWorkerLost(SimulationError):
    """A shard worker process died or missed its barrier deadline.

    ``details`` carries the worker id, the epoch window it was executing
    and the failure kind (``"eof"`` for a dead pipe, ``"deadline"`` for a
    missed heartbeat). The engine catches this internally to retry or
    degrade to the serial engine; it escapes only when recovery is
    disabled.
    """


class WorkloadError(ReproError):
    """Invalid workload specification."""


class LintError(ReproError):
    """The static-analysis pass itself failed (not a lint finding).

    Raised for unreadable paths, unknown rule codes, or a rule crashing;
    the CLI maps it to exit code 2, distinguishing "the linter broke"
    from "the linter found problems" (exit 1).
    """

"""Deterministic fault injection for the execution layer.

The supervised pools (:mod:`repro.harness.supervise`) promise that a
dead, wedged or raising worker never changes *what* a sweep computes —
recovery is bit-identical to an undisturbed run.  That promise is only
testable if failures can be produced on demand, in the same place,
every time.  This module is that switch: a :class:`FaultPlan` names
*sites* (stable strings compiled into the execution layer) and attaches
*specs* (crash here, on the second hit, once), and the chaos suites arm
a plan, run a sweep, and pin the recovered output against serial.

Design constraints:

* **Near-no-op when disarmed.**  Production code calls
  :func:`fault_point` unconditionally; with no plan armed that is one
  global read and a return.  Nothing else in the hot path changes.
* **Deterministic.**  Which hit of a site fires is counted, not timed:
  ``FaultSpec(when=2)`` fires on the second arrival at the site no
  matter how the pool schedules workers.  Cross-process counting goes
  through atomically-claimed token files (``token_dir``) so a spec
  with ``times=1`` fires exactly once across every worker *and* every
  respawned worker — the retry that recovers from an injected crash
  runs clean instead of re-triggering it.
* **Results-invisible.**  A plan is deliberately excluded from cache
  fingerprints (:meth:`FaultPlan.cache_fingerprint` is empty, like
  ``ExecutionConfig``): fault injection changes how cells *execute*,
  never what they compute — the chaos parity pins are the proof.

The registered sites (checked statically by lotus-lint rule FLW014):

===================  ====================================================
``worker:cell``      per sweep cell, inside the pool chunk body
``cache:record``     after a cache record write commits (corruption)
===================  ====================================================
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .core.errors import ConfigurationError

__all__ = [
    "FAULT_SITES",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "fault_point",
    "arm",
    "disarm",
    "armed",
    "active_plan",
]

#: Every site name compiled into the execution layer.  FLW014 verifies
#: each ``fault_point("...")`` call site uses one of these, so a typo'd
#: site (which would silently never fire) is a lint error.
FAULT_SITES = frozenset(
    {
        "worker:cell",
        "cache:record",
    }
)

#: What a spec can do when it fires.
FAULT_KINDS = ("crash", "raise", "delay", "corrupt")

#: Exit code of an injected ``crash`` — distinctive in worker-fate
#: records, and outside the range Python uses for its own failures.
CRASH_EXIT_CODE = 57


class InjectedFault(RuntimeError):
    """The exception an armed ``raise`` fault throws at its site."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection: at ``site``, on hits ``when .. when+times-1``.

    ``kind`` decides what happens when the spec fires:

    * ``crash`` — ``os._exit`` the process (a SIGKILL/OOM stand-in;
      no cleanup handlers run, exactly like the real thing);
    * ``raise`` — raise :class:`InjectedFault`;
    * ``delay`` — sleep ``delay_seconds`` (deadline/timeout testing);
    * ``corrupt`` — truncate the file the site passed (cache records).
    """

    site: str
    kind: str
    when: int = 1
    times: int = 1
    delay_seconds: float = 0.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; registered sites: "
                f"{sorted(FAULT_SITES)}"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; kinds: {FAULT_KINDS}"
            )
        if self.when < 1:
            raise ConfigurationError(f"when must be >= 1, got {self.when}")
        if self.times < 1:
            raise ConfigurationError(f"times must be >= 1, got {self.times}")
        if self.delay_seconds < 0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of fault specs.

    Picklable because it ships to pool workers through the initializer
    (each worker arms its own copy); ``token_dir`` — a directory the
    coordinator and every worker can reach — makes hit counting global
    across processes, which is what keeps a ``times=1`` crash from
    refiring in the respawned worker that re-runs the lost work.
    Without a ``token_dir`` counting is per-process (fine for
    single-process faults like cache corruption).
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    token_dir: Optional[str] = None

    def cache_fingerprint(self) -> Dict[str, object]:
        """Empty by design: injection never changes cell results."""
        return {}


#: The armed plan (per process).  ``None`` keeps fault_point a no-op.
_PLAN: Optional[FaultPlan] = None

#: Per-process hit counters, keyed by spec position; used only when the
#: armed plan has no token_dir.
_LOCAL_HITS: Dict[int, int] = {}


def arm(plan: FaultPlan) -> None:
    """Arm ``plan`` in this process; resets per-process hit counters."""
    global _PLAN  # noqa: PLW0603 - the module global IS the mechanism
    _PLAN = plan
    _LOCAL_HITS.clear()


def disarm() -> None:
    """Return :func:`fault_point` to its no-op state."""
    global _PLAN  # noqa: PLW0603
    _PLAN = None
    _LOCAL_HITS.clear()


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    return _PLAN


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager: arm for the block, disarm on the way out."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()


def _claim_hit(plan: FaultPlan, spec_index: int) -> int:
    """Claim the next 1-based hit number for one spec, atomically.

    With a ``token_dir`` each hit is an ``O_CREAT | O_EXCL`` marker
    file, so concurrent workers (and respawned workers re-running lost
    work) each claim a distinct number and a budget of ``times`` hits
    is spent exactly once across the whole run.  The marker exists
    *before* the fault acts, so even an ``os._exit`` crash is on the
    books and the recovery attempt draws a fresh (non-firing) number.
    """
    if plan.token_dir is None:
        count = _LOCAL_HITS.get(spec_index, 0) + 1
        _LOCAL_HITS[spec_index] = count
        return count
    os.makedirs(plan.token_dir, exist_ok=True)
    count = 1
    while True:
        marker = os.path.join(plan.token_dir, f"spec{spec_index}.hit{count}")
        try:
            descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            count += 1
            continue
        os.close(descriptor)
        return count


def _corrupt_file(path: Optional[str]) -> None:
    """Tear a just-written file in half (a torn/corrupt record)."""
    if path is None:
        return
    try:
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.truncate(max(1, size // 2))
    except OSError:  # pragma: no cover - racing eviction/cleanup
        pass


def fault_point(site: str, path: Optional[str] = None) -> None:
    """Named injection site; a near-no-op unless a plan is armed.

    ``path`` is only meaningful for sites that can host a ``corrupt``
    spec — the file the site just produced.
    """
    plan = _PLAN
    if plan is None:
        return
    for index, spec in enumerate(plan.specs):
        if spec.site != site:
            continue
        hit = _claim_hit(plan, index)
        if not spec.when <= hit < spec.when + spec.times:
            continue
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
        elif spec.kind == "corrupt":
            _corrupt_file(path)
        elif spec.kind == "crash":
            # Stand-in for SIGKILL/OOM: no atexit handlers, no finally
            # blocks, no queue flushing — the supervisor must cope with
            # the worker simply ceasing to exist.
            os._exit(CRASH_EXIT_CODE)
        else:  # "raise"
            raise InjectedFault(f"{site}: {spec.message}")

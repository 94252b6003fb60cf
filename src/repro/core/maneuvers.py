"""Recovery maneuvers and the priority / escalation discipline (paper §2.1).

Six maneuvers recover the six failure modes of Table 1:

======== ===== ==========================================================
maneuver class meaning
======== ===== ==========================================================
AS       A3    Aided Stop — stopped by the vehicle immediately ahead
CS       A2    Crash Stop — maximum emergency braking
GS       A1    Gentle Stop — smooth braking to a stop on the highway
TIE-E    B2    Take Immediate Exit, Escorted by a neighbouring platoon
TIE      B1    Take Immediate Exit (cooperating adjacent vehicles)
TIE-N    C     Take Immediate Exit, Normal (no assistance)
======== ===== ==========================================================

Priorities follow the severity classes: A3 > A2 > A1 > B2 = B1 > C.

Two escalation rules from the paper are implemented here:

* **failure escalation** (§2.1.1): "the maneuver failure leads the vehicle
  to start the next higher priority maneuver"; when AS — the last resort —
  fails, the vehicle reaches ``v_KO``.  The paper leaves the B-class order
  open (B1 and B2 have equal priority); we use the ladder
  TIE-N → TIE → TIE-E → GS → CS → AS, putting TIE before TIE-E because
  TIE-E consumes strictly more resources (an escort).
* **request escalation** (§2.1.2): "if another vehicle is already
  performing a maneuver with a higher priority, the maneuver requested by
  v1 will be refused.  Hence, v1 will ask for another maneuver of a higher
  priority until the requested maneuver is accepted" — a new request is
  granted at the first ladder rung whose priority matches or exceeds every
  maneuver currently active in the coordination scope.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from repro.core.failure_modes import FAILURE_MODES, FailureMode, SeverityClass

__all__ = [
    "Maneuver",
    "ESCALATION_LADDER",
    "DEFAULT_MANEUVER_RATES",
    "maneuver_for_failure_mode",
    "next_on_failure",
    "escalate_request",
    "RUNG_PRIORITY",
    "RUNG_LETTER",
    "FAILURE_MODE_RUNG",
    "grant_rung",
]


class Maneuver(enum.Enum):
    """The six recovery maneuvers."""

    AS = "AS"
    CS = "CS"
    GS = "GS"
    TIE_E = "TIE-E"
    TIE = "TIE"
    TIE_N = "TIE-N"

    @property
    def severity(self) -> SeverityClass:
        """Severity class of the failure modes this maneuver recovers."""
        return _MANEUVER_SEVERITY[self]

    @property
    def priority(self) -> int:
        """Priority rank (higher = more critical), from the severity class."""
        return self.severity.rank

    @property
    def is_stop(self) -> bool:
        """True for Class-A maneuvers that stop the vehicle on the highway."""
        return self.severity.letter == "A"

    @property
    def needs_neighbor_platoon(self) -> bool:
        """True when the maneuver requires inter-platoon coordination."""
        return self is Maneuver.TIE_E

    def __repr__(self) -> str:
        return f"Maneuver.{self.name}"


_MANEUVER_SEVERITY = {
    Maneuver.AS: SeverityClass.A3,
    Maneuver.CS: SeverityClass.A2,
    Maneuver.GS: SeverityClass.A1,
    Maneuver.TIE_E: SeverityClass.B2,
    Maneuver.TIE: SeverityClass.B1,
    Maneuver.TIE_N: SeverityClass.C,
}

#: Failure-escalation order, least to most drastic (see module docstring).
ESCALATION_LADDER: tuple[Maneuver, ...] = (
    Maneuver.TIE_N,
    Maneuver.TIE,
    Maneuver.TIE_E,
    Maneuver.GS,
    Maneuver.CS,
    Maneuver.AS,
)

#: Default execution rates (1/hr).  The paper gives the band 15–30/hr
#: (durations 2–4 minutes); within it we make drastic maneuvers slower —
#: a ranking confirmed by the kinematic substrate (repro.agents), where
#: aided stops and escorted exits take the longest.
DEFAULT_MANEUVER_RATES: dict[Maneuver, float] = {
    Maneuver.TIE_N: 30.0,
    Maneuver.TIE: 26.0,
    Maneuver.TIE_E: 22.0,
    Maneuver.GS: 20.0,
    Maneuver.CS: 17.0,
    Maneuver.AS: 15.0,
}

_BY_NAME = {m.value: m for m in Maneuver}

# Consistency guard: Table 1's maneuver names must all resolve.
for _fm in FAILURE_MODES:
    if _fm.maneuver_name not in _BY_NAME:
        raise RuntimeError(
            f"failure mode {_fm.fm_id} references unknown maneuver "
            f"{_fm.maneuver_name!r}"
        )


def maneuver_for_failure_mode(failure_mode: FailureMode) -> Maneuver:
    """The Table-1 maneuver associated with a failure mode."""
    return _BY_NAME[failure_mode.maneuver_name]


def next_on_failure(maneuver: Maneuver) -> Optional[Maneuver]:
    """Ladder successor after a failed maneuver (None after AS → v_KO)."""
    index = ESCALATION_LADDER.index(maneuver)
    if index + 1 >= len(ESCALATION_LADDER):
        return None
    return ESCALATION_LADDER[index + 1]


#: Rung tables over ``ESCALATION_LADDER`` indices, for code that works on
#: integer rungs (the lumped chain) rather than on :class:`Maneuver`.
#: Priority rank of each rung (non-decreasing along the ladder).
RUNG_PRIORITY: tuple[int, ...] = tuple(m.priority for m in ESCALATION_LADDER)
#: Severity-letter index of each rung: A=0, B=1, C=2.
RUNG_LETTER: tuple[int, ...] = tuple(
    "ABC".index(m.severity.letter) for m in ESCALATION_LADDER
)
#: Rung of the Table-1 maneuver of each failure mode, in FM order.
FAILURE_MODE_RUNG: tuple[int, ...] = tuple(
    ESCALATION_LADDER.index(maneuver_for_failure_mode(fm)) for fm in FAILURE_MODES
)
_RUNG: dict[Maneuver, int] = {m: i for i, m in enumerate(ESCALATION_LADDER)}


def grant_rung(requested: int, ceiling: int) -> int:
    """The request-escalation rule (paper §2.1.2) on ladder indices.

    The granted rung is the first one at or above ``requested`` whose
    priority is ≥ ``ceiling``, the highest priority active in the
    coordination scope (0 for an empty scope).
    """
    for rung in range(requested, len(ESCALATION_LADDER)):
        if RUNG_PRIORITY[rung] >= ceiling:
            return rung
    # AS has the maximum priority, so the loop always returns by its last
    # iteration; this is unreachable but keeps the function total.
    return len(ESCALATION_LADDER) - 1


def escalate_request(
    requested: Maneuver, active_in_scope: Iterable[Maneuver]
) -> Maneuver:
    """Resolve a maneuver request against currently active maneuvers.

    The granted maneuver is the first ladder rung at or above the requested
    one whose priority is ≥ the highest active priority in the coordination
    scope (:func:`grant_rung`).  With an empty scope the request is granted
    as is.
    """
    ceiling = max((active.priority for active in active_in_scope), default=0)
    return ESCALATION_LADDER[grant_rung(_RUNG[requested], ceiling)]

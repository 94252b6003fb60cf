"""Allocation traces and the shared machine-readable estimate schema.

:func:`estimate_record` is the **one** JSON shape every estimate in the
project serialises to — orchestrator point results, ``repro-cli unsafety
--json`` output and figure artifacts all emit it, so downstream tooling
parses a single schema:

.. code-block:: json

    {"point_id": "...", "estimator": "simulation",
     "times": [7200.0], "values": [3.1e-5],
     "half_widths": [2.9e-6], "relative_ci": 0.094,
     "confidence": 0.95, "n_replications": 4096,
     "converged": true, "source": "orchestrate"}

``converged`` is ``null`` when the run had no target CI; orchestrator
records also carry ``status`` (``converged``, ``budget-stop`` or
``no-target``), the word the report table prints.

The report classes record *why* each point holds its estimate: the
surrogate prior that selected its estimator, every round's award, and the
budget ledger that ended the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "estimate_record",
    "RoundRecord",
    "PointReport",
    "OrchestrationReport",
]


def estimate_record(
    *,
    point_id: str,
    estimator: str,
    times: Sequence[float],
    values: Sequence[float],
    half_widths: Optional[Sequence[float]] = None,
    confidence: Optional[float] = None,
    n_replications: int = 0,
    converged: Optional[bool] = True,
    source: str = "",
    label: str = "",
) -> dict:
    """The project-wide machine-readable estimate schema (one point).

    ``relative_ci`` is derived from the *last* time point (the horizon,
    where the CI is widest for monotone unsafety) and is ``None`` for
    deterministic estimators and unobserved (zero-mean) estimates.
    ``converged`` is ``None`` when the run had no target CI to reach.
    """
    times = [float(t) for t in times]
    values = [float(v) for v in values]
    if len(times) != len(values):
        raise ValueError(
            f"times ({len(times)}) and values ({len(values)}) disagree"
        )
    halves = (
        None
        if half_widths is None
        else [float(h) for h in half_widths]
    )
    if halves is not None and len(halves) != len(values):
        raise ValueError(
            f"half_widths ({len(halves)}) and values ({len(values)}) disagree"
        )
    relative: Optional[float] = None
    if halves is not None and values and values[-1] != 0.0:
        candidate = abs(halves[-1] / values[-1])
        if math.isfinite(candidate):
            relative = candidate
    return {
        "point_id": point_id,
        "label": label or point_id,
        "estimator": estimator,
        "times": times,
        "values": values,
        "half_widths": halves,
        "relative_ci": relative,
        "confidence": confidence,
        "n_replications": int(n_replications),
        "converged": None if converged is None else bool(converged),
        "source": source,
    }


#: report-table status of a point's ``converged`` value
_STATUS = {True: "converged", False: "budget-stop", None: "no-target"}


@dataclass(frozen=True)
class RoundRecord:
    """One allocation round: what was awarded and what it achieved."""

    index: int
    #: replications awarded this round, per point id
    awards: dict[str, int]
    #: widest relative CI across unconverged points *after* the round
    #: (None when every point is converged or unobserved)
    widest_relative_ci: Optional[float]
    #: points converged by the end of this round
    converged_points: int
    #: cumulative replications spent after this round
    spent: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "awards": dict(sorted(self.awards.items())),
            "widest_relative_ci": self.widest_relative_ci,
            "converged_points": self.converged_points,
            "spent": self.spent,
        }


@dataclass
class PointReport:
    """Final state of one sweep point after orchestration."""

    point_id: str
    label: str
    estimator: str
    reason: str
    times: tuple[float, ...]
    values: tuple[float, ...]
    half_widths: Optional[tuple[float, ...]]
    confidence: float
    n_replications: int
    #: whether the target CI was reached; None when there was no target
    converged: Optional[bool]
    #: pooled simulator events charged to this point (0 for analytical)
    events: int = 0
    #: surrogate curve used for warm-starting (may be empty)
    surrogate: tuple[float, ...] = ()

    @property
    def relative_ci(self) -> Optional[float]:
        if self.half_widths is None or not self.values:
            return None
        if self.values[-1] == 0.0:
            return None
        candidate = abs(self.half_widths[-1] / self.values[-1])
        return candidate if math.isfinite(candidate) else None

    def to_dict(self) -> dict:
        record = estimate_record(
            point_id=self.point_id,
            label=self.label,
            estimator=self.estimator,
            times=self.times,
            values=self.values,
            half_widths=self.half_widths,
            confidence=self.confidence,
            n_replications=self.n_replications,
            converged=self.converged,
            source="orchestrate",
        )
        record["reason"] = self.reason
        record["status"] = _STATUS[self.converged]
        record["events"] = self.events
        if self.surrogate:
            record["surrogate"] = [float(v) for v in self.surrogate]
        return record


@dataclass
class OrchestrationReport:
    """Everything one orchestration run decided and measured."""

    policy: str
    seed: int
    points: list[PointReport] = field(default_factory=list)
    rounds: list[RoundRecord] = field(default_factory=list)
    ledger: Optional[dict] = None
    telemetry: Optional[dict] = None

    @property
    def total_replications(self) -> int:
        return sum(p.n_replications for p in self.points)

    @property
    def all_converged(self) -> bool:
        """True only when every point reached its target (or is exact)."""
        return all(p.converged for p in self.points)

    def point(self, point_id: str) -> PointReport:
        for report in self.points:
            if report.point_id == point_id:
                return report
        raise KeyError(point_id)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-estimates/1",
            "policy": self.policy,
            "seed": self.seed,
            "total_replications": self.total_replications,
            "all_converged": self.all_converged,
            "points": [p.to_dict() for p in self.points],
            "rounds": [r.to_dict() for r in self.rounds],
            "ledger": self.ledger,
            "telemetry": self.telemetry,
        }

    def format(self) -> str:
        """Human-readable allocation trace + per-point results."""
        lines = [
            f"orchestration: policy={self.policy}  seed={self.seed}  "
            f"points={len(self.points)}  rounds={len(self.rounds)}  "
            f"replications={self.total_replications}"
        ]
        if self.ledger is not None:
            reason = self.ledger.get("stop_reason")
            elapsed = self.ledger.get("elapsed_seconds", 0.0)
            lines.append(
                f"stopped: {reason or 'n/a'}  elapsed={elapsed:.2f}s"
            )
        lines.append("")
        lines.append(
            f"{'point':<28} {'estimator':<12} {'n':>8} "
            f"{'S(horizon)':>12} {'rel-CI':>8}  status"
        )
        for point in self.points:
            value = point.values[-1] if point.values else math.nan
            relative = point.relative_ci
            rel_text = "-" if relative is None else f"{relative:7.2%}"
            status = _STATUS[point.converged]
            lines.append(
                f"{point.label:<28.28} {point.estimator:<12} "
                f"{point.n_replications:>8} {value:>12.4e} {rel_text:>8}  "
                f"{status}"
            )
        if self.rounds:
            lines.append("")
            lines.append("allocation trace:")
            for record in self.rounds:
                widest = record.widest_relative_ci
                widest_text = "-" if widest is None else f"{widest:.2%}"
                awards = ", ".join(
                    f"{pid}+{n}" for pid, n in sorted(record.awards.items())
                )
                lines.append(
                    f"  round {record.index:>2}: spent={record.spent:<8} "
                    f"widest rel-CI={widest_text:<8} "
                    f"converged={record.converged_points}  [{awards}]"
                )
        point_seconds = (self.telemetry or {}).get("point_seconds")
        if point_seconds:
            # wall-clock footer only: never part of the deterministic
            # points/rounds sections above
            budget = "  ".join(
                f"{pid}={seconds:.2f}s"
                for pid, seconds in sorted(point_seconds.items())
            )
            lines.append("")
            lines.append(f"point seconds: {budget}")
        return "\n".join(lines)

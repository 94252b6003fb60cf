"""Human-readable and Graphviz descriptions of SAN models.

Möbius renders SANs graphically; this module provides the open
equivalents: :func:`describe_model` (a structured text summary like the
paper's Figure 5 caption) and :func:`to_dot` (Graphviz source with the
usual SAN iconography — circles for places, thick bars for timed
activities, thin bars for instantaneous ones, triangles for gates).
"""

from __future__ import annotations

from repro.san.activities import InstantaneousActivity, TimedActivity
from repro.san.marking import MarkingFunction
from repro.san.model import SANModel

__all__ = ["describe_model", "describe_lowering", "to_dot"]


def _rate_text(activity: TimedActivity) -> str:
    if activity.rate is None:
        return f"~{activity.distribution!r}"
    if isinstance(activity.rate, MarkingFunction):
        places = ", ".join(sorted(p.name for p in activity.rate.reads()))
        return f"rate = f({places})"
    return f"rate = {activity.rate:g}"


def describe_model(model: SANModel, max_items: int | None = None) -> str:
    """A structured text summary of a SAN model.

    Parameters
    ----------
    model:
        The model to describe.
    max_items:
        Optional cap on listed places/activities (composed models with
        2n replicas produce long listings otherwise); a trailing line
        reports how many were omitted.
    """
    lines = [f"SAN model {model.name!r}"]
    stats = model.stats()
    lines.append(
        f"  {stats['places']} places, {stats['timed_activities']} timed "
        f"activities, {stats['instantaneous_activities']} instantaneous "
        f"activities"
    )

    lines.append("  places:")
    places = model.places if max_items is None else model.places[:max_items]
    for place in places:
        kind = "extended " if place.is_extended else ""
        lines.append(f"    {place.name} ({kind}initial = {place.initial!r})")
    omitted = len(model.places) - len(places)
    if omitted > 0:
        lines.append(f"    ... and {omitted} more places")

    lines.append("  activities:")
    activities = (
        model.activities if max_items is None else model.activities[:max_items]
    )
    for activity in activities:
        if isinstance(activity, TimedActivity):
            detail = _rate_text(activity)
        else:
            detail = f"instantaneous, priority {activity.priority}"
        gates = ", ".join(g.name for g in activity.input_gates) or "-"
        case_labels = "/".join(
            case.label or f"case{i}" for i, case in enumerate(activity.cases)
        )
        lines.append(
            f"    {activity.name}: {detail}; input gates: {gates}; "
            f"cases: {case_labels}"
        )
    omitted = len(model.activities) - len(activities)
    if omitted > 0:
        lines.append(f"    ... and {omitted} more activities")
    return "\n".join(lines)


def describe_lowering(engine) -> str:
    """Per-activity lowering table of a :class:`SteppedJumpEngine`.

    One row per timed activity: ``vectorized`` when the stepped compile
    pass lowered its gates/rate to column kernels, or ``fallback`` with
    the recorded ``_CannotLower`` reason.  The header repeats
    ``lowering_stats()`` so the table is self-contained in reports.
    """
    stats = engine.lowering_stats()
    reasons: dict[str, str] = getattr(engine, "fallback_reasons", {})
    lines = [
        f"stepped lowering for model {engine.model.name!r}: "
        f"{stats['lowered']}/{stats['timed_activities']} timed activities "
        f"vectorized in {stats['groups']} group(s), "
        f"{stats['fallback']} on the per-row fallback"
    ]
    width = max(
        (len(a.name) for a in engine.model.timed_activities), default=0
    )
    for activity in engine.model.timed_activities:
        reason = reasons.get(activity.name)
        status = (
            "vectorized" if reason is None else f"fallback ({reason})"
        )
        lines.append(f"  {activity.name:<{width}}  {status}")
    return "\n".join(lines)


def _dot_id(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def to_dot(model: SANModel, rankdir: str = "LR") -> str:
    """Graphviz source for a SAN model.

    Edges run place → activity for every input-gate binding and
    activity → place for every output-gate binding (per case, labelled
    with the case label when present).
    """
    lines = [
        f"digraph {_dot_id(model.name)} {{",
        f"  rankdir={rankdir};",
        '  node [fontname="Helvetica"];',
    ]
    for place in model.places:
        shape = "doublecircle" if place.is_extended else "circle"
        lines.append(
            f"  {_dot_id(place.name)} [shape={shape}, "
            f'label="{place.name}\\n{place.initial!r}"];'
        )
    for activity in model.activities:
        if isinstance(activity, TimedActivity):
            style = "shape=box, height=0.6, width=0.15, style=filled, fillcolor=gray70"
        else:
            style = "shape=box, height=0.6, width=0.05, style=filled, fillcolor=black, fontcolor=white"
        lines.append(f"  {_dot_id(activity.name)} [{style}];")
        for gate in activity.input_gates:
            for place in sorted(gate.places(), key=lambda p: p.name):
                lines.append(
                    f"  {_dot_id(place.name)} -> {_dot_id(activity.name)} "
                    f'[label="{gate.name}"];'
                )
        for case_index, case in enumerate(activity.cases):
            label = case.label or (
                f"case{case_index}" if len(activity.cases) > 1 else ""
            )
            for gate in case.output_gates:
                for place in sorted(gate.places(), key=lambda p: p.name):
                    suffix = f' [label="{label}"]' if label else ""
                    lines.append(
                        f"  {_dot_id(activity.name)} -> "
                        f"{_dot_id(place.name)}{suffix};"
                    )
    lines.append("}")
    return "\n".join(lines)

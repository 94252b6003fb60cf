"""Timed and instantaneous activities with probabilistic cases."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from repro.stochastic.distributions import Distribution, Exponential
from repro.stochastic.rng import RandomStream
from repro.san.gates import InputGate, OutputGate
from repro.san.marking import Marking, MarkingFunction
from repro.san.places import Place

__all__ = ["Case", "TimedActivity", "InstantaneousActivity"]

RateLike = Union[float, int, MarkingFunction]
ProbLike = Union[float, int, MarkingFunction]


def rate_error(name: str, value: float) -> ValueError:
    """The error for an enabled activity whose rate is negative or NaN."""
    problem = "rate is NaN" if value != value else f"negative rate {value}"
    return ValueError(f"activity {name!r}: {problem}")


class Case:
    """One probabilistic outcome of an activity completion.

    Parameters
    ----------
    probability:
        A constant or a :class:`MarkingFunction` evaluated in the marking at
        completion time.  Probabilities of an activity's cases must sum to 1
        in every reachable marking (checked at runtime with tolerance).
    output_gates:
        Output gates executed (in order) when this case is selected.
    label:
        Optional diagnostic label ("success", "failure", ...).
    """

    __slots__ = ("probability", "output_gates", "label")

    def __init__(
        self,
        probability: ProbLike,
        output_gates: Sequence[OutputGate] = (),
        label: str = "",
    ) -> None:
        if not isinstance(probability, MarkingFunction):
            probability = float(probability)
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"constant case probability must be in [0,1], got {probability}"
                )
        self.probability = probability
        self.output_gates = list(output_gates)
        self.label = label

    def probability_in(self, marking: Marking) -> float:
        """Evaluate the case probability in ``marking``."""
        if isinstance(self.probability, MarkingFunction):
            value = float(self.probability(marking))
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(
                    f"case {self.label!r}: marking-dependent probability "
                    f"{value} outside [0,1]"
                )
            return min(max(value, 0.0), 1.0)
        return self.probability

    def rebind(self, place_map: Mapping[Place, Place]) -> "Case":
        """Clone with places substituted (Rep support)."""
        prob = self.probability
        if isinstance(prob, MarkingFunction):
            prob = prob.rebind(place_map)
        return Case(
            prob, [g.rebind(place_map) for g in self.output_gates], self.label
        )

    def places(self) -> set[Place]:
        """All places this case's gates or probability touch."""
        result: set[Place] = set()
        if isinstance(self.probability, MarkingFunction):
            result |= self.probability.reads()
        for gate in self.output_gates:
            result |= gate.places()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Case({self.label or self.probability!r})"


class _ActivityBase:
    """Shared mechanics of timed and instantaneous activities."""

    __slots__ = ("name", "input_gates", "cases")

    def __init__(
        self,
        name: str,
        input_gates: Sequence[InputGate],
        cases: Optional[Sequence[Case]],
    ) -> None:
        self.name = name
        self.input_gates = list(input_gates)
        self.cases = list(cases) if cases else [Case(1.0)]
        if not self.cases:
            raise ValueError(f"activity {name!r} needs at least one case")

    # ------------------------------------------------------------------
    def enabled(self, marking: Marking) -> bool:
        """True when every input gate predicate holds."""
        return all(gate.holds(marking) for gate in self.input_gates)

    def case_probabilities(self, marking: Marking) -> list[float]:
        """Evaluate all case probabilities; verify they sum to 1."""
        probs = [case.probability_in(marking) for case in self.cases]
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"activity {self.name!r}: case probabilities sum to {total}, "
                f"expected 1"
            )
        return probs

    def choose_case(self, marking: Marking, stream: RandomStream) -> int:
        """Sample a case index according to the current probabilities."""
        if len(self.cases) == 1:
            return 0
        return stream.choice_index(self.case_probabilities(marking))

    def fire(self, marking: Marking, case_index: int) -> None:
        """Execute input gate functions, then the chosen case's output gates."""
        for gate in self.input_gates:
            gate.fire(marking)
        for gate in self.cases[case_index].output_gates:
            gate.fire(marking)

    # ------------------------------------------------------------------
    def reads(self) -> set[Place]:
        """Places whose change can affect enabling/rate/probabilities."""
        result: set[Place] = set()
        for gate in self.input_gates:
            result |= gate.places()
        for case in self.cases:
            result |= case.places()
        return result

    def writes(self) -> set[Place]:
        """Places this activity may modify (conservative)."""
        result: set[Place] = set()
        for gate in self.input_gates:
            result |= gate.places()
        for case in self.cases:
            for gate in case.output_gates:
                result |= gate.places()
        return result


class TimedActivity(_ActivityBase):
    """An activity whose completion takes random time.

    Exactly one of ``rate`` and ``distribution`` must be given:

    * ``rate`` — a constant or :class:`MarkingFunction`; the delay is
      exponential with that (possibly marking-dependent) rate.  Only
      rate-specified (exponential) activities are admissible for CTMC
      state-space generation.
    * ``distribution`` — any :class:`Distribution`; simulation only.
    """

    __slots__ = ("rate", "distribution")

    def __init__(
        self,
        name: str,
        rate: Optional[RateLike] = None,
        distribution: Optional[Distribution] = None,
        input_gates: Sequence[InputGate] = (),
        cases: Optional[Sequence[Case]] = None,
    ) -> None:
        super().__init__(name, input_gates, cases)
        if (rate is None) == (distribution is None):
            raise ValueError(
                f"activity {name!r}: give exactly one of rate= or distribution="
            )
        if rate is not None and not isinstance(rate, MarkingFunction):
            rate = float(rate)
            if rate <= 0.0:
                raise ValueError(f"activity {name!r}: rate must be > 0, got {rate}")
        self.rate = rate
        self.distribution = distribution

    @property
    def is_markovian(self) -> bool:
        """True when the firing delay is exponential."""
        return self.rate is not None or (
            self.distribution is not None and self.distribution.is_exponential
        )

    def rate_in(self, marking: Marking) -> float:
        """Exponential rate in ``marking``.

        A marking-dependent rate may evaluate to 0, meaning "enabled but
        firing at rate zero" (treated as disabled by every engine); a
        negative or NaN value raises ``ValueError``.

        Raises
        ------
        TypeError
            If the activity has a non-exponential distribution.
        """
        if self.rate is not None:
            if isinstance(self.rate, MarkingFunction):
                value = float(self.rate(marking))
                if not value >= 0.0:
                    raise rate_error(self.name, value)
                return value
            return self.rate
        if self.distribution is not None and self.distribution.is_exponential:
            return self.distribution.rate()
        raise TypeError(
            f"activity {self.name!r} is not exponential; no rate available"
        )

    def exponential_parts(
        self,
    ) -> "tuple[Optional[float], Optional[MarkingFunction]]":
        """Split the exponential rate into ``(constant, marking_fn)``.

        Exactly one element is non-None.  The compile pass uses this to
        cache constant rates and to lower marking-dependent ones to
        slot-indexed closures.

        Raises
        ------
        TypeError
            If the activity is not exponential (same condition as
            :meth:`rate_in`).
        """
        if self.rate is not None:
            if isinstance(self.rate, MarkingFunction):
                return None, self.rate
            return self.rate, None
        if self.distribution is not None and self.distribution.is_exponential:
            return self.distribution.rate(), None
        raise TypeError(
            f"activity {self.name!r} is not exponential; no rate available"
        )

    def sample_delay(self, marking: Marking, stream: RandomStream) -> float:
        """Draw a firing delay in ``marking``."""
        if self.rate is not None:
            rate = self.rate_in(marking)
            if rate <= 0.0:
                return float("inf")
            return stream.exponential(rate)
        return self.distribution.sample(stream)

    def reads(self) -> set[Place]:
        result = super().reads()
        if isinstance(self.rate, MarkingFunction):
            result |= self.rate.reads()
        return result

    def rebind(self, place_map: Mapping[Place, Place], name: str) -> "TimedActivity":
        """Clone with places substituted (Rep support)."""
        rate = self.rate
        if isinstance(rate, MarkingFunction):
            rate = rate.rebind(place_map)
        return TimedActivity(
            name,
            rate=rate,
            distribution=self.distribution,
            input_gates=[g.rebind(place_map) for g in self.input_gates],
            cases=[c.rebind(place_map) for c in self.cases],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimedActivity({self.name!r})"


class InstantaneousActivity(_ActivityBase):
    """An activity that fires as soon as it is enabled.

    When several instantaneous activities are enabled simultaneously the one
    with the highest ``priority`` fires first; ties break by model insertion
    order (deterministic, documented).
    """

    __slots__ = ("priority",)

    def __init__(
        self,
        name: str,
        input_gates: Sequence[InputGate] = (),
        cases: Optional[Sequence[Case]] = None,
        priority: int = 0,
    ) -> None:
        super().__init__(name, input_gates, cases)
        self.priority = int(priority)

    def rebind(
        self, place_map: Mapping[Place, Place], name: str
    ) -> "InstantaneousActivity":
        """Clone with places substituted (Rep support)."""
        return InstantaneousActivity(
            name,
            input_gates=[g.rebind(place_map) for g in self.input_gates],
            cases=[c.rebind(place_map) for c in self.cases],
            priority=self.priority,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstantaneousActivity({self.name!r}, priority={self.priority})"

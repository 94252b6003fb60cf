"""Tests for SAN model descriptions, lowering tables and DOT export."""

import pytest

from repro.san import describe_lowering, describe_model, to_dot
from tests.conftest import make_two_state_model


class TestDescribe:
    def test_lists_places_and_activities(self):
        model, up, down = make_two_state_model()
        text = describe_model(model)
        assert "SAN model 'two-state'" in text
        assert "up (initial = 1)" in text
        assert "down (initial = 0)" in text
        assert "fail: rate = 0.5" in text
        assert "repair: rate = 2" in text

    def test_max_items_truncates(self):
        from repro.core import AHSParameters, build_composed_model

        ahs = build_composed_model(AHSParameters(max_platoon_size=2))
        text = describe_model(ahs.model, max_items=5)
        assert "more places" in text
        assert "more activities" in text

    def test_marking_dependent_rate_rendered(self):
        from repro.san import (
            Case,
            MarkingFunction,
            Place,
            SANModel,
            TimedActivity,
            output_arc,
        )

        place = Place("tokens", 1)
        model = SANModel("md")
        model.add_activity(
            TimedActivity(
                "drain",
                rate=MarkingFunction({"t": place}, lambda g: float(g["t"])),
                cases=[Case(1.0, [output_arc(place)])],
            )
        )
        text = describe_model(model)
        assert "rate = f(tokens)" in text

    def test_instantaneous_rendered(self):
        from repro.core import AHSParameters, build_composed_model

        ahs = build_composed_model(AHSParameters(max_platoon_size=1))
        text = describe_model(ahs.model)
        assert "instantaneous, priority 1000" in text  # to_KO


class TestDescribeLowering:
    def test_fully_vectorized_model(self):
        np = pytest.importorskip("numpy")  # noqa: F841 - gate on numpy
        from repro.san import SteppedJumpEngine

        model, *_ = make_two_state_model()
        text = describe_lowering(SteppedJumpEngine(model))
        assert "2/2 timed activities" in text
        assert "fail" in text and "repair" in text
        assert "0 on the per-row fallback" in text
        assert "fallback (" not in text  # no per-row fallback markers

    def test_fallback_rows_carry_reasons(self):
        np = pytest.importorskip("numpy")  # noqa: F841
        from repro.san import (
            MarkingFunction,
            Place,
            SANModel,
            SteppedJumpEngine,
            TimedActivity,
            input_arc,
        )

        place = Place("p", 1)
        model = SANModel("coerce")
        model.add_activity(
            TimedActivity(
                "drain",
                rate=MarkingFunction({"p": place}, lambda g: float(g["p"])),
                input_gates=[input_arc(place)],
            )
        )
        text = describe_lowering(SteppedJumpEngine(model))
        assert "0/1 timed activities" in text
        assert "drain" in text
        assert "fallback (float() coercion)" in text

    def test_diagnose_engine_renders_identically(self):
        np = pytest.importorskip("numpy")  # noqa: F841
        from repro.san import SteppedJumpEngine

        model, *_ = make_two_state_model()
        runtime_text = describe_lowering(SteppedJumpEngine(model))
        assert describe_lowering(SteppedJumpEngine(model, diagnose=True)) == (
            runtime_text
        )


class TestDot:
    def test_valid_dot_structure(self):
        model, up, down = make_two_state_model()
        dot = to_dot(model)
        assert dot.startswith('digraph "two-state" {')
        assert dot.rstrip().endswith("}")
        assert '"up" -> "fail"' in dot
        assert '"fail" -> "down"' in dot
        assert '"down" -> "repair"' in dot
        assert '"repair" -> "up"' in dot

    def test_place_shapes(self):
        from repro.san import ExtendedPlace, Place, SANModel, TimedActivity, input_arc

        model = SANModel("shapes")
        simple = Place("simple", 1)
        extended = ExtendedPlace("array", (1, 2))
        model.add_place(extended)
        model.add_activity(
            TimedActivity("t", rate=1.0, input_gates=[input_arc(simple)])
        )
        dot = to_dot(model)
        assert "circle" in dot
        assert "doublecircle" in dot

    def test_case_labels_on_edges(self):
        from repro.san import Case, Place, SANModel, TimedActivity, input_arc, output_arc

        src, ok, bad = Place("src", 1), Place("ok"), Place("bad")
        model = SANModel("cases")
        model.add_activity(
            TimedActivity(
                "try",
                rate=1.0,
                input_gates=[input_arc(src)],
                cases=[
                    Case(0.9, [output_arc(ok)], label="success"),
                    Case(0.1, [output_arc(bad)], label="failure"),
                ],
            )
        )
        dot = to_dot(model)
        assert 'label="success"' in dot
        assert 'label="failure"' in dot

"""Tests for the experiment harness and registry."""

import pytest

from repro.experiments.harness import (
    ExperimentResult,
    SCALES,
    get_scale,
    list_experiments,
    run_experiment,
)


class TestScales:
    def test_default_scale_is_small(self):
        assert get_scale().name == "small"

    def test_named_scales_resolve(self):
        for name in SCALES:
            assert get_scale(name).name == name
        assert get_scale("TINY").name == "tiny"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("humongous")

    def test_scales_grow_monotonically(self):
        assert (
            SCALES["tiny"].base_cardinality
            < SCALES["small"].base_cardinality
            < SCALES["medium"].base_cardinality
            < SCALES["large"].base_cardinality
        )


class TestExperimentResult:
    def test_add_row_validates_width(self):
        result = ExperimentResult("x", "t", "ref", columns=["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_text_and_markdown_render(self):
        result = ExperimentResult("fig0", "demo", "nowhere", columns=["a"])
        result.add_row(1)
        result.add_note("hello")
        text = result.to_text()
        assert "fig0" in text and "hello" in text
        markdown = result.to_markdown()
        assert markdown.startswith("### fig0")
        assert "| a |" in markdown


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        registered = set(list_experiments())
        expected = {
            "fig5", "fig6", "table2", "fig7", "fig8a", "fig8b",
            "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "table3",
        }
        assert expected.issubset(registered)

    def test_ablations_are_registered(self):
        registered = set(list_experiments())
        assert {"ablation_visit_order", "ablation_phi", "ablation_batch"} <= registered

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_unknown_scale_rejected_for_a_known_experiment(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_experiment("fig5", scale="galactic")

"""Deterministic SVG rendering primitives."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from tourflow.plots import bar_svg, heatmap_svg, strip_svg


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestHeatmap:
    def test_one_rect_per_cell_with_tooltip(self) -> None:
        svg = heatmap_svg([[1.0, 2.0], [3.0, 4.0]], ["r1", "r2"], ["c1", "c2"])
        assert svg.count('class="cell"') == 4
        assert svg.count("<title>") == 4
        parse(svg)

    def test_meta_comment_embedded(self) -> None:
        svg = heatmap_svg([[1.0]], ["r"], ["c"], meta="tool: x | seed: 3")
        assert "<!-- tool: x | seed: 3 -->" in svg

    def test_signed_data_uses_diverging_palette(self) -> None:
        svg = heatmap_svg([[-5.0, 5.0]], ["r"], ["a", "b"])
        root = parse(svg)
        fills = [el.get("fill") for el in root.iter()
                 if el.get("class") == "cell"]
        assert len(set(fills)) == 2

    def test_ragged_input_rejected(self) -> None:
        with pytest.raises(ValueError, match="matching its labels"):
            heatmap_svg([[1.0, 2.0], [3.0]], ["r1", "r2"], ["c1", "c2"])


class TestStrip:
    def test_marks_skip_undefined(self) -> None:
        svg = strip_svg(["AA", "AB", "AC"], [0.5, None, -0.5])
        assert svg.count('class="mark"') == 2
        parse(svg)

    def test_deterministic_jitter(self) -> None:
        a = strip_svg(["AA", "AB"], [0.5, 0.7])
        b = strip_svg(["AA", "AB"], [0.5, 0.7])
        assert a == b

    def test_all_undefined_renders_empty_axis(self) -> None:
        svg = strip_svg(["AA"], [None])
        assert svg.count('class="mark"') == 0
        parse(svg)

    def test_mismatched_lengths_rejected(self) -> None:
        with pytest.raises(ValueError, match="equal length"):
            strip_svg(["AA"], [0.5, 0.6])


class TestTitles:
    def test_titled_output_is_well_formed_xml(self) -> None:
        # the title text element must not repeat the font-size attribute
        for svg in (
            heatmap_svg([[1.0, 2.0]], ["r"], ["a", "b"], title="dist"),
            strip_svg(["AA", "AB"], [0.5, 0.7], title="rho"),
            bar_svg(["a", "b"], [1.0, -1.0], title="z"),
        ):
            parse(svg)
            assert svg.count("font-size=\"14\"") == 1


class TestEscaping:
    @pytest.mark.parametrize("render", [
        lambda label: heatmap_svg([[1.0]], [label], [label], title=label),
        lambda label: strip_svg([label], [0.5], title=label),
        lambda label: bar_svg([label], [1.0], title=label),
    ], ids=["heatmap", "strip", "bar"])
    def test_markup_in_labels_and_titles_is_text(self, render) -> None:
        root = parse(render("A&B <x>"))
        texts = [el.text for el in root.iter() if el.text and "A&B" in el.text]
        assert texts and all("A&B <x>" in text for text in texts)

    def test_meta_comment_holds_no_double_hyphen(self) -> None:
        svg = strip_svg(["AA"], [0.5], meta="source: a--b---c.csv")
        parse(svg)
        assert "<!-- source: a- -b- - -c.csv -->" in svg


class TestBar:
    def test_one_rect_per_value(self) -> None:
        svg = bar_svg(["a", "b", "c"], [1.0, -2.0, 3.0])
        assert svg.count('class="bar"') == 3
        parse(svg)

    def test_sign_controls_fill(self) -> None:
        svg = bar_svg(["a", "b"], [1.0, -1.0])
        root = parse(svg)
        fills = {el.get("fill") for el in root.iter() if el.get("class") == "bar"}
        assert len(fills) == 2

    def test_empty_input_rejected(self) -> None:
        with pytest.raises(ValueError, match="at least one"):
            bar_svg([], [])

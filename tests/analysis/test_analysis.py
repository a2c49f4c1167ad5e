"""Tests for statistics helpers, ASCII tables/plots and CSV export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.io import (
    network_sweep_result_from_dict,
    network_sweep_result_to_dict,
    read_result_json,
    read_sweep_csv,
    sweep_result_from_dict,
    sweep_result_to_dict,
    sweep_to_rows,
    write_result_json,
    write_sweep_csv,
)
from repro.analysis.plotting import ascii_line_plot, ascii_membership_plot
from repro.analysis.stats import (
    paired_difference,
    student_t_quantile,
    summarize,
    t_confidence_interval,
)
from repro.analysis.tables import format_curve_table, format_table
from repro.simulation.sweep import (
    NetworkSweepCurve,
    NetworkSweepPoint,
    NetworkSweepResult,
    SweepCurve,
    SweepPoint,
    SweepResult,
)


class TestStats:
    def test_summarize_basic(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.count == 4
        assert summary.standard_error > 0.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_t_interval_contains_mean(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0]
        low, high = t_confidence_interval(values)
        mean = sum(values) / len(values)
        assert low < mean < high

    def test_t_interval_wider_for_higher_confidence(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0]
        narrow = t_confidence_interval(values, confidence=0.8)
        wide = t_confidence_interval(values, confidence=0.99)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_t_interval_degenerate_cases(self):
        assert t_confidence_interval([5.0]) == (5.0, 5.0)
        assert t_confidence_interval([5.0, 5.0, 5.0]) == (5.0, 5.0)
        with pytest.raises(ValueError):
            t_confidence_interval([1.0, 2.0], confidence=1.5)

    def test_paired_difference(self):
        facs = [95.0, 90.0, 85.0]
        scc = [90.0, 88.0, 80.0]
        mean_diff, (low, high) = paired_difference(facs, scc)
        assert mean_diff == pytest.approx(4.0)
        assert low <= mean_diff <= high

    def test_paired_difference_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_difference([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_interval_is_symmetric_around_mean(self, values):
        low, high = t_confidence_interval(values)
        mean = sum(values) / len(values)
        assert (mean - low) == pytest.approx(high - mean, abs=1e-6)


#: Two-sided Student-t critical values (upper quantile at 0.5 + c/2),
#: tabulated to 4 decimals and, for the 1e-6 check, to 12 significant
#: digits.
T_TABLE = [
    (0.95, 1, 12.7062, 12.7062047362),
    (0.95, 2, 4.3027, 4.30265272975),
    (0.95, 5, 2.5706, 2.57058183564),
    (0.95, 30, 2.0423, 2.04227245630),
    (0.99, 1, 63.6567, 63.6567411629),
    (0.99, 2, 9.9248, 9.92484320092),
    (0.99, 5, 4.0321, 4.03214298356),
    (0.99, 30, 2.7500, 2.74999565357),
]


class TestStudentTQuantile:
    @pytest.mark.parametrize("confidence,df,rounded,precise", T_TABLE)
    def test_matches_the_two_sided_table(self, confidence, df, rounded, precise):
        value = student_t_quantile(0.5 + confidence / 2.0, df)
        assert value == pytest.approx(precise, rel=1e-6)
        assert round(value, 4) == pytest.approx(rounded, abs=1e-9)

    def test_symmetric_about_the_median(self):
        assert student_t_quantile(0.5, 4) == 0.0
        for p in (0.6, 0.9, 0.999):
            assert student_t_quantile(1.0 - p, 7) == pytest.approx(
                -student_t_quantile(p, 7), rel=1e-12
            )

    def test_large_df_approaches_the_normal_quantile(self):
        assert student_t_quantile(0.975, 1e6) == pytest.approx(1.959964, rel=1e-5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            student_t_quantile(1.0, 3)
        with pytest.raises(ValueError):
            student_t_quantile(0.9, 0)


class TestTables:
    def test_format_table_alignment_and_title(self):
        text = format_table(["Name", "Value"], [["alpha", 1.5], ["beta", 20]], title="Demo")
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[1] and "Value" in lines[1]
        assert "alpha" in text and "1.50" in text

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_curve_table(self):
        text = format_curve_table("N", [10, 20], {"FACS": [99.0, 95.0], "SCC": [97.0, 96.0]})
        assert "FACS" in text and "SCC" in text
        assert "99.00" in text

    def test_format_curve_table_validation(self):
        with pytest.raises(ValueError):
            format_curve_table("N", [10], {})
        with pytest.raises(ValueError):
            format_curve_table("N", [10, 20], {"FACS": [1.0]})


class TestPlots:
    def test_line_plot_contains_legend_and_markers(self):
        text = ascii_line_plot(
            [0.0, 50.0, 100.0],
            {"FACS": [100.0, 90.0, 80.0], "SCC": [95.0, 92.0, 88.0]},
            title="Fig. 10",
        )
        assert "Fig. 10" in text
        assert "legend:" in text
        assert "o = FACS" in text and "x = SCC" in text

    def test_line_plot_validation(self):
        with pytest.raises(ValueError):
            ascii_line_plot([0.0, 1.0], {})
        with pytest.raises(ValueError):
            ascii_line_plot([0.0], {"a": [1.0]})
        with pytest.raises(ValueError):
            ascii_line_plot([0.0, 1.0], {"a": [1.0]})
        with pytest.raises(ValueError):
            ascii_line_plot([1.0, 1.0], {"a": [1.0, 2.0]})

    def test_flat_series_handled(self):
        text = ascii_line_plot([0.0, 1.0, 2.0], {"flat": [5.0, 5.0, 5.0]})
        assert "flat" in text

    def test_membership_plot(self):
        samples = {
            "low": [(0.0, 1.0), (5.0, 0.0), (10.0, 0.0)],
            "high": [(0.0, 0.0), (5.0, 0.0), (10.0, 1.0)],
        }
        text = ascii_membership_plot(samples, title="terms")
        assert "terms" in text and "membership" in text

    def test_membership_plot_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_membership_plot({})


def _sweep() -> SweepResult:
    points = tuple(
        SweepPoint(
            request_count=n,
            acceptance_percentage=100.0 - n / 2,
            std_percentage=1.0,
            replications=3,
        )
        for n in (10, 50, 100)
    )
    return SweepResult(
        name="demo-sweep",
        curves=(
            SweepCurve(label="FACS", controller="FACS", points=points),
            SweepCurve(label="SCC", controller="SCC", points=points),
        ),
    )


class TestCsvRoundtrip:
    def test_rows_structure(self):
        rows = sweep_to_rows(_sweep())
        assert len(rows) == 6
        assert rows[0]["curve"] == "FACS"
        assert rows[0]["request_count"] == 10

    def test_write_and_read_roundtrip(self, tmp_path):
        sweep = _sweep()
        path = write_sweep_csv(sweep, tmp_path / "out" / "sweep.csv")
        assert path.exists()
        loaded = read_sweep_csv(path)
        assert loaded.name == sweep.name
        assert loaded.labels() == sweep.labels()
        original = sweep.curve("FACS").acceptance_series()
        restored = loaded.curve("FACS").acceptance_series()
        assert restored == pytest.approx(original)

    def test_read_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_sweep_csv(bad)

    def test_read_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "sweep,curve,controller,request_count,acceptance_percentage,"
            "std_percentage,replications\n"
        )
        with pytest.raises(ValueError):
            read_sweep_csv(empty)


def _network_sweep() -> NetworkSweepResult:
    points = tuple(
        NetworkSweepPoint(
            arrival_rate_per_cell_per_s=rate,
            acceptance_percentage=90.0 - 100 * rate,
            std_percentage=0.5,
            blocking_probability=rate,
            dropping_probability=rate / 2,
            handoff_failure_ratio=rate / 4,
            mean_occupancy_bu=20.0 + rate,
            replications=2,
        )
        for rate in (0.02, 0.04)
    )
    return NetworkSweepResult(
        name="demo-network-sweep",
        curves=(
            NetworkSweepCurve(label="FACS", controller="FACS", points=points),
            NetworkSweepCurve(label="CS", controller="CS", points=points),
        ),
    )


class TestJsonCodecs:
    def test_sweep_dict_round_trip_is_lossless(self):
        sweep = _sweep()
        restored = sweep_result_from_dict(sweep_result_to_dict(sweep))
        assert restored == sweep

    def test_network_sweep_dict_round_trip_is_lossless(self):
        result = _network_sweep()
        restored = network_sweep_result_from_dict(network_sweep_result_to_dict(result))
        assert restored == result

    def test_type_discriminators_are_checked(self):
        with pytest.raises(ValueError, match="expected"):
            sweep_result_from_dict(network_sweep_result_to_dict(_network_sweep()))
        with pytest.raises(ValueError, match="expected"):
            network_sweep_result_from_dict(sweep_result_to_dict(_sweep()))

    def test_write_read_json_round_trip_both_families(self, tmp_path):
        sweep_path = write_result_json(_sweep(), tmp_path / "sweep.json")
        network_path = write_result_json(_network_sweep(), tmp_path / "net.json")
        assert read_result_json(sweep_path) == _sweep()
        assert read_result_json(network_path) == _network_sweep()

    def test_write_rejects_foreign_objects(self, tmp_path):
        with pytest.raises(TypeError):
            write_result_json({"not": "a result"}, tmp_path / "x.json")

    def test_read_rejects_unknown_payload_type(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text('{"type": "weird"}')
        with pytest.raises(ValueError, match="unknown result payload"):
            read_result_json(path)

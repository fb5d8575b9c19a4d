"""Unit tests for the experiment runners and formatting (paper §5)."""

import pytest

from repro.analysis.formatting import format_table, render_table1, render_table2
from repro.analysis.runners import (
    run_scalability_series,
    run_table1,
    run_table2,
)


@pytest.fixture(scope="module")
def table1_result(request):
    graph = request.getfixturevalue("oahu_tiny_graph")
    return run_table1(
        "oahu", scale="tiny", num_queries=2, cores=(1, 2, 4), graph=graph
    )


class TestRunTable1:
    def test_cells_per_core_count(self, table1_result):
        assert [c.num_cores for c in table1_result.cells] == [1, 2, 4]

    def test_baseline_speedup_is_one(self, table1_result):
        assert table1_result.cells[0].speedup == pytest.approx(1.0)

    def test_speedups_positive(self, table1_result):
        assert all(c.speedup > 0 for c in table1_result.cells)

    def test_lc_included(self, table1_result):
        assert table1_result.lc is not None
        assert table1_result.lc.settled_mean > 0

    def test_lc_settles_more_than_cs(self, table1_result):
        """Table 1's headline: CS investigates far fewer connections."""
        assert table1_result.lc.settled_mean > table1_result.cells[0].settled_mean

    def test_lc_excluded_on_request(self, oahu_tiny_graph):
        result = run_table1(
            "oahu",
            scale="tiny",
            num_queries=1,
            cores=(1,),
            include_lc=False,
            graph=oahu_tiny_graph,
        )
        assert result.lc is None


class TestTable1Work:
    def test_flat_settled_means_are_pinned(self, oahu_tiny_graph):
        """The work of Table 1's flat cells on ``oahu``/tiny, 3 sources
        as the bench runs them.  Settled counts are deterministic: only
        a change to the kernel or to the sources may move them."""
        result = run_table1(
            "oahu",
            scale="tiny",
            num_queries=3,
            include_lc=False,
            kernel="flat",
            graph=oahu_tiny_graph,
        )
        assert result.kernel == "flat"
        assert [c.num_cores for c in result.cells] == [1, 2, 4, 8]
        assert [c.settled_mean for c in result.cells] == pytest.approx(
            [5242.67, 5253.33, 5279.0, 5346.33], abs=0.005
        )


@pytest.fixture(scope="module")
def table2_rows(oahu_tiny_graph):
    """Table 2 on ``oahu``/tiny as the bench runs it: every default
    selection, 5 pairs, 8 cores, the reference kernel."""
    return run_table2(
        "oahu", scale="tiny", num_queries=5, num_cores=8, graph=oahu_tiny_graph
    )


class TestTable2Work:
    def test_only_the_baseline_row_has_no_transfer_station(self, table2_rows):
        """A fraction that selects no transfer station (1.0 % and 2.5 %
        here) has no table: its search is the baseline's, and a row
        labelled with that fraction would report a meaningless
        speed-up."""
        assert [r.selection for r in table2_rows if r.num_transfer == 0] == [
            "0.0%"
        ]

    def test_settled_means_are_pinned(self, table2_rows):
        assert [(r.selection, r.num_transfer) for r in table2_rows] == [
            ("0.0%", 0),
            ("5.0%", 1),
            ("10.0%", 1),
            ("20.0%", 2),
            ("30.0%", 4),
            ("deg > 2", 2),
        ]
        assert [r.settled_mean for r in table2_rows] == pytest.approx(
            [3934.0, 3933.2, 3933.2, 2827.6, 2613.8, 3919.6], abs=0.005
        )

    def test_table_rows_carry_the_papers_build(self, table2_rows):
        """§5.2's build: one parallel SPCS search per transfer station,
        summed simulated seconds; the baseline builds nothing."""
        assert table2_rows[0].spcs_seconds == 0.0
        assert all(r.spcs_seconds > 0 for r in table2_rows[1:])


class TestRunTable2:
    def test_rows_per_selection(self, oahu_tiny_graph):
        rows = run_table2(
            "oahu",
            scale="tiny",
            num_queries=3,
            fractions=(0.0, 0.25),
            include_degree_rule=True,
            graph=oahu_tiny_graph,
        )
        assert [r.selection for r in rows] == ["0.0%", "25.0%", "deg > 2"]
        assert rows[0].num_transfer == 0
        assert rows[1].num_transfer > 0
        assert rows[1].prepro_seconds > 0
        assert rows[0].speedup == pytest.approx(1.0)

    def test_settled_not_worse_with_large_table(self, oahu_tiny_graph):
        rows = run_table2(
            "oahu",
            scale="tiny",
            num_queries=4,
            fractions=(0.0, 0.3),
            include_degree_rule=False,
            graph=oahu_tiny_graph,
        )
        assert rows[1].settled_mean <= rows[0].settled_mean


class TestScalabilitySeries:
    def test_points(self, oahu_tiny_graph):
        points = run_scalability_series(
            "oahu", scale="tiny", num_queries=1, max_cores=4, graph=oahu_tiny_graph
        )
        assert [p.num_cores for p in points] == [1, 2, 3, 4]
        assert points[0].settled_growth == pytest.approx(1.0)
        assert all(p.speedup > 0 for p in points)


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # fixed width

    def test_render_table1(self, table1_result):
        text = render_table1([table1_result])
        assert "oahu" in text and "LC" in text and "spd-up" in text
        assert "CS[python]" in text

    def test_render_table2(self, oahu_tiny_graph):
        rows = run_table2(
            "oahu",
            scale="tiny",
            num_queries=2,
            fractions=(0.0,),
            include_degree_rule=False,
            graph=oahu_tiny_graph,
        )
        text = render_table2(rows)
        assert "0.0%" in text and "prepro" in text and "SPCS" in text

"""Unit tests for the experiment runners and formatting (paper §5)."""

import pytest

from repro.analysis.formatting import format_table, render_table1, render_table2
from repro.analysis.runners import (
    LCCell,
    OneToAllCell,
    Table1Result,
    run_table1,
    run_table2,
)
from repro.core.partition import PARTITION_STRATEGIES


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

    @pytest.mark.parametrize("cores", [(2, 4), (), (0, 1, 2), (4, 2, 1)])
    def test_cores_must_start_at_one(self, oahu_tiny_graph, cores):
        """The speed-up and the work bound are over the 1-core run; a
        sweep without it would divide by its first core count."""
        with pytest.raises(ValueError, match="cores must start at 1"):
            run_table1(
                "oahu",
                scale="tiny",
                num_queries=1,
                cores=cores,
                include_lc=False,
                kernel="flat",
                graph=oahu_tiny_graph,
            )

    def test_cells_at_every_core_count(self, oahu_tiny_graph):
        result = run_table1(
            "oahu",
            scale="tiny",
            num_queries=1,
            cores=(1, 2, 3, 4),
            include_lc=False,
            graph=oahu_tiny_graph,
        )
        assert [c.num_cores for c in result.cells] == [1, 2, 3, 4]
        one = result.cells[0]
        # On one core the busiest core is the whole search.
        assert one.largest_subset_mean == one.settled_mean
        assert one.imbalance == 1.0
        assert result.work_bound(one) == result.overhead(one) == 1.0
        assert all(c.speedup > 0 for c in result.cells)

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


#: strategy -> the busiest core's settled count at p = 1, 2, 4, 8,
#: summed over the core sweep's three sources on ``oahu``/tiny.
LARGEST_SUBSET = {
    "equal-connections": [21125, 10686, 5525, 2926],
    "equal-time-slots": [21125, 12679, 7088, 5050],
    "kmeans": [21125, 11744, 7730, 4169],
}


@pytest.fixture(scope="module")
def core_sweep(oahu_tiny_graph):
    """Table 1 per partition strategy as the core sweep runs it (the
    reference kernel, its ``seed``), on ``oahu``/tiny."""
    return {
        strategy: run_table1(
            "oahu",
            scale="tiny",
            num_queries=3,
            include_lc=False,
            strategy=strategy,
            seed=3,
            graph=oahu_tiny_graph,
        )
        for strategy in PARTITION_STRATEGIES
    }


class TestCoreSweepWork:
    """§3.2's partition as work: each core's settled count is its
    subset's, so the work bound is exact and deterministic."""

    def test_the_sources_are_named(self, core_sweep):
        assert {tuple(r.sources) for r in core_sweep.values()} == {(3, 4, 1)}

    @pytest.mark.parametrize("strategy", sorted(LARGEST_SUBSET))
    def test_the_sweep_runs_at_one_two_four_eight(self, core_sweep, strategy):
        assert [c.num_cores for c in core_sweep[strategy].cells] == [1, 2, 4, 8]

    @pytest.mark.parametrize("index", range(4), ids=["p1", "p2", "p4", "p8"])
    @pytest.mark.parametrize("strategy", sorted(LARGEST_SUBSET))
    def test_largest_subsets_are_pinned(self, core_sweep, strategy, index):
        result = core_sweep[strategy]
        cell = result.cells[index]
        assert (
            round(cell.largest_subset_mean * len(result.sources))
            == LARGEST_SUBSET[strategy][index]
        )

    @pytest.mark.parametrize("strategy", sorted(LARGEST_SUBSET))
    def test_the_busiest_core_does_at_least_the_mean(
        self, core_sweep, strategy
    ):
        """Work bound x overhead cannot exceed p, and max/mean is at
        least 1: no core does less than its share of the mean."""
        result = core_sweep[strategy]
        for cell in result.cells:
            assert cell.imbalance >= 1.0
            assert (
                result.work_bound(cell) * result.overhead(cell)
                <= cell.num_cores + 1e-9
            )

    def test_equal_connections_has_the_largest_work_bound(self, core_sweep):
        """The paper's reason for its default partition."""
        bounds = {
            strategy: result.work_bound(result.cells[-1])
            for strategy, result in core_sweep.items()
        }
        assert max(bounds, key=bounds.get) == "equal-connections"
        assert bounds["equal-connections"] == pytest.approx(7.22, abs=0.005)


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


def _synthetic_table1(cells, lc=None) -> Table1Result:
    return Table1Result(
        instance="demo",
        kernel="python",
        sources=[0, 1],
        cells=[
            OneToAllCell(
                instance="demo",
                num_cores=p,
                settled_mean=settled,
                largest_subset_mean=largest,
                imbalance=imbalance,
                time_mean=0.01 / p,
                speedup=float(p),
            )
            for p, settled, largest, imbalance in cells
        ],
        lc=lc,
    )


class TestWorkBound:
    """§3.2's arithmetic on hand-made cells, independent of a search."""

    def test_work_bound_is_settled_at_one_over_the_largest_subset(self):
        result = _synthetic_table1(
            [(1, 1000.0, 1000.0, 1.0), (4, 1100.0, 400.0, 1.45)]
        )
        assert result.work_bound(result.cells[0]) == 1.0
        assert result.work_bound(result.cells[1]) == pytest.approx(2.5)

    def test_overhead_is_settled_at_p_over_settled_at_one(self):
        result = _synthetic_table1(
            [(1, 1000.0, 1000.0, 1.0), (4, 1100.0, 400.0, 1.45)]
        )
        assert result.overhead(result.cells[0]) == 1.0
        assert result.overhead(result.cells[1]) == pytest.approx(1.1)

    def test_an_empty_search_has_unit_bound_and_overhead(self):
        """A source that settles nothing divides by nothing."""
        result = _synthetic_table1([(1, 0.0, 0.0, 1.0), (2, 0.0, 0.0, 1.0)])
        for cell in result.cells:
            assert result.work_bound(cell) == result.overhead(cell) == 1.0

    def test_render_prints_the_work_columns(self):
        text = render_table1(
            [
                _synthetic_table1(
                    [(1, 1000.0, 1000.0, 1.0), (4, 1100.0, 400.0, 1.45)]
                )
            ]
        )
        row = text.splitlines()[-1].split()
        assert row[2:7] == ["4", "1,100", "1.45", "2.50", "1.100"]

    def test_the_lc_row_has_no_work_columns(self):
        lc = LCCell(instance="demo", settled_mean=5000.0, time_mean=0.2)
        text = render_table1(
            [_synthetic_table1([(1, 1000.0, 1000.0, 1.0)], lc=lc)]
        )
        row = text.splitlines()[-1].split()
        assert row[1:] == ["LC", "1", "5,000", "—", "—", "—", "200.0", "—"]


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
        assert "work bnd" in text and "overhead" in text

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

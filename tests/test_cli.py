"""End-to-end tests of the command-line interface."""

import os
import re
import subprocess
import sys

import pytest

from repro.cli import main
from repro.client import LocalBackend
from repro.service import ServiceConfig
from repro.synthetic import make_instance
from repro.synthetic.workloads import random_station_pairs

from tests.oracles.reference_service import ReferenceService


class TestGenerateAndInfo:
    def test_generate_then_info(self, tmp_path, capsys):
        feed = tmp_path / "feed"
        assert main([
            "generate", "--instance", "oahu", "--scale", "tiny",
            "--output", str(feed),
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (feed / "stops.txt").exists()

        assert main(["info", "--gtfs", str(feed)]) == 0
        out = capsys.readouterr().out
        assert "stations" in out and "route" in out

    def test_info_instance(self, capsys):
        assert main(["info", "--instance", "germany", "--scale", "tiny"]) == 0
        assert "germany" in capsys.readouterr().out


class TestProfileCommand:
    def test_profile_to_single_target(self, capsys):
        assert main([
            "profile", "--instance", "oahu", "--scale", "tiny",
            "--source", "0", "--target", "3", "--cores", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "one-to-all from station 0" in out
        assert "to    3" in out


class TestQueryCommand:
    def test_plain_query(self, capsys):
        assert main([
            "query", "--instance", "oahu", "--scale", "tiny",
            "--source", "0", "--target", "5", "--cores", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 → 5" in out
        assert "depart" in out

    def test_query_with_table(self, capsys):
        assert main([
            "query", "--instance", "oahu", "--scale", "tiny",
            "--source", "0", "--target", "5", "--cores", "2",
            "--transfer-fraction", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "distance table" in out


class TestBatchCommand:
    def test_batch_serial_flat(self, capsys):
        assert main([
            "batch", "--instance", "oahu", "--scale", "tiny",
            "--n-queries", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "5 queries on kernel=flat workers=0" in out
        assert "queries/s" in out
        assert out.count("→") == 5

    def test_batch_with_table(self, capsys):
        assert main([
            "batch", "--instance", "oahu", "--scale", "tiny",
            "--n-queries", "3", "--transfer-fraction", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 queries on kernel=flat" in out

    def test_batch_answers_as_the_reference_kernel(self, capsys):
        """The command's items, printed, are those the reference kernel
        finds on the same seeded instance and workload."""
        assert main([
            "batch", "--instance", "germany", "--scale", "tiny",
            "--n-queries", "4", "--seed", "2",
        ]) == 0
        printed = [
            line for line in capsys.readouterr().out.splitlines() if "→" in line
        ]
        timetable = make_instance("germany", "tiny", 2)
        oracle = LocalBackend(
            ReferenceService(timetable, ServiceConfig(num_threads=1))
        )
        expected = []
        for result in oracle.batch(random_station_pairs(timetable, 4, seed=2)).journeys:
            best = (
                "unreachable"
                if result.profile.is_empty()
                else f"{len(result.profile)} profile points"
            )
            expected.append(
                f"  {result.source:4d} → {result.target:4d} "
                f"({result.stats.classification}): {best}"
            )
        assert printed == expected

    def test_there_is_no_kernel_flag(self, capsys):
        """Every command searches with the one kernel a service runs."""
        with pytest.raises(SystemExit) as exc:
            main([
                "query", "--instance", "oahu", "--scale", "tiny",
                "--source", "0", "--target", "5", "--kernel", "flat",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel flat" in capsys.readouterr().err


class TestTableCommands:
    def test_table1(self, capsys):
        assert main([
            "table1", "--instance", "oahu", "--scale", "tiny", "--queries", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "spd-up" in out and "LC" in out

    def test_table2(self, capsys):
        assert main([
            "table2", "--instance", "oahu", "--scale", "tiny", "--queries", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "prepro" in out


class TestArgumentValidation:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_instance_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "--instance", "narnia"])

    def test_there_is_no_lint_command(self, capsys):
        """The static checks are tier-1 tests (tests/analysis/lint.py)."""
        with pytest.raises(SystemExit) as exc:
            main(["lint"])
        assert exc.value.code == 2
        assert "invalid choice: 'lint'" in capsys.readouterr().err


class TestBatchJson:
    def test_json_summary_is_single_json_line(self, capsys):
        assert main([
            "batch", "--instance", "oahu", "--scale", "tiny",
            "--n-queries", "4", "--seed", "2", "--json",
        ]) == 0
        out = capsys.readouterr().out
        import json

        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 1, f"--json must emit exactly one line: {out!r}"
        summary = json.loads(lines[0])
        assert summary["num_queries"] == 4
        assert summary["seed"] == 2
        assert summary["queries_per_second"] > 0
        assert sum(summary["classifications"].values()) == 4

    def test_json_stays_clean_with_distance_table(self, capsys):
        """The human-readable distance-table line must not leak into
        stdout when --json is on (regression: corrupted JSON)."""
        assert main([
            "batch", "--instance", "oahu", "--scale", "tiny",
            "--n-queries", "3", "--json", "--transfer-fraction", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        import json

        summary = json.loads(out)  # whole stdout must parse as one doc
        assert summary["transfer_stations"] > 0
        assert summary["table_mib"] > 0

    def test_seed_changes_workload(self, capsys):
        outputs = []
        for seed in ("0", "1"):
            assert main([
                "batch", "--instance", "oahu", "--scale", "tiny",
                "--n-queries", "5", "--seed", seed,
            ]) == 0
            outputs.append(capsys.readouterr().out)
        pairs = [
            [l for l in out.splitlines() if "→" in l] for out in outputs
        ]
        assert pairs[0] != pairs[1]

    @pytest.mark.parametrize("cores", (1, 2))
    def test_workers_fork_search_workers_for_the_same_work(
        self, capsys, monkeypatch, cores
    ):
        """``--workers N`` forks ``min(N, usable cores)`` search workers
        for the command's service — as ``serve`` does — and reports
        them; the work and the answers are plain ``batch``'s.  (It used
        to be ignored unless a second flag chose a forking backend.)"""
        import json

        from tests.helpers import children_of

        monkeypatch.setattr("repro.core.fanout.usable_cores", lambda: cores)
        argv = [
            "batch", "--instance", "oahu", "--scale", "tiny",
            "--n-queries", "8", "--seed", "3", "--transfer-fraction", "0.3",
            "--json",
        ]
        before = children_of(os.getpid())
        summaries = []
        for extra in ([], ["--workers", "2"]):
            assert main([*argv, *extra]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        plain, pooled = summaries
        assert (plain["workers"], pooled["workers"]) == (0, min(2, cores))
        for key in ("num_queries", "settled_connections", "classifications"):
            assert pooled[key] == plain[key], key
        assert sorted(pooled) == [
            "classifications", "kernel", "mean_simulated_seconds",
            "num_queries", "prepare_seconds", "queries_per_second", "seed",
            "settled_connections", "table_mib", "total_seconds",
            "transfer_stations", "transport", "workers",
        ]
        assert children_of(os.getpid()) == before  # stopped on the way out

    def test_workers_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--instance", "oahu", "--scale", "tiny",
                  "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers: must be at least 1, got 0" in capsys.readouterr().err


class TestStoreCommands:
    @pytest.fixture()
    def store(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main([
            "prepare", "--instance", "oahu", "--scale", "tiny",
            "--store", str(path), "--transfer-fraction", "0.3",
        ]) == 0
        out = capsys.readouterr().out
        assert "store written to" in out
        assert "--from-store" in out
        assert re.search(r"table \d+\.\d ms \(total", out)
        return path

    def test_prepare_writes_a_loadable_store(self, store):
        assert (store / "manifest.json").exists()
        assert (store / "dataset.bin").exists()
        assert (store / "table" / "point_arr.npy").exists()

    def test_query_from_store_matches_fresh_prepare(self, store, capsys):
        assert main([
            "query", "--from-store", str(store),
            "--source", "0", "--target", "5",
        ]) == 0
        warm_out = capsys.readouterr().out
        assert "warm start" in warm_out
        assert main([
            "query", "--instance", "oahu", "--scale", "tiny",
            "--source", "0", "--target", "5", "--cores", "4",
            "--transfer-fraction", "0.3",
        ]) == 0
        cold_out = capsys.readouterr().out
        # Same departure/arrival lines, whatever path produced them.
        warm_lines = [l for l in warm_out.splitlines() if "depart" in l]
        cold_lines = [l for l in cold_out.splitlines() if "depart" in l]
        assert warm_lines and warm_lines == cold_lines

    def test_profile_from_store(self, store, capsys):
        assert main([
            "profile", "--from-store", str(store),
            "--source", "0", "--target", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "warm start" in out
        assert "to    3" in out

    def test_batch_from_store_json_is_clean(self, store, capsys):
        import json

        assert main([
            "batch", "--from-store", str(store),
            "--n-queries", "4", "--json",
        ]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1
        summary = json.loads(out)
        assert summary["num_queries"] == 4
        assert summary["transfer_stations"] > 0

    def test_batch_from_store_takes_workers(self, store, capsys):
        from repro.core.fanout import pool_size

        assert main([
            "batch", "--from-store", str(store),
            "--n-queries", "3", "--cores", "2", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert f"workers={pool_size(2)}:" in out

    def test_query_from_missing_store_fails_loudly(self, tmp_path):
        """A bad store dies with the CLI's clean one-line error, not a
        raw StoreError traceback."""
        with pytest.raises(SystemExit, match="error: .*manifest"):
            main([
                "query", "--from-store", str(tmp_path / "nope"),
                "--source", "0", "--target", "5",
            ])

    def test_from_store_rejects_preparation_flags(self, store):
        """--transfer-fraction shapes preparation; silently ignoring it
        next to --from-store would misreport what ran."""
        with pytest.raises(SystemExit, match="--transfer-fraction"):
            main([
                "batch", "--from-store", str(store),
                "--n-queries", "3", "--transfer-fraction", "0.1",
            ])
        with pytest.raises(SystemExit, match="--scale"):
            main([
                "query", "--from-store", str(store),
                "--source", "0", "--target", "5", "--scale", "medium",
            ])
        with pytest.raises(SystemExit, match="--seed"):
            main([
                "profile", "--from-store", str(store),
                "--source", "0", "--seed", "3",
            ])

    def test_batch_from_store_keeps_seed_for_the_workload(self, store, capsys):
        """--seed seeds the random query workload, not the dataset, so
        it stays meaningful on a warm start."""
        import json

        outputs = []
        for seed in ("1", "2"):
            assert main([
                "batch", "--from-store", str(store),
                "--n-queries", "4", "--seed", seed, "--json",
            ]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["seed"] == 1
        assert outputs[1]["seed"] == 2
        assert (
            outputs[0]["settled_connections"]
            != outputs[1]["settled_connections"]
        )

    def test_from_store_conflicts_with_instance(self, store, capsys):
        with pytest.raises(SystemExit):
            main([
                "query", "--from-store", str(store),
                "--instance", "oahu",
                "--source", "0", "--target", "5",
            ])
        capsys.readouterr()

    def test_info_from_store_reads_only_the_manifest(
        self, store, capsys, monkeypatch
    ):
        """``info --from-store`` must describe the store without
        hydrating anything: every buffer/record reader is poisoned and
        the manifest summary must still print."""
        import numpy as np

        import repro.store.codec as codec_mod
        import repro.store.store as store_mod

        def forbid(name):
            def _raise(*args, **kwargs):
                raise AssertionError(f"info hydrated artifacts via {name}")

            return _raise

        monkeypatch.setattr(np, "load", forbid("np.load"))
        monkeypatch.setattr(codec_mod, "read_record", forbid("read_record"))
        monkeypatch.setattr(codec_mod, "HeldRecord", forbid("HeldRecord"))
        monkeypatch.setattr(store_mod, "load_dataset", forbid("load_dataset"))

        assert main(["info", "--from-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "format v7" in out
        assert "backend=" not in out and "workers=" not in out
        assert "12 stations" in out
        assert "transfer stations" in out
        assert "kernel=" not in out and "num_threads=" in out
        assert "KiB" in out

    def test_info_from_store_rejects_instance_flags(self, store, capsys):
        with pytest.raises(SystemExit, match="--scale"):
            main(["info", "--from-store", str(store), "--scale", "tiny"])
        capsys.readouterr()

    def test_info_from_missing_store_fails_loudly(self, tmp_path):
        with pytest.raises(SystemExit, match="error:"):
            main(["info", "--from-store", str(tmp_path / "nope")])


class TestClosedStdout:
    def test_reader_that_stops_reading_gets_no_traceback(self):
        """``repro … | head``: the command prints twice what a pipe
        holds, the reader takes one line and closes."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "profile",
                "--instance", "losangeles", "--scale", "small",
                "--source", "0", "--max-points", "100000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            status = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.stderr.close()
        assert first.startswith(b"one-to-all from station 0")
        assert stderr == ""
        assert status == 1


class TestVersionFlag:
    def test_version_prints_the_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro-transit {repro.__version__}"


class TestRemoteFlag:
    """--remote wiring and its rejection rules.  Live round trips
    against a real server are covered by the client suite and the
    remote CLI test below."""

    def test_remote_conflicts_with_instance_and_store(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "query", "--remote", "http://127.0.0.1:9/x",
                "--instance", "oahu", "--source", "0", "--target", "5",
            ])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([
                "query", "--remote", "http://127.0.0.1:9/x",
                "--from-store", "somewhere", "--source", "0", "--target", "5",
            ])
        capsys.readouterr()

    def test_remote_rejects_preparation_flags(self):
        """Exactly the --from-store rule: dataset-shaping flags are
        rejected, not silently ignored — and execution-shaping flags
        too, because execution is the server's."""
        url = "http://127.0.0.1:9/oahu"
        cases = [
            (["query", "--remote", url, "--source", "0", "--target", "5",
              "--transfer-fraction", "0.1"], "--transfer-fraction"),
            (["query", "--remote", url, "--source", "0", "--target", "5",
              "--scale", "tiny"], "--scale"),
            (["query", "--remote", url, "--source", "0", "--target", "5",
              "--seed", "3"], "--seed"),
            (["query", "--remote", url, "--source", "0", "--target", "5",
              "--cores", "2"], "--cores"),
            (["batch", "--remote", url, "--n-queries", "2",
              "--workers", "2"], "--workers"),
        ]
        for argv, flag in cases:
            with pytest.raises(SystemExit, match=f"{flag}.*--remote"):
                main(argv)

    def test_remote_batch_keeps_workload_seed(self):
        """--seed drives the workload, so it must *not* be rejected;
        with nothing listening the failure is the typed connection
        error, proving the flag got past validation."""
        with pytest.raises(SystemExit, match="connection_refused"):
            main([
                "batch", "--remote", "http://127.0.0.1:9/oahu",
                "--n-queries", "2", "--seed", "7",
            ])

    def test_remote_profile_keeps_per_request_cores(self):
        """--cores maps onto the wire's per-request num_threads for
        profile, so it stays legal there."""
        with pytest.raises(SystemExit, match="connection_refused"):
            main([
                "profile", "--remote", "http://127.0.0.1:9/oahu",
                "--source", "0", "--cores", "2",
            ])

    def test_bad_remote_url_fails_loudly(self):
        with pytest.raises(SystemExit, match="error:"):
            main([
                "query", "--remote", "http:///nohost",
                "--source", "0", "--target", "5",
            ])


class TestRemoteRoundTrip:
    def test_query_remote_matches_local(self, capsys):
        """The CLI parity check: `query --remote` against a live
        server prints byte-identical journey lines to the same query
        answered by a local prepare under the server's config."""
        from repro.server import DatasetRegistry
        from repro.service import ServiceConfig, TransitService
        from repro.synthetic import make_instance
        from tests.server.harness import ServerHarness

        config = ServiceConfig(
            num_threads=2, use_distance_table=True, transfer_fraction=0.25
        )
        service = TransitService(make_instance("oahu", "tiny"), config)
        harness = ServerHarness(
            DatasetRegistry.from_services({"oahu": service})
        )
        try:
            assert main([
                "query", "--remote", f"http://127.0.0.1:{harness.port}/oahu",
                "--source", "0", "--target", "5",
            ]) == 0
            remote_out = capsys.readouterr().out
            assert main([
                "query", "--instance", "oahu", "--scale", "tiny",
                "--source", "0", "--target", "5", "--cores", "2",
                "--transfer-fraction", "0.25",
            ]) == 0
            local_out = capsys.readouterr().out
            remote_lines = [
                l for l in remote_out.splitlines() if "depart" in l
            ]
            local_lines = [l for l in local_out.splitlines() if "depart" in l]
            assert remote_lines and remote_lines == local_lines
        finally:
            harness.close()


class TestShapeCommands:
    """The query-zoo subcommands: multicriteria, via, min-transfers."""

    def test_multicriteria_prints_the_front(self, capsys):
        assert main([
            "multicriteria", "--instance", "oahu", "--scale", "tiny",
            "--source", "2", "--target", "5", "--departure", "480",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto option" in out
        assert "transfer(s): arrive" in out

    def test_via_prints_both_hops(self, capsys):
        assert main([
            "via", "--instance", "oahu", "--scale", "tiny",
            "--source", "2", "--via", "5", "--target", "7",
            "--departure", "480",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 → 5 → 7" in out
        assert "at via" in out

    def test_min_transfers_prints_the_budgeted_answer(self, capsys):
        assert main([
            "min-transfers", "--instance", "oahu", "--scale", "tiny",
            "--source", "2", "--target", "5", "--departure", "480",
        ]) == 0
        out = capsys.readouterr().out
        assert "transfer(s), arrive" in out

    def test_from_store_matches_fresh_prepare(self, tmp_path, capsys):
        path = tmp_path / "store"
        assert main([
            "prepare", "--instance", "oahu", "--scale", "tiny",
            "--store", str(path), "--transfer-fraction", "0.3",
        ]) == 0
        capsys.readouterr()
        argv_tail = [
            "--source", "2", "--target", "5", "--departure", "480",
        ]
        for command in ("multicriteria", "min-transfers"):
            assert main(
                [command, "--from-store", str(path), *argv_tail]
            ) == 0
            warm = capsys.readouterr().out
            assert main([
                command, "--instance", "oahu", "--scale", "tiny",
                "--transfer-fraction", "0.3", *argv_tail,
            ]) == 0
            cold = capsys.readouterr().out
            warm_lines = [l for l in warm.splitlines() if "arrive" in l]
            cold_lines = [l for l in cold.splitlines() if "arrive" in l]
            assert warm_lines and warm_lines == cold_lines

    def test_remote_matches_local(self, capsys):
        """`multicriteria/via/min-transfers --remote` against a live
        server print byte-identical answer lines to a local prepare
        under the server's config."""
        from repro.server import DatasetRegistry
        from repro.service import ServiceConfig, TransitService
        from repro.synthetic import make_instance
        from tests.server.harness import ServerHarness

        config = ServiceConfig(
            num_threads=2, use_distance_table=True, transfer_fraction=0.25
        )
        service = TransitService(make_instance("oahu", "tiny"), config)
        harness = ServerHarness(
            DatasetRegistry.from_services({"oahu": service})
        )
        url = f"http://127.0.0.1:{harness.port}/oahu"
        local_flags = [
            "--instance", "oahu", "--scale", "tiny",
            "--transfer-fraction", "0.25",
        ]
        cases = [
            (["multicriteria", "--source", "2", "--target", "5",
              "--departure", "480"]),
            (["via", "--source", "2", "--via", "5", "--target", "7",
              "--departure", "480"]),
            (["min-transfers", "--source", "2", "--target", "5",
              "--departure", "480"]),
        ]
        try:
            for argv in cases:
                assert main([argv[0], "--remote", url, *argv[1:]]) == 0
                remote_out = capsys.readouterr().out
                assert main([argv[0], *local_flags, *argv[1:]]) == 0
                local_out = capsys.readouterr().out
                remote_lines = [
                    l for l in remote_out.splitlines() if "arrive" in l
                ]
                local_lines = [
                    l for l in local_out.splitlines() if "arrive" in l
                ]
                assert remote_lines and remote_lines == local_lines
        finally:
            harness.close()

    def test_remote_rejects_preparation_flags(self):
        url = "http://127.0.0.1:9/oahu"
        cases = [
            (["multicriteria", "--remote", url, "--source", "0",
              "--target", "5", "--departure", "480",
              "--seed", "3"], "--seed"),
            (["via", "--remote", url, "--source", "0", "--via", "2",
              "--target", "5", "--departure", "480",
              "--transfer-fraction", "0.1"], "--transfer-fraction"),
            (["min-transfers", "--remote", url, "--source", "0",
              "--target", "5", "--departure", "480",
              "--scale", "tiny"], "--scale"),
        ]
        for argv, flag in cases:
            with pytest.raises(SystemExit, match=f"{flag}.*--remote"):
                main(argv)


class TestServeParser:
    def test_serve_prints_the_pool_it_forks(self, monkeypatch):
        """``--workers`` above the usable cores forks one search worker
        per core, and the banner says so."""
        from repro.cli import serve as serve_cli
        from repro.core.fanout import usable_cores
        from repro.server import DatasetRegistry

        started = {}
        monkeypatch.setattr(
            serve_cli.DatasetRegistry,
            "from_stores",
            lambda stores: DatasetRegistry(),
        )
        monkeypatch.setattr(
            serve_cli,
            "_serve_until_signal",
            lambda make_server, port_file, *, banner, **_: started.update(
                server=make_server(), banner=banner
            ),
        )
        requested = usable_cores() + 1
        assert main([
            "serve", "--store", "unread", "--port", "0",
            "--workers", str(requested),
        ]) == 0
        banner = started["banner"](started["server"])
        assert f"(workers={usable_cores()}, " in banner

    def test_serve_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--store", "a", "--store", "b",
            "--port", "0", "--workers", "2", "--max-inflight", "8",
            "--drain-grace-ms", "50",
        ])
        assert args.store == ["a", "b"]
        assert args.port == 0
        assert args.workers == 2
        assert args.max_inflight == 8
        assert args.drain_grace_ms == 50
        assert args.func.__name__ == "_cmd_serve"

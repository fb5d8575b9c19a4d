"""The query commands are derived from the shape table and the flag
table (``repro.cli.queries``, ``repro.cli.datasets``): these tests are
generated from the same two tables, so a new shape or flag is covered
without an edit — and fails here if the CLI forgot it."""

import argparse
import re

import pytest

from repro.cli import build_parser, main
from repro.cli.datasets import FLAGS, rejected_beside
from repro.cli.queries import (
    UNEXPOSED,
    _field_flag,
    command_name,
    request_flags,
)
from repro.service.config import RUNTIME_FIELDS
from repro.service.shapes import SHAPES

SHAPE_IDS = [shape.name for shape in SHAPES]
OAHU = ["--instance", "oahu", "--scale", "tiny"]
#: One legal value per row of the flag table.
VALUES = {
    "--scale": "tiny", "--seed": "3",
    "--transfer-fraction": "0.1", "--cores": "2", "--workers": "2",
}


def subparsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = (
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def actions(shape) -> dict[str, argparse.Action]:
    parser = subparsers()[command_name(shape)]
    return {flag: a for a in parser._actions for flag in a.option_strings}


def request_argv(shape) -> list[str]:
    """Every required request flag of ``shape``, with a station that
    exists everywhere."""
    return [
        arg
        for field in shape.fields
        if field.required
        for arg in (_field_flag(field), "1")
    ]


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_every_shape_has_a_command_whose_flags_cover_its_fields(shape):
    declared = actions(shape)
    for field in shape.fields:
        if (shape.name, field.name) in UNEXPOSED:
            assert f"--{field.name}" not in declared
            continue
        action = declared[_field_flag(field)]
        assert action.type is int
        assert action.required == field.required
        assert action.default == field.default


def test_the_written_down_exceptions_are_the_only_ones():
    """``journey`` is ``query``, ``num_threads`` is ``--cores``,
    ``journey.departure`` has no flag — and nothing else departs from
    the shape table's names."""
    assert [command_name(s) for s in SHAPES] == [
        "query" if s.name == "journey" else s.route for s in SHAPES
    ]
    renamed = {
        (s.name, f.name)
        for s in SHAPES
        for f in s.fields
        if _field_flag(f) != "--" + f.name.replace("_", "-")
    }
    assert renamed == {("profile", "num_threads")}
    assert UNEXPOSED == {("journey", "departure")}


@pytest.mark.parametrize("source", ["--from-store", "--remote"])
@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_rejection_matrix_follows_the_flag_table(shape, source, tmp_path):
    """Beside a store or a server, each flag of the table is either
    rejected by name or gets as far as opening the (absent) source —
    for every command, whichever the tables say."""
    declared = actions(shape)
    where = {
        "--from-store": (str(tmp_path / "absent"), "manifest"),
        "--remote": ("http://127.0.0.1:9/oahu", "connection_refused"),
    }
    location, opened = where[source]
    for flag in FLAGS:
        if flag not in declared:
            continue
        argv = [
            command_name(shape), source, location, *request_argv(shape),
            flag, VALUES[flag],
        ]
        refused = (
            flag in rejected_beside(source)
            and flag not in request_flags(shape)
        )
        expected = f"{flag} cannot be combined with {source}" if refused else opened
        with pytest.raises(SystemExit, match=expected):
            main(argv)


def test_rejection_rules_are_read_off_the_flag_table():
    assert rejected_beside("--remote") == list(FLAGS)
    assert rejected_beside("--from-store") == [
        flag
        for flag, row in FLAGS.items()
        if row.target not in RUNTIME_FIELDS | {"process"}
    ]
    # What stays legal beside a store really is runtime-overridable, or
    # sizes the command's own process.
    assert {"--cores", "--workers"} == set(FLAGS) - set(
        rejected_beside("--from-store")
    )
    assert FLAGS["--workers"].target == "process"
    exempt = {
        (command_name(s), flag)
        for s in SHAPES
        for flag in request_flags(s) & FLAGS.keys()
    }
    assert exempt == {("profile", "--cores"), ("batch", "--seed")}


def _masked(out: str) -> list[str]:
    """Stdout minus what only one source prints (the table / warm-start
    banner), with the millisecond figures masked."""
    lines = [
        line for line in out.splitlines()
        if not line.startswith(("distance table over", "warm start from"))
    ]
    return [re.sub(r"[\d.]+ (ms|queries/s)", r"# \1", line) for line in lines]


@pytest.fixture(scope="module")
def store_and_url(tmp_path_factory):
    """One prepared store, and a live server over the same store."""
    from repro.server import DatasetRegistry
    from tests.server.harness import ServerHarness

    store = tmp_path_factory.mktemp("cli") / "oahu"
    assert main([
        "prepare", *OAHU, "--store", str(store), "--transfer-fraction", "0.3",
    ]) == 0
    harness = ServerHarness(DatasetRegistry.from_stores([str(store)]))
    try:
        yield str(store), f"http://127.0.0.1:{harness.port}/oahu"
    finally:
        harness.close()


@pytest.mark.parametrize(
    "command, local, flags",
    [
        ("profile", [], ["--source", "0", "--target", "3"]),
        ("profile", [], ["--source", "4"]),
        ("batch", ["--transfer-fraction", "0.3"], ["--n-queries", "6"]),
    ],
    ids=["profile-target", "profile-all", "batch"],
)
def test_local_store_and_remote_print_the_same(
    command, local, flags, store_and_url, capsys
):
    store, url = store_and_url
    capsys.readouterr()
    outputs = []
    for source in (
        [*OAHU, *local], ["--from-store", store], ["--remote", url]
    ):
        assert main([command, *source, *flags]) == 0
        outputs.append(_masked(capsys.readouterr().out))
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["profile", *OAHU, "--source", "0", "--cores", "0"],
         "need at least one thread"),
        (["query", *OAHU, "--source", "0", "--target", "5",
          "--transfer-fraction", "2"], "transfer_fraction must be within"),
        (["multicriteria", *OAHU, "--source", "0", "--target", "5",
          "--departure", "480", "--transfer-fraction", "2"],
         "transfer_fraction must be within"),
        (["via", *OAHU, "--source", "0", "--via", "2", "--target", "5",
          "--departure", "480", "--transfer-fraction", "2"],
         "transfer_fraction must be within"),
        (["min-transfers", *OAHU, "--source", "0", "--target", "5",
          "--departure", "480", "--transfer-fraction", "2"],
         "transfer_fraction must be within"),
        (["prepare", *OAHU, "--store", "unused", "--cores", "0"],
         "need at least one thread"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_invalid_config_values_are_errors_not_tracebacks(argv, message):
    with pytest.raises(SystemExit, match=f"error: {message}"):
        main(argv)


def test_invalid_runtime_override_beside_a_store_is_an_error(store_and_url):
    store, _ = store_and_url
    with pytest.raises(SystemExit, match="error: need at least one thread"):
        main(["profile", "--from-store", store, "--source", "0", "--cores", "0"])


@pytest.mark.parametrize("table", ["table1", "table2"])
def test_tables_reject_an_empty_query_set_in_the_parser(table, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([table, *OAHU, "--queries", "0"])
    assert excinfo.value.code == 2
    assert "--queries: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "flag", "value", "message"),
    [
        ("serve", "--workers", "0", "must be at least 1, got 0"),
        ("serve", "--max-inflight", "0", "must be at least 1, got 0"),
        ("serve", "--drain-grace-ms", "-1", "must not be negative, got -1"),
        ("serve-fleet", "--workers", "0", "must be at least 1, got 0"),
        ("serve-fleet", "--search-workers", "0", "must be at least 1, got 0"),
        ("serve-fleet", "--worker-max-inflight", "-3", "must be at least 1, got -3"),
        ("serve-fleet", "--max-inflight", "0", "must be at least 1, got 0"),
        ("serve-fleet", "--worker-drain-grace-ms", "-1", "must not be negative"),
    ],
)
def test_serving_flags_are_refused_in_the_parser(
    command, flag, value, message, store_and_url, capsys, monkeypatch
):
    """They used to pass the parser, load every store and die inside
    ``asyncio.run`` with a ``ValueError`` traceback (``serve``), or
    after spawning the fleet (``serve-fleet``).  Refused now before
    anything is loaded: the store is a real one, and is never opened."""
    store, _ = store_and_url
    monkeypatch.setattr(
        "repro.server.DatasetRegistry.from_stores",
        lambda *a, **k: pytest.fail("a store was loaded"),
    )
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--store", store, flag, value])
    assert excinfo.value.code == 2
    assert f"{flag}: {message}" in capsys.readouterr().err


def test_serve_workers_help_says_what_it_sizes():
    workers = next(
        a for a in subparsers()["serve"]._actions if a.dest == "workers"
    )
    assert "searches that may run at once" in workers.help
    # Processes, one per core; no thread waits for a search any more.
    assert "process" in workers.help and "core" in workers.help
    assert "thread" not in workers.help


def test_help_lists_every_subcommand_and_every_rejected_flag():
    """The top-level help is generated: the sub-command list from the
    parser, the ``--from-store`` / ``--remote`` prose from the flag
    table.  A sub-command added without help text, or a flag-table row
    the prose misses, fails here."""
    parser = build_parser()
    help_text = parser.format_help()
    for name, sub in subparsers().items():
        listed = re.search(rf"^    {re.escape(name)} +(\S.*)$", help_text, re.M)
        assert listed, f"{name} is missing from --help, or has no help text"
        assert sub.prog == f"repro-transit {name}"
    epilog = " ".join(parser.epilog.split())
    for source in ("--from-store", "--remote"):
        flags = ", ".join(rejected_beside(source))
        assert re.search(
            rf"Beside {source},?( all of)? {re.escape(flags)} are rejected",
            epilog,
        ), source
    assert "profile --cores, batch --seed" in epilog
    # The hand-kept list is gone from the prose above the generated one.
    assert "Subcommands::" not in parser.description

"""``delay-stream`` and ``replay``: generate a seeded GTFS-RT-style
delay stream, and replay one against a live target (docs/STREAMS.md)."""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli.datasets import Command, add_input_flags, load_timetable


def _cmd_delay_stream(args: argparse.Namespace) -> int:
    from repro.streams import StreamFormatError
    from repro.synthetic.delays import generate_delay_stream

    timetable = load_timetable(args)
    try:
        stream = generate_delay_stream(
            timetable,
            seed=args.stream_seed,
            num_events=args.events,
            duration_s=args.duration,
            **({"shapes": tuple(args.shape)} if args.shape else {}),
            max_trains_per_event=args.max_trains,
            name=args.name,
        )
    except (StreamFormatError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    stream.save(args.output)
    print(
        f"wrote {stream.name}: {stream.num_events} event(s) over "
        f"{stream.duration_s:.1f} s (seed {stream.seed}, "
        f"{stream.num_trains} trains) to {args.output}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    """Replay a delay stream against a live target (docs/STREAMS.md).

    Exit 0 when the operational contract holds (zero failed requests,
    every event committed, swap-pause bound met), 1 otherwise; the
    report JSON goes to stdout either way.
    """
    from repro.client import connect
    from repro.streams import (
        DelayStream,
        ReplayConfig,
        ReplayError,
        StreamFormatError,
        replay_stream,
    )

    try:
        stream = DelayStream.load(args.stream)
    except (OSError, StreamFormatError) as exc:
        raise SystemExit(f"error: cannot load stream {args.stream}: {exc}") from None
    try:
        config = ReplayConfig(
            query_threads=args.query_threads,
            queries_seed=args.queries_seed,
            departure=args.departure,
            speed=args.speed,
            max_swap_seconds=args.max_swap_seconds,
        )
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None

    try:
        report = replay_stream(stream, lambda: connect(args.remote), config)
    except (ReplayError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    print(json.dumps(report.to_json(), sort_keys=True))
    if not report.ok:
        try:
            report.check()
        except ReplayError as exc:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _declare_delay_stream(p_stream: argparse.ArgumentParser) -> None:
    from repro.synthetic.delays import STREAM_SHAPES

    add_input_flags(p_stream)
    p_stream.add_argument(
        "--output", required=True, metavar="FILE",
        help="stream JSON file to write",
    )
    p_stream.add_argument(
        "--stream-seed", type=int, default=0,
        help="seed for the event sequence (independent of --seed, "
        "which shapes the synthetic instance; default: 0)",
    )
    p_stream.add_argument(
        "--events", type=int, default=20,
        help="number of delay batches (default: 20)",
    )
    p_stream.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="replay-time window the events spread over (default: 10)",
    )
    p_stream.add_argument(
        "--shape", action="append", metavar="NAME",
        choices=STREAM_SHAPES,
        help=f"restrict disruption shapes (repeatable; "
        f"default: all of {', '.join(STREAM_SHAPES)})",
    )
    p_stream.add_argument(
        "--max-trains", type=int, default=5,
        help="batch-size cap per event, except line closures "
        "(default: 5)",
    )
    p_stream.add_argument(
        "--name", default=None,
        help="stream name (default: derived from the timetable)",
    )
    p_stream.set_defaults(func=_cmd_delay_stream)


def _declare_replay(p_replay: argparse.ArgumentParser) -> None:
    p_replay.add_argument(
        "--stream", required=True, metavar="FILE",
        help="stream JSON written by `delay-stream`",
    )
    p_replay.add_argument(
        "--remote", required=True, metavar="URL",
        help="live target: http://host:port[/dataset] of a "
        "`serve` worker or a `serve-fleet` gateway",
    )
    p_replay.add_argument(
        "--query-threads", type=int, default=2,
        help="closed-loop query worker threads (default: 2)",
    )
    p_replay.add_argument(
        "--queries-seed", type=int, default=0,
        help="seed for the random query mix (default: 0)",
    )
    p_replay.add_argument(
        "--departure", type=int, default=480,
        help="journey departure time in minutes (default: 480)",
    )
    p_replay.add_argument(
        "--speed", type=float, default=1.0,
        help="stream clock multiplier (2.0 replays twice as fast; "
        "default: 1)",
    )
    p_replay.add_argument(
        "--max-swap-seconds", type=float, default=None,
        help="fail (exit 1) if any swap acknowledgement exceeds this "
        "(default: unchecked)",
    )
    p_replay.set_defaults(func=_cmd_replay)


COMMANDS = {
    "delay-stream": Command(
        "generate a seeded GTFS-RT-style delay stream (docs/STREAMS.md)",
        _declare_delay_stream,
    ),
    "replay": Command(
        "replay a delay stream against a live serve/serve-fleet "
        "target with closed-loop query traffic (docs/STREAMS.md)",
        _declare_replay,
    ),
}

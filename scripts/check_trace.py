#!/usr/bin/env python3
"""Validate a Chrome-trace/Perfetto JSON file produced by --trace=FILE.

Usage:
    scripts/check_trace.py TRACE.json [--require-categories=a,b,c]
                           [--summary=TRACE.json.summary.json]
                           [--max-dropped=N]

Checks, in order:
  1. the file parses as JSON and has a non-empty "traceEvents" array;
  2. every event carries the required keys (name/cat/ph/ts/pid/tid),
     'X' events also carry "dur", and ts/dur are non-negative numbers;
  3. per (pid, tid), 'B'/'E' events balance with stack discipline —
     every 'E' closes the innermost open 'B' of the same name and no
     span is left open (the exporter's end-slack guarantees this even
     for saturated buffers, so an unbalanced file is a real bug);
  4. with --require-categories, every named category contributed at
     least one event (CI uses this to prove the chase, pool and decider
     layers all actually recorded);
  5. with --summary, the flame sidecar written next to the trace is
     validated: top-level dropped_events/threads/spans keys, every span
     row carries name/count/total_ns/max_ns with count >= 1 and
     max_ns <= total_ns, rows sorted by total_ns descending, and every
     sidecar span name actually appears in the trace;
  6. with --max-dropped, the trace's otherData.dropped_events (events the
     per-thread rings overwrote) is at most N. A saturated ring keeps
     only the newest events, so a trace that must show a whole run (CI's
     fuzz campaign) passes --max-dropped=0.

Exit status: 0 on a valid trace, 1 otherwise, with one line per problem
on stderr. CI gates the trace-smoke step on it.
"""

import argparse
import json
import sys

VALID_PHASES = {"B", "E", "i", "X"}
REQUIRED_KEYS = ("name", "cat", "ph", "ts", "pid", "tid")


def fail(message):
    print(f"check_trace: {message}", file=sys.stderr)
    return 1


def check_events(events):
    errors = 0
    stacks = {}  # (pid, tid) -> [open span names]
    for index, event in enumerate(events):
        for key in REQUIRED_KEYS:
            if key not in event:
                errors += fail(f"event {index} missing key '{key}': {event}")
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            errors += fail(f"event {index} has unknown phase '{phase}'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors += fail(f"event {index} has bad ts: {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors += fail(f"event {index} ('X') has bad dur: {dur!r}")
        if errors:
            continue
        key = (event["pid"], event["tid"])
        stack = stacks.setdefault(key, [])
        if phase == "B":
            stack.append(event["name"])
        elif phase == "E":
            if not stack:
                errors += fail(
                    f"event {index}: 'E' for '{event['name']}' on "
                    f"pid/tid {key} without an open 'B'"
                )
            elif stack[-1] != event["name"]:
                errors += fail(
                    f"event {index}: 'E' for '{event['name']}' closes "
                    f"'{stack[-1]}' on pid/tid {key} (bad nesting)"
                )
            else:
                stack.pop()
    for key, stack in stacks.items():
        if stack:
            errors += fail(f"pid/tid {key} leaves spans open: {stack}")
    return errors


def check_summary(path, event_names):
    """Validate the .summary.json flame sidecar against the trace."""
    errors = 0
    try:
        with open(path, encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot parse summary {path}: {error}")
    for key in ("dropped_events", "threads", "spans"):
        if key not in summary:
            errors += fail(f"summary missing key '{key}'")
    spans = summary.get("spans")
    if not isinstance(spans, list):
        return errors + fail('summary "spans" missing or not an array')
    previous_total = None
    for index, span in enumerate(spans):
        for key in ("name", "count", "total_ns", "max_ns"):
            if key not in span:
                errors += fail(f"summary span {index} missing '{key}': {span}")
        if errors:
            continue
        if span["count"] < 1:
            errors += fail(f"summary span {index} has count < 1: {span}")
        if span["max_ns"] > span["total_ns"]:
            errors += fail(f"summary span {index} has max_ns > total_ns: {span}")
        if previous_total is not None and span["total_ns"] > previous_total:
            errors += fail(
                f"summary span {index} breaks total_ns descending order"
            )
        previous_total = span["total_ns"]
        if span["name"] not in event_names:
            errors += fail(
                f"summary span '{span['name']}' never appears in the trace"
            )
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="Chrome-trace JSON file to validate")
    parser.add_argument(
        "--require-categories",
        default="",
        help="comma-separated categories that must each have >=1 event",
    )
    parser.add_argument(
        "--summary",
        default="",
        help="also validate this .summary.json flame sidecar",
    )
    parser.add_argument(
        "--max-dropped",
        type=int,
        default=None,
        help="fail when the trace dropped more than N events (default: "
        "no limit)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot parse {args.trace}: {error}")

    events = data.get("traceEvents")
    if not isinstance(events, list):
        return fail('"traceEvents" missing or not an array')
    if not events:
        return fail('"traceEvents" is empty — nothing was recorded')

    errors = check_events(events)

    required = [c for c in args.require_categories.split(",") if c]
    seen = {event.get("cat") for event in events}
    for category in required:
        if category not in seen:
            errors += fail(
                f"required category '{category}' has no events "
                f"(categories present: {sorted(c for c in seen if c)})"
            )

    if args.summary:
        errors += check_summary(
            args.summary, {event.get("name") for event in events}
        )

    dropped = data.get("otherData", {}).get("dropped_events", 0)
    if args.max_dropped is not None and dropped > args.max_dropped:
        errors += fail(
            f"{dropped} events dropped, more than --max-dropped="
            f"{args.max_dropped} (the ring buffers saturated)"
        )
    if errors == 0:
        summary_note = " (summary OK)" if args.summary else ""
        print(
            f"check_trace: OK — {len(events)} events, "
            f"{len({(e['pid'], e['tid']) for e in events})} thread(s), "
            f"{dropped} dropped, categories: "
            f"{sorted(c for c in seen if c)}{summary_note}"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

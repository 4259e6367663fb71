#!/usr/bin/env python3
"""Schema check for exported Perfetto/Chrome trace_event JSON.

Usage:
    check_perfetto.py TRACE.json [--min-processes N] [--require-flagged]
                      [--partial]

TRACE.json ``-`` reads standard input (``ugrpcstat --perfetto FILE... | ...``).
Validates the structural contract of the documents ``ugrpcstat --perfetto``
renders (tools/perfetto.h) from one or more trace files, e.g. a flight
dump's ``trace.bin`` or every process's file of
``examples/udp_group_call --trace-dir DIR``:

  * top level is an object with a ``traceEvents`` list
  * every event has ``ph``; ``X`` events carry name/pid/tid plus numeric
    ``ts``/``dur`` and args with integer span/parent/trace ids
  * span ids are unique across the whole (multi-process) trace
  * every non-zero parent id resolves to a span in the trace (a dangling
    parent means a process's trace file is missing from the rendering)
  * flow events (``s``/``f``) carry an id; each ``f`` has bp == "e"
  * every pid with spans has an ``M`` process_name metadata record

Options assert distribution facts the CI smoke run expects:
``--min-processes N`` requires spans from at least N distinct pids and at
least one trace id whose spans cover N pids (a genuinely distributed span
tree, not N disjoint ones); ``--require-flagged`` requires at least one
flagged span (the forced-retransmission demo marks the dropped send).
``--partial`` accepts dangling parent ids: a flight-recorder dump is taken
mid-run, so a closed span's parent may still have been open (hence absent)
at dump time.

Exits 0 when the trace passes, 1 on violations, 2 on usage/file errors.
"""

import argparse
import collections
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--min-processes", type=int, default=1)
    parser.add_argument("--require-flagged", action="store_true")
    parser.add_argument("--partial", action="store_true",
                        help="tolerate parents missing from the trace "
                             "(mid-run flight dump)")
    args = parser.parse_args()

    try:
        with sys.stdin if args.trace == "-" else open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_perfetto: {e}", file=sys.stderr)
        return 2

    errors = []

    def err(msg):
        if len(errors) < 20:
            errors.append(msg)

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        print("check_perfetto: top level must be an object with a "
              "'traceEvents' list", file=sys.stderr)
        return 1
    events = doc["traceEvents"]

    span_ids = set()
    parents = []           # (parent_id, event_name)
    pids_with_spans = set()
    pids_named = set()
    traces = collections.defaultdict(set)  # trace id -> pids
    flagged = 0

    for i, e in enumerate(events):
        if not isinstance(e, dict) or "ph" not in e:
            err(f"event {i}: not an object with 'ph'")
            continue
        ph = e["ph"]
        if ph == "M":
            if e.get("name") == "process_name":
                if not isinstance(e.get("args", {}).get("name"), str):
                    err(f"event {i}: process_name without args.name")
                pids_named.add(e.get("pid"))
        elif ph == "X":
            for field in ("name", "pid", "tid", "ts", "dur"):
                if field not in e:
                    err(f"event {i}: X event missing '{field}'")
            for field in ("ts", "dur"):
                try:
                    float(e.get(field, "x"))
                except (TypeError, ValueError):
                    err(f"event {i}: X event '{field}' not numeric")
            a = e.get("args", {})
            for field in ("span", "parent", "trace"):
                if not isinstance(a.get(field), int):
                    err(f"event {i}: X event args.{field} not an integer")
            span = a.get("span")
            if isinstance(span, int):
                if span in span_ids:
                    err(f"event {i}: duplicate span id {span}")
                span_ids.add(span)
            if isinstance(a.get("parent"), int) and a["parent"] != 0:
                parents.append((a["parent"], e.get("name")))
            if isinstance(a.get("trace"), int) and a["trace"] != 0:
                traces[a["trace"]].add(e.get("pid"))
            if a.get("flagged"):
                flagged += 1
            pids_with_spans.add(e.get("pid"))
        elif ph in ("s", "f"):
            if "id" not in e:
                err(f"event {i}: flow event missing 'id'")
            if ph == "f" and e.get("bp") != "e":
                err(f"event {i}: flow-end without bp='e'")
        # other phases are legal trace_event content; nothing to check

    dangling = 0
    for parent, name in parents:
        if parent not in span_ids:
            if args.partial:
                dangling += 1
            else:
                err(f"span '{name}': parent {parent} not in trace "
                    "(missing trace file?)")

    unnamed = pids_with_spans - pids_named
    if unnamed:
        err(f"pids without process_name metadata: {sorted(unnamed)}")

    if len(pids_with_spans) < args.min_processes:
        err(f"spans cover {len(pids_with_spans)} process(es), "
            f"need >= {args.min_processes}")
    if args.min_processes > 1:
        widest = max((len(p) for p in traces.values()), default=0)
        if widest < args.min_processes:
            err(f"widest span tree covers {widest} process(es), "
                f"need one covering >= {args.min_processes}")
    if args.require_flagged and flagged == 0:
        err("no flagged span (expected the forced-retransmission drop)")

    n_spans = sum(1 for e in events if isinstance(e, dict) and e.get("ph") == "X")
    if errors:
        for msg in errors:
            print(f"check_perfetto: {msg}", file=sys.stderr)
        print(f"check_perfetto: FAIL ({len(errors)}+ issue(s), {n_spans} spans)",
              file=sys.stderr)
        return 1
    note = f", {dangling} dangling parent(s) tolerated" if dangling else ""
    print(f"check_perfetto: OK -- {n_spans} spans across "
          f"{len(pids_with_spans)} process(es), {len(traces)} trace(s), "
          f"{flagged} flagged{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validator for Prometheus text exposition format 0.0.4.

Usage:
    check_prom.py METRICS.txt [--require NAME]... [--require-prefix P]

Validates the output of obs::live::render_prometheus / a /metrics scrape
(pass ``-`` to read stdin, so CI can pipe curl straight in):

  * every line is a comment (``# HELP``/``# TYPE``/other), a sample, or blank
  * metric and label names match the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*`` / ``[a-zA-Z_][a-zA-Z0-9_]*``)
  * label values use only the three legal escapes (``\\\\``, ``\\"``, ``\\n``)
  * sample values parse as floats (``NaN``/``+Inf``/``-Inf`` allowed)
  * at most one ``# TYPE`` per metric family, declared before its samples,
    with a known type; samples never interleave between families
  * counter and histogram samples are non-negative
  * histogram families are complete and coherent: ``_bucket`` series carry
    ``le``, bucket counts are cumulative (non-decreasing with ``le``), the
    last bucket is ``le="+Inf"``, and ``_count`` equals the +Inf bucket
  * summary families are coherent: every quantile sample carries a
    ``quantile`` label in [0, 1], per label set the values do not decrease
    as the quantile grows, and ``_sum`` and ``_count`` are present and
    non-negative
  * no duplicate sample (same name + label set)

``--require NAME`` (repeatable) asserts a family is present; it checks
presence only, not the value (a counter that reads 0 passes).  The CI smoke
job requires the families it knows the run must expose, and checks a
value it needs (``ugrpc_calls_retransmissions`` >= 1 after a forced
retransmission) separately.
``--require-prefix P`` asserts every sample name starts with P.

Exits 0 when the exposition passes, 1 on violations, 2 on usage/file errors.
"""

import argparse
import re
import sys

NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
VALUE_RE = re.compile(r"[+-]?(?:Inf|NaN|nan|[0-9.eE+-]+)$")
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def parse_labels(text, err):
    """Parses ``{name="value",...}``; returns a sorted tuple of pairs."""
    labels = []
    pos = 0
    while pos < len(text):
        m = LABEL_NAME_RE.match(text, pos)
        if not m:
            err(f"bad label name at ...{text[pos:pos + 20]!r}")
            return None
        name = m.group(0)
        pos = m.end()
        if text[pos:pos + 2] != '="':
            err(f"label {name}: expected =\"")
            return None
        pos += 2
        value = []
        while pos < len(text) and text[pos] != '"':
            ch = text[pos]
            if ch == "\\":
                esc = text[pos:pos + 2]
                if esc not in ('\\\\', '\\"', "\\n"):
                    err(f"label {name}: illegal escape {esc!r}")
                    return None
                value.append(esc)
                pos += 2
            else:
                value.append(ch)
                pos += 1
        if pos >= len(text):
            err(f"label {name}: unterminated value")
            return None
        pos += 1  # closing quote
        labels.append((name, "".join(value)))
        if pos < len(text) and text[pos] == ",":
            pos += 1
    return tuple(sorted(labels))


def parse_float(text):
    if text in ("+Inf", "Inf"):
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    try:
        return float(text)
    except ValueError:
        return None


def family_of(name):
    """Maps a sample name to its family (strips histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("metrics")
    parser.add_argument("--require", action="append", default=[],
                        help="metric family that must be present (repeatable)")
    parser.add_argument("--require-prefix", default=None,
                        help="every sample name must start with this")
    args = parser.parse_args()

    try:
        if args.metrics == "-":
            text = sys.stdin.read()
        else:
            with open(args.metrics) as f:
                text = f.read()
    except OSError as e:
        print(f"check_prom: {e}", file=sys.stderr)
        return 2

    errors = []

    def err(msg):
        if len(errors) < 20:
            errors.append(msg)

    types = {}            # family -> declared type
    family_done = set()   # families whose sample block has ended
    seen = set()          # (name, labels) sample identities
    samples = []          # (lineno, name, labels, value)
    current_family = None

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family, mtype = parts[2], parts[3] if len(parts) > 3 else ""
                if not NAME_RE.fullmatch(family):
                    err(f"line {lineno}: bad metric name {family!r}")
                if mtype not in KNOWN_TYPES:
                    err(f"line {lineno}: unknown type {mtype!r}")
                if family in types:
                    err(f"line {lineno}: duplicate TYPE for {family}")
                if family in family_done:
                    err(f"line {lineno}: TYPE for {family} after its samples")
                types[family] = mtype
            continue
        # Sample line: name[{labels}] value [timestamp]
        m = NAME_RE.match(line)
        if not m:
            err(f"line {lineno}: bad sample name")
            continue
        name = m.group(0)
        rest = line[m.end():]
        labels = ()
        if rest.startswith("{"):
            close = rest.find("}")
            if close < 0:
                err(f"line {lineno}: unterminated label set")
                continue
            labels = parse_labels(rest[1:close],
                                  lambda msg: err(f"line {lineno}: {msg}"))
            if labels is None:
                continue
            rest = rest[close + 1:]
        fields = rest.split()
        if len(fields) not in (1, 2):
            err(f"line {lineno}: expected value [timestamp]")
            continue
        if not VALUE_RE.fullmatch(fields[0]):
            err(f"line {lineno}: bad value {fields[0]!r}")
            continue
        value = parse_float(fields[0])
        if value is None:
            err(f"line {lineno}: unparseable value {fields[0]!r}")
            continue
        if len(fields) == 2 and not re.fullmatch(r"-?[0-9]+", fields[1]):
            err(f"line {lineno}: bad timestamp {fields[1]!r}")

        family = family_of(name)
        if family not in types:
            err(f"line {lineno}: sample {name} before any TYPE for {family}")
        if family != current_family:
            if family in family_done:
                err(f"line {lineno}: samples of {family} interleaved with "
                    "another family")
            if current_family is not None:
                family_done.add(current_family)
            current_family = family
        if (name, labels) in seen:
            err(f"line {lineno}: duplicate sample {name}{dict(labels)}")
        seen.add((name, labels))
        if types.get(family) in ("counter", "histogram") and value < 0:
            err(f"line {lineno}: negative {types[family]} sample {name}")
        if args.require_prefix and not name.startswith(args.require_prefix):
            err(f"line {lineno}: {name} lacks prefix {args.require_prefix!r}")
        samples.append((lineno, name, labels, value))

    # Histogram coherence per family (+ per non-le label subset).
    for family, mtype in types.items():
        if mtype != "histogram":
            continue
        buckets = {}   # non-le labels -> [(le, value, lineno)]
        counts = {}    # non-le labels -> value
        for lineno, name, labels, value in samples:
            if family_of(name) != family:
                continue
            base = tuple(kv for kv in labels if kv[0] != "le")
            if name.endswith("_bucket"):
                le = dict(labels).get("le")
                if le is None:
                    err(f"line {lineno}: {name} without le label")
                    continue
                le_value = parse_float(le)
                if le_value is None:
                    err(f"line {lineno}: {name} bad le {le!r}")
                    continue
                buckets.setdefault(base, []).append((le_value, value, lineno))
            elif name.endswith("_count"):
                counts[base] = value
        for base, series in buckets.items():
            prev_count = -1.0
            for le_value, value, lineno in series:  # emitted in le order
                if value < prev_count:
                    err(f"line {lineno}: {family}_bucket not cumulative "
                        f"at le={le_value}")
                prev_count = value
            if series[-1][0] != float("inf"):
                err(f"{family}: last bucket is le={series[-1][0]}, "
                    "not +Inf")
            elif base in counts and counts[base] != series[-1][1]:
                err(f"{family}: _count {counts[base]} != +Inf bucket "
                    f"{series[-1][1]}")

    # Summary coherence per family (+ per non-quantile label set).
    for family, mtype in types.items():
        if mtype != "summary":
            continue
        quantiles = {}  # non-quantile labels -> [(quantile, value, lineno)]
        totals = {}     # non-quantile labels -> {"_sum": v, "_count": v}
        for lineno, name, labels, value in samples:
            if family_of(name) != family:
                continue
            if name == family:
                q = dict(labels).get("quantile")
                q_value = parse_float(q) if q is not None else None
                if q_value is None or not 0.0 <= q_value <= 1.0:
                    err(f"line {lineno}: {name} needs a quantile label in "
                        f"[0, 1], has {q!r}")
                    continue
                base = tuple(kv for kv in labels if kv[0] != "quantile")
                quantiles.setdefault(base, []).append((q_value, value, lineno))
            else:
                suffix = name[len(family):]
                if suffix not in ("_sum", "_count"):
                    err(f"line {lineno}: {name} in summary {family}")
                    continue
                if value < 0:
                    err(f"line {lineno}: negative summary {suffix} {name}")
                totals.setdefault(labels, {})[suffix] = value
        for base in set(quantiles) | set(totals):
            prev_value = float("-inf")
            for q_value, value, lineno in sorted(quantiles.get(base, [])):
                if value < prev_value:
                    err(f"line {lineno}: {family} decreases at "
                        f"quantile={q_value}")
                prev_value = value
            for suffix in ("_sum", "_count"):
                if suffix not in totals.get(base, {}):
                    err(f"{family}{dict(base)}: no {suffix} sample")

    present = {family_of(name) for _, name, _, _ in samples}
    for family in args.require:
        if family not in present:
            err(f"required metric family {family!r} not found")

    if errors:
        for msg in errors:
            print(f"check_prom: {msg}", file=sys.stderr)
        print(f"check_prom: FAIL ({len(errors)}+ issue(s), "
              f"{len(samples)} samples)", file=sys.stderr)
        return 1
    n_hist = sum(1 for t in types.values() if t == "histogram")
    n_summary = sum(1 for t in types.values() if t == "summary")
    print(f"check_prom: OK -- {len(samples)} samples in {len(present)} "
          f"families ({n_hist} histogram(s), {n_summary} summary(ies))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

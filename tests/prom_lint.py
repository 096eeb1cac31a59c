#!/usr/bin/env python3
"""Checks that Prometheus text expositions are well formed.

    python3 tests/prom_lint.py metrics.prom [audit.prom ...]

For every file: each family has exactly one `# TYPE` line; every sample
sits in the block directly under its family's `# TYPE` line (a
histogram's _bucket/_sum/_count samples under the base family, each
_bucket with an `le` label); label values are double-quoted and use only
the \\\\, \\" and \\n escapes; every value parses as a float; the text ends
with a newline. Prints the problems and exits 1 if any file has one.
"""

import re
import sys

NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
KINDS = "counter|gauge|histogram|summary|untyped"
TYPE_RE = re.compile(rf"# TYPE ({NAME}) ({KINDS})")
SAMPLE_RE = re.compile(rf"({NAME})(?:\{{(.*)\}})? (\S+)")
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
LABELS_RE = re.compile(rf"(?:{LABEL}(?:,{LABEL})*)?,?")
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def lint(text):
    errors = []
    if text and not text.endswith("\n"):
        errors.append("exposition does not end with a newline")
    kinds = {}  # family -> TYPE kind, in the order first seen
    current = None
    for n, line in enumerate(text.splitlines(), 1):
        if line.startswith("#"):
            if not line.startswith("# TYPE "):
                continue  # HELP and free comments
            m = TYPE_RE.fullmatch(line)
            if m is None:
                errors.append(f"line {n}: malformed TYPE line: {line!r}")
                continue
            family, kind = m.groups()
            if family in kinds:
                errors.append(f"line {n}: second TYPE line for {family}")
            kinds[family] = kind
            current = family
            continue
        m = SAMPLE_RE.fullmatch(line)
        if m is None:
            errors.append(f"line {n}: malformed sample: {line!r}")
            continue
        name, labels, value = m.groups()
        allowed = {current}
        if current is not None and kinds[current] == "histogram":
            allowed = {current + s for s in HISTOGRAM_SUFFIXES}
        if name not in allowed:
            errors.append(
                f"line {n}: sample {name} is not under its own TYPE line "
                f"(current family: {current})")
        if labels is not None and LABELS_RE.fullmatch(labels) is None:
            errors.append(f"line {n}: malformed labels: {labels!r}")
        if name.endswith("_bucket") and 'le="' not in (labels or ""):
            errors.append(f"line {n}: histogram bucket without an le label")
        try:
            float(value)
        except ValueError:
            errors.append(f"line {n}: value {value!r} is not a float")
    return errors


def main(paths):
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as f:
            errors = lint(f.read())
        for error in errors:
            print(f"{path}: {error}")
        print(f"{path}: {'FAIL' if errors else 'OK'}")
        failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))

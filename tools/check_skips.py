#!/usr/bin/env python
"""Fail a test run that skipped something it was not expected to skip.

A skipped test passes silently, so a fixture that stops finding its
backend, or a capability check that starts answering "no", can switch
off part of the suite without a red mark.  This checker reads pytest's
JUnit XML report (``pytest --junitxml=PATH``) and fails on every skip
whose ``(test file, reason)`` pair is not in :data:`ALLOWED`.

Allowed today, all in ``tests/test_backend_conformance.py``:

* ``REPRO_TEST_DSN not set`` — the live-PostgreSQL parametrization runs
  only where a server DSN is configured;
* ``backend instance does not persist graph data`` and ``backend has no
  durable database to adopt`` — capability checks that the in-memory
  stores answer "no" to.

Usage::

    python -m pytest -q --junitxml=junit.xml
    python tools/check_skips.py junit.xml [MORE.xml ...]

Prints the skip count per ``(file, reason)`` pair and exits non-zero
listing every unexpected skip as ``test id: reason``.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Iterator, List, Sequence, Tuple

CONFORMANCE = "tests/test_backend_conformance.py"

ALLOWED = frozenset({
    (CONFORMANCE, "REPRO_TEST_DSN not set"),
    (CONFORMANCE, "backend instance does not persist graph data"),
    (CONFORMANCE, "backend has no durable database to adopt"),
})


def source_file(classname: str) -> str:
    """The source file of a JUnit ``classname`` such as
    ``tests.test_x.TestClass``: the dotted module path, minus the
    (capitalised) test-class components."""
    parts = classname.split(".")
    while parts and parts[-1][:1].isupper():
        parts.pop()
    return "/".join(parts) + ".py"


def skips(report_path: str) -> Iterator[Tuple[str, str, str]]:
    """``(test id, test file, reason)`` for every skipped test case."""
    root = ET.parse(report_path).getroot()
    for case in root.iter("testcase"):
        skipped = case.find("skipped")
        if skipped is None:
            continue
        classname = case.get("classname", "")
        test_id = f"{classname}::{case.get('name', '')}"
        yield test_id, source_file(classname), skipped.get("message", "")


def main(argv: Sequence[str]) -> int:
    if not argv:
        print("usage: check_skips.py JUNIT_XML [JUNIT_XML ...]",
              file=sys.stderr)
        return 2
    counts: Counter = Counter()
    unexpected: List[str] = []
    for report_path in argv:
        for test_id, path, reason in skips(report_path):
            counts[(path, reason)] += 1
            if (path, reason) not in ALLOWED:
                unexpected.append(f"{test_id}: {reason}")
    for (path, reason), count in sorted(counts.items()):
        print(f"{count:4d} skipped  {path}: {reason}")
    if unexpected:
        print(f"{len(unexpected)} unexpected skip(s):", file=sys.stderr)
        for line in unexpected:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"skips OK ({sum(counts.values())} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

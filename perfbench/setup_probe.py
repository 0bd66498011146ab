"""Time what a fresh interpreter pays before any work: ``import wahlkit``
and loading the bundled a0.json, records.txt and expected.json.

Usage: ``python3 perfbench/setup_probe.py <src dir>``; prints one JSON
object with ``import_s`` and ``load_s``.  Only ``sys`` and ``time`` are
imported before the clock starts.
"""
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wahlkit  # noqa: E402
from wahlkit.catalog import verify  # noqa: E402
imported = time.perf_counter()
a0 = wahlkit.catalog.frozen_a0()
records = verify.load_records()
expected = verify.load_expected()
loaded = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(wahlkit.__file__))) \
        != os.path.abspath(sys.argv[1]):
    raise SystemExit(f"wahlkit imported from {wahlkit.__file__}, not {sys.argv[1]}")
if a0.r != 32 or not records or "mains" not in expected:
    raise SystemExit("bundled catalog did not load")
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))

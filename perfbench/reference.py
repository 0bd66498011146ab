"""A fixed amount of pure-Python work that does not touch wahlkit: the
yardstick for how fast the machine runs at the moment it is timed.

Usage: ``python3 perfbench/reference.py``; prints one JSON object with
``reference_s``.  run.py starts it in a fresh interpreter next to every
operation and scales the operation's time by it.  The work resembles the
program's: compiling source text (like an import) and churning small
dicts, tuples and frozensets (like the blow-up engine).
"""
import time

start = time.perf_counter()
source = "\n".join(
    f"def f{i}(x):\n"
    f"    y = [x * {i} + k for k in range(10)]\n"
    f"    return {{k: v for k, v in enumerate(y) if v % 3}}\n"
    for i in range(300))
compile(source, "<reference>", "exec")

total = 0
for rep in range(40):
    self_int = {f"C{i}": -2 for i in range(30)}
    nodes = [(f"C{i}", f"C{(i * 7 + 3) % 30}") for i in range(40)]
    for k in range(1, 60):
        hits = [j for j, (x, y) in enumerate(nodes)
                if x in ("C1", f"E{k - 1}") or y == "C2"]
        x, y = nodes.pop(hits[(k * 31) % len(hits)] if hits else 0)
        self_int[x] -= 1
        self_int[y] -= 1
        self_int[f"E{k}"] = -1
        nodes += [(f"E{k}", x), (f"E{k}", y)]
        total += len({frozenset(pair) for pair in nodes})
elapsed = time.perf_counter() - start

import json  # noqa: E402

print(json.dumps({"reference_s": elapsed}))

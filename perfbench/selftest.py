"""Show that each checker accepts a sound input and rejects a corrupted one.

Corruptions: one chain entry changed, one plan step dropped, one
determinant off by one.  Run alone with ``python3 perfbench/selftest.py``
from the checkout root (exit code 1 on a failure); run.py also runs it
before it trusts the checkers with a workload's outputs.
"""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import checkers
import worker

ROOT = Path(__file__).resolve().parent.parent


def _genuine_inference() -> dict:
    """Free inference of main K^2=2 by the program: a sound plan to corrupt."""
    worker._import_program()
    op = worker.build_ops("free_infer")[f"main{worker.FREE_MAIN_K2}"]
    return op.summarize(op.run())


def _ledger_payload(catalog: checkers.Catalog) -> dict:
    """The determinant and inference checks a sound ledger reports."""
    checks = []
    sections = [(f"record ({rid})", r) for rid, r in catalog.records.items()]
    sections += [(f"main K^2={k}", catalog.main_record(int(k)))
                 for k in catalog.expected["mains"]]
    for section, record in sections:
        checks.append({"section": section, "name": f"determinant {record['det']}",
                       "ok": True, "detail": f"got {catalog.det(record['curves'])}"})
        if section.startswith("record"):
            checks.append({"section": section, "name": "plan inference", "ok": True,
                           "detail": f"9 states; K^2={record['k2']}, ample"})
    return {"ok": True, "passed": len(checks), "total": len(checks), "checks": checks}


def run(catalog: checkers.Catalog) -> list[str]:
    """Names of the cases where a checker got it wrong; empty when all hold."""
    wrong = []

    def expect(name: str, errors: list[str], corrupted: bool) -> None:
        if bool(errors) != corrupted:
            wrong.append(f"{name}: {'missed the corruption' if corrupted else errors}")

    n, a, chain = catalog.records["2.1"]["chains"][0]
    expect("Wahl chain", checkers.check_wahl(n, a, chain), False)
    bad = (chain[0] + 1,) + chain[1:]
    expect("Wahl chain, one entry changed", checkers.check_wahl(n, a, bad), True)

    line = next(l for l in (ROOT / checkers.DATA / "records.txt")
                .read_text(encoding="utf-8").splitlines() if l.startswith("(2.1)"))
    expect("search record", checkers.check_search_record(catalog, line, 2), False)
    expect("search record, one chain entry changed",
           checkers.check_search_record(catalog, line.replace(":[4,5,3,", ":[4,6,3,"), 2),
           True)
    expect("search record, determinant off by one",
           checkers.check_search_record(catalog, line.replace("det=-40", "det=-39"), 2),
           True)

    payload = _ledger_payload(catalog)
    expect("ledger", checkers.check_ledger(catalog, payload), False)
    off = copy.deepcopy(payload)
    value = int(off["checks"][0]["detail"].split()[1])
    off["checks"][0]["detail"] = f"got {value + 1}"
    expect("ledger, determinant off by one", checkers.check_ledger(catalog, off), True)

    record = catalog.main_record(2)
    try:
        out = _genuine_inference()
    except RuntimeError as exc:
        return wrong + [f"no sound plan to corrupt: {exc}"]
    expect("inferred plan", checkers.check_inference(catalog.a0, record, out), False)
    # with K^2 raised by one the blow-up count agrees again, so the replay
    # itself has to notice each dropped step
    raised = dict(record, k2=record["k2"] + 1)
    for i in range(len(out["plan"])):
        dropped = dict(out, plan=out["plan"][:i] + out["plan"][i + 1:])
        expect(f"inferred plan, step {i} dropped",
               checkers.check_inference(catalog.a0, record, dropped), True)
        expect(f"inferred plan, step {i} dropped, K^2 raised",
               checkers.check_inference(catalog.a0, raised, dict(dropped, k2=raised["k2"])),
               True)
    return wrong


def main() -> None:
    wrong = run(checkers.Catalog(ROOT))
    for line in wrong:
        print(f"self-test: {line}")
    print("self-test passed" if not wrong else "self-test FAILED")
    sys.exit(1 if wrong else 0)


if __name__ == "__main__":
    main()

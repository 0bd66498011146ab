"""Print the program's deterministic output, one line per case.

Two checkouts that behave the same print the same lines, so comparing a
change with its parent is one `diff` of two runs of this script:

    python tools/snapshot.py --src ../parent/src > parent.txt
    python tools/snapshot.py > change.txt
    diff parent.txt change.txt

The cases are `wahlkit verify --format json`, `wahlkit search --format
json` on SEARCHES (one of which runs out of states), and `infer_plan` on
every record of the catalog, hinted (with the record's steps) and free
(without them), free on every main of `expected.json`, and free on the
SYNTHETIC_RECORDS, which walk base nodes that A0 does not have
(self-nodes, a pair meeting three times, a (-1)-curve).  An inference line gives the states, the pruned prefixes, the
leaves, whether the budget stopped it, the plan and the marked chains,
then the result's report: K^2, the singularities, the canonical-class
verdict, whether the canonical model is ample, the obstruction dimension
and the pi1 verdict (`report=None` without one).
Each line starts with its case's name; naming cases on the command line
prints only those.  All cases take about 2.5 s (2 cores, CPython 3.11.7).
"""
import argparse
import contextlib
import dataclasses
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SEARCHES = (
    "--k2 2 --pool A2,A3,B1,C1,C2,D1 --max-blowups 7",
    "--k2 2 --max-blowups 8 --max-states 600000",
    "--k2 1 --max-chains 3 --max-blowups 6",
    # the depth cap binds; the second runs out of states
    "--k2 1 --max-chains 3 --max-blowups 8 --max-states 200000",
    "--k2 1 --max-chains 3 --max-blowups 8 --max-states 50000",
)


# One configuration that A0 cannot give, for the free walk over base
# nodes: self-nodes E*E and L*L, A*D meeting three times, (-1)-curves G and
# J, (-3)-curves B, F and N, and every other curve at -2.
SYNTHETIC_SELF_INTS = {"B": -3, "F": -3, "G": -1, "J": -1, "N": -3}
SYNTHETIC_NODES = ("A*D A*D A*D E*E C*G A*G E*F B*D A*G "
                   "H*I I*J K*L L*L L*M M*N M*N K*N K*M")
# Free records on it, as (K^2, curves, chains as (n, a, entries)): the first
# has a plan, the last spans both components.
SYNTHETIC_RECORDS = {
    "s1": (2, "ACDEFG", ((7, 5, (2, 2, 5, 4)), (5, 3, (2, 5, 3)))),
    "s2": (2, "HIJKLMN", ((9, 7, (2, 2, 2, 5, 5)), (4, 3, (2, 2, 6)),
                          (12, 7, (2, 4, 5, 2, 3)))),
    "s3": (4, "ABCDEFGHIJKLMN", ((11, 8, (2, 2, 3, 5, 4)), (5, 3, (2, 5, 3)),
                                 (5, 3, (2, 5, 3)), (2, 1, (4,)))),
}


def _cli(argv: list[str]) -> str:
    from wahlkit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return f"exit={code} {out.getvalue().strip()}"


def _inference(record, config) -> str:
    from wahlkit.plans import infer_plan
    result = infer_plan(record, config.restrict(record.curves))
    marked = result.marked.wahl_chains if result.success else None
    report = result.report
    certified = (f"k2={report.k2} singularities={list(report.singularities)} "
                 f"ample={report.ample.status} "
                 f"canonical_ample={report.ample.canonical_ample} "
                 f"obstruction={report.obstruction} pi1={report.pi1.status}"
                 if report is not None else "report=None")
    return (f"states={result.states} pruned={result.pruned} leaves={result.leaves} "
            f"exhausted={result.exhausted} plan=[{result.plan or ''}] marked={marked} "
            f"{certified}")


def cases():
    """Each case's name and a function that gives its output line."""
    from wahlkit.catalog.a0 import frozen_a0
    from wahlkit.catalog.records import ChainSpec, SurfaceRecord
    from wahlkit.catalog.verify import load_expected, load_records
    from wahlkit.configuration import Configuration

    a0 = frozen_a0()
    records = load_records()
    mains = [SurfaceRecord(f"main{k2}", int(k2), tuple(data["curves"]), data["det"], (),
                           tuple(ChainSpec(c["n"], c["a"], tuple(c["chain"]))
                                 for c in data["chains"]))
             for k2, data in load_expected()["mains"].items()]
    yield "verify", lambda: _cli(["verify", "--format", "json"])
    for argv in SEARCHES:
        yield f"search {argv}", lambda argv=argv: _cli(
            ["search", *argv.split(), "--format", "json"])
    for record in records:
        yield f"hinted ({record.rid})", lambda record=record: _inference(record, a0)
    for record in records + mains:
        free = dataclasses.replace(record, steps=())
        yield f"free ({record.rid})", lambda free=free: _inference(free, a0)
    nodes = [tuple(node.split("*")) for node in SYNTHETIC_NODES.split()]
    synthetic = Configuration.build([(c, SYNTHETIC_SELF_INTS.get(c, -2))
                                     for c in sorted({c for node in nodes for c in node})],
                                    nodes)
    for rid, (k2, curves, chains) in SYNTHETIC_RECORDS.items():
        # inference reads no determinant
        free = SurfaceRecord(rid, k2, tuple(curves), 0, (),
                             tuple(ChainSpec(n, a, chain) for n, a, chain in chains))
        yield f"free ({rid})", lambda free=free: _inference(free, synthetic)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("case", nargs="*", help="print only these cases")
    parser.add_argument("--src", default=str(SRC),
                        help="the wahlkit sources to run (default: this checkout's)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    missing = set(args.case)
    for name, output in cases():
        if not args.case or name in args.case:
            missing.discard(name)
            print(f"{name}: {output()}", flush=True)
    if missing:
        print(f"no such case: {', '.join(sorted(missing))}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

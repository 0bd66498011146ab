"""Command-line interface.

Chains are written as bracketed integer lists ("[4,5,3,2,2]"; spaces ok),
singularities print as 1/m(1,q).  Every subcommand honors --format json
for machine-readable output with the same values as the text form.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional, Sequence

from . import chains as cf
from .configuration import geography_check
from .catalog import a0 as a0mod
from .catalog.records import format_record
from .catalog.verify import (INFER_BUDGET, ledger_constraints, load_expected,
                             load_records, verify_all)
from .plans import SearchParams, search_constructions

# every wahlkit error class subclasses ValueError
_ERRORS = (ValueError, OSError)


def _chain_arg(text: str) -> tuple[int, ...]:
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    tokens = [t for t in re.split(r"[,\s]+", body) if t]
    if not tokens:
        raise cf.ChainError(f"empty chain argument {text!r}")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise cf.ChainError(f"bad chain argument {text!r}") from exc


def _print(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _quotient_text(cq: cf.CyclicQuotient) -> str:
    t = cf.t_singularity(cq.m, cq.q)
    return str(t) if t is not None else str(cq)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wahlkit",
        description="Exact Wahl-chain calculus and K3 configuration ledger")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("expand", help="Hirzebruch-Jung expansion of m/q")
    p.add_argument("m", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("eval", help="evaluate a chain to its fraction m/q")
    p.add_argument("chain")

    p = sub.add_parser("wahl", help="recognize a Wahl chain")
    p.add_argument("chain")

    p = sub.add_parser("disc", help="discrepancies of a chain")
    p.add_argument("chain")

    p = sub.add_parser("join", help="compose two chains across a (-1)-curve")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("meridians", help="meridian exponents of a chain")
    p.add_argument("chain")

    p = sub.add_parser("bounds", help="length bound for one Wahl chain")
    p.add_argument("ambient", choices=("K3", "properly-elliptic", "general-type"))
    p.add_argument("k2", type=int)
    p.add_argument("k2_min", type=int, nargs="?")

    p = sub.add_parser("geography", help="log-geography bounds for (P, K^2)")
    p.add_argument("p", type=int)
    p.add_argument("k2", type=int)

    p = sub.add_parser("verify", help="run the complete verification ledger")
    p.add_argument("--records", help="records file (default: bundled catalog)")
    p.add_argument("--a0", help="configuration file (default: bundled catalog)")
    p.add_argument("--expected", help="expected-values file")
    p.add_argument("--infer-budget", type=int, default=INFER_BUDGET)
    p.add_argument("--no-infer", action="store_true",
                   help="skip blow-up plan inference")
    p.add_argument("--seedless", action="store_true",
                   help="bit-identical logs (always on)")

    p = sub.add_parser("search", help="search ample constructions")
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--max-blowups", type=int, required=True)
    p.add_argument("--max-chains", type=int, default=2)
    p.add_argument("--pool", help="comma-separated curve names to draw from")
    p.add_argument("--max-states", type=int, default=500000)
    p.add_argument("--max-results", type=int, default=25)
    p.add_argument("--a0", help="configuration file (default: bundled catalog)")
    p.add_argument("--seedless", action="store_true",
                   help="bit-identical logs (always on)")

    p = sub.add_parser("reconstruct-a0",
                       help="re-derive the configuration from the constraints")
    p.add_argument("--records")
    p.add_argument("--expected")
    p.add_argument("--out", help="write the reconstructed model here")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    fmt = args.format
    try:
        return _dispatch(args, fmt)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _nonnegative(args: argparse.Namespace, *options: str) -> None:
    """Reject a negative value of any of these options, by option name."""
    for option in options:
        value = getattr(args, option[2:].replace("-", "_"))
        if value < 0:
            raise ValueError(f"{option} must be nonnegative, got {value}")


def _dispatch(args: argparse.Namespace, fmt: str) -> int:
    if args.command == "expand":
        chain = cf.hj_expand(args.m, args.q)
        _print({"chain": list(chain)}, "[" + ",".join(map(str, chain)) + "]", fmt)
        return 0

    if args.command == "eval":
        m, q = cf.hj_eval(_chain_arg(args.chain))
        _print({"m": m, "q": q}, f"{m}/{q} = 1/{m}(1,{q})", fmt)
        return 0

    if args.command == "wahl":
        sing = cf.wahl_singularity(_chain_arg(args.chain))
        if sing is None:
            _print({"wahl": False}, "not a Wahl chain", fmt)
            return 1
        _print({"wahl": True, "n": sing.n, "a": sing.a,
                "quotient": {"m": sing.n ** 2, "q": sing.n * sing.a - 1}},
               f"(n,a)=({sing.n},{sing.a})", fmt)
        return 0

    if args.command == "disc":
        ds = cf.discrepancies(_chain_arg(args.chain))
        _print({"discrepancies": [str(d) for d in ds]},
               "[" + ", ".join(str(d) for d in ds) + "]", fmt)
        return 0

    if args.command == "join":
        cq = cf.blow_down_compose(_chain_arg(args.left), _chain_arg(args.right))
        t = cf.t_singularity(cq.m, cq.q)
        payload = {"m": cq.m, "q": cq.q,
                   "t_singularity": {"d": t.d, "n": t.n, "a": t.a} if t else None}
        _print(payload, _quotient_text(cq), fmt)
        return 0

    if args.command == "meridians":
        chain = _chain_arg(args.chain)
        exps = cf.meridian_exponents(chain)
        order = cf.meridian_order(chain)
        _print({"exponents": list(exps), "order": order},
               "[" + ",".join(map(str, exps)) + f"] with t0 = {order}", fmt)
        return 0

    if args.command == "bounds":
        bound = cf.length_bound(args.ambient, args.k2, args.k2_min)
        _print({"bound": bound}, f"l <= {bound}", fmt)
        return 0

    if args.command == "geography":
        geo = geography_check(args.p, args.k2)
        text = (f"{'admissible' if geo.admissible else 'inadmissible'}: "
                f"r={geo.r}, t2={geo.t2}, nodes to blow up={geo.nodes_to_blow_up}")
        _print({"admissible": geo.admissible, "r": geo.r, "t2": geo.t2,
                "nodes_to_blow_up": geo.nodes_to_blow_up}, text, fmt)
        return 0

    if args.command == "verify":
        _nonnegative(args, "--infer-budget")
        a0 = a0mod.load_a0(args.a0) if args.a0 else a0mod.frozen_a0()
        records = load_records(args.records)
        expected = load_expected(args.expected)
        ledger = verify_all(a0, records, expected,
                            infer_budget=args.infer_budget,
                            with_inference=not args.no_infer)
        if fmt == "json":
            print(json.dumps(ledger.to_json(), sort_keys=True))
        else:
            for line in ledger.lines():
                print(line)
        return 0 if ledger.ok else 1

    if args.command == "search":
        _nonnegative(args, "--max-blowups", "--max-chains", "--max-states",
                     "--max-results")
        a0 = a0mod.load_a0(args.a0) if args.a0 else a0mod.frozen_a0()
        if args.pool is not None and not args.pool.strip():
            raise ValueError("--pool must name at least one curve")
        pool = tuple(p.strip() for p in args.pool.split(",")) if args.pool else None
        params = SearchParams(k2=args.k2, max_chains=args.max_chains,
                              max_blowups=args.max_blowups, curve_pool=pool,
                              max_states=args.max_states,
                              max_results=args.max_results)
        result = search_constructions(params, a0)
        if fmt == "json":
            print(json.dumps({"records": [format_record(r) for r in result.records],
                              "notes": result.notes,
                              "states": result.states,
                              "pruned": result.pruned,
                              "leaves": result.leaves,
                              "marked": result.marked,
                              "exhausted": result.exhausted}, sort_keys=True))
        else:
            for record in result.records:
                print(format_record(record))
            for note in result.notes:
                print(f"# {note}")
        return 0

    if args.command == "reconstruct-a0":
        records = load_records(args.records)
        expected = load_expected(args.expected)
        cons = ledger_constraints(expected, records)
        result = a0mod.reconstruct_a0(cons)
        payload = {
            "solutions": result.solutions,
            "unique": result.unique,
            "undetermined": {f"{s}.{f}": list(v)
                             for (s, f), v in result.undetermined.items()},
            "free_cells": [f"{s}.{f}" for s, f in result.free_cells],
            "incidence": {f"{s}.{f}": c for (s, f), c in sorted(result.incidence.items())},
        }
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(result.model.to_json() + "\n")
            payload["written"] = args.out
        if fmt == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"solutions: {result.solutions} (unique: {result.unique})")
            for cell, values in payload["undetermined"].items():
                print(f"undetermined {cell}: {values}")
            for cell in payload["free_cells"]:
                print(f"unconstrained {cell}")
            if args.out:
                print(f"model written to {args.out}")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

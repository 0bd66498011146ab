"""Compact construction records and their grammar.

One record per line (blank lines and '#' comments are skipped):

    (2.1) K^2=2 - {C1, C2, B1, A2, A3, D1} - det=-40 - C1&B1, [2,2,1] x A2&B1, ... - (11,3):[4,5,3,2,2] - (8,3):[3,5,3,2]

with the intersection sign written as a real U+2229 and the pattern
multiplier as U+00D7 (ASCII 'n'/'x' are accepted).  Sections, separated by
" - ": header with K^2, curve set in braces, determinant, comma-separated
blow-up steps (possibly empty), then one section per expected Wahl chain.
Bracket groups mark points blown up more than once; their patterns are
stored verbatim, so a record prints as it was read, and no computation
reads them: plan inference takes only each step's base pair, and the
stated chains fix the tower sizes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

__all__ = ["RecordError", "BlowupSpec", "ChainSpec", "SurfaceRecord",
           "parse_record", "format_record", "parse_records_file"]

CAP = "∩"     # the intersection sign
TIMES = "×"

_NAME = r"[A-Z][A-Za-z0-9]*"


class RecordError(ValueError):
    """Grammar violation, with position context where available."""


@dataclass(frozen=True)
class BlowupSpec:
    """One step item: a base node, optionally with an opaque bracket pattern."""

    a: str
    b: str
    pattern: Optional[tuple[int, ...]] = None

    def __str__(self) -> str:
        base = f"{self.a}{CAP}{self.b}"
        if self.pattern is None:
            return base
        return f"[{','.join(map(str, self.pattern))}] {TIMES} {base}"


@dataclass(frozen=True)
class ChainSpec:
    n: int
    a: int
    chain: tuple[int, ...]

    def __str__(self) -> str:
        return f"({self.n},{self.a}):[{','.join(map(str, self.chain))}]"


@dataclass(frozen=True)
class SurfaceRecord:
    rid: str
    k2: int
    curves: tuple[str, ...]
    det: int
    steps: tuple[BlowupSpec, ...]
    chains: tuple[ChainSpec, ...]

    @property
    def blowup_total(self) -> int:
        """Total blow-ups forced by K^2 = -b + sum of chain lengths."""
        return sum(len(c.chain) for c in self.chains) - self.k2


def _split_top(text: str, sep: str) -> list[str]:
    """Split at each `sep` outside braces and brackets."""
    parts = []
    depth = 0
    start = i = 0
    while i < len(text):
        ch = text[i]
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise RecordError(f"{where}: expected [..], got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        raise RecordError(f"{where}: empty bracket list")
    try:
        return tuple(int(tok) for tok in re.split(r"[,\s]+", inner) if tok)
    except ValueError as exc:
        raise RecordError(f"{where}: bad integer in {text!r}") from exc


def _parse_step(item: str, where: str) -> BlowupSpec:
    item = item.strip()
    pattern = None
    m = re.match(rf"^(\[[^\]]*\])\s*(?:{TIMES}|x)\s*(.*)$", item)
    if m:
        pattern = _parse_int_list(m.group(1), where)
        item = m.group(2).strip()
    m = re.match(rf"^({_NAME})\s*(?:{CAP}|n)\s*({_NAME})$", item)
    if not m:
        raise RecordError(f"{where}: malformed step {item!r}")
    return BlowupSpec(m.group(1), m.group(2), pattern)


def _parse_chain(section: str, where: str) -> ChainSpec:
    m = re.match(r"^\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*:\s*(\[.*\])$", section.strip())
    if not m:
        raise RecordError(f"{where}: malformed chain {section!r}")
    return ChainSpec(int(m.group(1)), int(m.group(2)),
                     _parse_int_list(m.group(3), where))


def parse_record(text: str) -> SurfaceRecord:
    """Parse one record line of the compact grammar."""
    # split the raw text first: an empty steps section between two
    # separators would not survive whitespace normalization
    sections = [" ".join(sec.split()) for sec in _split_top(text.strip(), " - ")]
    head, *rest = sections
    hm = re.match(r"^\((\d+\.\d+)\)\s+K\^2=(\d+)$", head.strip())
    if not hm:
        raise RecordError(f"record must start with '(id) K^2=k', got {head[:40]!r}")
    rid, k2 = hm.group(1), int(hm.group(2))
    if k2 < 1:
        raise RecordError(f"({rid}): K^2 must be at least 1, got {k2}")
    if len(rest) < 4:
        raise RecordError(f"({rid}): expected curves, det, steps and >=1 chain")
    curves_sec, det_sec, steps_sec, *chain_secs = rest
    cm = re.match(r"^\{(.*)\}$", curves_sec.strip())
    if not cm:
        raise RecordError(f"({rid}): curve set must be in braces, got {curves_sec!r}")
    curves = tuple(name.strip() for name in cm.group(1).split(",") if name.strip())
    if not curves:
        raise RecordError(f"({rid}): empty curve set")
    for name in curves:
        if not re.match(rf"^{_NAME}$", name):
            raise RecordError(f"({rid}): bad curve name {name!r}")
    if len(set(curves)) != len(curves):
        raise RecordError(f"({rid}): duplicate curve in set")
    dm = re.match(r"^det=(-?\d+)$", det_sec.strip())
    if not dm:
        raise RecordError(f"({rid}): malformed determinant {det_sec!r}")
    det = int(dm.group(1))
    steps_sec = steps_sec.strip()
    steps = tuple(_parse_step(item, f"({rid}) steps")
                  for item in _split_top(steps_sec, ",")) if steps_sec else ()
    if not chain_secs:
        raise RecordError(f"({rid}): no chains")
    chains = tuple(_parse_chain(sec, f"({rid}) chains") for sec in chain_secs)
    known = set(curves)
    for step in steps:
        for name in (step.a, step.b):
            if name not in known:
                raise RecordError(f"({rid}): step names unknown curve {name!r}")
    return SurfaceRecord(rid, k2, curves, det, steps, chains)


def format_record(record: SurfaceRecord) -> str:
    """Inverse of parse_record (round-trips exactly)."""
    parts = [
        f"({record.rid}) K^2={record.k2}",
        "{" + ", ".join(record.curves) + "}",
        f"det={record.det}",
        ", ".join(str(s) for s in record.steps),
        *[str(c) for c in record.chains],
    ]
    return " - ".join(parts)


def parse_records_file(text: str) -> list[SurfaceRecord]:
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append(parse_record(line))
        except RecordError as exc:
            raise RecordError(f"line {lineno}: {exc}") from exc
    seen = set()
    for record in records:
        if record.rid in seen:
            raise RecordError(f"duplicate record id ({record.rid})")
        seen.add(record.rid)
    return records

import dataclasses
import json
import os
import warnings
from collections import Counter

import pytest

from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from wahlkit.assembly import (MarkedSurface, Pi1Report, nef_ample_check, pi1_verdict,
                              surface_report)
from wahlkit.catalog.a0 import (COMPONENTS, A0Constraints, CatalogError, FIBERS,
                                SECTIONS, build_a0, frozen_a0, incidences_of,
                                reconstruct_a0)
from wahlkit.catalog.records import (ChainSpec, RecordError, format_record, parse_record,
                                     parse_records_file)
from wahlkit.catalog.verify import (INFER_BUDGET, _plan_from_json, ledger_constraints,
                                    load_expected, load_records, verify_all)
from wahlkit.configuration import (Configuration, ConfigurationError, Curve, Node, det_exact,
                                   rank_exact)
from wahlkit.plans import (SearchParams, _search_plan, infer_plan, mark_chains,
                           search_constructions)


def _h1(marked: MarkedSurface) -> list[int]:
    """The invariant factors other than 1 of the cokernel of the rows
    (D.C_j), D over every curve of the surface and C_j over the Wahl chain
    curves (Smith normal form); [] when the cokernel is 0, a free part
    counting as 0s (after Lee-Park, Invent. Math. 170, 2007)."""
    columns = [c for chain in marked.wahl_chains for c in chain]
    rows = [[marked.surface.pairing(d.name, c) for c in columns]
            for d in marked.surface.curves]
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    factors = [abs(snf[i, i]) for i in range(min(snf.shape))]
    return sorted(f for f in factors if f != 1) + [0] * (len(columns) - len(factors))


def _record_line(path, line: str) -> None:
    """Append one line to `path`; safe from several processes at once, as
    each write is one short append."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


@pytest.fixture(scope="module")
def a0():
    return frozen_a0()


@pytest.fixture(scope="module")
def records():
    return load_records()


@pytest.fixture(scope="module")
def expected():
    return load_expected()


class TestRecordGrammar:
    LINE = ("(2.1) K^2=2 - {C1, C2, B1, A2, A3, D1} - det=-40 - "
            "C1∩C2, C2∩D1, [2,2,1] × A2∩B1, "
            "[2,1] × A3∩C1 - (11,3):[4,5,3,2,2] - (8,3):[3,5,3,2]")

    def test_parse_example(self):
        record = parse_record(self.LINE)
        assert record.rid == "2.1"
        assert record.k2 == 2
        assert record.curves == ("C1", "C2", "B1", "A2", "A3", "D1")
        assert record.det == -40
        assert len(record.steps) == 4
        assert record.steps[2].pattern == (2, 2, 1)
        assert [(c.n, c.a) for c in record.chains] == [(11, 3), (8, 3)]
        assert record.blowup_total == 7

    def test_round_trip(self):
        record = parse_record(self.LINE)
        assert format_record(record) == self.LINE
        assert parse_record(format_record(record)) == record

    def test_whole_catalog_round_trips(self, records):
        for record in records:
            assert parse_record(format_record(record)) == record

    def test_record_9_4_chain_lengths(self, records):
        record = next(r for r in records if r.rid == "9.4")
        assert sorted(len(c.chain) for c in record.chains) == [18, 21]

    def test_errors(self):
        with pytest.raises(RecordError):
            parse_record("(2.1) K^2=2 - {C1} - det=-40 - C1∩C1")  # no chains
        with pytest.raises(RecordError):
            parse_record("K^2=2 - {C1} - det=-40 -  - (2,1):[4]")
        with pytest.raises(RecordError):
            parse_record("(2.1) K^2=2 - {C1} - det=x -  - (2,1):[4]")
        with pytest.raises(RecordError):
            parse_record("(2.1) K^2=2 - {C1, C1} - det=-2 -  - (2,1):[4]")
        with pytest.raises(RecordError):
            parse_record("(2.1) K^2=2 - {C1} - det=-2 - C1∩C9 - (2,1):[4]")
        with pytest.raises(RecordError, match="K\\^2 must be at least 1"):
            parse_record("(2.1) K^2=0 - {C1} - det=-2 -  - (2,1):[4]")

    def test_loading_a_file_closes_it(self, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("(9.9) K^2=2 - {C1} - det=-2 -  - (2,1):[4]\n",
                           encoding="utf-8")
        expected = tmp_path / "expected.json"
        # the smallest file with every key the ledger reads
        minimal = {"a0": {"r": 0, "t2": 0, "log_chern": [], "obstruction_cap": 0},
                   "mains": {}, "tjoins": [], "wormholes": []}
        expected.write_text(json.dumps(minimal), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert [r.rid for r in load_records(str(records))] == ["9.9"]
            assert load_expected(str(expected)) == minimal
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_empty_steps_allowed(self):
        record = parse_record("(9.9) K^2=2 - {C1} - det=-2 -  - (2,1):[4]")
        assert record.steps == ()


class TestA0Model:
    def test_global_invariants(self, a0):
        assert (a0.r, a0.t2) == (32, 72)
        assert a0.log_chern() == (80, 32)
        assert all(c.self_int == -2 for c in a0.curves)
        assert rank_exact(a0.intersection_matrix()) == 20

    def test_fibration_structure(self, a0):
        for cycle in (FIBERS["I8A"], FIBERS["I8B"]):
            for i, name in enumerate(cycle):
                assert a0.pairing(name, cycle[(i + 1) % 8]) == 1
                assert a0.pairing(name, cycle[(i + 2) % 8]) == 0
        for pair in ("B12", "B34", "C12", "C34"):
            x, y = FIBERS[pair]
            assert a0.pairing(x, y) == 2
        incidence = incidences_of(a0)
        for section in SECTIONS:
            for fiber in FIBERS:
                assert (section, fiber) in incidence
        for i, s in enumerate(SECTIONS):
            for t in SECTIONS[i + 1:]:
                assert a0.pairing(s, t) == 0

    def test_validate_passes(self, a0, expected, records):
        # the ledger's A0 section is the model's validation
        ledger = verify_all(a0, records, expected, with_inference=False)
        names = [c.name for c in ledger.checks if c.section == "A0"]
        assert "fibration skeleton" in names
        assert sum(name.startswith("printed matrix") for name in names) == 8
        assert ledger.ok, [c.line() for c in ledger.failures()]

    def test_validate_rejects_tampering(self, a0, expected, records):
        incidence = incidences_of(a0)
        wrong = dict(incidence)
        wrong[("A2", "C12")] = "C2"  # flips printed entries in the 6x6 matrix
        tampered = build_a0(wrong)
        ledger = verify_all(tampered, records, expected, with_inference=False)
        failed = [(c.section, c.name) for c in ledger.failures()]
        assert ("A0", "printed matrix on 6 curves") in failed
        assert ("A0", "fibration skeleton") not in failed

    def test_printed_matrix_example(self, a0, expected):
        data = expected["mains"]["3"]
        sub = a0.restrict(data["curves"])
        assert sub.intersection_matrix(data["curves"]) == data["matrix"]
        assert det_exact(sub.intersection_matrix()) == -76

    def test_record_5_1_determinant(self, a0, records):
        record = next(r for r in records if r.rid == "5.1")
        assert len(record.curves) == 12
        assert det_exact(a0.restrict(record.curves).intersection_matrix()) == -352

    def test_single_curve_restriction(self, a0):
        assert a0.intersection_matrix(["A1"]) == [[-2]]
        assert det_exact(a0.intersection_matrix(["A1"])) == -2

    def test_2_3_shares_the_first_restriction(self, a0, records, expected):
        # same six curves as the first printed matrix, different blow-up plan
        record = next(r for r in records if r.rid == "2.3")
        main = expected["mains"]["2"]
        assert record.det == main["det"] == -28
        assert set(record.curves) == set(main["curves"])
        assert det_exact(a0.restrict(record.curves).intersection_matrix()) == -28
        assert sorted((c.n, c.a) for c in record.chains) == [(11, 3), (29, 8)]


class TestMainsOnA0:
    """Each main's frozen plan replayed on the whole of A0, with the Wahl
    chains it marks on the construction's own curves, as the ledger
    certifies it."""

    @pytest.mark.parametrize("k2", range(2, 10))
    def test_du_val_chains_are_the_zero_curves(self, a0, expected, k2):
        data = expected["mains"][str(k2)]
        plan = _plan_from_json(data["recovered_plan"])
        own = mark_chains(plan.execute(a0.restrict(data["curves"])),
                          [tuple(c["chain"]) for c in data["chains"]])
        replay = plan.execute(a0)
        duval = tuple(tuple(ch) for ch in data["duval"])
        bare = nef_ample_check(MarkedSurface(replay, own.wahl_chains))
        assert bare.status == ("nef-only" if duval else "ample")
        assert {w.curve for w in bare.warnings} == {c for ch in duval for c in ch}
        full = MarkedSurface(replay, own.wahl_chains, duval)
        assert nef_ample_check(full).status == "ample"
        assert pi1_verdict(full).status == "trivial"


def _matrix_only(data: dict) -> A0Constraints:
    constraints = A0Constraints()
    constraints.matrices.append((tuple(data["curves"]), data["matrix"]))
    return constraints


ALL_CELLS = {(s, f) for s in SECTIONS for f in FIBERS}


class TestReconstruction:
    def test_first_matrix_forces_incidences(self, expected):
        result = reconstruct_a0(_matrix_only(expected["mains"]["2"]), rank_cap=None)
        assert result.incidence[("A2", "C12")] == "C1"
        assert result.incidence[("D1", "C12")] == "C2"
        assert result.incidence[("A2", "B12")] == "B1"

    def test_full_reconstruction_unique_and_matches_frozen(self, a0, expected, records):
        constraints = ledger_constraints(expected, records)
        result = reconstruct_a0(constraints)
        assert result.unique
        assert not result.undetermined and not result.free_cells
        assert incidences_of(result.model) == incidences_of(a0)

    def test_without_rank_cap_two_cells_float(self, expected, records):
        constraints = ledger_constraints(expected, records)
        result = reconstruct_a0(constraints, rank_cap=None)
        floating = set(result.undetermined) | set(result.free_cells)
        assert floating == {("A4", "I8B"), ("D4", "C34")}

    def test_no_constraints_decide_no_cell(self):
        # far past the cap: nothing is enumerated and nothing is claimed
        result = reconstruct_a0(A0Constraints())
        assert not result.unique
        assert result.undetermined == {(s, f): tuple(sorted(FIBERS[f]))
                                       for s, f in ALL_CELLS}
        assert set(result.free_cells) == ALL_CELLS

    def test_first_matrix_alone_leaves_every_other_cell_open(self, expected):
        data = expected["mains"]["2"]
        result = reconstruct_a0(_matrix_only(data))
        assert not result.unique
        # the matrix decides a cell exactly when it shows the section and a
        # component of the (two-component) fiber
        seen = {(s, COMPONENTS[c]) for s in data["curves"] if s in SECTIONS
                for c in data["curves"] if c in COMPONENTS}
        assert all(len(FIBERS[f]) == 2 for _, f in seen)
        assert set(result.undetermined) == ALL_CELLS - seen
        for s, f in ALL_CELLS - seen:
            assert result.undetermined[(s, f)] == tuple(sorted(FIBERS[f]))
        assert result.incidence[("A2", "C12")] == "C1"
        assert result.incidence[("D1", "C12")] == "C2"
        assert result.incidence[("A2", "B12")] == "B1"

    def test_components_a_record_sees_are_searched_apart(self, a0):
        # every cell pinned but (A3, I8A); the record sees the component A3
        # meets (F5) and both its neighbours, and only the middle one gives
        # its determinant, so the three must not be searched as one class
        truth = incidences_of(a0)
        cycle = FIBERS["I8A"]
        i = cycle.index(truth[("A3", "I8A")])
        order = ("A3", cycle[i - 1], cycle[i], cycle[i + 1])
        constraints = A0Constraints()
        for (section, fiber), comp in truth.items():
            if (section, fiber) != ("A3", "I8A"):
                constraints.add_incident(section, comp)
        constraints.determinants.append((order, det_exact(a0.intersection_matrix(order))))
        result = reconstruct_a0(constraints)
        assert result.unique and result.incidence == truth

    def test_corrupted_determinant_unsatisfiable(self, expected, records):
        constraints = ledger_constraints(expected, records)
        bad = [(order, (-41 if det == -40 else det))
               for order, det in constraints.determinants]
        assert any(det == -41 for _, det in bad)
        constraints.determinants = bad
        with pytest.raises(CatalogError):
            reconstruct_a0(constraints)


class TestLedger:
    def test_full_ledger_passes(self, a0, records, expected):
        ledger = verify_all(a0, records, expected, infer_budget=250000)
        assert ledger.ok, [c.line() for c in ledger.failures()]
        payload = ledger.to_json()
        assert payload["ok"] and payload["passed"] == payload["total"] == 446
        assert ledger.lines()[-1] == "446/446 checks passed"
        # every record's plan is inferred, and every main's frozen plan replays
        names = Counter((c.section.split(" ")[0], c.name) for c in ledger.checks)
        assert names["record", "plan inference"] == len(records)
        assert names["main", "recovered plan replays"] == len(expected["mains"]) == 8

    def test_record_check_names_only_what_it_checks(self, a0, records, expected):
        # a record's certificate names what it proves, pi1 among it: (2.2),
        # inconclusive on its own curves, is trivial on A0
        ledger = verify_all(a0, records, expected)
        checks = [c for c in ledger.checks if c.section == "record (2.2)"]
        assert all(c.ok for c in checks)
        assert [c.name for c in checks] == [
            "chain of (18,7) recognized", "chain of (18,7) recognized",
            "length bound l <= 9", "determinant -32", "geography identities",
            "no local-to-global obstruction", "family dimension 16", "plan inference",
            "K^2 = 2 from the marking", "canonical class ample",
            "fundamental group trivial"]
        assert checks[-3].detail == "got 2; 1/324(1,125), 1/324(1,125)"
        assert checks[-1].detail == "trivial: every chain meridian group dies"

    def test_every_construction_ends_with_one_certificate(self, a0, records, expected):
        # records and mains are certified on A0 by one helper: each section
        # ends with its three checks, in one order
        ledger = verify_all(a0, records, expected)
        sections: dict[str, list[str]] = {}
        for c in ledger.checks:
            if c.section.startswith(("record (", "main K^2=")):
                sections.setdefault(c.section, []).append(c.name)
        assert len(sections) == len(records) + len(expected["mains"])
        for section, names in sections.items():
            k2 = names[-3].split()[2]
            assert names[-3:] == [f"K^2 = {k2} from the marking", "canonical class ample",
                                  "fundamental group trivial"], section

    def test_inconclusive_pi1_fails_a_record(self, a0, records, expected, monkeypatch):
        # the record's pi1 verdict on A0 is checked, not only reported
        inconclusive = Pi1Report("inconclusive", "no sufficiency criterion applies")
        monkeypatch.setattr("wahlkit.assembly.pi1_verdict", lambda ms: inconclusive)
        ledger = verify_all(a0, [r for r in records if r.rid == "2.2"], expected)
        assert [c.line() for c in ledger.failures() if c.section == "record (2.2)"] == [
            "[FAIL] record (2.2): fundamental group trivial -- "
            "inconclusive: no sufficiency criterion applies"]

    def test_ledger_certifies_each_record_once(self, a0, records, expected, monkeypatch,
                                               tmp_path):
        # the ledger runs inference's search without its report: the one
        # certificate of a construction is the ledger's `surface_report` on A0.
        # The ledger's shares may run in forked children, so each call is
        # recorded as a line in a file, from whichever process makes it
        def refused(*args):
            raise AssertionError("surface_report run inside the ledger's search")
        monkeypatch.setattr("wahlkit.plans.surface_report", refused)
        built = tmp_path / "built.txt"

        def counted(ms, base):
            _record_line(built, str(ms.wahl_chains))
            return surface_report(ms, base)
        monkeypatch.setattr("wahlkit.catalog.verify.surface_report", counted)
        assert verify_all(a0, records, expected).lines()[-1] == "446/446 checks passed"
        assert len(built.read_text().splitlines()) == len(records) + len(expected["mains"]) == 37

    def test_trivial_pi1_has_zero_h1(self, a0, records, expected, monkeypatch, tmp_path):
        # an independent oracle for every surface the ledger certifies on
        # A0, the 29 records and the 8 mains: a trivial pi1 verdict needs
        # H1 = 0, the cokernel of the rows (D.C_j) over every curve D.  H1 is
        # computed where the verdict is, in whichever process runs the share
        seen = tmp_path / "seen.txt"

        def recording(ms):
            report = pi1_verdict(ms)
            _record_line(seen, json.dumps([report.status, _h1(ms)]))
            return report
        monkeypatch.setattr("wahlkit.assembly.pi1_verdict", recording)
        verify_all(a0, records, expected)
        lines = [json.loads(line) for line in seen.read_text().splitlines()]
        assert len(lines) == len(records) + len(expected["mains"])
        assert all(line == ["trivial", []] for line in lines)

    @pytest.mark.parametrize("params, found", [
        (SearchParams(k2=2, max_chains=2, max_blowups=7,
                      curve_pool=("A2", "A3", "B1", "C1", "C2", "D1")), 1),
        (SearchParams(k2=1, max_chains=3, max_blowups=6), 25),
    ], ids=["k2-2-pool", "k2-1"])
    def test_search_records_have_zero_h1_on_a0(self, a0, params, found):
        # the same oracle beyond the catalog: each record that search finds,
        # inferred again on its own curves and certified as the ledger
        # certifies on A0, is trivial there with H1 = 0
        records = search_constructions(params, a0).records
        assert len(records) == found
        for record in records:
            sub = a0.restrict(record.curves)
            result = _search_plan(record, sub, INFER_BUDGET, prune=True)
            marked = MarkedSurface(result.plan.execute(a0), result.marked.wahl_chains)
            report = surface_report(marked, sub)
            assert report.k2 == record.k2 and report.ample.canonical_ample, record.rid
            assert report.pi1.status == "trivial" and _h1(marked) == [], record.rid

    @pytest.mark.parametrize("rid", ["2.2", "3.1"])
    def test_own_curves_leave_z2(self, a0, records, rid):
        # the control: on their own curves these records keep H1 = Z/2,
        # and their verdict there is inconclusive
        record = next(r for r in records if r.rid == rid)
        marked = infer_plan(record, a0.restrict(record.curves)).marked
        assert _h1(marked) == [2]
        assert pi1_verdict(marked).status == "inconclusive"

    @pytest.mark.parametrize("line", [
        "(2.1) K^2=5 - {C1, C2, B1, A2, A3, D1} - det=-40 - C1∩B1 - (2,1):[4]",
        "(2.1) K^2=2 - {A1} - det=-2 -  - (2,1):[4] - (2,1):[4] - (2,1):[4]",
    ], ids=["wrong-k2", "one-curve"])
    def test_family_dimension_fails_with_the_geography(self, a0, expected, line):
        # the family verdict reads the record's curves, not only its stated
        # counts: admissible counts on curves that break the identities fail
        ledger = verify_all(a0, [parse_record(line)], expected, with_inference=False)
        verdicts = {c.name: c.ok for c in ledger.checks if c.section == "record (2.1)"}
        assert verdicts["no local-to-global obstruction"]
        assert not verdicts["geography identities"]
        family = [name for name in verdicts if name.startswith("family dimension")]
        assert len(family) == 1 and not verdicts[family[0]]

    def test_summary_counts_uncertified_mains(self, a0, records, expected):
        # a main with no frozen plan is a failure, not an uncertified pass
        unfrozen = json.loads(json.dumps(expected))
        del unfrozen["mains"]["8"]["recovered_plan"]
        ledger = verify_all(a0, records, unfrozen, with_inference=False)
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] main K^2=8: recovered plan replays -- no recovered_plan is frozen"]
        total = len(ledger.checks)
        assert ledger.lines()[-1] == f"{total - 1}/{total} checks passed"
        assert not ledger.to_json()["ok"] and "uncertified" not in ledger.to_json()

    def test_failed_inference_fails_the_ledger(self, a0, records, expected):
        # every hinted inference takes more than 5 states: each record fails,
        # and says which it is and why
        ledger = verify_all(a0, records, expected, infer_budget=5)
        failures = ledger.failures()
        assert [(c.section, c.name) for c in failures] == [
            (f"record ({r.rid})", "plan inference") for r in records]
        assert all(c.detail.startswith(f"({r.rid}) no plan after 6 states")
                   and c.detail.endswith(": state budget exhausted")
                   for c, r in zip(failures, records))

    def test_frozen_plan_stays_on_the_construction_curves(self, a0, records, expected):
        # F9 is on A0 but on no curve of mains 2 and 3: their plans may not
        # blow up a node there, though it exists on the whole of A0
        strayed = json.loads(json.dumps(expected))
        for k2 in ("2", "3"):
            strayed["mains"][k2]["recovered_plan"].append(["A2", "F9", 0])
        assert a0.pairing("A2", "F9") == 1
        ledger = verify_all(a0, records, strayed, with_inference=False)
        assert [c.line() for c in ledger.failures()] == [
            f"[FAIL] main K^2={k2}: recovered plan replays -- no node #0 between A2 and F9"
            for k2 in (2, 3)]

    def test_ledger_rejects_a_model_that_is_not_a0(self, a0, records, expected):
        # A4 misses the second I8 fiber; curve and node counts are unchanged
        # and no printed matrix or record sees the moved node, but it joins
        # two Du Val chains of mains 2-5, so their A0 certificates fail too
        nodes = tuple(Node(n.id, "F6", "F14") if n.pair() == ("A4", "F11") else n
                      for n in a0.nodes)
        tampered = Configuration(a0.curves, nodes)
        assert (tampered.r, tampered.t2) == (32, 72) and nodes != a0.nodes
        ledger = verify_all(tampered, records, expected, with_inference=False)
        joined = "marked curves F6,F14 meet but are not consecutive in one chain"
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] A0: fibration skeleton -- incidence missing for (A4,I8B)"] + [
            f"[FAIL] main K^2={k2}: recovered plan replays -- {joined}"
            for k2 in (2, 3, 4, 5)]

    @pytest.mark.parametrize("tamper, detail", [
        (lambda a0: Configuration(a0.curves, tuple(
            Node(n.id, "F1", "F3") if n.pair() == ("F1", "F2") else n for n in a0.nodes)),
         "node count differs at ('F1', 'F2')"),
        (lambda a0: Configuration(tuple(
            Curve("F1", -3) if c.name == "F1" else c for c in a0.curves), a0.nodes),
         "curve F1 differs from the skeleton's"),
        (lambda a0: Configuration(a0.curves, a0.nodes + (Node(999, "A1", "D1"),)),
         "section A1 meets non-fiber curve D1"),
    ], ids=["fiber-node", "self-intersection", "sections-meet"])
    def test_skeleton_check_names_the_difference(self, a0, records, expected, tamper,
                                                 detail):
        ledger = verify_all(tamper(a0), records, expected, with_inference=False)
        skeleton = [c for c in ledger.checks if c.name == "fibration skeleton"]
        assert [(c.ok, c.detail) for c in skeleton] == [(False, detail)]

    def test_ledger_catches_breakage(self, a0, records, expected):
        broken = json.loads(json.dumps(expected))
        broken["a0"]["t2"] = 71
        ledger = verify_all(a0, records, broken, with_inference=False)
        assert not ledger.ok
        assert any("node count" in c.name for c in ledger.failures())

    def test_non_wahl_chain_claim_is_a_failure(self, a0, records, expected):
        # (8,3) written as [3,5,3,3]: inference fails, and says why
        bad = [dataclasses.replace(r, chains=(ChainSpec(8, 3, (3, 5, 3, 3)),) + r.chains[1:])
               if r.rid == "3.0" else r for r in records]
        ledger = verify_all(a0, bad, expected)
        failures = [(c.section, c.name) for c in ledger.failures()]
        assert failures == [("record (3.0)", "chain [3, 5, 3, 3] is a Wahl chain"),
                            ("record (3.0)", "plan inference")]
        assert ledger.failures()[1].detail == (
            "(3.0): stated chain [3, 5, 3, 3] is not a Wahl chain")

    def test_inference_error_is_a_failure(self, a0, records, expected):
        # a stated chain shorter than K^2 forces a negative blow-up count:
        # inference raises, and the ledger reports it and goes on; the family
        # verdict fails with the geography of the curves
        bad = [dataclasses.replace(r, k2=5, chains=(ChainSpec(2, 1, (4,)),))
               if r.rid == "2.1" else r for r in records]
        ledger = verify_all(a0, bad, expected)
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] record (2.1): geography identities -- P=2 K=2 r=6 t2=8 c1^2=4 c2=20",
            "[FAIL] record (2.1): family dimension 10",
            "[FAIL] record (2.1): plan inference -- (2.1): negative blow-up count"]
        assert len(ledger.checks) == 442 and ledger.checks[-1].section == "main K^2=9"

    @pytest.mark.parametrize("step, shown", [
        (["A2", "C3"], '["A2", "C3"]'),
        (["A2", "C3", -1], '["A2", "C3", -1]'),
        (["A2", "C3", "0"], '["A2", "C3", "0"]'),
        (["A2", 3, 0], '["A2", 3, 0]'),
        ("A2*C3", '"A2*C3"'),
    ], ids=["two-elements", "negative", "string-occurrence", "number-name", "string"])
    def test_malformed_main_plan_step_is_a_failure(self, a0, records, expected, step,
                                                   shown):
        broken = json.loads(json.dumps(expected))
        broken["mains"]["3"]["recovered_plan"][1] = step
        ledger = verify_all(a0, records, broken, with_inference=False)
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] main K^2=3: recovered plan replays -- recovered_plan[1] is not "
            f"[curve, curve, occurrence >= 0]: {shown}"]

    def test_main_plan_that_is_not_a_list_is_a_failure(self, a0, records, expected):
        broken = json.loads(json.dumps(expected))
        broken["mains"]["3"]["recovered_plan"] = 5
        ledger = verify_all(a0, records, broken, with_inference=False)
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] main K^2=3: recovered plan replays -- recovered_plan is not a list "
            "of steps: 5"]

    def test_unreplayable_main_plan_is_a_failure(self, a0, records, expected):
        broken = json.loads(json.dumps(expected))
        broken["mains"]["2"]["recovered_plan"][0][2] = 5
        ledger = verify_all(a0, records, broken, with_inference=False)
        assert [c.line() for c in ledger.failures()] == [
            "[FAIL] main K^2=2: recovered plan replays -- no node #5 between A2 and B1"]


class TestForkedLedger:
    """The ledger's tasks (the A0 checks, each record, the T-joins, the
    wormholes, each main) run in one share per CPU, share 0 in this process
    and the others in forked children.  These tests patch
    `os.sched_getaffinity` to fix the number of shares."""

    @staticmethod
    def _cpus(monkeypatch, n: int) -> list:
        """Make this process see `n` CPUs; the list returned fills with one
        entry per fork this process makes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks, fork = [], os.fork

        def counted():
            forks.append(n)
            return fork()
        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def _unknown_curve(records, rid: str, name: str):
        return [dataclasses.replace(r, curves=r.curves + (name,)) if r.rid == rid else r
                for r in records]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("with_inference", [True, False], ids=["infer", "no-infer"])
    def test_same_ledger_forked_and_in_process(self, a0, records, expected, monkeypatch,
                                               cpus, with_inference):
        forks = self._cpus(monkeypatch, cpus)
        forked = verify_all(a0, records, expected, with_inference=with_inference)
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.undo()
        forks = self._cpus(monkeypatch, 1)
        alone = verify_all(a0, records, expected, with_inference=with_inference)
        assert forks == []
        assert forked.lines() == alone.lines()
        assert forked.to_json() == alone.to_json()
        passed = "446/446" if with_inference else "330/330"
        assert forked.lines()[-1] == f"{passed} checks passed"

    @pytest.mark.parametrize("first, second", [("3.0", "2.1"), ("2.1", "2.2")],
                             ids=["child-first", "parent-first"])
    def test_earliest_error_in_catalog_order(self, a0, records, expected, monkeypatch,
                                             first, second):
        # with two shares, task 0 is the A0 checks and the records follow,
        # so (3.0) and (2.2) fall in the child's share and (2.1) in this
        # one: whichever share holds it, the earlier record's error is raised
        assert [r.rid for r in records[:3]] == ["3.0", "2.1", "2.2"]
        forks = self._cpus(monkeypatch, 2)
        broken = self._unknown_curve(self._unknown_curve(records, first, "ZZ1"), second, "ZZ2")
        with pytest.raises(ConfigurationError, match="^unknown curve 'ZZ1'$"):
            verify_all(a0, broken, expected)
        assert forks == [2]
        with pytest.raises(ChildProcessError):  # every child is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_search_refusal_comes_back_from_a_child(self, a0, records, expected,
                                                    monkeypatch):
        # an AssertionError raised in a child's share reaches the caller:
        # (3.0), the first record, is in the child's share
        def refused(*args):
            raise AssertionError(f"surface_report run inside the ledger's search "
                                 f"in process {os.getpid()}")
        monkeypatch.setattr("wahlkit.plans.surface_report", refused)
        monkeypatch.setattr("wahlkit.catalog.verify._search_plan", infer_plan)
        self._cpus(monkeypatch, 2)
        with pytest.raises(AssertionError, match="inside the ledger's search") as raised:
            verify_all(a0, records, expected)
        assert not str(raised.value).endswith(f" {os.getpid()}")

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds on Linux")
    def test_failed_fork_closes_its_pipe(self, a0, records, expected, monkeypatch):
        self._cpus(monkeypatch, 2)

        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", refused)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            verify_all(a0, records, expected, with_inference=False)
        assert len(os.listdir("/proc/self/fd")) == open_fds

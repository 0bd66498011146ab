import json
import warnings

import pytest

from wahlkit.catalog.a0 import (A0Constraints, CatalogError, FIBERS, SECTIONS,
                                build_a0, frozen_a0, incidences_of,
                                reconstruct_a0, validate_a0)
from wahlkit.catalog.records import (RecordError, format_record, parse_record,
                                     parse_records_file)
from wahlkit.catalog.verify import (ledger_constraints, load_expected,
                                    load_records, verify_all)
from wahlkit.configuration import det_exact, rank_exact


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

    def test_loading_a_file_closes_it(self, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("(9.9) K^2=2 - {C1} - det=-2 -  - (2,1):[4]\n",
                           encoding="utf-8")
        expected = tmp_path / "expected.json"
        expected.write_text('{"mains": {}}', encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert [r.rid for r in load_records(str(records))] == ["9.9"]
            assert load_expected(str(expected)) == {"mains": {}}
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
        constraints = ledger_constraints(expected, records)
        checks = validate_a0(a0, constraints)
        assert len(checks) > 30

    def test_validate_rejects_tampering(self, a0, expected, records):
        constraints = ledger_constraints(expected, records)
        incidence = incidences_of(a0)
        wrong = dict(incidence)
        wrong[("A2", "C12")] = "C2"  # flips printed entries in the 6x6 matrix
        tampered = build_a0(wrong)
        with pytest.raises(CatalogError):
            validate_a0(tampered, constraints)

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


class TestReconstruction:
    def test_first_matrix_forces_incidences(self, expected):
        constraints = A0Constraints()
        data = expected["mains"]["2"]
        constraints.matrices.append((tuple(data["curves"]), data["matrix"]))
        result = reconstruct_a0(constraints, rank_cap=None)
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
        assert len(ledger.checks) > 300
        payload = ledger.to_json()
        assert payload["ok"] and payload["passed"] == payload["total"]

    def test_ledger_catches_breakage(self, a0, records, expected):
        broken = json.loads(json.dumps(expected))
        broken["a0"]["t2"] = 71
        ledger = verify_all(a0, records, broken, with_inference=False)
        assert not ledger.ok
        assert any("node count" in c.name for c in ledger.failures())

import importlib
import itertools
import json
import os
import pkgutil
from importlib import resources

import pytest

import wahlkit
from wahlkit.catalog.a0 import frozen_a0
from wahlkit.catalog.verify import load_records
from wahlkit.cli import _ERRORS, run


@pytest.fixture
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out.strip(), captured.err.strip()
    return invoke


class TestCalculusCommands:
    def test_expand(self, capture):
        code, out, _ = capture("expand", "729", "215")
        assert code == 0 and out == "[4,2,3,5,4,2,2]"
        code, out, _ = capture("expand", "4", "1")
        assert code == 0 and out == "[4]"

    def test_eval(self, capture):
        code, out, _ = capture("eval", "[4,5,3,2,2]")
        assert code == 0 and out.startswith("121/32")

    def test_wahl(self, capture):
        code, out, _ = capture("wahl", "[4,5,3,2,2]")
        assert code == 0 and out == "(n,a)=(11,3)"
        code, out, _ = capture("wahl", "[2,2]")
        assert code == 1 and out == "not a Wahl chain"

    def test_join(self, capture):
        code, out, _ = capture("join", "[4]", "[4]")
        assert code == 0 and out == "1/8(1,3) [T: d=2,n=2,a=1]"
        code, out, _ = capture("join", "[3,3,2,6,3,2]", "[3,3,2,6,3,2]")
        assert code == 0 and out.startswith("1/648(1,251)")

    def test_disc_and_meridians(self, capture):
        code, out, _ = capture("disc", "[5,2]")
        assert code == 0 and out == "[-2/3, -1/3]"
        code, out, _ = capture("meridians", "[5,2]")
        assert code == 0 and out == "[2,1] with t0 = 9"

    def test_bounds_and_geography(self, capture):
        code, out, _ = capture("bounds", "K3", "1")
        assert code == 0 and out == "l <= 5"
        code, out, _ = capture("geography", "2", "9")
        assert code == 0 and "r=20" in out and "t2=29" in out

    def test_usage_errors_exit_2(self, capture):
        code, _, err = capture("expand", "9", "3")
        assert code == 2 and "coprime" in err
        code, _, _ = capture("nonsense")
        assert code == 2
        code, _, err = capture("wahl", "[]")
        assert code == 2


class TestJsonOutput:
    def test_values_match_text(self, capture):
        _, text_out, _ = capture("wahl", "[4,5,3,2,2]")
        _, json_out, _ = capture("wahl", "[4,5,3,2,2]", "--format", "json")
        payload = json.loads(json_out)
        assert payload["n"] == 11 and payload["a"] == 3
        assert f"({payload['n']},{payload['a']})" in text_out

    def test_schema_stable(self, capture):
        _, first, _ = capture("join", "[4]", "[4]", "--format", "json")
        _, second, _ = capture("join", "[4]", "[4]", "--format", "json")
        assert first == second
        payload = json.loads(first)
        assert sorted(payload) == ["m", "q", "t_singularity"]
        assert payload["t_singularity"] == {"d": 2, "n": 2, "a": 1}

    def test_expand_json(self, capture):
        _, out, _ = capture("expand", "324", "125", "--format", "json")
        assert json.loads(out) == {"chain": [3, 3, 2, 6, 3, 2]}


class TestVerifyAndSearch:
    def test_verify_no_infer(self, capture):
        code, out, _ = capture("verify", "--no-infer", "--seedless")
        assert code == 0
        assert "checks passed" in out.splitlines()[-1]

    def test_verify_json(self, capture):
        code, out, _ = capture("verify", "--no-infer", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["passed"] == payload["total"]
        assert {"section", "name", "ok", "detail"} == set(payload["checks"][0])

    def test_verify_rejects_broken_data(self, capture, tmp_path):
        bad = tmp_path / "records.txt"
        bad.write_text("(2.1) K^2=2 - {C1, C2, B1, A2, A3, D1} - det=-41 -  - "
                       "(11,3):[4,5,3,2,2] - (8,3):[3,5,3,2]\n")
        code, out, _ = capture("verify", "--records", str(bad), "--no-infer")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("text, reason", [
        ('{"curves":[{"name":"A"}],"nodes":[]}', "self_int"),
        ('{"curves":[3],"nodes":[]}', "curve must be an object"),
        ('{"curves":5,"nodes":[]}', "curves must be a list"),
        ('{"curves":[],"nodes":5}', "nodes must be a list"),
    ], ids=["curve-lacks-self_int", "curve-not-object", "curves-not-list",
            "nodes-not-list"])
    def test_malformed_a0_is_a_usage_error(self, capture, tmp_path, text, reason):
        bad = tmp_path / "a0.json"
        bad.write_text(text)
        code, _, err = capture("verify", "--a0", str(bad), "--no-infer")
        assert code == 2
        assert err.startswith("error:") and reason in err

    @pytest.mark.parametrize("ambient", [
        '{"name":"K3","k_sq":0,"chi_top":24}',
        '{"name":"K3","k_sq":null,"chi_top":24}',
        '{"name":"K3","k_sq":[1],"chi_top":24}',
        '{"name":"K3"}',
        '24',
    ], ids=["k3", "k_sq-null", "k_sq-list", "lacks-fields", "not-object"])
    def test_ambient_key_is_a_usage_error(self, capture, tmp_path, ambient):
        # the ambient surface is always a K3: no input names it
        bad = tmp_path / "a0.json"
        bad.write_text('{"curves":[],"nodes":[],"ambient":%s}' % ambient)
        code, _, err = capture("verify", "--a0", str(bad), "--no-infer")
        assert (code, err) == (2, f"error: {bad}: unknown fields: ['ambient']")

    def test_a0_missing_a_curve_is_a_usage_error(self, capture, tmp_path):
        payload = json.loads(frozen_a0().to_json())
        payload["curves"] = [c for c in payload["curves"] if c["name"] != "D4"]
        payload["nodes"] = [n for n in payload["nodes"] if "D4" not in n]
        bad = tmp_path / "a0.json"
        bad.write_text(json.dumps(payload))
        code, _, err = capture("verify", "--a0", str(bad))
        assert (code, err) == (2, "error: unknown curve 'D4'")

    def test_a0_with_a_taken_exceptional_name_fails_the_replays(self, capture, tmp_path):
        # the mains are certified on the whole of A0, where a curve already
        # named E3 stops each replay: a failed check, not a usage error
        payload = json.loads(frozen_a0().to_json())
        payload["curves"].append({"name": "E3", "self_int": -2})
        bad = tmp_path / "a0.json"
        bad.write_text(json.dumps(payload))
        code, out, err = capture("verify", "--a0", str(bad), "--no-infer")
        assert (code, err) == (1, "")
        assert [line for line in out.splitlines() if "recovered plan" in line] == [
            f"[FAIL] main K^2={k2}: recovered plan replays -- "
            f"exceptional name E3 already taken" for k2 in range(2, 10)]

    def test_a0_with_a_taken_exceptional_name_fails_the_inferences(self, capture, tmp_path):
        # with inference, each record's plan replayed on the whole of A0
        # stops at E3 too: a failed check, not a usage error
        payload = json.loads(frozen_a0().to_json())
        payload["curves"].append({"name": "E3", "self_int": -2})
        bad = tmp_path / "a0.json"
        bad.write_text(json.dumps(payload))
        code, out, err = capture("verify", "--a0", str(bad))
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line for line in lines if "plan inference" in line] == [
            f"[FAIL] record ({record.rid}): plan inference -- "
            f"exceptional name E3 already taken" for record in load_records()]
        assert sum("recovered plan replays -- exceptional name E3" in line
                   for line in lines) == 8
        assert lines[-1] == "293/334 checks passed"

    @pytest.mark.parametrize("option", ["--a0", "--records", "--expected"])
    def test_missing_input_file_is_a_usage_error(self, capture, tmp_path, option):
        missing = tmp_path / "missing.txt"
        code, _, err = capture("verify", option, str(missing), "--no-infer")
        assert code == 2
        assert err.startswith("error:") and "missing.txt" in err

    @pytest.mark.parametrize("option", ["--a0", "--records", "--expected"])
    def test_unparseable_input_file_names_it(self, capture, tmp_path, option):
        bad = tmp_path / "bad.txt"
        bad.write_text("{not json, not a record\n")
        code, _, err = capture("verify", option, str(bad), "--no-infer")
        assert code == 2
        assert err.startswith(f"error: {bad}: ") and "\n" not in err

    def test_verify_reports_bad_claims_as_failures(self, capture, tmp_path):
        # a stated chain that is not a Wahl chain, and a main plan naming a
        # missing node: FAIL lines and exit code 1, not an error
        data = resources.files("wahlkit.catalog") / "data"
        records = tmp_path / "records.txt"
        records.write_text((data / "records.txt").read_text(encoding="utf-8").replace(
            "(8,3):[3,5,3,2] - (23,7)", "(8,3):[3,5,3,3] - (23,7)"), encoding="utf-8")
        expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        expected["mains"]["2"]["recovered_plan"][0][2] = 5
        expected_path = tmp_path / "expected.json"
        expected_path.write_text(json.dumps(expected))
        code, out, err = capture("verify", "--records", str(records),
                                 "--expected", str(expected_path))
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            "[FAIL] record (3.0): chain [3, 5, 3, 3] is a Wahl chain",
            "[FAIL] record (3.0): plan inference -- (3.0): stated chain [3, 5, 3, 3] "
            "is not a Wahl chain",
            "[FAIL] main K^2=2: recovered plan replays -- no node #5 between A2 and B1"]

    def test_verify_reports_a_chain_entry_below_2_as_failure(self, capture, tmp_path):
        # (2.1)'s chain [3, 5, 3, 2] written as [1, 5, 3, 2]: FAIL lines and
        # exit code 1, as for any other chain that is not a Wahl chain
        data = resources.files("wahlkit.catalog") / "data"
        records = tmp_path / "records.txt"
        records.write_text((data / "records.txt").read_text(encoding="utf-8").replace(
            "(11,3):[4,5,3,2,2] - (8,3):[3,5,3,2]\n", "(11,3):[4,5,3,2,2] - (8,3):[1,5,3,2]\n"),
            encoding="utf-8")
        code, out, err = capture("verify", "--records", str(records))
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            "[FAIL] record (2.1): chain [1, 5, 3, 2] is a Wahl chain",
            "[FAIL] record (2.1): plan inference -- (2.1): stated chain [1, 5, 3, 2] "
            "is not a Wahl chain"]

    def test_verify_reports_a_step_past_its_pair_as_failure(self, capture, tmp_path):
        # (3.0) given a third C1∩C2 step, where C1 and C2 meet twice: its
        # inference fails, naming the pair and both counts
        data = resources.files("wahlkit.catalog") / "data"
        text = (data / "records.txt").read_text(encoding="utf-8")
        steps = "det=-76 - C1∩C2, C1∩C2, "
        assert steps in text
        records = tmp_path / "records.txt"
        records.write_text(text.replace(steps, steps + "C1∩C2, "), encoding="utf-8")
        code, out, err = capture("verify", "--records", str(records))
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            "[FAIL] record (3.0): plan inference -- (3.0): the steps name C1∩C2 3 times, "
            "but it has 2 nodes"]

    def test_verify_reports_malformed_plan_step_as_failure(self, capture, tmp_path):
        data = resources.files("wahlkit.catalog") / "data"
        expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        expected["mains"]["3"]["recovered_plan"][1] = ["A2", "C3"]
        expected_path = tmp_path / "expected.json"
        expected_path.write_text(json.dumps(expected))
        code, out, err = capture("verify", "--no-infer", "--expected", str(expected_path))
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            "[FAIL] main K^2=3: recovered plan replays -- recovered_plan[1] is not "
            '[curve, curve, occurrence >= 0]: ["A2", "C3"]']

    @pytest.mark.parametrize("edit, shape", [
        (lambda m: [[1]], "1x1"),
        (lambda m: [row + [0] for row in m] + [[0] * len(m) + [-2]], "9x9"),
    ], ids=["1x1", "9x9"])
    def test_verify_reports_misshapen_printed_matrix(self, capture, tmp_path, edit, shape):
        # the 9x9 case keeps the true 8x8 matrix in its top left corner
        data = resources.files("wahlkit.catalog") / "data"
        expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        main = expected["mains"]["3"]
        assert len(main["curves"]) == 8
        main["matrix"] = edit(main["matrix"])
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected))
        code, out, err = capture("verify", "--no-infer", "--expected", str(path))
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            f"[FAIL] A0: printed matrix on 8 curves -- printed {shape}, expected 8x8"]

    @pytest.mark.parametrize("edit, reason", [
        (dict.clear, "expected lacks 'a0'"),
        (lambda e: e["mains"]["2"].pop("chains"), "expected.mains.2 lacks 'chains'"),
        (lambda e: e["mains"]["3"].update(duval=5), "expected.mains.3.duval is not a list"),
        (lambda e: e["mains"].update(x=e["mains"]["3"]),
         "expected.mains has key 'x', not an integer"),
        (lambda e: e["mains"].update({"²": e["mains"].pop("2")}),
         "expected.mains has key '²', not an integer"),
        (lambda e: e["mains"].update({"٢": e["mains"]["2"]}),
         "expected.mains has key '٢', not an integer"),
        (lambda e: e["mains"].update({"02": e["mains"]["2"]}),
         "expected.mains has key '02', not an integer"),
        (lambda e: e["wormholes"][0].update(records=["4.2"]),
         "expected.wormholes[0].records has 1 entries, not 2"),
        (lambda e: e["tjoins"][0].update(n="18"), "expected.tjoins[0].n is not an integer"),
    ], ids=["empty", "main-without-chains", "duval-number", "main-key", "superscript-key",
            "arabic-indic-key", "leading-zero-key", "wormhole-pair", "string-number"])
    def test_malformed_expected_is_a_usage_error(self, capture, tmp_path, edit, reason):
        data = resources.files("wahlkit.catalog") / "data"
        expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        edit(expected)
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected))
        for argv in (["verify", "--no-infer"], ["reconstruct-a0"]):
            code, out, err = capture(*argv, "--expected", str(path))
            assert code == 2 and out == ""
            assert err == f"error: {path}: {reason}"

    def test_verify_error_in_a_forked_share_is_a_usage_error(self, capture, tmp_path,
                                                             monkeypatch):
        # with two shares the first record, (3.0), is checked in a forked
        # child (task 0 is the A0 checks); its error reaches the CLI as it
        # does from a ledger run in one process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        data = resources.files("wahlkit.catalog") / "data"
        text = (data / "records.txt").read_text(encoding="utf-8")
        first = "(3.0) K^2=3 - {F1, C1, C2, C3, B1, A2, A3, D3}"
        assert first in text.split("\n(2.1)")[0]
        records = tmp_path / "records.txt"
        records.write_text(text.replace(first, first[:-1] + ", ZZ9}"), encoding="utf-8")
        code, out, err = capture("verify", "--records", str(records))
        assert (code, out, err) == (2, "", "error: unknown curve 'ZZ9'")

    def test_verify_reports_uncomposable_joins_as_failures(self, capture, tmp_path):
        # (2.2) made to repeat [2], which does not compose with itself, and
        # (2.1), whose two chains differ and do not compose: each join entry
        # fails on its own line, and the rest of the ledger runs
        data = resources.files("wahlkit.catalog") / "data"
        records = tmp_path / "records.txt"
        records.write_text((data / "records.txt").read_text(encoding="utf-8").replace(
            "(18,7):[3,3,2,6,3,2] - (18,7):[3,3,2,6,3,2]", "(2,1):[2] - (2,1):[2]"),
            encoding="utf-8")
        expected = json.loads((data / "expected.json").read_text(encoding="utf-8"))
        assert expected["tjoins"][0]["record"] == "2.2"
        expected["tjoins"][1]["record"] = "2.1"
        expected["wormholes"][0]["records"] = ["4.2", "2.1"]
        path = tmp_path / "expected.json"
        path.write_text(json.dumps(expected))
        code, out, err = capture("verify", "--no-infer", "--records", str(records),
                                 "--expected", str(path))
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert [line for line in lines
                if line.startswith(("[FAIL] T-join", "[FAIL] wormhole"))] == [
            "[FAIL] T-join (2.2): self-join composes -- record (2.2): contraction "
            "produced a nonpositive entry in [0]",
            "[FAIL] T-join (2.1): record repeats one chain -- (n,a)=(34,13)",
            "[FAIL] wormhole (4.2)/(2.1): records present and composable -- record (2.1): "
            "contraction produced a nonpositive entry in [4, 5, 2, 0, 5, 3, 2]"]
        assert lines[-2].startswith("[pass] main K^2=9: ")

    def test_verify_negative_infer_budget_is_a_usage_error(self, capture):
        code, out, err = capture("verify", "--infer-budget", "-5")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--infer-budget must be nonnegative" in err

    def test_search_streams_records(self, capture):
        code, out, _ = capture(
            "search", "--k2", "2", "--max-blowups", "7",
            "--pool", "C1,C2,B1,A2,A3,D1", "--max-states", "400000")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("(")]
        assert lines
        assert all("K^2=2" in l for l in lines)

    def test_search_json_counts_leaves(self, capture):
        code, out, _ = capture("search", "--k2", "2", "--max-blowups", "5",
                               "--pool", "A2,A3,B1,C1,C2,D1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["leaves"] <= payload["states"]

    def test_search_json_counts_marked_leaves(self, capture):
        code, out, _ = capture("search", "--k2", "2", "--max-blowups", "7",
                               "--pool", "A2,A3,B1,C1,C2,D1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["marked"] == 2
        assert len(payload["records"]) <= payload["marked"] < payload["leaves"]
        # 24 of the 50 choices of 4 base nodes leave a branch point or a
        # cycle; the path rule rejects them in 9 prefixes, one state each
        assert payload["pruned"] == 9

    @pytest.mark.parametrize("option", ["--max-blowups", "--max-chains",
                                        "--max-states", "--max-results"])
    def test_search_negative_limit_is_a_usage_error(self, capture, option):
        argv = {"--k2": "2", "--max-blowups": "6", option: "-1"}
        code, out, err = capture("search", *itertools.chain(*argv.items()))
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"{option} must be nonnegative" in err

    @pytest.mark.parametrize("pool", ["", " "], ids=["empty", "blank"])
    def test_search_empty_pool_is_a_usage_error(self, capture, pool):
        code, out, err = capture("search", "--k2", "2", "--max-blowups", "6",
                                 "--pool", pool)
        assert code == 2 and out == ""
        assert err.strip() == "error: --pool must name at least one curve"

    def test_reconstruct_without_constraints_is_not_unique(self, capture, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("", encoding="utf-8")
        expected = tmp_path / "expected.json"
        expected.write_text(json.dumps({
            "a0": {"r": 32, "t2": 72, "log_chern": [80, 32], "obstruction_cap": 20},
            "mains": {}, "tjoins": [], "wormholes": []}), encoding="utf-8")
        code, out, err = capture("reconstruct-a0", "--records", str(records),
                                 "--expected", str(expected))
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "solutions: 1 (unique: False)"
        assert sum(line.startswith("undetermined ") for line in lines) == 48

    def test_reconstruct_summary(self, capture, tmp_path):
        out_path = tmp_path / "a0.json"
        code, out, _ = capture("reconstruct-a0", "--out", str(out_path))
        assert code == 0
        assert "solutions: 1 (unique: True)" in out
        from wahlkit.catalog.a0 import frozen_a0, incidences_of, load_a0
        assert incidences_of(load_a0(out_path)) == incidences_of(frozen_a0())


def test_every_error_class_is_a_usage_error():
    """Every wahlkit error class is a ValueError, so the CLI turns it into an
    `error:` line with exit code 2 instead of a traceback."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(wahlkit.__path__, "wahlkit.")
               if info.name != "wahlkit.__main__"]
    classes = {obj for module in modules for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__.startswith("wahlkit") and not name.startswith("_")}
    assert {c.__name__ for c in classes} == {"AssemblyError", "CatalogError", "ChainError",
                                             "ConfigurationError", "PlanError",
                                             "RecordError"}
    for cls in classes:
        assert issubclass(cls, ValueError) and issubclass(cls, _ERRORS), cls

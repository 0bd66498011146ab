import json

import pytest

from wahlkit.cli import run


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

    def test_malformed_a0_is_a_usage_error(self, capture, tmp_path):
        bad = tmp_path / "a0.json"
        bad.write_text('{"curves":[{"name":"A"}],"nodes":[]}')
        code, _, err = capture("verify", "--a0", str(bad), "--no-infer")
        assert code == 2
        assert err.startswith("error:") and "self_int" in err

    @pytest.mark.parametrize("ambient, reason", [
        ('{"name":"K3"}', "lacks"),
        ('24', "must be an object"),
    ])
    def test_malformed_ambient_is_a_usage_error(self, capture, tmp_path,
                                                ambient, reason):
        bad = tmp_path / "a0.json"
        bad.write_text('{"curves":[],"nodes":[],"ambient":%s}' % ambient)
        code, _, err = capture("verify", "--a0", str(bad), "--no-infer")
        assert code == 2
        assert err.startswith("error:") and reason in err

    @pytest.mark.parametrize("option", ["--a0", "--records", "--expected"])
    def test_missing_input_file_is_a_usage_error(self, capture, tmp_path, option):
        missing = tmp_path / "missing.txt"
        code, _, err = capture("verify", option, str(missing), "--no-infer")
        assert code == 2
        assert err.startswith("error:") and "missing.txt" in err

    def test_search_streams_records(self, capture):
        code, out, _ = capture(
            "search", "--k2", "2", "--max-blowups", "7",
            "--pool", "C1,C2,B1,A2,A3,D1", "--max-states", "400000")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("(")]
        assert lines
        assert all("K^2=2" in l for l in lines)

    def test_reconstruct_summary(self, capture, tmp_path):
        out_path = tmp_path / "a0.json"
        code, out, _ = capture("reconstruct-a0", "--out", str(out_path))
        assert code == 0
        assert "solutions: 1 (unique: True)" in out
        from wahlkit.catalog.a0 import frozen_a0, incidences_of, load_a0
        assert incidences_of(load_a0(out_path)) == incidences_of(frozen_a0())

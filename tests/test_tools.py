import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('"""Module\n\ndocstring."""\n'
                      "# a comment\n"
                      "\n"
                      "def f(x):\n"
                      '    """One line."""\n'
                      "    y = (x +  # trailing comment\n"
                      "         1)\n"
                      '    return """not a\n'
                      '    docstring"""\n')
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), str(source)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["5", str(source)]


def test_code_lines_counts_every_python_file_under_a_directory(tmp_path):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "sub" / "a.py").write_text("# comment\nz = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"),
                          str(tmp_path / "pkg")], capture_output=True, text=True,
                         check=True)
    assert [line.split() for line in run.stdout.splitlines()] == [
        ["2", str(tmp_path / "pkg" / "b.py")],
        ["1", str(tmp_path / "pkg" / "sub" / "a.py")],
        ["3", "total"]]


def test_code_lines_names_a_missing_path(tmp_path):
    missing = tmp_path / "missing.py"
    run = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), str(missing)],
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"error: no such file or directory: {missing}\n"


def test_snapshot_prints_the_named_cases():
    # hinted (3.0) as the hinted golden of test_plans pins it; an unknown
    # case is named on stderr, with exit code 2
    run = subprocess.run([sys.executable, str(TOOLS / "snapshot.py"), "hinted (3.0)",
                          "hinted (0.0)"], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr == "no such case: hinted (0.0)\n"
    assert run.stdout == (
        "hinted (3.0): states=9 pruned=0 leaves=1 exhausted=False "
        "plan=[C1*C2, C1*C2, A3*C1, A3*E3, A3*E4, A2*C3, A2*B1, A2*E7] "
        "marked=(('C3', 'A3', 'B1', 'E7'), ('C2', 'D3', 'F1', 'A2', 'C1', 'E3', 'E4')) "
        "k2=3 singularities=['1/64(1,23)', '1/529(1,160)'] ample=ample "
        "canonical_ample=True obstruction=0 pi1=inconclusive\n")

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

"""``tools/linecov.py`` lists the package lines a test run leaves unexecuted."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "linecov.py"
SRC = REPO / "src"


def run_tool(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_lists_the_unknown_step_raise_and_not_the_return(tmp_path):
    (tmp_path / "test_one.py").write_text(
        "from micerank.masking import MaskStep\n\n\n"
        "def test_parse():\n"
        "    assert MaskStep.parse('3') is MaskStep.STEP3\n"
    )
    done = run_tool("--src", SRC, "-q", "-p", "no:cacheprovider", "test_one.py", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    source = (SRC / "micerank" / "masking.py").read_text().splitlines()
    parse = source.index("    def parse(cls, text: str) -> \"MaskStep\":")
    body = source[parse:parse + 8]
    raise_line = parse + 1 + next(i for i, t in enumerate(body) if "unknown masking step" in t)
    return_line = parse + 1 + next(i for i, t in enumerate(body) if t.strip() == "return step")
    listed = {line.split(": ", 1)[0] for line in done.stdout.splitlines()}
    assert f"micerank/masking.py:{raise_line}" in listed
    assert f"micerank/masking.py:{return_line}" not in listed
    assert any(line.startswith("micerank/masking.py ") and "lines not run" in line
               for line in done.stdout.splitlines())


def test_refuses_a_src_without_the_package(tmp_path):
    done = run_tool("--src", tmp_path, cwd=tmp_path)
    assert done.returncode == 2
    assert "holds no micerank/__init__.py" in done.stderr

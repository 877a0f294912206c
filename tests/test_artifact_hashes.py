"""``tools/artifact_hashes.py`` refuses a ``--src`` it would not import
micerank from, so a mistyped path cannot compare a tree with itself."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_without_the_package_is_refused(tmp_path):
    # PYTHONPATH names this checkout, as the tier-1 command does: the tool
    # must not fall back to importing it.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_hashes.py"), "--src", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert f"--src {tmp_path.resolve()} holds no micerank/__init__.py" in done.stderr
    assert not done.stdout

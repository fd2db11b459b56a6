"""The repository's pytest configuration reports every failure by name.

``filterwarnings = ["error"]`` turns any warning into a failure.  When a
``@given`` test fails, hypothesis's pytest plugin imports ``libcst``, whose
use of ``mypy_extensions.TypedDict`` warns; raised inside the plugin's
report hook, that warning would end the whole run with INTERNALERROR and no
test name, so ``pyproject.toml`` ignores that one warning.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_is_reported_by_name(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "test_property.py::test_fails" in run.stdout

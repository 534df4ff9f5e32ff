"""The suite's warning filters against a falsified property test.

Every warning is an error here, so a warning raised inside a plugin's
report hook can end a whole run in an INTERNALERROR.  A falsified
hypothesis test must instead fail on its own, show its example, and let
the rest of the run go on.
"""

import os
import subprocess
import sys
import textwrap

PROPERTY_TESTS = textwrap.dedent('''
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_always_fails(x):
        assert x != x


    def test_passes():
        pass
''')


def test_falsified_property_test_fails_without_internal_error(pytestconfig, tmp_path):
    """A pytest run, in its own process and directory, under this suite's
    filterwarnings, of a @given test that always fails next to one that
    passes: one failure with its falsifying example, one pass, and no
    INTERNALERROR."""
    filters = pytestconfig.getini("filterwarnings")
    assert "error" in filters
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\nfilterwarnings =\n" + "".join(f"    {line}\n" for line in filters))
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    # the outer run's pytest settings (addopts, plugin autoload) stay out
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST_")}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
    assert "Falsifying example" in output, output

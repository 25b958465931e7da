"""The test run itself: a failing test is reported as a failure, and
the run goes on, under the repository's warning filters."""

import pathlib
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_failing_plain_test():
    assert False
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(pytester):
    # one failing @given test and one failing plain test, run in a
    # subprocess under this repository's filterwarnings and conftest:
    # both are reported as failures, and nothing stops the run
    options = tomllib.loads((ROOT / "pyproject.toml").read_text())[
        "tool"]["pytest"]["ini_options"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(
        f"    {entry}\n" for entry in options["filterwarnings"]))
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makepyfile(test_failing=FAILING)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=2)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    assert result.ret == 1

import doctest
import os

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_library_example_runs():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0

import doctest

import pytest

from apsums import exact, fps, powersum, stirling


@pytest.mark.parametrize("module", [exact, fps, powersum, stirling], ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, extraglobs={}, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0

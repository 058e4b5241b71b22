import doctest

import pytest

from apsums import bernoulli, eulerian, exact, fps, powersum, sheffer, stirling, symfunc


@pytest.mark.parametrize(
    "module", [bernoulli, eulerian, exact, fps, powersum, sheffer, stirling, symfunc], ids=lambda m: m.__name__
)
def test_module_doctests(module):
    result = doctest.testmod(module, extraglobs={}, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0

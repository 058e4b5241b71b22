import pytest

import apsums
from apsums import (
    bernoulli,
    errors,
    eulerian,
    exact,
    fps,
    lah,
    poly,
    powersum,
    sheffer,
    stirling,
    symfunc,
    verification,
)


@pytest.mark.parametrize(
    "module",
    [apsums, bernoulli, errors, eulerian, exact, fps, lah, poly, powersum, sheffer, stirling, symfunc, verification],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []

import pytest

import apsums
from apsums import (
    bernoulli,
    cli,
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


MODULES = [apsums, bernoulli, errors, eulerian, exact, fps, lah, poly, powersum, sheffer, stirling, symfunc,
           verification]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_domain_error_is_the_only_exception_type():
    assert errors.__all__ == ["DomainError"]
    defined = [
        f"{module.__name__}.{name}"
        for module in [*MODULES, cli]
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    ]
    assert defined == ["apsums.errors.DomainError"]

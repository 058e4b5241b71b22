import ast
from pathlib import Path

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


def test_every_library_name_has_a_caller():
    """A public function that nothing in the package calls is deleted, not kept:
    every exported name of the library modules is used somewhere in ``src``.
    A use is a name, an attribute or a ``from`` import; a ``def`` or an
    ``__all__`` string is not."""
    used = set()
    for path in Path(exact.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    library = [exact, fps, poly, sheffer, symfunc, stirling, eulerian, bernoulli, lah, powersum, errors]
    unused = [f"{module.__name__}.{name}" for module in library for name in module.__all__ if name not in used]
    assert unused == []

"""Every entry of the identity registry behind ``apsums verify`` as a named
test, run at the depth where every size cap binds."""

import pytest

from apsums.verification import IDENTITIES, MAX_DEPTH


@pytest.mark.parametrize("label", [entry.label for entry in IDENTITIES])
def test_identity(identity, label):
    identity(label)


@pytest.mark.parametrize("entry", IDENTITIES, ids=lambda entry: entry.label)
def test_size_is_fixed_from_max_depth(entry):
    """``verify --depth MAX_DEPTH`` runs every entry at its full size."""
    assert {entry.size(depth) for depth in range(MAX_DEPTH, 4 * MAX_DEPTH)} == {entry.size(MAX_DEPTH)}

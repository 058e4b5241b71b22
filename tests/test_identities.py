"""Every entry of the identity registry behind ``apsums verify`` as a named
test, run at the depth where every size cap binds."""

import pytest

from apsums.verification import IDENTITIES


@pytest.mark.parametrize("label", [entry.label for entry in IDENTITIES])
def test_identity(identity, label):
    identity(label)

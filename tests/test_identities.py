"""Every entry of the identity registry behind ``apsums verify`` as a named
test, run at the depth where every size cap binds."""

import sys

import pytest

from apsums.errors import DomainError
from apsums.fps import DEFAULT_ORDER
from apsums.verification import IDENTITIES, MAX_DEPTH, CheckResult, Identity, _SizeRule, run_suite

LIBRARY = {
    f"apsums.{name}"
    for name in (
        "exact", "fps", "poly", "sheffer", "symfunc", "stirling", "eulerian", "bernoulli", "lah", "powersum"
    )
}
# constructors and ``Progression.term`` (a + j d) compute no value an entry compares
NOT_COUNTED = {"__init__", "_set", "term"}


@pytest.mark.parametrize("label", [entry.label for entry in IDENTITIES])
def test_identity(identity, label):
    identity(label)


@pytest.mark.parametrize("entry", IDENTITIES, ids=lambda entry: entry.label)
def test_size_is_fixed_from_max_depth(entry):
    """``verify --depth MAX_DEPTH`` runs every entry at its full size."""
    assert {entry.size(depth) for depth in range(MAX_DEPTH, 4 * MAX_DEPTH)} == {entry.size(MAX_DEPTH)}


def test_every_entry_calls_the_library():
    """An entry that reaches no library function compares nothing the package computes."""

    def library_calls(entry):
        called = set()

        def profile(frame, event, arg):
            name = frame.f_code.co_name
            if event == "call" and frame.f_globals.get("__name__") in LIBRARY and name not in NOT_COUNTED:
                called.add(name)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            entry.run(1)
        finally:
            sys.setprofile(previous)
        return called

    assert [entry.label for entry in IDENTITIES if not library_calls(entry)] == []


def test_unknown_suite_is_a_domain_error():
    with pytest.raises(DomainError, match="unknown suite 'nope'"):
        run_suite("nope", 1)


def test_entry_size_overrides_keep_the_suite_rule():
    """A per-entry ``cap``, ``low`` or ``lead`` replaces only that field of its suite's rule."""
    rules = {entry.label: entry.size for entry in IDENTITIES}
    assert rules["s2: four routes agree (recurrence, alternating sum, via ordinary, Sheffer)"] == _SizeRule(10)
    assert rules["bernoulli: polynomial routes (convolve numbers vs shifted powers) agree"] == (
        _SizeRule(10, lead=4)
    )
    assert rules["s1: group inverse: S2 and S1 triangles multiply to the identity"] == (
        _SizeRule(DEFAULT_ORDER, lead=4)
    )
    assert rules["lah: a- and z-sequences match their closed forms"] == _SizeRule(8, low=1)


class TestRecords:
    def test_check_result(self):
        result = CheckResult("s2", "rows", False, detail="row 3")
        assert repr(result) == (
            "CheckResult(suite='s2', name='rows', passed=False, detail='row 3', expected_fail=False)"
        )
        assert result == CheckResult(suite="s2", name="rows", passed=False, detail="row 3")
        assert result != CheckResult("s2", "rows", False, "row 3", expected_fail=True)
        assert not result.ok and CheckResult("s2", "rows", False, expected_fail=True).ok
        assert hash(result) == hash(CheckResult("s2", "rows", False, "row 3"))
        with pytest.raises(AttributeError):
            result.detail = "row 4"

    def test_size_rule(self):
        rule = _SizeRule(8, lead=1)
        assert repr(rule) == "_SizeRule(cap=8, low=2, lead=1)"
        assert rule == _SizeRule(cap=8, low=2, lead=1)
        assert hash(rule) == hash(_SizeRule(8, 2, 1))
        assert [rule(depth) for depth in (0, 1, 5, 7, 12)] == [2, 2, 6, 8, 8]
        with pytest.raises(AttributeError):
            rule.cap = 9

    def test_identity_entry(self):
        def check(size, rng):
            return None if size < 4 else f"size {size}"

        entry = Identity("s2", "rows", check, _SizeRule(6))
        assert repr(entry) == (
            f"Identity(suite='s2', name='rows', check={check!r}, size=_SizeRule(cap=6, low=2, lead=0), "
            "printed_three_term=False, expected_fail=False)"
        )
        assert entry == Identity(suite="s2", name="rows", check=check, size=_SizeRule(6))
        assert entry != Identity("s2", "rows", check, _SizeRule(6), expected_fail=True)
        assert hash(entry) == hash(Identity("s2", "rows", check, _SizeRule(6)))
        with pytest.raises(AttributeError):
            entry.name = "other"
        assert entry.label == "s2: rows"
        assert entry.run(1) == CheckResult("s2", "rows", True)
        assert entry.run(5) == CheckResult("s2", "rows", False, "size 5")
        xfail = Identity("s2", "rows", check, _SizeRule(6), expected_fail=True).run(5)
        assert xfail == CheckResult("s2", "rows", False, "", expected_fail=True)
        assert xfail.ok

"""Every entry of the identity registry behind ``apsums verify`` as a named
test, run at the depth where every size cap binds."""

import re
import sys
from pathlib import Path

import pytest

from apsums import bernoulli, verification
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


@pytest.fixture(scope="module")
def entry_calls():
    """The (module, function name) pairs each entry calls at depth 1, by label."""
    calls = {entry.label: set() for entry in IDENTITIES}

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    previous = sys.getprofile()
    try:
        for entry in IDENTITIES:
            called = calls[entry.label]
            sys.setprofile(profile)
            entry.run(1)
            sys.setprofile(previous)
    finally:
        sys.setprofile(previous)
    return calls


def test_every_entry_calls_the_library(entry_calls):
    """An entry that reaches no library function compares nothing the package computes."""

    def reaches_library(called):
        return any(module in LIBRARY and name not in NOT_COUNTED for module, name in called)

    assert [label for label, called in entry_calls.items() if not reaches_library(called)] == []


LAWS = [name for name in vars(verification) if name.endswith("_violation")]


def test_law_functions_are_found():
    """The ``_violation`` suffix still names the law functions the guard below covers."""
    assert len(LAWS) >= 19


@pytest.fixture(scope="module")
def sources():
    return "".join(path.read_text() for path in Path(__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("law", LAWS)
def test_every_law_has_a_test_and_an_entry(entry_calls, sources, law):
    """Each law function keeps both callers: a test calls it by name and some entry calls it."""
    assert re.search(rf"\b{law}\(", sources), f"no test calls {law}"
    reached = any((verification.__name__, law) in called for called in entry_calls.values())
    assert reached, f"no entry calls {law}"


@pytest.mark.parametrize(
    "owner, name, label",
    [
        (bernoulli, "_b_gen_table", "bernoulli: two-parameter numbers agree along both routes"),
        (bernoulli, "_b_d_table", "bernoulli: the (-a)-convolution contracts to the a-independent numbers"),
        (verification, "_geometric_weights", "s2: column o.g.f. partial fractions (geometric sums) agree"),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_integer_table_off_by_one_fails_its_entry(monkeypatch, owner, name, label):
    """The last numerator of an integer ``(nums, den)`` table, one unit off,
    fails the entry that reads the table, with a mismatch and not an exception."""
    table = getattr(owner, name)

    def broken(*args):
        nums, den = table(*args)
        return [*nums[:-1], nums[-1] + 1], den

    monkeypatch.setattr(owner, name, broken)
    entry = next(entry for entry in IDENTITIES if entry.label == label)
    result = entry.run(3)
    assert result.status == "FAIL"
    assert "Error" not in result.detail and result.detail.startswith(("Progression(", "d="))


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
        result = CheckResult("s2", "rows", "FAIL", detail="row 3")
        assert repr(result) == "CheckResult(suite='s2', name='rows', status='FAIL', detail='row 3')"
        assert result == CheckResult(suite="s2", name="rows", status="FAIL", detail="row 3")
        assert result != CheckResult("s2", "rows", "xfail")
        assert CheckResult("s2", "rows", "ok") == CheckResult("s2", "rows", "ok", "")
        assert hash(result) == hash(CheckResult("s2", "rows", "FAIL", "row 3"))
        with pytest.raises(AttributeError):
            result.status = "ok"

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
            if size == 6:
                raise ZeroDivisionError("division by zero")
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
        # Identity.run alone decides the status
        variant = Identity("s2", "rows", check, _SizeRule(6), expected_fail=True)
        assert entry.run(1) == CheckResult("s2", "rows", "ok")
        assert entry.run(5) == CheckResult("s2", "rows", "FAIL", "size 5")
        assert variant.run(5) == CheckResult("s2", "rows", "xfail")
        assert variant.run(1) == CheckResult(
            "s2", "rows", "FAIL", "variant unexpectedly agrees; the documented discrepancy is gone"
        )
        # a check that raises fails, expected-fail or not
        for raising in (entry, variant):
            assert raising.run(6) == CheckResult("s2", "rows", "FAIL", "ZeroDivisionError: division by zero")

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.exact import Progression
from apsums.stirling import s1phat_triangle, s2hat_triangle
from apsums.symfunc import Alphabet, complete_h, cuboid_volume_oracle, elementary_sigma
from apsums.verification import _symfunc_duality_violation


def alphabet(d, a, count):
    return Alphabet(Progression(d, a), count)


class TestAlphabet:
    def test_symbols(self):
        assert alphabet(2, 1, 4).symbols == (1, 3, 5, 7)
        assert alphabet(3, 2, 0).symbols == ()

    def test_negative_count_rejected(self):
        for count, shown in [(-1, "-1"), (2.5, "2.5"), ("3", "'3'"), (True, "True")]:
            with pytest.raises(DomainError) as info:
                alphabet(1, 0, count)
            assert str(info.value) == f"count must be a non-negative integer, got {shown}"

    def test_value_semantics(self):
        alpha = alphabet(2, 1, 4)
        assert repr(alpha) == "Alphabet(prog=Progression(d=2, a=1), count=4)"
        assert Alphabet(count=4, prog=Progression(2, 1)) == alpha
        assert alpha != alphabet(2, 1, 3)
        assert hash(alpha) == hash(alphabet(2, 1, 4))
        with pytest.raises(AttributeError):
            alpha.count = 5
        assert alpha.count == 4


class TestElementarySigma:
    def test_three_out_of_four_odd_numbers(self):
        assert elementary_sigma(alphabet(2, 1, 4), 3) == 176

    def test_degree_zero(self):
        assert elementary_sigma(alphabet(3, 2, 5), 0) == 1

    def test_first_four_integers(self):
        assert elementary_sigma(alphabet(1, 0, 4), 2) == 11

    def test_degree_out_of_range(self):
        with pytest.raises(DomainError):
            elementary_sigma(alphabet(1, 0, 3), 4)
        with pytest.raises(DomainError):
            elementary_sigma(alphabet(1, 0, 3), -1)


class TestCompleteH:
    def test_sum_of_three_odds(self):
        assert complete_h(alphabet(2, 1, 3), 1) == 9

    def test_two_symbols_squared(self):
        assert complete_h(alphabet(3, 2, 2), 2) == 39

    def test_degree_zero(self):
        assert complete_h(alphabet(2, 1, 6), 0) == 1

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            complete_h(alphabet(1, 0, 2), -1)


class TestCuboidOracle:
    def test_distinct_boxes(self):
        assert cuboid_volume_oracle(alphabet(2, 1, 4), 3, distinct=True) == 15 + 21 + 35 + 105

    def test_multiset_boxes(self):
        assert cuboid_volume_oracle(alphabet(3, 2, 2), 2) == 4 + 10 + 25

    def test_zero_dimension(self):
        assert cuboid_volume_oracle(alphabet(5, 3, 4), 0, distinct=True) == 1
        assert cuboid_volume_oracle(alphabet(5, 3, 4), 0) == 1

    def test_distinct_overflow(self):
        with pytest.raises(DomainError):
            cuboid_volume_oracle(alphabet(1, 0, 3), 4, distinct=True)

    def test_caps(self):
        with pytest.raises(DomainError):
            cuboid_volume_oracle(alphabet(1, 1, 9), 2)
        with pytest.raises(DomainError):
            cuboid_volume_oracle(alphabet(1, 1, 4), 9)

    def test_enumeration_matches_generating_products(self):
        # the whole grid up to the oracle's caps; every value is an int
        for d in range(1, 5):
            for a in range(0, 5):
                for count in range(0, 9):
                    alpha = alphabet(d, a, count)
                    for degree in range(0, 9):
                        pairs = [(complete_h(alpha, degree), cuboid_volume_oracle(alpha, degree))]
                        if degree <= count:
                            pairs.append((elementary_sigma(alpha, degree),
                                          cuboid_volume_oracle(alpha, degree, distinct=True)))
                        for value, oracle in pairs:
                            assert type(value) is int and type(oracle) is int
                            assert value == oracle, (d, a, count, degree)


class TestDuality:
    @given(stn.integers(1, 4), stn.integers(0, 4), stn.integers(1, 6), stn.integers(1, 7))
    def test_alternating_convolution_vanishes(self, d, a, count, r):
        assert _symfunc_duality_violation(alphabet(d, a, count), r) is None


class TestTriangleEntries:
    def test_symmetric_functions_beyond_the_oracle_caps(self):
        size = 30
        for d in range(1, 4):
            for a in range(0, d + 1):
                prog = Progression(d, a)
                s2h = s2hat_triangle(prog, size)
                s1ph = s1phat_triangle(prog, size)
                for n in range(size + 1):
                    for m in range(n + 1):
                        assert complete_h(Alphabet(prog, m + 1), n - m) == s2h.entry(n, m)
                        assert elementary_sigma(Alphabet(prog, n), n - m) == s1ph.entry(n, m)

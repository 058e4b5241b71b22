from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.eulerian import reu_triangle
from apsums.exact import Progression
from apsums.fps import Fps
from apsums.lah import lah_pair
from apsums.poly import Polynomial
from apsums.sheffer import ShefferPair, Triangle, identity_triangle
from apsums.stirling import (
    s1_triangle,
    s1p_triangle,
    s1phat_pair,
    s1phat_triangle,
    s2_pair,
    s2_triangle,
    s2hat_pair,
    s2hat_triangle,
)
from apsums.verification import _s2_row_polynomial_egf_violation, _s2_sequence_transform_violation

F = Fraction


class TestShefferTriangle:
    def test_small_generalized_triangle(self):
        tri = s2_pair(Progression(2, 1), 4).triangle(2)
        assert [[int(c) for c in row] for row in tri.rows] == [[1], [1, 2], [1, 8, 4]]

    def test_identity_pair_gives_identity(self):
        assert ShefferPair(Fps.one(5), Fps.x(5)).triangle(3) == identity_triangle(3)

    def test_first_kind_scaled_triangle(self):
        tri = s1phat_pair(Progression(2, 1), 5).triangle(3)
        assert [[int(c) for c in row] for row in tri.rows] == [
            [1],
            [1, 1],
            [3, 4, 1],
            [15, 23, 9, 1],
        ]

    def test_order_is_not_extended(self):
        with pytest.raises(DomainError, match="series order 3 too small for a size-4 triangle"):
            s2_pair(Progression(1, 0), 3).triangle(4)

    def test_pair_validation(self):
        with pytest.raises(DomainError, match="^g must have a nonzero constant term$"):
            ShefferPair(Fps([0, 1]), Fps([0, 1]))  # g(0) = 0
        with pytest.raises(DomainError, match="^f must have a simple zero at the origin$"):
            ShefferPair(Fps.one(3), Fps([1, 1]))  # f(0) != 0
        with pytest.raises(DomainError, match="^f must have a simple zero at the origin$"):
            ShefferPair(Fps.one(3), Fps([0, 0, 1]))  # f'(0) = 0

    def test_pair_value_semantics(self):
        g, f = Fps.one(2), Fps.x(2)
        pair = ShefferPair(g, f)
        assert repr(pair) == f"ShefferPair(g={g!r}, f={f!r})"
        assert ShefferPair(f=f, g=g) == pair
        assert pair != ShefferPair(g, Fps([0, 2], order=2))
        assert hash(pair) == hash(ShefferPair(Fps.one(2), Fps.x(2)))
        built = s2_pair(Progression(2, 1), 4)
        assert ShefferPair(built.g, built.f) == built
        with pytest.raises(AttributeError):
            pair.g = Fps.x(2)
        assert pair.g == g


class TestGroupOperations:
    def test_product_builds_the_transition_triangle(self):
        prog = Progression(2, 1)
        product = s1phat_pair(prog, 4).multiply(s2hat_pair(prog, 4))
        tri = product.triangle(2)
        assert [[int(c) for c in row] for row in tri.rows] == [[1], [2, 1], [8, 8, 1]]

    def test_identity_is_neutral(self):
        pair = s2_pair(Progression(3, 1), 6)
        same = pair.multiply(ShefferPair(Fps.one(6), Fps.x(6)))
        assert same.g == pair.g and same.f == pair.f

    def test_pair_times_inverse_is_identity(self, identity):
        identity("s1: pair algebra is a homomorphism onto triangle algebra")

    def test_inverse_closed_form(self):
        inv = s2_pair(Progression(2, 1), 8).inverse()
        assert inv.g == Fps([1, 1], order=8).pow(F(-1, 2))
        assert inv.f == Fps([1, 1], order=8).log() / 2

    def test_identity_pair_self_inverse(self):
        inv = ShefferPair(Fps.one(5), Fps.x(5)).inverse()
        assert inv.g == Fps.one(5) and inv.f == Fps.x(5)

    def test_inverse_involution(self):
        pair = s2_pair(Progression(3, 2), 7)
        back = pair.inverse().inverse()
        assert back.g == pair.g and back.f == pair.f

    def test_product_homomorphism(self):
        p1 = s2_pair(Progression(2, 1), 6)
        p2 = s1phat_pair(Progression(3, 1), 6)
        lhs = p1.multiply(p2).triangle(6)
        rhs = p1.triangle(6).multiply(p2.triangle(6))
        assert lhs == rhs

    def test_pair_inverse_matches_matrix_inverse(self):
        for pair in (s2_pair(Progression(2, 1), 10), s2hat_pair(Progression(3, 2), 10)):
            assert pair.inverse().triangle(10) == pair.triangle(10).inverse()

    def test_triangle_product_associativity(self):
        t1 = s2_pair(Progression(2, 1), 6).triangle(6)
        t2 = s1phat_pair(Progression(3, 1), 6).triangle(6)
        t3 = s2hat_pair(Progression(1, 1), 6).triangle(6)
        assert t1.multiply(t2).multiply(t3) == t1.multiply(t2.multiply(t3))


class TestTriangleAlgebra:
    def test_multiply_then_invert(self):
        tri = s2hat_triangle(Progression(2, 1), 4)
        assert tri.multiply(tri.inverse()) == identity_triangle(4)
        assert tri.inverse().multiply(tri) == identity_triangle(4)

    def test_inverse_of_non_unit_diagonal_is_exact(self):
        inv = Triangle([[3], [1, 3]]).inverse()
        assert inv.rows == ((F(1, 3),), (F(-1, 9), F(1, 3)))
        assert all(type(c) is Fraction for row in inv.rows for c in row)

    def test_inverse_is_signed_first_kind(self):
        prog = Progression(2, 1)
        assert s2hat_triangle(prog, 4).inverse() == s1phat_triangle(prog, 4).signed()

    def test_identity_is_neutral(self):
        tri = s2hat_triangle(Progression(3, 2), 5)
        assert identity_triangle(5).multiply(tri) == tri
        assert tri.multiply(identity_triangle(5)) == tri

    @pytest.mark.parametrize("size", [0, 1, 7])
    @pytest.mark.parametrize(
        "left, right, entry_type",
        [
            (s2hat_triangle, lambda prog, size: s1phat_triangle(prog, size).signed(), int),
            (s2hat_triangle, s1_triangle, Fraction),
            (s1_triangle, s2hat_triangle, Fraction),
            (s1_triangle, lambda prog, size: s1p_triangle(Progression(2, 1), size), Fraction),
        ],
        ids=["int-int", "int-fraction", "fraction-int", "fraction-fraction"],
    )
    def test_multiply_matches_a_fraction_triple_loop(self, left, right, entry_type, size):
        prog = Progression(3, 2)
        a, b = left(prog, size), right(prog, size)
        expected = [
            [sum((F(a.entry(n, k)) * F(b.entry(k, m)) for k in range(m, n + 1)), F(0)) for m in range(n + 1)]
            for n in range(size + 1)
        ]
        product = a.multiply(b)
        assert [list(row) for row in product.rows] == expected
        assert all(type(c) is entry_type for row in product.rows for c in row)

    @pytest.mark.parametrize("size", [0, 1, 7])
    @pytest.mark.parametrize(
        "build",
        [
            s2_triangle,
            s2hat_triangle,
            s1_triangle,
            lambda prog, size: s1p_triangle(Progression(2, 1), size),
            lambda prog, size: s2_triangle(Progression(2**64 - 1, 2**64 - 1), size),
        ],
        ids=["s2-int", "s2hat-int", "s1-fraction", "s1p-fraction", "s2-int-at-the-edge"],
    )
    def test_inverse_matches_a_fraction_forward_substitution(self, build, size):
        tri = build(Progression(3, 2), size)
        expected: list[list[Fraction]] = []
        for n in range(size + 1):
            row = [F(0)] * (n + 1)
            row[n] = 1 / F(tri.entry(n, n))
            for m in range(n - 1, -1, -1):
                acc = sum((tri.entry(n, k) * expected[k][m] for k in range(m, n)), F(0))
                row[m] = -acc / tri.entry(n, n)
            expected.append(row)
        inverse = tri.inverse()
        assert [list(row) for row in inverse.rows] == expected
        assert all(type(c) is Fraction for row in inverse.rows for c in row)

    def test_size_mismatch_rejected(self):
        with pytest.raises(DomainError, match="size mismatch: 3 vs 4"):
            identity_triangle(3).multiply(identity_triangle(4))

    def test_singular_diagonal_rejected(self):
        tri = Triangle([[1], [0, 0]])
        with pytest.raises(DomainError, match="zero diagonal entry at row 1"):
            tri.inverse()

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError, match="row 1 must have 2 entries, got 3"):
            Triangle([[1], [1, 2, 3]])

    def test_entry_above_diagonal(self):
        tri = identity_triangle(3)
        assert tri.entry(1, 3) == 0
        with pytest.raises(DomainError):
            tri.entry(9, 0)

    def test_text_form(self):
        tri = s2hat_triangle(Progression(2, 1), 2)
        assert tri.text() == "1\n1 1\n1 4 1"


class TestRowPolynomials:
    def test_first_kind_row(self):
        tri = s1phat_triangle(Progression(2, 1), 3)
        assert tri.row_polynomial(2) == Polynomial([3, 4, 1])

    def test_row_zero_is_constant(self):
        tri = s1phat_triangle(Progression(3, 1), 2)
        assert tri.row_polynomial(0) == Polynomial([1])

    def test_classical_eulerian_row(self):
        tri = reu_triangle(Progression(1, 0), 3)
        assert tri.row_polynomial(3) == Polynomial([0, 1, 4, 1])


class TestSequences:
    def test_lah_a_sequence_terminates(self):
        a_seq, z_seq = lah_pair(Progression(2, 1), 9).a_z_sequences(8)
        assert a_seq == Fps([1, 2], order=8)
        assert z_seq == Fps.constant(2, 8)

    def test_plain_lah_z_vanishes(self):
        _, z_seq = lah_pair(Progression(1, 0), 9).a_z_sequences(8)
        assert z_seq == Fps.zero(8)

    def test_needs_enough_order(self):
        with pytest.raises(DomainError, match="series order 4 too small for a/z sequences at order 4"):
            lah_pair(Progression(1, 0), 4).a_z_sequences(4)

    def test_needs_unit_constant_g(self):
        pair = ShefferPair(Fps.constant(2, 6), Fps.x(6))
        with pytest.raises(DomainError):
            pair.a_z_sequences(4)


class TestFamilyPairsMatchRecurrences:
    def test_every_family_pair_reproduces_its_triangle(self):
        from apsums.lah import lah_four_term, lah_inverse_four_term, lah_inverse_pair, lah_pair
        from apsums.stirling import s1phat_triangle as s1phat_rec
        from apsums.stirling import s2_triangle, s2hat_triangle

        size = 12
        for d in (1, 2, 3):
            for a in range(d + 1):
                prog = Progression(d, a)
                assert s2_pair(prog, size).triangle(size) == s2_triangle(prog, size)
                assert s2hat_pair(prog, size).triangle(size) == s2hat_triangle(prog, size)
                assert s1phat_pair(prog, size).triangle(size) == s1phat_rec(prog, size)
                assert lah_pair(prog, size).triangle(size) == lah_four_term(prog, size)
                assert lah_inverse_pair(prog, size).triangle(size) == lah_inverse_four_term(
                    prog, size
                )


class TestTransformProperties:
    @given(stn.lists(stn.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=9, max_size=9))
    def test_sequence_transform_has_product_egf(self, values):
        prog = Progression(2, 1)
        assert _s2_sequence_transform_violation(prog, s2_pair(prog, 8), values) is None

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9))
    def test_row_polynomial_egf(self, x):
        prog = Progression(3, 2)
        pair = s2_pair(prog, 8)
        assert _s2_row_polynomial_egf_violation(prog, pair, pair.triangle(8), x) is None

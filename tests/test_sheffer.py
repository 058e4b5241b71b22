import json
import math
from argparse import Namespace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as stn

from apsums.cli import _triangle_lines
from apsums.errors import DomainError
from apsums.eulerian import reu_triangle
from apsums.exact import Progression, rational_str
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


EDGE = 2**64 - 1
# small values, zeros and values next to +-(2^64 - 1), as int or over small and edge denominators
_INTS = stn.one_of(stn.integers(-3, 3), stn.integers(EDGE - 2, EDGE + 2), stn.integers(-EDGE - 2, -EDGE + 2))
_FRACTIONS = stn.builds(Fraction, _INTS, stn.sampled_from([1, 2, 6, EDGE - 1, EDGE]))


@stn.composite
def _mixed_rows(draw, size=None):
    """Rows 0..size as given to Triangle: all int, or each row all int, all
    Fraction with denominator 1, or int and Fraction mixed."""
    size = draw(stn.integers(0, 5)) if size is None else size
    all_int = draw(stn.booleans())
    rows = []
    for n in range(size + 1):
        kind = "int" if all_int else draw(stn.sampled_from(["int", "den-1", "mixed"]))
        row = draw(stn.lists(_INTS if kind != "mixed" else stn.one_of(_INTS, _FRACTIONS),
                             min_size=n + 1, max_size=n + 1))
        rows.append([Fraction(c) for c in row] if kind == "den-1" else row)
    return rows


def _is_int_rows(rows):
    return all(type(c) is int for row in rows for c in row)


def _fraction_product(left, right):
    return [
        [sum((F(left[n][k]) * F(right[k][m]) for k in range(m, n + 1)), F(0)) for m in range(n + 1)]
        for n in range(len(left))
    ]


class TestTrianglePairs:
    """Triangles hold integer numerator rows over one denominator per row; every
    read, comparison, sign flip, product and text agrees with plain Fraction lists."""

    @given(_mixed_rows())
    def test_rows_and_entries_keep_their_values(self, given_rows):
        tri = Triangle(given_rows)
        want_type = int if _is_int_rows(given_rows) else Fraction
        assert [list(row) for row in tri.rows] == [[F(c) for c in row] for row in given_rows]
        assert all(type(c) is want_type for row in tri.rows for c in row)
        for n, row in enumerate(given_rows):
            assert tri.row(n) == tri.rows[n]
            for m, c in enumerate(row):
                assert tri.entry(n, m) == c and type(tri.entry(n, m)) is want_type
            assert tri.entry(n, n + 1) == 0

    @given(_mixed_rows())
    @example([[1], [F(1, 2), F(-1, 3)], [F(EDGE, 2), 0, F(4, EDGE - 1)]])
    def test_equal_values_hold_equal_pairs(self, given_rows):
        tri = Triangle(given_rows)
        as_fractions = Triangle([[F(c) for c in row] for row in given_rows])
        as_ints = [[int(c) if F(c).denominator == 1 else c for c in row] for row in given_rows]
        assert tri == as_fractions and as_fractions == tri
        assert tri == Triangle(as_ints) and Triangle(as_ints) == as_fractions
        assert (tri._nums, tri._dens) == (Triangle(given_rows)._nums, Triangle(given_rows)._dens)
        assert tri._nums == as_fractions._nums
        if not _is_int_rows(given_rows):
            assert tri._dens == as_fractions._dens
        for n, (row, den) in enumerate(zip(as_fractions._nums, as_fractions._dens)):
            assert den >= 1 and math.gcd(den, *row) == 1, n

    @given(_mixed_rows(), stn.data())
    def test_a_changed_entry_is_unequal(self, given_rows, data):
        n = data.draw(stn.integers(0, len(given_rows) - 1))
        m = data.draw(stn.integers(0, n))
        for step in (1, F(1, 2)):
            changed = [list(row) for row in given_rows]
            changed[n][m] += step
            assert Triangle(changed) != Triangle(given_rows)
            assert Triangle(given_rows) != Triangle(changed)

    @pytest.mark.parametrize("entry", [1.5, True, "1"])
    def test_only_int_and_fraction_entries_are_accepted(self, entry):
        with pytest.raises(DomainError, match="exact scalar must be an int or a Fraction"):
            Triangle([[1], [F(1, 2), entry]])

    def test_an_integer_triangle_equals_its_fractions_only_over_unit_rows(self):
        ints = Triangle([[1], [2, 3]])
        assert ints == Triangle([[F(1)], [F(2), F(3)]])
        assert ints != Triangle([[1], [F(2, 5), F(3, 5)]])  # equal numerators, row 1 over 5
        assert Triangle([[1], [F(2, 5), F(3, 5)]]) != ints

    @given(_mixed_rows())
    def test_signs_match_fraction_lists(self, given_rows):
        tri = Triangle(given_rows)
        want_type = int if _is_int_rows(given_rows) else Fraction
        signed = [[F(c) * (-1) ** (n - m) for m, c in enumerate(row)] for n, row in enumerate(given_rows)]
        unsigned = [[abs(F(c)) for c in row] for row in given_rows]
        for got, want in ((tri.signed(), signed), (tri.unsigned(), unsigned)):
            assert [list(row) for row in got.rows] == want
            assert all(type(c) is want_type for row in got.rows for c in row)
            assert got == Triangle(want)

    @given(stn.integers(0, 4).flatmap(lambda size: stn.tuples(_mixed_rows(size), _mixed_rows(size))))
    @example(([[F(1, 2)], [1, F(1, 2)]], [[2], [0, 2]]))  # each row of the product reduces to den 1
    def test_multiply_matches_fraction_lists(self, operands):
        left, right = operands
        product = Triangle(left).multiply(Triangle(right))
        want_type = int if _is_int_rows(left) and _is_int_rows(right) else Fraction
        assert [list(row) for row in product.rows] == _fraction_product(left, right)
        assert all(type(c) is want_type for row in product.rows for c in row)
        assert product == Triangle(_fraction_product(left, right))

    @given(_mixed_rows())
    def test_inverse_matches_fraction_lists(self, given_rows):
        rows = [[c if m < n or c != 0 else 1 for m, c in enumerate(row)] for n, row in enumerate(given_rows)]
        inverse = Triangle(rows).inverse()
        assert all(type(c) is Fraction for row in inverse.rows for c in row)
        assert inverse.multiply(Triangle(rows)) == identity_triangle(len(rows) - 1)
        assert Triangle(rows).multiply(inverse) == identity_triangle(len(rows) - 1)

    @given(_mixed_rows(), stn.sampled_from([" ", ",", ""]))
    @example([[1], [F(1, 2), F(-1, 3)], [F(EDGE, 2), 0, F(4, EDGE - 1)]], " ")  # rows over 6 and 2(2^64-2)
    def test_text_json_and_bfile_print_each_entry_as_its_fraction(self, given_rows, sep):
        tri = Triangle(given_rows)
        texts = [[str(F(c)) for c in row] for row in given_rows]
        assert tri.text(sep) == "\n".join(sep.join(row) for row in texts)
        args = Namespace(family="s1", d=2, a=1, format="json", rational=False)
        assert json.loads(_triangle_lines(tri, args))["rows"] == texts
        flat = [text for row in texts for text in row]
        args.format, args.rational = "bfile", True
        assert _triangle_lines(tri, args) == "".join(f"{i} {text}\n" for i, text in enumerate(flat))
        args.rational = False
        if any("/" in text for text in flat):
            with pytest.raises(DomainError, match="pass --rational"):
                _triangle_lines(tri, args)
        else:
            assert _triangle_lines(tri, args) == "".join(f"{i} {text}\n" for i, text in enumerate(flat))


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

    @pytest.mark.parametrize("build", [s1_triangle, s1p_triangle])
    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(2, 1), Progression(7, 5), Progression(EDGE, 3)])
    def test_first_kind_row_polynomial_is_the_row(self, build, prog):
        tri = build(prog, 8)
        for n in range(9):
            assert tri.row_polynomial(n) == Polynomial(tri.row(n))


def _terms(values, var):
    """c0 + c1*var + c2*var^2 + ..., each coefficient printed by rational_str."""
    texts = [rational_str(c) for c in values]
    return " + ".join(text if k == 0 else f"{text}*{var}" + (f"^{k}" if k > 1 else "") for k, text in enumerate(texts))


class TestOneStoredForm:
    """Fps, Polynomial and Triangle store only their integer pair, and print
    from it the text that rational_str gives each value."""

    def test_slots_name_only_the_pair(self):
        assert Fps.__slots__ == ("_nums", "_den")
        assert Polynomial.__slots__ == ("_nums", "_den")
        assert Triangle.__slots__ == ("_nums", "_dens")

    @given(stn.lists(stn.one_of(_INTS, _FRACTIONS), min_size=1, max_size=8))
    @example([0, Fraction(-3, 6), -2, Fraction(0, 5), 0])
    def test_series_and_polynomials_print_each_coefficient(self, coeffs):
        assert str(Fps(coeffs)) == _terms(coeffs, "t") + f" ; order={len(coeffs) - 1}"
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        assert str(Polynomial(coeffs)) == (_terms(coeffs, "x") if coeffs else "0")


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

"""Exact sparse elimination: int input never leaks a float."""

from fractions import Fraction

from cliffcent._linalg import nullspace, solve


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestExactness:
    def test_nullspace_of_int_row(self):
        # -1.5 == Fraction(-3, 2), so only the type shows a float leak
        basis = nullspace([{0: 2, 1: 3}], 2)
        assert basis == [{1: Fraction(1), 0: Fraction(-3, 2)}]
        assert all_fractions(basis[0].values())

    def test_solve_with_int_columns(self):
        # [[2, 1], [0, 3]] x = [1, 2]
        x = solve([{0: 2}, {0: 1, 1: 3}], {0: 1, 1: 2})
        assert x == [Fraction(1, 6), Fraction(2, 3)]
        assert all_fractions(x)

    def test_solve_underdetermined_sets_free_variables_to_zero(self):
        # x0 + x1 = 2: x1 is free
        x = solve([{0: 1}, {0: 1}], {0: 2})
        assert x == [Fraction(2), Fraction(0)]
        assert all_fractions(x)

    def test_solve_inconsistent_gives_none(self):
        # x0 = 1 and x0 = 2
        assert solve([{0: 1, 1: 1}], {0: 1, 1: 2}) is None

    def test_solve_zero_rhs(self):
        x = solve([{0: 2}, {0: 1, 1: 3}], {})
        assert x == [Fraction(0), Fraction(0)]
        assert all_fractions(x)

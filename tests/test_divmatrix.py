import itertools
import random
from fractions import Fraction

import pytest

from opzeta.divmatrix import build_matrix, consistency_check
from oracles import divisor_count, matrix_apply, scalar_quadrature


def _brute_force_entries(M: int) -> dict[tuple[int, int], Fraction]:
    return {(m, n): Fraction(n, m) for m in range(1, M + 1) for n in range(1, M + 1) if m % n == 0}


def _triplets(A) -> dict[tuple[int, int], Fraction]:
    """The entries that the triplet export prints, 'm n num den' per line, in its order."""
    rows = (line.split() for line in "".join(A.triplet_rows()).splitlines())
    return {(int(m), int(n)): Fraction(int(num), int(den)) for m, n, num, den in rows}


def _column(A, n: int) -> list[Fraction]:
    """Column n as the column text prints it, 'm num/den' for m = 1..size."""
    lines = "".join(A.column_blocks(n)).splitlines()
    assert [int(line.split()[0]) for line in lines] == list(range(1, A.size + 1))
    return [Fraction(line.split()[1]) for line in lines]


class TestBuildMatrix:
    def test_size_one(self):
        A = build_matrix(1)
        assert _triplets(A) == {(1, 1): Fraction(1)}
        assert _column(A, 1) == [Fraction(1)]

    def test_entries_at_six(self):
        A = build_matrix(6)
        assert _triplets(A)[(6, 3)] == _column(A, 3)[5] == Fraction(1, 2)
        assert (6, 4) not in _triplets(A)
        assert _column(A, 4)[5] == 0

    def test_nnz_is_divisor_sum(self):
        A = build_matrix(6)
        assert A.nnz == sum(divisor_count(m) for m in range(1, 7)) == 14

    def test_pattern_against_brute_force(self):
        A = build_matrix(64)
        brute = _brute_force_entries(64)
        for n in range(1, 65):
            assert _column(A, n) == [brute.get((m, n), Fraction(0)) for m in range(1, 65)], n

    def test_lower_triangular_unit_diagonal(self):
        A = build_matrix(64)
        entries = _triplets(A)
        assert all(n <= m for m, n in entries)
        for m in range(1, 65):
            assert entries[(m, m)] == _column(A, m)[m - 1] == 1

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_matrix(0)


class TestImplicitEntries:
    """The triplet export against the brute-force entries: the same pairs, in
    sorted order, with the same values."""

    @pytest.mark.parametrize("M", range(1, 65))
    def test_equals_brute_force_dict(self, M):
        assert _triplets(build_matrix(M)) == _brute_force_entries(M)

    @pytest.mark.parametrize("M", [1, 2, 6, 64, 1000])
    def test_length_is_count_of_multiples(self, M):
        A = build_matrix(M)
        assert len(_triplets(A)) == A.nnz == sum(M // n for n in range(1, M + 1))
        assert "".join(A.triplet_rows()).count("\n") == A.nnz

    def test_iteration_is_sorted(self):
        keys = list(_triplets(build_matrix(200)))
        assert keys == sorted(keys)

    @pytest.mark.parametrize("key", [
        (0, 0), (0, 1), (1, 0), (13, 13), (26, 13), (12, 13), (6, 4), (7, 2), (-6, -3), (6, -3),
    ])
    def test_keys_off_the_pattern_are_absent(self, key):
        A = build_matrix(12)
        assert key not in _triplets(A)
        m, n = key
        if not 1 <= n <= 12:
            with pytest.raises(ValueError):  # no such column
                _column(A, n)
        elif 1 <= m <= 12:
            assert _column(A, n)[m - 1] == 0

    def test_read_only(self):
        A = build_matrix(6)
        with pytest.raises(AttributeError):
            A.size = 7
        with pytest.raises(TypeError):
            A[0] = 7
        assert A == (6,) and _triplets(A) == _brute_force_entries(6)


class TestMatrixApply:
    def test_first_basis_vector(self):
        A = build_matrix(4)
        v = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        assert matrix_apply(A, v) == [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]

    def test_zero_vector(self):
        A = build_matrix(4)
        assert matrix_apply(A, [Fraction(0)] * 4) == [Fraction(0)] * 4

    def test_second_basis_vector(self):
        A = build_matrix(6)
        v = [Fraction(0), Fraction(1)] + [Fraction(0)] * 4
        assert matrix_apply(A, v) == [
            Fraction(0),
            Fraction(1),
            Fraction(0),
            Fraction(1, 2),
            Fraction(0),
            Fraction(1, 3),
        ]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="vector length 3 != matrix size 4"):
            matrix_apply(build_matrix(4), [Fraction(1)] * 3)

    def test_dense_vector_against_brute_force(self):
        M = 48
        rng = random.Random(4807)
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(M)]
        brute = _brute_force_entries(M)
        want = [
            sum((brute.get((m, n), Fraction(0)) * v[n - 1] for n in range(1, M + 1)), Fraction(0))
            for m in range(1, M + 1)
        ]
        assert matrix_apply(build_matrix(M), v) == want

    def test_squared_diagonal_column_is_divisor_function(self):
        # (A^2)_{m,1} = sum_{d | m} (1/d)(d/m) = d(m)/m
        M = 64
        A = build_matrix(M)
        e1 = [Fraction(1)] + [Fraction(0)] * (M - 1)
        col = matrix_apply(A, matrix_apply(A, e1))
        for m in range(1, M + 1):
            assert col[m - 1] == Fraction(divisor_count(m), m), m


class TestColumnStructure:
    def test_column_is_reciprocal_ladder(self):
        A = build_matrix(60)
        for n in (1, 2, 5, 7):
            column = _column(A, n)
            for k in range(1, 60 // n + 1):
                assert column[k * n - 1] == Fraction(1, k)


class TestTripletExport:
    def test_sorted_lines(self):
        lines = "".join(build_matrix(6).triplet_rows()).splitlines()
        assert len(lines) == 14
        assert lines[0] == "1 1 1 1"
        assert "6 3 1 2" in lines
        keys = [tuple(map(int, ln.split()[:2])) for ln in lines]
        assert keys == sorted(keys)

    def test_sieve_blocks_agree(self):
        # rows are filled 2^14 at a time, each by the hyperbola split (columns
        # n <= sqrt m, then the cofactor columns): across two block boundaries
        # rows run 1..size in order, each row's n rises from 1 to m with
        # n k = m, and the rows hold all sum_n size//n pairs, so none is missing
        size = 2 * 2**14 + 5
        lines = [tuple(map(int, line.split())) for line in "".join(build_matrix(size).triplet_rows()).splitlines()]
        assert len(lines) == sum(size // n for n in range(1, size + 1))
        assert all(one == 1 and n * k == m for m, n, one, k in lines)
        rows = [(m, [n for _, n, _, _ in group]) for m, group in itertools.groupby(lines, key=lambda line: line[0])]
        assert [m for m, _ in rows] == list(range(1, size + 1))
        for m, row in rows:
            assert row[0] == 1 and row[-1] == m and all(a < b for a, b in zip(row, row[1:]))

    @pytest.mark.parametrize("M", [
        1, 2, 12, 97, 2**14 - 1, 2**14, 2**14 + 1, 2**14 + 200,
        9, 10, 11, 99, 100, 101, 999, 1000, 1001,
    ])
    def test_chunks_of_whole_rows_match_entries(self, M):
        # 2^7 rows m per string, each string ending on a row boundary; the
        # larger sizes cross string boundaries and the 2^14-row block, whose
        # last row 2^14 = 128^2 has the divisor 128 as its own cofactor; the
        # sizes at each change of digit width end the names table, made a
        # decade at a time, mid-decade and on either side of a new width
        A = build_matrix(M)
        chunks = list(A.triplet_rows())
        assert len(chunks) == -(-M // 128)
        for i, chunk in enumerate(chunks):
            assert chunk.endswith("\n")
            rows = {int(line.split()[0]) for line in chunk.splitlines()}
            assert sorted(rows) == list(range(128 * i + 1, min(128 * i + 128, M) + 1))
        want = [f"{m} {n} 1 {m // n}" for m, n in sorted((k * n, n) for n in range(1, M + 1) for k in range(1, M // n + 1))]
        assert "".join(chunks).splitlines() == want


class TestColumnText:
    @pytest.mark.parametrize("M", range(1, 65))
    def test_equals_formatted_matrix_apply(self, M):
        A = build_matrix(M)
        for n in range(1, M + 1):
            e_n = [Fraction(int(i == n)) for i in range(1, M + 1)]
            want = "".join(f"{m} {q.numerator}/{q.denominator}\n" for m, q in enumerate(matrix_apply(A, e_n), start=1))
            assert "".join(A.column_blocks(n)) == want

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_index_out_of_range(self, n):
        with pytest.raises(ValueError):
            "".join(build_matrix(4).column_blocks(n))


class TestColumnBlocks:
    BLOCK = 1 << 14

    # sizes on both sides of each change of digit width and of the 2^14-row
    # block edges, where a block starts mid-decade (16385, 32769, 98305), up
    # to the size bound
    @pytest.mark.parametrize("M", [
        BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
        9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, BLOCK + 6, 99999, 100000,
    ])
    def test_joined_blocks_equal_the_column_across_block_boundaries(self, M):
        # the zero lines are made ten at a time and cut at the multiples of n,
        # whose offsets step by n (w + 5) among numbers of width w
        A = build_matrix(M)
        columns = {1, 2, 3, 7, 10, 11, 99, 100, 101, 5461, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, M}
        for n in sorted(columns & set(range(1, M + 1))):
            want = "".join(f"{m} 1/{m // n}\n" if m % n == 0 else f"{m} 0/1\n" for m in range(1, M + 1))
            blocks = list(A.column_blocks(n))
            assert [b.count("\n") for b in blocks[:-1]] == [self.BLOCK] * (len(blocks) - 1)
            assert 0 < blocks[-1].count("\n") <= self.BLOCK
            assert "".join(blocks) == want, n

    @pytest.mark.parametrize("n", [0, 5, -1])
    def test_index_out_of_range(self, n):
        with pytest.raises(ValueError):
            next(build_matrix(4).column_blocks(n))


class TestConsistencyCheck:
    # two algorithms, rounding apart: the largest gap seen was 6.7e-15 at the
    # parameters below and 1.1e-13 at n = 999, M = 1000
    QUADRATURE_TOL = 1e-12

    def test_frequency_one_column(self):
        rep = consistency_check(1, 32)
        assert rep.max_abs_deviation < 1e-8
        assert rep.expected[0] == Fraction(1)
        assert rep.expected[1] == Fraction(1, 2)

    def test_frequency_two_column(self):
        rep = consistency_check(2, 32)
        assert rep.max_abs_deviation < 1e-8
        # nonzero rows exactly at even m
        for m in range(1, 33):
            want = rep.expected[m - 1]
            got = rep.coefficients[m - 1]
            if m % 2 == 0:
                assert want == Fraction(2, m)
                assert abs(got) > 1e-3
            else:
                assert want == 0
                assert abs(got) < 1e-8

    def test_trivial_size_one(self):
        rep = consistency_check(1, 1)
        assert rep.coefficients[0] == pytest.approx(1.0, abs=1e-10)

    def test_frequency_three_jump_handling(self):
        # n=3 has an interior jump at 2*pi/3 < pi; the panel split must keep accuracy
        rep = consistency_check(3, 24)
        assert rep.max_abs_deviation < 1e-8

    @pytest.mark.parametrize("n,M", [
        (1, 16), (3, 16), (2, 40), (5, 40), (20, 40), (40, 40), (7, 96), (96, 96), (1, 5), (4, 7), (13, 61),
    ])
    def test_bit_identical_to_scalar_quadrature(self, n, M):
        # the closed form from the jumps against the independent quadrature
        # loop, within QUADRATURE_TOL; expected and deviations are exact
        rep = consistency_check(n, M)
        for m, got in enumerate(rep.coefficients, start=1):
            assert abs(got - scalar_quadrature(n, m)) <= self.QUADRATURE_TOL, m
        assert rep.deviations == tuple(abs(c - float(e)) for c, e in zip(rep.coefficients, rep.expected))
        assert rep.expected == tuple(Fraction(n, m) if m % n == 0 else Fraction(0) for m in range(1, M + 1))

    @pytest.mark.parametrize("n", [1, 2, 999, 1000])
    def test_bit_identical_at_the_size_bound(self, n):
        # at n = 999 the cosine sum over J = 499 jumps cancels to about 0, the
        # largest rounding of the closed form: rows at both ends and the middle;
        # expected and deviations equal their per-row definitions
        rep = consistency_check(n, 1000)
        for m in (1, 5, 6, 500, 999, 1000):
            assert abs(rep.coefficients[m - 1] - scalar_quadrature(n, m)) <= self.QUADRATURE_TOL, m
        assert rep.expected == tuple(Fraction(n, m) if m % n == 0 else Fraction(0) for m in range(1, 1001))
        assert rep.deviations == tuple(abs(c - float(e)) for c, e in zip(rep.coefficients, rep.expected))
        assert rep.max_abs_deviation == max(rep.deviations)

    @pytest.mark.parametrize("n", [1, 2, 3, 96])
    def test_a_wrong_closed_form_fails(self, n, monkeypatch):
        # the ends, slope and jump height are read from the closed form alone,
        # so a wrong slope there must show as a deviation
        from opzeta import exactnum

        wrong = exactnum.PiXPolynomial([exactnum.clausen_closed_form("sin", 1).coeffs[0], Fraction(-1, 3)])
        monkeypatch.setattr(exactnum, "clausen_closed_form", lambda parity, m: wrong)
        assert consistency_check(n, 96).max_abs_deviation > 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            consistency_check(5, 4)
        with pytest.raises(ValueError):
            consistency_check(0, 4)

import math
import random
from fractions import Fraction

import pytest

from hessaut import exact, leech
from hessaut.golay import steiner_system


def _unimodular(u) -> bool:
    return len(u) > 0 and abs(exact.det(u)) == 1


def test_hnf_identity():
    h, u = exact.hermite_normal_form([[1, 0], [0, 1]])
    assert h == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]]


def test_hnf_zero_matrix():
    h, u = exact.hermite_normal_form([[0, 0], [0, 0]])
    assert h == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]]


def test_hnf_small_example():
    # Hand row reduction of [[2,4],[1,3]]: swap, clear, then reduce the
    # entry above the second pivot mod 2.
    h, u = exact.hermite_normal_form([[2, 4], [1, 3]])
    assert h == [[1, 1], [0, 2]]
    assert exact.mat_mul(u, [[2, 4], [1, 3]]) == h
    assert _unimodular(u)


def test_snf_bezout_pair():
    d, u, v = exact.smith_normal_form([[2, 0], [0, 3]])
    assert d == [[1, 0], [0, 6]]
    assert exact.mat_mul(exact.mat_mul(u, [[2, 0], [0, 3]]), v) == d


def test_snf_identity_and_diag():
    d, _, _ = exact.smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    d, _, _ = exact.smith_normal_form([[2, 0], [0, 2]])
    assert d == [[2, 0], [0, 2]]


def test_kernel_forced_by_rank():
    assert exact.kernel_basis([[1], [1]]) == [[1, -1]]


def test_kernel_of_invertible_is_empty():
    assert exact.kernel_basis([[2, 1], [1, 1]]) == []


def test_solve_identity_and_halving():
    assert exact.solve_rational([[1, 0], [0, 1]], [3, 4]) == [3, 4]
    assert exact.solve_rational([[2]], [1]) == [Fraction(1, 2)]
    assert exact.solve_rational([[1], [1]], [1, 2]) is None


def test_invert_rational_round_trip():
    a = [[2, 1], [7, 4]]
    ainv = exact.invert_rational(a)
    assert exact.mat_mul(a, ainv) == [[1, 0], [0, 1]]


def _random_matrix(rng, nr, nc, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]


def test_hnf_properties_random():
    rng = random.Random(0)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = _random_matrix(rng, nr, nc)
        h, u = exact.hermite_normal_form(m)
        assert exact.mat_mul(u, m) == h
        assert _unimodular(u)
        # echelon with positive pivots and reduced entries above
        pivots = []
        for row in h:
            if any(row):
                c = next(j for j, x in enumerate(row) if x)
                assert row[c] > 0
                pivots.append((c, row[c]))
        cols = [c for c, _ in pivots]
        assert cols == sorted(cols) and len(set(cols)) == len(cols)
        for c, p in pivots:
            above = [row[c] for row in h if any(row)][: cols.index(c)]
            assert all(0 <= x < p for x in above)


def test_snf_properties_random():
    rng = random.Random(1)
    for _ in range(60):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = _random_matrix(rng, nr, nc)
        d, u, v = exact.smith_normal_form(m)
        assert exact.mat_mul(exact.mat_mul(u, m), v) == d
        assert _unimodular(u) and _unimodular(v)
        diag = [d[i][i] for i in range(min(nr, nc))]
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a:
                assert b % a == 0
            else:
                assert b == 0


def test_kernel_properties_random():
    rng = random.Random(2)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = _random_matrix(rng, nr, nc)
        k = exact.kernel_basis(m)
        for row in k:
            assert all(x == 0 for x in exact.vec_mat(row, m))
        h = exact.hnf_rows(m)
        assert len(k) == nr - len(h)


def test_solve_substitution_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        got = exact.solve_rational(a, b)
        assert got is not None
        assert [sum(a[i][j] * got[j] for j in range(n)) for i in range(n)] == b


def test_row_span_incremental():
    span = exact.RowSpan(3)
    assert span.add([2, 0, 0])
    assert span.add([0, 1, 0])
    assert not span.add([2, 1, 0])
    assert span.add([1, 0, 0])  # grows the span without growing the rank
    assert span.rank == 2
    assert span.contains([5, -7, 0])
    assert not span.contains([0, 0, 1])
    assert span.basis() == [[1, 0, 0], [0, 1, 0]]


def test_degenerate_edges():
    h, u = exact.hermite_normal_form([])
    assert h == [] and u == []
    assert exact.kernel_basis([[0, 0]]) == [[1]]
    assert exact.solve_rational([[0]], [1]) is None


class _FullRowSpan:
    """`RowSpan` as it was before its row operations ran on suffixes: full
    rows of length n, reduced at every column."""

    def __init__(self, n):
        self.n = n
        self._rows = {}

    def add(self, vec):
        v = list(vec)
        grew = False
        for c in range(self.n):
            if not v[c]:
                continue
            row = self._rows.get(c)
            if row is None:
                if v[c] < 0:
                    v = [-a for a in v]
                self._rows[c] = v
                return True
            while v[c]:
                q = v[c] // row[c]
                v = [a - q * b for a, b in zip(v, row)]
                if v[c]:
                    self._rows[c] = v
                    v, row = row, v
                    grew = True
        return grew

    def contains(self, vec):
        v = list(vec)
        for c in range(self.n):
            if not v[c]:
                continue
            row = self._rows.get(c)
            if row is None or v[c] % row[c]:
                return False
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        return True


def _full_rows(span):
    return {c: [0] * c + row for c, row in span._rows.items()}


def test_row_span_matches_full_rows_on_the_leech_generators():
    gens = [leech.generator_minus_three()] + [leech.two_nu(k) for k in steiner_system().octads]
    assert len(gens) == 760
    span, full = exact.RowSpan(24), _FullRowSpan(24)
    assert [span.add(g) for g in gens] == [full.add(g) for g in gens]
    assert _full_rows(span) == full._rows
    rng = random.Random(5)
    probes = []
    for _ in range(40):
        terms = [(rng.randint(-2, 2), g) for g in rng.sample(gens, 3)]
        probes.append([sum(c * g[i] for c, g in terms) for i in range(24)])
    probes += [[x + (i == j) for i, x in enumerate(p)] for j, p in enumerate(probes[:24])]
    assert [span.contains(p) for p in probes] == [full.contains(p) for p in probes]
    assert any(span.contains(p) for p in probes) and not all(span.contains(p) for p in probes)


def test_row_span_matches_full_rows_random():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        span, full = exact.RowSpan(n), _FullRowSpan(n)
        for _ in range(rng.randint(1, 8)):
            v = [rng.randint(-9, 9) * rng.randint(0, 1) for _ in range(n)]
            assert span.add(v) == full.add(v)
            w = [rng.randint(-9, 9) for _ in range(n)]
            assert span.contains(w) == full.contains(w)
        assert _full_rows(span) == full._rows


def test_inverse_and_det_of_upper_triangular_matrices_random():
    """`Ambient`'s frame is upper triangular, and its certificate reads the
    determinant of one elimination: for such a matrix that is the product
    of the diagonal, and a adj = den I with den least."""
    rng = random.Random(20)
    for n in range(1, 8):
        for _ in range(60):
            a = [[rng.randint(-6, 6) if j > i else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                a[i][i] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 8])
            adj, den, det = exact.inverse_and_det(a)
            assert det == math.prod(a[i][i] for i in range(n))
            assert den > 0 and math.gcd(den, *(x for row in adj for x in row)) == 1
            assert exact.mat_mul(a, adj) == [[den * (i == j) for j in range(n)] for i in range(n)]
            assert (adj, den) == exact.invert_integer(a)


def test_inverse_and_det_refuses_a_zero_pivot():
    for a in ([[1, 2], [0, 0]], [[0]], [[0, 1], [0, 1]], [[2, 1, 1], [0, 0, 3], [0, 0, 5]]):
        with pytest.raises(ValueError, match="singular"):
            exact.inverse_and_det(a)


def test_the_ambient_frame_is_inverted_by_elimination():
    from hessaut.lattices import ambient

    amb = ambient()
    assert (amb._adj, amb._den) == exact.invert_integer(amb.rows)
    assert exact.det(amb.gram) == -1
    # the frame: the triangular Hermite rows of the Leech part and the two unit rows
    assert all(not any(row[:i]) for i, row in enumerate(amb.rows))
    assert math.prod(amb.rows[i][i] for i in range(24)) == 8 ** 12

import random
from fractions import Fraction

from hessaut import exact


def _unimodular(u) -> bool:
    return len(u) > 0 and abs(exact.det_rational(u)) == 1


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

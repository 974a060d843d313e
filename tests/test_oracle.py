"""Polynomial oracles: sparse arithmetic, cell charts, symplectic ranks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zipstrata import oracle
from zipstrata.oracle import (
    GSP_N_CAP,
    ORACLE_N_CAP,
    PRIME_MAX,
    CellPoint,
    SparsePoly,
    _plucker_point,
    determinant,
    gl_cell_order,
    gl_cell_point,
    gl_plucker_order,
    gsp_point_order,
    gsp_psi_curve_point,
    gsp_witness,
    is_symplectic_similitude,
    mat_mul,
    minor_det,
    order_at_zero,
    poly_matrix,
)

from helpers import const, full_product_cell_order, gl_flambda, gsp_form, variable


def scale(f: SparsePoly, c: int) -> SparsePoly:
    """c times f."""
    return SparsePoly.build(f.nvars, {m: c * v for m, v in f.coeffs})


def eval_int(f: SparsePoly, point) -> int:
    """f at an integer point."""
    total = 0
    for m, c in f.coeffs:
        term = c
        for e, x in zip(m, point):
            term *= x**e
        total += term
    return total


def mat_mul_all(ms):
    """The product of the matrices, left to right."""
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def const_matrix(nvars: int, entries) -> tuple:
    return poly_matrix(
        [[const(nvars, int(x)) for x in row] for row in entries]
    )


# -- sparse polynomials -------------------------------------------------------


def test_poly_arithmetic_and_eval() -> None:
    x, y = variable(2, 0), variable(2, 1)
    f = x * x + scale(y, 3) + scale(const(2, 1), -1)
    assert eval_int(f, (2, 5)) == 4 + 15 - 1
    assert (f + scale(f, -1)).is_zero()
    assert (x * y).coeffs == (((1, 1), 1),)


def test_polys_compare_and_hash_by_their_terms() -> None:
    """Equality and hash are those of (nvars, coeffs), but a polynomial is
    no tuple: an int times it raises instead of repeating it."""
    x = variable(2, 0)
    same = SparsePoly(2, x.coeffs)
    assert same == x and hash(same) == hash(x) == hash((2, x.coeffs))
    assert x != variable(3, 0) and x != variable(2, 1)
    assert x != (2, x.coeffs)
    with pytest.raises(TypeError):
        2 * x


def test_variable_index_is_checked() -> None:
    with pytest.raises(ValueError):
        variable(2, 5)


def test_order_at_zero_basic_examples() -> None:
    x, y, z = variable(3, 0), variable(3, 1), variable(3, 2)
    assert order_at_zero(x * x, [0]) == 2
    assert order_at_zero(x * y + z * z, [0, 2]) == 1
    assert order_at_zero(x * z + y * y, [0, 1, 2]) == 2
    assert order_at_zero(x * y + const(3, 7), [0]) == 0


def test_order_at_zero_ignores_generic_variables() -> None:
    x, y = variable(2, 0), variable(2, 1)
    f = x * y * y
    assert order_at_zero(f, [0]) == 1
    assert order_at_zero(f, [1]) == 2
    assert order_at_zero(f, []) == 0


def test_order_at_zero_rejects_zero_polynomial() -> None:
    with pytest.raises(ValueError):
        order_at_zero(SparsePoly.zero(2), [0])


def test_determinant_small_cases() -> None:
    m = const_matrix(0, [[1, 2], [3, 4]])
    assert eval_int(determinant(m), ()) == -2
    m3 = const_matrix(0, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])
    assert eval_int(determinant(m3), ()) == 5
    assert eval_int(minor_det(m3, [0, 1], [0, 1]), ()) == 2


def test_determinant_of_equal_rows_is_the_zero_polynomial() -> None:
    """Two equal non-constant rows cancel every term of the row sums."""
    x, y, z = variable(3, 0), variable(3, 1), variable(3, 2)
    row = (x * y + const(3, 2), z, x + scale(z * z, -1))
    m = poly_matrix([row, (y, x * z, const(3, -3)), row])
    det = determinant(m)
    assert det == SparsePoly.zero(3)
    assert det.coeffs == ()


def test_a_partly_cancelling_determinant_stores_no_zero_coefficient() -> None:
    """det [[x + y, x], [y, x + 1]] = (x^2 + x + xy + y) - xy: the two
    products' xy terms cancel, the rest stay."""
    x, y = variable(2, 0), variable(2, 1)
    det = determinant(poly_matrix([[x + y, x], [y, x + const(2, 1)]]))
    assert det.coeffs == (((0, 1), 1), ((1, 0), 1), ((2, 0), 1))
    assert det == SparsePoly.build(2, dict(det.coeffs))


def _reference_mul(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Every pair of terms, summed in a dict and normalised by ``build``."""
    terms = {}
    for m1, c1 in f.coeffs:
        for m2, c2 in g.coeffs:
            m = tuple(a + b for a, b in zip(m1, m2))
            terms[m] = terms.get(m, 0) + c1 * c2
    return SparsePoly.build(f.nvars, terms)


def _leibniz(m) -> SparsePoly:
    """Sum over permutations of signed products of entries."""
    n, nvars = len(m), m[0][0].nvars
    acc = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = const(nvars, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = _reference_mul(term, m[i][j])
        for mono, c in term.coeffs:
            acc[mono] = acc.get(mono, 0) + c
    return SparsePoly.build(nvars, acc)


_NVARS = 3
_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * _NVARS),
    st.integers(min_value=-3, max_value=3),
    max_size=3,
).map(lambda terms: SparsePoly.build(_NVARS, terms))


def _poly_matrices(rows: int, cols: int):
    return st.lists(
        st.lists(_polys, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(poly_matrix)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_determinant_matches_the_leibniz_formula(data) -> None:
    """Sparse matrices up to 5 x 5, zero entries included."""
    n = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(_poly_matrices(n, n))
    assert determinant(m) == _leibniz(m)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_minor_det_matches_the_leibniz_formula(data) -> None:
    m = data.draw(_poly_matrices(5, 5))
    k = data.draw(st.integers(min_value=1, max_value=5))
    rows = data.draw(st.permutations(range(5)))[:k]
    cols = data.draw(st.permutations(range(5)))[:k]
    sub = poly_matrix([[m[i][j] for j in cols] for i in rows])
    assert minor_det(m, rows, cols) == _leibniz(sub)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_one_term_products_equal_the_general_product(data) -> None:
    f = data.draw(_polys)
    mono = data.draw(st.tuples(*[st.integers(min_value=0, max_value=2)] * _NVARS))
    c = data.draw(st.integers(min_value=-3, max_value=3).filter(bool))
    g = SparsePoly.build(_NVARS, {mono: c})
    assert f * g == _reference_mul(f, g)
    assert g * f == _reference_mul(g, f)


def test_one_term_products_with_signs_and_mixed_monomials() -> None:
    x, y, z = variable(3, 0), variable(3, 1), variable(3, 2)
    f = x * x + scale(y, -2) + z * y + const(3, 5)
    for g in (
        SparsePoly.build(3, {(0, 0, 0): -1}),
        SparsePoly.build(3, {(1, 2, 0): -1}),
        SparsePoly.build(3, {(2, 1, 1): 4}),
        x,
    ):
        assert f * g == _reference_mul(f, g)
        assert g * f == _reference_mul(g, f)
        assert g * g == _reference_mul(g, g)
    assert (f * SparsePoly.zero(3)).is_zero()
    assert (SparsePoly.build(3, {(1, 0, 0): -1}) * SparsePoly.zero(3)).is_zero()


def test_matrix_multiplication() -> None:
    a = const_matrix(0, [[1, 2], [0, 1]])
    b = const_matrix(0, [[1, 0], [3, 1]])
    ab = mat_mul(a, b)
    assert [[eval_int(e, ()) for e in row] for row in ab] == [[7, 2], [3, 1]]
    assert mat_mul_all([a, b]) == ab


# -- GL(n) weight sections ----------------------------------------------------


def test_gl_flambda_requires_dominant_weight() -> None:
    with pytest.raises(ValueError):
        gl_flambda(3, (0, 1, 0))
    with pytest.raises(ValueError):
        gl_flambda(3, (1, 0))


def test_gl_flambda_exponents() -> None:
    f = gl_flambda(3, (2, 1, 0))
    assert f.trailing_exponents == {1: 1, 2: 1}
    assert f.det_exponent == 0
    g = gl_flambda(3, (1, 0, 0))
    assert g.trailing_exponents == {1: 0, 2: 1}


def test_gl_flambda_negative_det_power_is_rejected() -> None:
    f = gl_flambda(2, (0, -1))
    m = const_matrix(0, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        f.evaluate(m)


def _symbolic_matrix(n: int) -> tuple:
    nvars = n * n
    return poly_matrix(
        [[variable(nvars, n * i + j) for j in range(n)] for i in range(n)]
    )


def test_gl_flambda_semi_invariance() -> None:
    """The section is unchanged by upper unitriangulars on the left and
    lower unitriangulars on the right."""
    rng = random.Random(3)
    f = gl_flambda(3, (2, 1, 0))
    for _ in range(10):
        g = const_matrix(0, [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)])
        u = const_matrix(
            0, [[1, rng.randrange(-3, 4), rng.randrange(-3, 4)], [0, 1, rng.randrange(-3, 4)], [0, 0, 1]]
        )
        low = const_matrix(
            0, [[1, 0, 0], [rng.randrange(-3, 4), 1, 0], [rng.randrange(-3, 4), rng.randrange(-3, 4), 1]]
        )
        lhs = eval_int(f.evaluate(mat_mul_all([u, g, low])), ())
        assert lhs == eval_int(f.evaluate(g), ())


def test_gl_flambda_torus_weight() -> None:
    """A left torus factor scales the section by its trailing coordinates."""
    f = gl_flambda(3, (2, 1, 0))
    g = _symbolic_matrix(3)
    t = const_matrix(9, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    lhs = f.evaluate(mat_mul(t, g))
    rhs = scale(f.evaluate(g), 5 * (3 * 5))
    assert lhs == rhs


def test_minor_product_matches_the_product_of_minor_powers() -> None:
    """One table of bottom-row minors gives the same section as expanding
    every trailing minor and the determinant on its own."""
    rng = random.Random(5)
    for n in (1, 2, 3, 4, 5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for w in rng.sample(perms, min(len(perms), 4)) + [tuple(range(n, 0, -1))]:
            _, matrix = gl_cell_point(n, w)
            lam = tuple(sorted((rng.randrange(0, 3) for _ in range(n)), reverse=True))
            section = gl_flambda(n, lam)
            expected = const(matrix[0][0].nvars, 1)
            for k, e in section.trailing_exponents.items():
                rows = list(range(n - k, n))
                for _ in range(e):
                    expected = _reference_mul(expected, minor_det(matrix, rows, rows))
            for _ in range(section.det_exponent):
                expected = _reference_mul(expected, determinant(matrix))
            assert section.evaluate(matrix) == expected, (w, lam)


# -- GL(n) cell orders ----------------------------------------------------------


def _reference_frame(point: CellPoint) -> tuple:
    """The chart matrix as the literal product of the permutation matrix,
    one elementary factor per coordinate and the diagonal torus."""
    n, nvars, positions = point.n, point.nvars, point.unipotent_positions
    perm = [[1 if r == point.w[c] - 1 else 0 for c in range(n)] for r in range(n)]
    factors = [const_matrix(nvars, perm)]
    for k, (i, j) in enumerate(positions):
        x = [[const(nvars, int(a == b)) for b in range(n)] for a in range(n)]
        x[i - 1][j - 1] = variable(nvars, k)
        factors.append(poly_matrix(x))
    torus = [
        [variable(nvars, len(positions) + a) if a == b else SparsePoly.zero(nvars) for b in range(n)]
        for a in range(n)
    ]
    factors.append(poly_matrix(torus))
    return mat_mul_all(factors)


def _frame_perms() -> list:
    perms = [w for n in range(1, 6) for w in itertools.permutations(range(1, n + 1))]
    rng = random.Random(11)
    for n in (6, 7):
        for _ in range(5):
            perms.append(tuple(rng.sample(range(1, n + 1), n)))
    return perms


@pytest.mark.parametrize("frame", [gl_cell_point, _plucker_point])
def test_frames_equal_the_product_of_elementary_factors(frame) -> None:
    for w in _frame_perms():
        point, matrix = frame(len(w), w)
        assert matrix == _reference_frame(point), w


def test_cell_point_distinguished_count() -> None:
    for w in itertools.permutations((1, 2, 3, 4)):
        point, _ = gl_cell_point(4, w)
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4) if w[i] > w[j])
        assert len(point.distinguished_vars) == inversions
        assert isinstance(point, CellPoint)


def test_gl_cell_order_rho_table() -> None:
    """Orders of the weight-rho section on all six strata of GL(3)."""
    rho = (2, 1, 0)
    expected = {
        (1, 2, 3): 0,
        (2, 1, 3): 1,
        (1, 3, 2): 1,
        (2, 3, 1): 2,
        (3, 1, 2): 2,
        (3, 2, 1): 2,
    }
    for w, order in expected.items():
        assert gl_cell_order(3, rho, w) == order


def test_gl_cell_order_fundamental_weights() -> None:
    assert gl_cell_order(3, (1, 0, 0), (2, 1, 3)) == 1
    assert gl_cell_order(3, (1, 0, 0), (1, 3, 2)) == 0
    assert gl_cell_order(3, (1, 1, 0), (1, 3, 2)) == 1
    assert gl_cell_order(3, (1, 1, 0), (2, 1, 3)) == 0


def test_gl_cell_order_det_shift_invariance() -> None:
    """Twisting by powers of det never changes an order of vanishing."""
    for w in ((2, 3, 1), (3, 1, 2), (1, 3, 2)):
        base = gl_cell_order(3, (2, 1, 0), w)
        assert gl_cell_order(3, (1, 0, -1), w) == base
        assert gl_cell_order(3, (4, 3, 2), w) == base


def test_gl_cell_order_exterior_square_cells() -> None:
    """Orders of the dual-pair determinant weight on the exterior-square
    strata of GL(4), matching the closed recursion values."""
    lam = (0, 0, -1, -1)
    expected = {
        (1, 2, 3, 4): 0,
        (1, 3, 2, 4): 1,
        (3, 1, 2, 4): 1,
        (1, 3, 4, 2): 1,
        (3, 1, 4, 2): 1,
        (3, 4, 1, 2): 2,
    }
    for w, order in expected.items():
        assert gl_cell_order(4, lam, w) == order


def test_gl_cell_order_longer_words() -> None:
    rho4 = (3, 2, 1, 0)
    assert gl_cell_order(4, rho4, (2, 1, 4, 3)) == 2
    assert gl_cell_order(4, rho4, (2, 3, 4, 1)) == 3
    assert gl_cell_order(4, rho4, (1, 2, 3, 4)) == 0


def test_gl_cell_order_checks_weight_length() -> None:
    with pytest.raises(ValueError):
        gl_cell_order(3, (1, 0), (1, 2, 3))


@pytest.mark.parametrize(
    "n, lam, w",
    [
        (2, (1, 0), (1, 2, 3)),
        (3, (1, 0, 0), (1, 2)),
        (3, (1, 0, 0), (2, 3, 4)),
        (3, (1, 0, 0), (1, 1, 2)),
    ],
)
def test_gl_cell_order_rejects_non_permutations(n, lam, w) -> None:
    with pytest.raises(ValueError, match="w must be a permutation of 1..n"):
        gl_cell_order(n, lam, w)
    with pytest.raises(ValueError, match="w must be a permutation of 1..n"):
        gl_cell_point(n, w)


def test_gl_oracles_reject_n_above_the_ceiling() -> None:
    n = ORACLE_N_CAP + 1
    w0 = tuple(range(n, 0, -1))
    with pytest.raises(ValueError, match="n <= "):
        gl_cell_order(n, (1,) + (0,) * (n - 1), w0)
    with pytest.raises(ValueError, match="n <= "):
        gl_plucker_order(n, w0)
    with pytest.raises(ValueError, match="n <= "):
        gl_cell_order(0, (), ())


def test_gl_cell_order_takes_a_wide_weight_at_the_ceiling() -> None:
    """GL(7), the largest accepted n, at a spread of 9. At w0 the trailing
    k-minor vanishes to order min(k, n - k), so the order is the sum of
    e_k * min(k, n - k)."""
    n, lam = 7, (9, 8, 6, 5, 3, 1, 0)
    exponents = [lam[n - k - 1] - lam[n - k] for k in range(1, n)]
    expected = sum(e * min(k, n - k) for k, e in enumerate(exponents, start=1))
    assert gl_cell_order(n, lam, tuple(range(n, 0, -1))) == expected == 19


@pytest.mark.parametrize(
    "lam", [(Fraction(3, 2), Fraction(1, 2), 0), (2.0, 1.0, 0.0), (Fraction(2), 1, 0)]
)
def test_gl_cell_order_rejects_a_non_integral_weight(lam) -> None:
    with pytest.raises(ValueError, match="weight entries must be integers"):
        gl_cell_order(3, lam, (3, 2, 1))


def _seeded_weight(rng: random.Random, n: int, spread: int) -> tuple:
    """A dominant weight of length n with lambda_1 - lambda_n = spread (0 for
    n = 1), shifted by a seeded integer."""
    inner = [rng.randint(0, spread) for _ in range(n - 2)]
    shift = rng.randint(-2, 2)
    return tuple(sorted((x + shift for x in ([spread] + inner + [0])[:n]), reverse=True))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gl_cell_order_matches_the_full_product(n: int) -> None:
    """Summing the minors' orders gives the order of the section multiplied
    out in full, at spreads up to 5: on every cell up to GL(5), and on a
    seeded 120 of the 720 cells of GL(6)."""
    rng = random.Random(n)
    cells = list(itertools.permutations(range(1, n + 1)))
    for w in cells if n < 6 else rng.sample(cells, 120):
        for spread in (rng.randint(0, 3), 4, 5):
            lam = _seeded_weight(rng, n, spread)
            assert gl_cell_order(n, lam, w) == full_product_cell_order(n, lam, w), (w, lam)


# -- Pluecker coordinate orders ---------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gl_plucker_order_matches_closed_form(n: int) -> None:
    """n = 1 has the empty 0 x 0 top minor, the constant 1."""
    for w in itertools.permutations(range(1, n + 1)):
        expected = 0 if w[0] == n else 2
        assert gl_plucker_order(n, w) == expected


def test_gl_plucker_order_rejects_non_permutations() -> None:
    with pytest.raises(ValueError):
        gl_plucker_order(3, (1, 1, 2))
    with pytest.raises(ValueError):
        gl_plucker_order(1, (2,))


# -- GSp(2n) ----------------------------------------------------------------------


def test_gsp_form_shape() -> None:
    psi = gsp_form(2)
    assert psi == (
        (0, 0, 0, -1),
        (0, 0, -1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    )


def test_gsp_witnesses_are_similitudes() -> None:
    for n in (1, 2, 3):
        for i in range(n + 1):
            for p in (2, 3, 5):
                assert is_symplectic_similitude(gsp_witness(n, i), p)


def test_gsp_point_order_on_witnesses() -> None:
    """The Hasse determinant vanishes to order n - rank(A) on each witness."""
    for n in (1, 2, 3):
        for i in range(n + 1):
            for p in (2, 3, 5):
                assert gsp_point_order(n, p, gsp_witness(n, i)) == n - i


def test_gsp_point_order_on_psi_curve() -> None:
    for n in (2, 3):
        for p in (3, 5):
            for bits in itertools.product((0, 1), repeat=n):
                point = gsp_psi_curve_point(n, bits)
                assert gsp_point_order(n, p, point) == bits.count(0)


def test_gsp_psi_curve_symbolic_order() -> None:
    """Pulling the Hasse determinant back along the test curve gives a
    monomial whose order in any chosen variables is the number of those
    variables, matching the pointwise corank count."""
    n = 3
    nvars = 3
    diag = [[variable(nvars, r) if r == c else SparsePoly.zero(nvars) for c in range(n)] for r in range(n)]
    pulled = determinant(poly_matrix(diag))
    for subset in ([0], [1, 2], [0, 1, 2]):
        assert order_at_zero(pulled, subset) == len(subset)


def _reference_is_similitude(x, p: int) -> bool:
    """The full product x psi x^T, m^4 terms, compared entrywise with c psi."""
    m = len(x)
    psi = gsp_form(m // 2)
    lhs = [
        [sum(x[i][a] * psi[a][b] * x[j][b] for a in range(m) for b in range(m)) % p
         for j in range(m)]
        for i in range(m)
    ]
    scalar = None
    for i in range(m):
        for j in range(m):
            if psi[i][j] % p != 0:
                ratio = (lhs[i][j] * pow(psi[i][j], -1, p)) % p
                if scalar is None:
                    scalar = ratio
                elif ratio != scalar:
                    return False
            elif lhs[i][j] % p != 0:
                return False
    return scalar is not None and scalar % p != 0


def test_similitude_check_matches_the_full_product() -> None:
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for n in (1, 2, 3, 4):
        for p in (2, 3, 5, 7):
            candidates = [[list(r) for r in gsp_witness(n, i)] for i in range(n + 1)]
            for _ in range(3):
                a = [rng.randrange(-p, 2 * p) for _ in range(n)]
                candidates.append([list(r) for r in gsp_psi_curve_point(n, a)])
            candidates += [_random_levi_similitude(n, p, rng) for _ in range(3)]
            candidates += [
                [[rng.randrange(p) for _ in range(2 * n)] for _ in range(2 * n)] for _ in range(3)
            ]
            for x in list(candidates):
                scaled = [[rng.randrange(1, p) * v for v in row] for row in x]
                nudged = [row[:] for row in x]
                nudged[rng.randrange(2 * n)][rng.randrange(2 * n)] += rng.randrange(1, p)
                candidates += [scaled, nudged]
            for x in candidates:
                expected = _reference_is_similitude(x, p)
                assert is_symplectic_similitude(x, p) == expected, (x, p)
                seen[expected] += 1
    assert min(seen.values()) > 50


@pytest.mark.parametrize("n", [0, -1, GSP_N_CAP + 1, 10**6])
def test_gsp_point_order_rejects_n_outside_the_ceiling(n, monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("checked a matrix outside the ceiling")

    monkeypatch.setattr(oracle, "is_symplectic_similitude", refuse)
    monkeypatch.setattr(oracle, "is_prime", refuse)
    with pytest.raises(ValueError, match=f"n <= {GSP_N_CAP}"):
        gsp_point_order(n, 3, [])


@pytest.mark.parametrize("p", [0, 1, 4, -3, 9, PRIME_MAX + 1])
def test_gsp_point_order_rejects_non_primes(p) -> None:
    with pytest.raises(ValueError):
        gsp_point_order(2, p, gsp_witness(2, 1))


def test_gsp_point_order_accepts_the_ceiling() -> None:
    n = GSP_N_CAP
    assert gsp_point_order(n, 999999999989, gsp_witness(n, 5)) == n - 5
    point = gsp_psi_curve_point(n, [k % 3 for k in range(n)])
    assert gsp_point_order(n, 3, point) == sum(1 for k in range(n) if k % 3 == 0)


@pytest.mark.parametrize(
    "x",
    [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [1, 1, 1]]],
    ids=["odd-square", "3x2", "ragged"],
)
def test_similitude_check_refuses_odd_or_non_square_matrices(x) -> None:
    assert not is_symplectic_similitude(x, 3)


def test_gsp_point_order_rejects_non_similitudes() -> None:
    bad = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError):
        gsp_point_order(2, 5, bad)
    with pytest.raises(ValueError):
        gsp_point_order(2, 5, [[1, 0], [0, 1]])


def gsp_hasse(n: int) -> SparsePoly:
    """Determinant of the upper-left n x n block, on symbolic 2n x 2n input
    whose variables are the 4 n^2 entries in row-major order."""
    nvars = (2 * n) ** 2
    block = poly_matrix([[variable(nvars, 2 * n * i + j) for j in range(n)] for i in range(n)])
    return determinant(block)


def test_gsp_hasse_is_block_determinant() -> None:
    h = gsp_hasse(2)
    assert h.nvars == 16
    point = [0] * 16
    point[0], point[5] = 3, 7
    point[1], point[4] = 2, 5
    assert eval_int(h, point) == 3 * 7 - 2 * 5


def _random_levi_similitude(n: int, p: int, rng: random.Random) -> list:
    """Block-diagonal similitude [[M, 0], [0, c J M^{-T} J]] mod p."""
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        try:
            minv = _invert_mod_p(m, p)
        except ValueError:
            continue
        break
    c = rng.randrange(1, p)
    j = [[1 if a + b == n - 1 else 0 for b in range(n)] for a in range(n)]
    mt_inv = [[minv[b][a] for b in range(n)] for a in range(n)]
    jmj = _mat_mod(j, _mat_mod(mt_inv, j, p), p)
    block = [[(c * jmj[a][b]) % p for b in range(n)] for a in range(n)]
    out = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            out[a][b] = m[a][b]
            out[n + a][n + b] = block[a][b]
    return out


def _mat_mod(a: list, b: list, p: int) -> list:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def _invert_mod_p(m: list, p: int) -> list:
    n = len(m)
    aug = [[m[i][j] % p for j in range(n)] + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            raise ValueError("singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _unipotent_radical_element(n: int, p: int, rng: random.Random, upper: bool) -> list:
    s = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            s[a][b] = s[b][a] = rng.randrange(p)
    j = [[1 if x + y == n - 1 else 0 for y in range(n)] for x in range(n)]
    out = [[1 if a == b else 0 for b in range(2 * n)] for a in range(2 * n)]
    sj = _mat_mod(s, j, p) if upper else _mat_mod(j, s, p)
    for a in range(n):
        for b in range(n):
            if upper:
                out[a][n + b] = sj[a][b]
            else:
                out[n + a][b] = sj[a][b]
    return out


def test_gsp_order_constant_on_double_cosets() -> None:
    """Multiplying by parabolic elements on either side never moves a point
    off its rank stratum."""
    rng = random.Random(41)
    for n in (2, 3):
        for p in (3, 5):
            for i in range(n + 1):
                x = [list(r) for r in gsp_witness(n, i)]
                for _ in range(4):
                    left = _mat_mod_general(
                        _random_levi_similitude(n, p, rng),
                        _unipotent_radical_element(n, p, rng, upper=False),
                        p,
                    )
                    right = _mat_mod_general(
                        _unipotent_radical_element(n, p, rng, upper=True),
                        _random_levi_similitude(n, p, rng),
                        p,
                    )
                    moved = _mat_mod_general(left, _mat_mod_general(x, right, p), p)
                    assert is_symplectic_similitude(moved, p)
                    assert gsp_point_order(n, p, moved) == n - i


def _mat_mod_general(a: list, b: list, p: int) -> list:
    rows, mid, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(mid)) % p for j in range(cols)]
        for i in range(rows)
    ]

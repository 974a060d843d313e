"""Brute-force polynomial oracles for vanishing orders on matrix groups.

Everything here works with honest coordinates: group elements are matrices
of sparse integer polynomials, highest-weight sections are minors or
Pluecker coordinates, and the order of vanishing is read off the exponents
of monomials. No structure theory enters, which is the point: the results
cross-check the closed formulas computed elsewhere in the package.

A generic point of a GL(n) chart is the product of a permutation matrix,
one elementary factor X_ij(a) per coordinate and a diagonal torus. It is
built by the column operations those factors perform (right-multiplying by
X_ij(a) adds a times column i to column j), which gives the same matrix as
the product without multiplying the mostly-zero factors. A variable
first enters at its own step, so each step adds terms that are new to
their entry: the entries are plain monomial maps until the end, and each
is sorted once.

Determinants are Laplace expansions along the top row in which each minor
of the bottom rows on a given set of columns is expanded once per call. A
weight section shares one such table across all its trailing principal
minors, since each trailing minor is a bottom-row minor of the next larger
one. Everything stays brute force: the order at zero is a valuation (the
lowest-degree forms of two nonzero polynomials multiply to a nonzero
form), so a weight section's order is the sum of its trailing minors'
orders, weighted by their exponents, and each of those is read off the
fully expanded minor. The oracle checks the word formulas instead of
repeating their reasoning.

The GL(n) oracles reject, before building anything, n above
``ORACLE_N_CAP``. The GSp(2n) point order rejects n above ``GSP_N_CAP``
and any p that ``is_prime`` refuses.

Matrices are tuples of tuples. Polynomials are sparse maps from exponent
tuples to integer coefficients over a fixed variable list, so all
arithmetic is exact.
"""

from __future__ import annotations

from math import isqrt
from operator import add, mul
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

Monomial = Tuple[int, ...]

# Ceiling on the GL(n) oracles, checked before any matrix is built. A cell
# order expands each trailing minor once, whatever the weight, so lambda = rho
# (every minor needed) is the worst weight. On a 2-vCPU Intel Xeon the slowest
# cells of GL(7), such as w0 and (5, 6, 7, 4, 3, 2, 1), take 9 to 10 ms, and
# all 5040 cells take 8 s and 18 MB peak RSS (15 MB of it the interpreter).
# The Laplace expansion sets that cost (the frame is 0.4 ms of it at w0);
# GL(8) and GL(9) at w0 would take about 0.1 s and 0.8 s.
ORACLE_N_CAP = 7


class SparsePoly:
    """Multivariate polynomial with integer coefficients, stored sparsely.
    Compares and hashes by (nvars, coeffs); not a tuple, so that ``2 * p``
    raises instead of repeating it."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Tuple[Tuple[Monomial, int], ...]) -> None:
        self.nvars = nvars
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.nvars, self.coeffs))

    @staticmethod
    def build(nvars: int, terms: Dict[Monomial, int]) -> "SparsePoly":
        cleaned = {m: c for m, c in terms.items() if c != 0}
        return SparsePoly(nvars, tuple(sorted(cleaned.items())))

    @staticmethod
    def zero(nvars: int) -> "SparsePoly":
        return SparsePoly.build(nvars, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        terms = dict(self.coeffs)
        for m, c in other.coeffs:
            terms[m] = terms.get(m, 0) + c
        return SparsePoly.build(self.nvars, terms)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if len(self.coeffs) == 1:
            self, other = other, self
        if len(other.coeffs) == 1:
            # Shifting every monomial by one fixed monomial keeps them sorted
            # and distinct, and products of nonzero integers stay nonzero.
            ((m2, c2),) = other.coeffs
            return SparsePoly(
                self.nvars,
                tuple((tuple(map(add, m1, m2)), c1 * c2) for m1, c1 in self.coeffs),
            )
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                m = tuple(map(add, m1, m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return SparsePoly.build(self.nvars, terms)


Matrix = Tuple[Tuple[SparsePoly, ...], ...]


def poly_matrix(rows: Sequence[Sequence[SparsePoly]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, mid, m = len(a), len(b), len(b[0])
    out: List[List[SparsePoly]] = []
    for i in range(n):
        row: List[SparsePoly] = []
        for j in range(m):
            acc = SparsePoly.zero(a[0][0].nvars)
            for k in range(mid):
                if not a[i][k].is_zero() and not b[k][j].is_zero():
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return poly_matrix(out)


def determinant(m: Matrix) -> SparsePoly:
    """Laplace expansion along the top row, recursively.

    Each minor of the bottom r rows on a given set of columns turns up in
    many branches of the expansion; it is expanded once and kept in a table
    local to the call, so an n x n determinant expands at most 2^n minors
    instead of n! products. Every entry is still a fully expanded
    polynomial, which is what the oracle reads its orders from.
    """
    return _bottom_minor(m, tuple(range(len(m))), {})


def _bottom_minor(
    m: Matrix, cols: Tuple[int, ...], memo: Dict[Tuple[int, ...], SparsePoly]
) -> SparsePoly:
    """Determinant of the bottom len(cols) rows of m on the columns cols,
    expanded along its top row; ``memo`` maps column tuples to the minors
    already expanded on the same matrix."""
    found = memo.get(cols)
    if found is not None:
        return found
    row = m[len(m) - len(cols)]
    if len(cols) == 1:
        result = row[cols[0]]
    else:
        terms: Dict[Monomial, int] = {}
        for k, c in enumerate(cols):
            if row[c].is_zero():
                continue
            sign = -1 if k % 2 else 1
            for mono, coeff in (row[c] * _bottom_minor(m, cols[:k] + cols[k + 1:], memo)).coeffs:
                terms[mono] = terms.get(mono, 0) + sign * coeff
        result = SparsePoly.build(row[0].nvars, terms)
    memo[cols] = result
    return result


def minor_det(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> SparsePoly:
    return determinant(poly_matrix([[m[i][j] for j in cols] for i in rows]))


def order_at_zero(f: SparsePoly, vanishing_vars: Iterable[int]) -> int:
    """Order of vanishing of f along the coordinate subspace where the
    distinguished variables are zero.

    This is the minimum, over monomials with nonzero coefficient, of the
    total degree in the distinguished variables; the remaining variables
    stay generic. Raises on the zero polynomial, which vanishes to every
    order.
    """
    vs = set(vanishing_vars)
    if f.is_zero():
        raise ValueError("zero polynomial has no finite vanishing order")
    return min(sum(e for k, e in enumerate(m) if k in vs) for m, _ in f.coeffs)


# -- GL(n): Schubert cells in the flag variety -------------------------------


def _frame_anchor(n: int, w: Sequence[int]) -> Tuple[int, ...]:
    """w as a tuple, once n is within the oracle's ceiling and w is a
    permutation of 1..n; every GL(n) frame starts here."""
    if not 1 <= n <= ORACLE_N_CAP:
        raise ValueError(f"GL(n) oracle needs 1 <= n <= {ORACLE_N_CAP}, got n = {n}")
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("w must be a permutation of 1..n")
    return tuple(w)


def _times_new_variable(entry: Dict[Monomial, int], k: int) -> Dict[Monomial, int]:
    """entry times variable k, which no monomial of entry contains yet."""
    return {m[:k] + (1,) + m[k + 1:]: c for m, c in entry.items()}


def _moving_frame(
    nvars: int, w: Sequence[int], positions: Sequence[Tuple[int, int]]
) -> Matrix:
    """The matrix w * X_{p_0}(a_0) * ... * X_{p_k}(a_k) * diag(t), as polynomials.

    Starts from the permutation matrix of w, whose column i has its 1 in
    row w(i). Right-multiplying by X_ij(a_k) adds a_k times column i to
    column j; the torus then scales column b by t_b. Variable k is a_k and
    variable len(positions) + b is t_b. Entries stay monomial maps until the
    end: a_k is new at step k, so each step adds terms its entries lack.
    """
    n = len(w)
    cols = [[{(0,) * nvars: 1} if r == w[c] - 1 else {} for r in range(n)] for c in range(n)]
    for k, (i, j) in enumerate(positions):
        src, dst = cols[i - 1], cols[j - 1]
        for r in range(n):
            if src[r]:
                dst[r].update(_times_new_variable(src[r], k))
    zero, frame = SparsePoly.zero(nvars), []
    for b, col in enumerate(cols):
        scaled = [_times_new_variable(e, len(positions) + b) for e in col]
        frame.append([SparsePoly(nvars, tuple(sorted(e.items()))) if e else zero for e in scaled])
    return poly_matrix(list(zip(*frame)))


def _gl_inversions(w: Sequence[int]) -> List[Tuple[int, int]]:
    """Positive roots (i, j) sent to negative ones by w, as position pairs."""
    n = len(w)
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    ]


class CellPoint(NamedTuple):
    """Coordinates for a generic point w * prod X_{ij}(a) * t inside GL(n).

    The unipotent coordinates are listed so that the locus of interest is
    cut out by the vanishing of the trailing l(w) of them. For the cell
    w U B these are the inversions (i, j) of w; for the lower chart of
    ``gl_plucker_order`` they are the positions i > j with w(i) < w(j),
    the same pairs transposed. Torus coordinates follow the unipotent
    block.
    """

    n: int
    w: Tuple[int, ...]
    unipotent_positions: Tuple[Tuple[int, int], ...]
    nvars: int

    @property
    def distinguished_vars(self) -> Tuple[int, ...]:
        start = len(self.unipotent_positions) - len(_gl_inversions(self.w))
        return tuple(range(start, len(self.unipotent_positions)))


def gl_cell_point(n: int, w: Sequence[int]) -> Tuple[CellPoint, Matrix]:
    """Generic point of the cell of w: the matrix w * prod X_{ij}(a) * t.

    One coordinate per positive root (i, j), i < j, inversions of w last,
    followed by n generic torus coordinates. The torus entries are kept as
    variables so semi-invariance is visible in the output rather than
    assumed. The matrix is built by column operations, not by multiplying
    the factors; the result is the same polynomial matrix.
    """
    w = _frame_anchor(n, w)
    inversions = _gl_inversions(w)
    inv_set = set(inversions)
    others = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in inv_set]
    positions = tuple(others + inversions)
    nvars = len(positions) + n
    return CellPoint(n, w, positions, nvars), _moving_frame(nvars, w, positions)


def gl_cell_order(n: int, lam: Sequence[int], w: Sequence[int]) -> int:
    """Order of vanishing of the weight-lambda section along the cell of w.

    The section is det^{lambda_n} times the product over k of Delta_k^{e_k},
    where Delta_k is the trailing k-minor and
    e_k = lambda_{n-k} - lambda_{n-k+1}. Orders at zero add over products,
    and det is a unit on the cell, so the order is the sum of e_k times the
    order of Delta_k, each read off the minor fully expanded at the generic
    cell point. lambda must be integral and dominant.
    """
    lam = list(lam)
    if len(lam) != n:
        raise ValueError("weight length must equal n")
    if not all(isinstance(x, int) for x in lam):
        raise ValueError("weight entries must be integers")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("weight must be dominant (weakly decreasing)")
    point, matrix = gl_cell_point(n, w)
    variables = point.distinguished_vars
    minors: Dict[Tuple[int, ...], SparsePoly] = {}
    order = 0
    for k in range(1, n):
        e = lam[n - k - 1] - lam[n - k]
        if e:
            minor = _bottom_minor(matrix, tuple(range(n - k, n)), minors)
            order += e * order_at_zero(minor, variables)
    return order


# -- GSp(2n): the Hasse determinant on symplectic similitudes -----------------


# Largest working prime accepted: trial division then stops within 10^6
# divisors, and no invariant computed here depends on the size of p.
PRIME_MAX = 10**12

# Largest n for ``gsp_point_order``, checked before the matrix is read. The
# similitude check takes (2n)^3 products and the rank n^3 more: a dense
# similitude at n = 80 mod the largest accepted prime takes about 0.8 s on a
# 2-vCPU Xeon (n = 96 takes 1.3 to 1.5 s), and sparse witnesses far less.
GSP_N_CAP = 80


def is_prime(p: int) -> bool:
    """Primality by trial division; p above ``PRIME_MAX`` is rejected with
    ``ValueError`` before any division."""
    if p > PRIME_MAX:
        raise ValueError(f"the prime must be at most {PRIME_MAX}")
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def _antidiag_j(n: int) -> List[List[int]]:
    return [[1 if i + j == n - 1 else 0 for j in range(n)] for i in range(n)]


def is_symplectic_similitude(x: Sequence[Sequence[int]], p: int) -> bool:
    """Whether x preserves the antidiagonal form up to a nonzero scalar mod p.

    The form psi is antidiagonal with entries n copies of -1 then n of 1
    (-J in the upper right, J lower left), so entry (i, j) of x psi x^T is
    the sum over a of x[i][a] psi[a][m-1-a] x[j][m-1-a]: m^3 products in
    all. It must vanish off the antidiagonal and equal c times psi on it,
    for one c nonzero mod p; psi is its own inverse there. A matrix that is
    not square of even size preserves no such form.
    """
    m = len(x)
    if m % 2 or any(len(row) != m for row in x):
        return False
    sign = [-1] * (m // 2) + [1] * (m // 2)
    rows = [[v % p for v in row] for row in x]
    signed = [list(map(mul, row, sign)) for row in rows]
    reversed_rows = [row[::-1] for row in rows]
    scalar = None
    for i in range(m):
        for j in range(m):
            value = sum(map(mul, signed[i], reversed_rows[j])) % p
            if i + j == m - 1:
                ratio = value * sign[i] % p
                if scalar is None:
                    scalar = ratio
                elif ratio != scalar:
                    return False
            elif value:
                return False
    return scalar is not None and scalar != 0


def _rank_mod_p(rows: List[List[int]], p: int) -> int:
    """Row echelon rank over the prime field, by hand."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if m[r][col] % p != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col] % p:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
    return rank


def gsp_point_order(n: int, p: int, x: Sequence[Sequence[int]]) -> int:
    """Corank of the upper-left block of a symplectic similitude mod p.

    This is the multiplicity with which the Hasse determinant vanishes at
    the point, stratum by stratum. Rejects, before any arithmetic, n outside
    1..``GSP_N_CAP`` and p that ``is_prime`` refuses; then matrices that do
    not preserve the form up to scalar.
    """
    if not 1 <= n <= GSP_N_CAP:
        raise ValueError(f"GSp(2n) oracle needs 1 <= n <= {GSP_N_CAP}, got n = {n}")
    if not is_prime(p):
        raise ValueError(f"{p} is not a prime")
    if len(x) != 2 * n or any(len(row) != 2 * n for row in x):
        raise ValueError("matrix must be 2n x 2n")
    if not is_symplectic_similitude(x, p):
        raise ValueError("matrix is not a symplectic similitude mod p")
    block = [[x[i][j] % p for j in range(n)] for i in range(n)]
    return n - _rank_mod_p(block, p)


def gsp_witness(n: int, i: int) -> Tuple[Tuple[int, ...], ...]:
    """Similitude whose upper-left block is a rank-i diagonal idempotent:
    the test-curve point at (1^i, 0^(n-i)), of Hasse order n - i."""
    if not 0 <= i <= n:
        raise ValueError("rank must lie between 0 and n")
    return gsp_psi_curve_point(n, [1] * i + [0] * (n - i))


def gsp_psi_curve_point(n: int, a: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """The test-curve point psi(a): diagonal block diag(a) over the J frame."""
    if len(a) != n:
        raise ValueError("curve parameter must have n coordinates")
    j = _antidiag_j(n)
    top = [[a[r] if r == c else 0 for c in range(n)] + [-x for x in j[r]] for r in range(n)]
    bottom = [row + [0] * n for row in j]
    return tuple(tuple(r) for r in top + bottom)


# -- GL(n): Pluecker coordinate of the dual-pair section ----------------------


def gl_plucker_order(n: int, w: Sequence[int]) -> int:
    """Order of the squared top Pluecker coordinate along the stratum of w.

    The section is the square of the coefficient of e_1 ^ ... ^ e_{n-1} in
    the wedge of the first n - 1 columns of the moving frame. The frame is
    a lower-unipotent chart anchored at w * w0, dense in the flag space,
    whose trailing coordinates cut out the stratum; the order is twice
    that of the minor, read off its full expansion. Cross-checked in tests
    against the closed form 2 * [w(1) != n].
    """
    point, matrix = _plucker_point(n, w)
    if n == 1:
        return 0  # the top minor is 0 x 0: the constant 1, which never vanishes
    top = minor_det(matrix, list(range(n - 1)), list(range(n - 1)))
    return 2 * order_at_zero(top, point.distinguished_vars)


def _plucker_point(n: int, w: Sequence[int]) -> Tuple[CellPoint, Matrix]:
    """The lower-unipotent chart v * prod X_{ij}(a) * t anchored at v = w * w0.

    One coordinate per position (i, j), i > j; the positions with
    v(i) < v(j) come last, and they cut out the stratum.
    """
    v = _frame_anchor(n, w)[::-1]
    lower = [(i, j) for i in range(1, n + 1) for j in range(1, i)]
    vanishing = [(i, j) for (i, j) in lower if v[i - 1] < v[j - 1]]
    free = [(i, j) for (i, j) in lower if v[i - 1] > v[j - 1]]
    positions = tuple(free + vanishing)
    nvars = len(positions) + n
    return CellPoint(n, v, positions, nvars), _moving_frame(nvars, v, positions)

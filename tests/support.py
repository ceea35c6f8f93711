"""Shared test helpers: independent oracles and randomized samplers.

The oracles here deliberately avoid the library's counting algorithms:
root sets are regenerated by reflection-orbit closure, partitions and
graded partition counts by plain enumeration over a multiplicity box,
weight multiplicities by Freudenthal's recursion, dimensions by Weyl's
formula, the graded multiplicities of type A as Kostka-Foulkes
polynomials by charge, Coxeter lengths by counting the positive roots
sent negative, products of Weyl elements by full matrix multiplication
on columns, and alternation sets by testing every element of the group
in scaled integers.  An element sigma acts
here through its columns, sigma(v) = sum_j v_j sigma(alpha_j), never
through the library's packed column update, whose reference in tuples is
:func:`rmul_simple`; a product takes only its word from the library's
``canonical_word``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul
from random import Random

from qkostant import RootSystem, Weight, WeylElement, canonical_word


def image(e: WeylElement, v) -> list:
    """e(v) = sum_j v_j e.columns[j], in the arithmetic of v's entries."""
    return [sum(c[k] * x for c, x in zip(e.columns, v)) for k in range(len(v))]


def identity_element(rs: RootSystem) -> WeylElement:
    r = rs.rank
    cols = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    return WeylElement(cols, ())


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """The reflection s_i, 1 <= i <= rank: s_i(alpha_j) = alpha_j - a_ij alpha_i,
    a_ij = <alpha_j, alpha_i^vee> read from Cartan row i."""
    if not 1 <= i <= rs.rank:
        raise ValueError(f"reflection index {i} out of range 1..{rs.rank}")
    r, a = rs.rank, rs.cartan[i - 1]
    cols = tuple(
        tuple(int(k == j) - a[j] * int(k == i - 1) for k in range(r)) for j in range(r)
    )
    return WeylElement(cols, (i,))


def rmul_simple(cartan, cols, i: int) -> tuple:
    """Columns of m s_{i+1} from the columns of m: column j becomes
    col_j - a_ij col_i, a_ij read from Cartan row i."""
    ci, row = cols[i], cartan[i]
    return tuple(
        tuple(x - row[j] * y for x, y in zip(col, ci)) if row[j] else col
        for j, col in enumerate(cols)
    )


def compose(cartan, a: WeylElement, b: WeylElement) -> WeylElement:
    """Product a*b in the Weyl group of ``cartan`` by matrix multiplication
    on columns, col_j(ab) = sum_k b.columns[j][k] a.columns[k], its word
    recomputed from scratch (ValueError when the product is no element)."""
    cols = tuple(tuple(image(a, col)) for col in b.columns)
    return WeylElement(cols, canonical_word(cartan, cols))


def length_by_negative_roots(rs: RootSystem, e: WeylElement) -> int:
    """Coxeter length as the number of positive roots sent negative."""
    return sum(1 for v in rs.root_vectors if min(image(e, v)) < 0)


def determinant(m) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def orbit_positive_roots(cartan) -> set[tuple[int, ...]]:
    """All positive roots via reflection-orbit closure from the simple roots.

    Independent of the library's height-induction construction: saturates
    the set of +-simple roots under every simple reflection
    s_i(v) = v - <v, coroot_i> alpha_i, then keeps the nonnegative vectors.
    """
    r = len(cartan)
    roots: set[tuple[int, ...]] = set()
    for i in range(r):
        unit = tuple(1 if j == i else 0 for j in range(r))
        roots.add(unit)
        roots.add(tuple(-c for c in unit))
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(r):
                pairing = sum(cartan[i][j] * v[j] for j in range(r))
                w = list(v)
                w[i] -= pairing
                w = tuple(w)
                if w not in roots:
                    roots.add(w)
                    new.add(w)
        frontier = new
    return {v for v in roots if all(c >= 0 for c in v)}


def brute_force_partitions(root_vectors, xi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every partition of xi as a multiplicity tuple, in sorted order, by
    enumerating the whole multiplicity box.

    Each root's usage is bounded coordinatewise; every combination in the
    product box is checked by direct summation.  Exponential, so callers
    keep xi small (the tests use rank <= 3 and height <= 8).
    """
    r = len(xi)
    bounds = []
    for v in root_vectors:
        bounds.append(min(xi[j] // v[j] for j in range(r) if v[j]))
    found = []
    for combo in itertools.product(*(range(b + 1) for b in bounds)):
        total = [0] * r
        for m, v in zip(combo, root_vectors):
            if m:
                for j in range(r):
                    total[j] += m * v[j]
        if tuple(total) == xi:
            found.append(combo)
    return found


def brute_force_pq(root_vectors, xi: tuple[int, ...]) -> tuple[int, ...]:
    """Graded partition count of xi, from :func:`brute_force_partitions`."""
    counts = Counter(map(sum, brute_force_partitions(root_vectors, xi)))
    return tuple(counts[i] for i in range(max(counts, default=-1) + 1))


def _symmetrizer(cartan) -> list[int]:
    """Integers d_i, proportional to the squared lengths of the simple roots,
    with d_i * cartan[i][j] symmetric; cartan[i][j] = <alpha_j, alpha_i^vee>."""
    r = len(cartan)
    d = [Fraction(1)] + [None] * (r - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(r):
            if cartan[i][j] and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                todo.append(j)
    scale = lcm(*(x.denominator for x in d))
    return [int(x * scale) for x in d]


def freudenthal_multiplicity(
    cartan, lam: tuple[int, ...], beta: tuple[int, ...]
) -> int:
    """Multiplicity of the weight lam - beta in the irreducible module of
    highest weight lam (Dynkin labels), beta in simple-root coordinates.

    Freudenthal's recursion in exact integers, with the symmetrised form
    (alpha_i, alpha_j) = d_i cartan[i][j]: for mu = lam - beta dominant,
    (2 (lam + rho, beta) - (beta, beta)) m(mu)
        = 2 sum_{alpha > 0} sum_{k >= 1} (mu + k alpha, alpha) m(mu + k alpha),
    where (lam + rho, alpha_i) = d_i (lam_i + 1).  A non-dominant weight
    takes the multiplicity of its dominant conjugate, reached by simple
    reflections; a weight with some conjugate not below lam has none.  The
    positive roots come from :func:`orbit_positive_roots`.
    """
    r = len(cartan)
    d = _symmetrizer(cartan)
    form = [[d[i] * cartan[i][j] for j in range(r)] for i in range(r)]

    def pair(u, v) -> int:
        return sum(u[i] * form[i][j] * v[j] for i in range(r) for j in range(r))

    roots = [
        (a, pair(a, a), sum(a[i] * d[i] * lam[i] for i in range(r)))
        for a in sorted(orbit_positive_roots(cartan))
    ]
    memo: dict[tuple[int, ...], int] = {}

    def m(beta: tuple[int, ...]) -> int:
        while min(beta) >= 0:
            labels = [lam[i] - sum(map(mul, cartan[i], beta)) for i in range(r)]
            low = min(range(r), key=labels.__getitem__)
            if labels[low] >= 0:
                break
            beta = beta[:low] + (beta[low] + labels[low],) + beta[low + 1:]
        else:
            return 0
        if not any(beta):
            return 1
        if beta not in memo:
            total = 0
            for a, aa, lam_a in roots:
                higher, k = beta, 1
                while min(higher := tuple(x - y for x, y in zip(higher, a))) >= 0:
                    total += (lam_a - pair(beta, a) + k * aa) * m(higher)
                    k += 1
            den = 2 * sum(beta[i] * d[i] * (lam[i] + 1) for i in range(r))
            den -= pair(beta, beta)
            quotient, rem = divmod(2 * total, den)
            if rem or quotient < 0:
                raise ArithmeticError(f"Freudenthal: {2 * total}/{den} at {beta}")
            memo[beta] = quotient
        return memo[beta]

    return m(tuple(beta))


def weyl_dimension(cartan, lam: tuple[int, ...]) -> int:
    """dim V(lam) by Weyl's formula, lam in simple-root coordinates:
    the product over alpha > 0 of (lam + rho, alpha) / (rho, alpha), with
    (lam + rho, alpha_i) = d_i (<lam, alpha_i^vee> + 1) from
    :func:`_symmetrizer` and the roots from :func:`orbit_positive_roots`."""
    r = len(cartan)
    d = _symmetrizer(cartan)
    labels = [sum(map(mul, cartan[i], lam)) for i in range(r)]
    num = den = 1
    for a in orbit_positive_roots(cartan):
        num *= sum(a[i] * d[i] * (labels[i] + 1) for i in range(r))
        den *= sum(a[i] * d[i] for i in range(r))
    quotient, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Weyl's formula: {num}/{den} at {lam}")
    return quotient


def harmonic_dimensions(exponents, dim: int, k_max: int) -> list[int]:
    """dim H^k for k <= k_max: the coefficients of
    prod_i (1 - q^(e_i + 1)) / (1 - q)^dim, the Hilbert series of the
    symmetric algebra over its invariants, free on degrees e_i + 1
    (Kostant, Amer. J. Math. 85 (1963))."""
    series = [1] + [0] * k_max
    for _ in range(dim):  # times 1 / (1 - q)
        for k in range(1, k_max + 1):
            series[k] += series[k - 1]
    for e in exponents:  # times 1 - q^(e + 1)
        for k in range(k_max, e, -1):
            series[k] -= series[k - e - 1]
    return series


def semistandard_tableaux(shape, content):
    """Every semistandard tableau of a partition shape and composition
    content, as a tuple of rows, by adding the letters 1, 2, ... in turn as
    horizontal strips: each new row length lies between the old one and
    the old length of the row above."""
    tableaux = [tuple(() for _ in shape)]
    for letter, count in enumerate(content, 1):
        grown = []
        for t in tableaux:
            old = [len(row) for row in t]
            tops = [shape[0]] + [min(s, o) for s, o in zip(shape[1:], old)]
            ranges = [range(o, top + 1) for o, top in zip(old, tops)]
            for new in itertools.product(*ranges):
                if sum(new) - sum(old) == count:
                    grown.append(
                        tuple(r + (letter,) * (n - len(r)) for r, n in zip(t, new))
                    )
        tableaux = grown
    return [t for t in tableaux if [len(row) for row in t] == list(shape)]


def charge(word) -> int:
    """Charge of a word of partition content (Lascoux-Schutzenberger, C. R.
    Acad. Sci. 286A (1978)).  Standard subwords are extracted in turn, each
    by reading cyclically leftwards from the right end for 1, 2, ..., as
    long as every letter remains; letter r + 1 takes the index of r, plus
    one when the reading wrapped past the left end to reach it, and the
    charge is the sum of the indices of every subword."""
    rest, total = list(word), 0
    while rest:
        pos, index, picked = len(rest), 0, set()
        for letter in range(1, max(rest) + 1):
            left = [i for i in range(pos) if rest[i] == letter]
            if not left:
                index += 1
                left = [i for i, x in enumerate(rest) if x == letter]
            pos = left[-1]
            total += index
            picked.add(pos)
        rest = [x for i, x in enumerate(rest) if i not in picked]
    return total


def kostka_foulkes(shape, content) -> list[int]:
    """K_{shape, content}(q), coefficients from q^0: the sum of q^charge
    over the semistandard tableaux, each read row by row from the bottom."""
    coeffs = Counter(
        charge([x for row in reversed(t) for x in row])
        for t in semistandard_tableaux(shape, content)
    )
    return [coeffs[k] for k in range(max(coeffs, default=-1) + 1)]


def exhaustive_alternation(elements, lam: Weight, mu: Weight, rho: Weight) -> dict:
    """{columns: xi} over every element sigma whose xi = sigma(lam+rho) - (rho+mu)
    has nonnegative integer coefficients, found by testing each element.

    Independent of the library's Weyl action: both weights are scaled by the
    lcm d of their denominators, each element acts on plain ints through its
    columns, and xi is kept when every scaled coefficient is a nonnegative
    multiple of d.
    """
    target, shift = lam + rho, rho + mu
    d = lcm(*(c.denominator for c in target.coeffs + shift.coeffs))
    t = [int(c * d) for c in target.coeffs]
    s = [int(c * d) for c in shift.coeffs]
    found = {}
    for e in elements:
        v = [x - sj for x, sj in zip(image(e, t), s)]
        if min(v) >= 0 and all(x % d == 0 for x in v):
            found[e.columns] = Weight([x // d for x in v])
    return found


def random_dominant_weight(rs: RootSystem, rng: Random, max_total: int = 2) -> Weight:
    """A dominant integral weight with fundamental coordinates summing to at
    most ``max_total``."""
    m = [0] * rs.rank
    for _ in range(rng.randint(0, max_total)):
        m[rng.randrange(rs.rank)] += 1
    return rs.omega_to_alpha(m)


def random_dominant_pair(
    rs: RootSystem, rng: Random, max_total: int = 2
) -> tuple[Weight, Weight]:
    """A dominant (lambda, mu) pair; half the time mu is built from lambda by
    subtracting positive roots, so the pair is root-lattice compatible and
    the alternation set is usually nonempty."""
    lam = random_dominant_weight(rs, rng, max_total)
    if rng.random() < 0.5:
        return lam, random_dominant_weight(rs, rng, max_total)
    for _ in range(40):
        beta = [0] * rs.rank
        for _ in range(rng.randint(1, 2)):
            v = rng.choice(rs.root_vectors)
            for j in range(rs.rank):
                beta[j] += v[j]
        mu = lam - Weight(beta)
        if rs.is_dominant(mu):
            return lam, mu
    return lam, rs.zero_weight()

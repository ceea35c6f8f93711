"""Reference computations for the benchmark, independent of qkostant.

Nothing here imports the library.  The root data start from the Gram matrix
of the simple roots (not from a Cartan matrix), the positive roots come from
closing the simple roots under reflections (not from root strings), the
plain multiplicities come from Freudenthal's formula (not from Kostant's
alternating sum), and the graded partition counter is a plain coin-change
over this module's own roots, with a limb width derived from a proven bound
rather than a fixed one.

Conventions match the library's (Bourbaki numbering; B_r has alpha_r short,
C_r has alpha_r long, G2 has alpha_1 short).  Weights are integer vectors:
``omega`` coordinates for dominance and Freudenthal, ``alpha`` coordinates
for partitions and for what is handed to the library.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

E8_ALTERNATION_SIZE = 2318


def gram(name: str) -> tuple[tuple[int, ...], ...]:
    """Gram matrix (alpha_i, alpha_j) of the simple roots, short roots of
    squared length 2."""
    family, r = name[0], int(name[1:])
    g = [[0] * r for _ in range(r)]

    def node(i: int, length: int) -> None:
        g[i][i] = length

    def edge(i: int, j: int, value: int = -1) -> None:
        g[i][j] = g[j][i] = value

    if family == "A":
        for i in range(r):
            node(i, 2)
        for i in range(r - 1):
            edge(i, i + 1)
    elif family == "B":
        for i in range(r - 1):
            node(i, 4)
        node(r - 1, 2)
        for i in range(r - 1):
            edge(i, i + 1, -2)
    elif family == "C":
        for i in range(r - 1):
            node(i, 2)
        node(r - 1, 4)
        for i in range(r - 2):
            edge(i, i + 1)
        edge(r - 2, r - 1, -2)
    elif family == "D":
        for i in range(r):
            node(i, 2)
        for i in range(r - 2):
            edge(i, i + 1)
        edge(r - 3, r - 1)
    elif family == "E":
        for i in range(r):
            node(i, 2)
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif family == "F" and r == 4:
        for i, length in enumerate((4, 4, 2, 2)):
            node(i, length)
        edge(0, 1, -2)
        edge(1, 2, -2)
        edge(2, 3)
    elif family == "G" and r == 2:
        node(0, 2)
        node(1, 6)
        edge(0, 1, -3)
    else:
        raise ValueError(f"unknown type {name}")
    return tuple(tuple(row) for row in g)


class Roots:
    """Positive roots and pairings of one type, from its Gram matrix."""

    def __init__(self, name: str) -> None:
        self.name = name
        g = gram(name)
        r = len(g)
        self.rank = r
        self.half = tuple(g[i][i] // 2 for i in range(r))
        # a[i][j] = <alpha_j, coroot_i> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i)
        self.a = tuple(
            tuple(2 * g[i][j] // g[i][i] for j in range(r)) for i in range(r)
        )
        found = set()
        todo = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        found.update(todo)
        while todo:
            v = todo.pop()
            for i in range(r):
                c = sum(self.a[i][j] * v[j] for j in range(r))
                w = list(v)
                w[i] -= c
                w = tuple(w)
                if w not in found and min(w) >= 0 and max(w) > 0:
                    found.add(w)
                    todo.append(w)
        self.roots = tuple(sorted(found, key=lambda v: (sum(v), v)))
        self.roots_omega = tuple(self.to_omega(v) for v in self.roots)
        self.weyl_order = self.parabolic_order(range(r))

    def to_omega(self, v) -> tuple[int, ...]:
        """Fundamental-weight coordinates <v, coroot_i> of an alpha vector."""
        r = self.rank
        return tuple(sum(self.a[i][j] * v[j] for j in range(r)) for i in range(r))

    def to_alpha(self, x) -> tuple[Fraction, ...]:
        """Simple-root coordinates of an omega vector, by exact elimination."""
        r = self.rank
        m = [[Fraction(self.a[i][j]) for j in range(r)] + [Fraction(x[i])]
             for i in range(r)]
        for c in range(r):
            p = next(k for k in range(c, r) if m[k][c] != 0)
            m[c], m[p] = m[p], m[c]
            m[c] = [v / m[c][c] for v in m[c]]
            for k in range(r):
                if k != c and m[k][c] != 0:
                    f = m[k][c]
                    m[k] = [u - f * v for u, v in zip(m[k], m[c])]
        return tuple(row[r] for row in m)

    def pair(self, x_omega, v_alpha) -> int:
        """(x, v) for x in omega and v in alpha coordinates, scaled so that
        short roots have squared length 2."""
        return sum(x * v * h for x, v, h in zip(x_omega, v_alpha, self.half))

    def parabolic_order(self, nodes) -> int:
        """|W_J| as the product over the positive roots supported on J of
        (ht + 1) / ht (Kostant's dual-partition form of prod(e_i + 1))."""
        nodes = set(nodes)
        out = Fraction(1)
        for v in self.roots:
            if all(c == 0 or j in nodes for j, c in enumerate(v)):
                h = sum(v)
                out *= Fraction(h + 1, h)
        if out.denominator != 1:
            raise ArithmeticError(f"non-integral parabolic order for {self.name}")
        return int(out)

    def dominant_conjugate(self, x) -> tuple[int, ...]:
        x = list(x)
        r = self.rank
        while True:
            i = next((i for i in range(r) if x[i] < 0), None)
            if i is None:
                return tuple(x)
            c = x[i]
            for j in range(r):
                x[j] -= c * self.a[j][i]

    def reflect(self, x, i: int) -> tuple[int, ...]:
        """s_i on an omega vector (0-based i)."""
        c = x[i]
        return tuple(x[j] - c * self.a[j][i] for j in range(self.rank))

    def dominant_weights(self, lam) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Every dominant mu <= lam (omega), mapped to lam - mu in alpha
        coordinates.  Search down from lam by positive roots, which reaches
        them all (Stembridge, The partial order of dominant weights, 1998)."""
        lam = tuple(lam)
        depth = {lam: (0,) * self.rank}
        todo = [lam]
        while todo:
            mu = todo.pop()
            d = depth[mu]
            for v, vo in zip(self.roots, self.roots_omega):
                nu = tuple(a - b for a, b in zip(mu, vo))
                if min(nu) >= 0 and nu not in depth:
                    depth[nu] = tuple(a + b for a, b in zip(d, v))
                    todo.append(nu)
        return depth

    def freudenthal(self, lam) -> dict[tuple[int, ...], int]:
        """m(lam, mu) for every dominant mu <= lam, by Freudenthal's formula
        (Humphreys, GTM 9, 22.3) in exact integer arithmetic, checked against
        the Weyl dimension formula."""
        lam = tuple(lam)
        depth = self.dominant_weights(lam)
        rho2 = (2,) * self.rank
        mult = {lam: 1}
        for mu in sorted(depth, key=lambda w: sum(depth[w])):
            if mu == lam:
                continue
            lhs = self.pair(
                tuple(a + b + c for a, b, c in zip(lam, mu, rho2)), depth[mu]
            )
            rhs = 0
            for v, vo in zip(self.roots, self.roots_omega):
                nu = mu
                while True:
                    nu = tuple(a + b for a, b in zip(nu, vo))
                    dom = self.dominant_conjugate(nu)
                    if dom not in depth:
                        break
                    rhs += mult[dom] * self.pair(nu, v)
            q, rem = divmod(2 * rhs, lhs)
            if rem:
                raise ArithmeticError(f"Freudenthal quotient not integral at {mu}")
            mult[mu] = q
        if self.character_dimension(mult) != self.weyl_dimension(lam):
            raise ArithmeticError(f"Freudenthal for {self.name} {lam} fails the "
                                  "Weyl dimension formula")
        return mult

    def weyl_dimension(self, lam) -> int:
        num = prod(self.pair(tuple(c + 1 for c in lam), v) for v in self.roots)
        den = prod(self.pair((1,) * self.rank, v) for v in self.roots)
        if num % den:
            raise ArithmeticError("Weyl dimension not integral")
        return num // den

    def character_dimension(self, mult: dict[tuple[int, ...], int]) -> int:
        """sum over dominant mu of |W mu| m(mu), with |W mu| = |W| / |W_mu|."""
        total = 0
        for mu, m in mult.items():
            stab = self.parabolic_order(i for i in range(self.rank) if mu[i] == 0)
            total += self.weyl_order // stab * m
        return total

    def graded_partitions(self, xi) -> list[int]:
        """Coefficients of sum over partitions of xi into positive roots of
        q^(number of parts)."""
        if min(xi) < 0:
            return []
        return self.graded_partition_table(xi)(xi)

    def graded_partition_table(self, box):
        """Unbounded coin-change over the box [0, box], once; returns a
        function giving graded_partitions(xi) for any xi in the box."""
        r = self.rank
        box = tuple(box)
        # Each coefficient is at most the plain count, which is at most the
        # product over roots of (largest possible number of copies + 1); the
        # bound for the box covers every xi inside it.
        bound = prod(
            min(x // c for x, c in zip(box, v) if c) + 1 for v in self.roots
        )
        width = bound.bit_length() + 1
        strides = [1] * r
        for j in range(r - 2, -1, -1):
            strides[j] = strides[j + 1] * (box[j + 1] + 1)
        table = [0] * (strides[0] * (box[0] + 1))
        table[0] = 1
        for v in self.roots:
            if any(c > x for c, x in zip(v, box)):
                continue
            off = sum(c * s for c, s in zip(v, strides))
            cells = [0]
            for j in range(r):
                s = strides[j]
                cells = [u + k * s for u in cells for k in range(v[j], box[j] + 1)]
            for u in cells:
                b = table[u - off]
                if b:
                    table[u] += b << width
        mask = (1 << width) - 1

        def lookup(xi) -> list[int]:
            if any(not 0 <= x <= b for x, b in zip(xi, box)):
                raise ValueError(f"{xi} lies outside the box {box}")
            packed = table[sum(x * s for x, s in zip(xi, strides))]
            out = []
            while packed:
                out.append(packed & mask)
                packed >>= width
            return out

        return lookup


def e8_exponents() -> tuple[int, ...]:
    """The exponents of E8: the integers in [1, 29] coprime to the Coxeter
    number 30."""
    return tuple(e for e in range(1, 30) if gcd(e, 30) == 1)


def self_test() -> None:
    """Check the reference data against closed forms known independently."""
    orders = {"A4": 120, "B4": 384, "C3": 48, "D5": 1920, "E6": 51840,
              "E8": 696729600, "F4": 1152, "G2": 12}
    for name, order in orders.items():
        rs = Roots(name)
        if rs.weyl_order != order:
            raise AssertionError(f"|W({name})| = {rs.weyl_order}, expected {order}")
    if len(Roots("E8").roots) != 120 or sum(e8_exponents()) != 120:
        raise AssertionError("E8 root count")
    g2 = Roots("G2")
    if g2.graded_partitions((2, 2)) != [0, 0, 2, 1, 1]:
        raise AssertionError("G2 graded partitions of 2a1 + 2a2")
    if g2.freudenthal((1, 0)) != {(1, 0): 1, (0, 0): 1}:
        raise AssertionError("G2 seven-dimensional representation")


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")

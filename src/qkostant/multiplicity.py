"""Weight multiplicities and their q-analogs via the alternating sum.

The multiplicity polynomial is the signed sum, over the contributing Weyl
elements, of the graded partition value of sigma(lam+rho)-(rho+mu); the
plain multiplicity is its value at q = 1.  Restricting the sum to the
alternation set is lossless because every excluded element contributes the
zero polynomial.

For dominant lam, sigma(lam+rho) <= lam+rho, so every xi_sigma lies in the
box xi_id = lam - mu, known before the search; one genfunc table over it
serves every element (see ``partition``).  Its plain pass gives each
p(xi_sigma) and so m.  m_q itself is summed once, at q = 2^w, from one
pass evaluated there, and decoded in balanced digits; w must hold every
coefficient of m_q, each at most B in absolute value.  For dominant mu
the coefficients are nonnegative (Kato, Invent. Math. 66 (1982);
Lusztig, Asterisque 101-102 (1983)) and sum to m, so B = m; for any other
mu the triangle inequality gives B = sum of p(xi_sigma).  Every record's
graded value is left to a graded pass over the same table, run only when
one is read.

For the adjoint representation and the zero weight the polynomial equals
sum_i q^(e_i) over the exponents e_1, ..., e_r of the algebra;
:func:`verify_exponents` checks this identity together with the classical
consistency checks sum(e_i) = number of positive roots and
prod(e_i + 1) = order of the Weyl group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from math import prod
from typing import Optional, Sequence, Union

from .partition import (
    _as_int_vec,
    _GenfuncTable,
    check_table_budget,
    partition_genfunc_batch,
    partition_tree_count,
)
from .qpoly import QPolynomial
from .rootsys import IntVec, LieType, RootSystem, Weight
from .weyl import (
    DEFAULT_MAX_GROUP_ORDER,
    AlternationRecord,
    WeylElement,
    alternation_set,
    apply,
    enumerate_group,
    group_order_bfs,
)

# External reference data for the exceptional types: exponents, and the
# published sizes of the adjoint zero-weight alternation sets and Weyl
# groups.  Two entries disagree with what the definitions force and are
# surfaced as notes by verify_exponents rather than silently matched:
# the G2 set size (listed 2, the definition yields 3) and the E6 group
# order (listed 25920, the group has 51840 elements).
EXCEPTIONAL_EXPONENTS = {
    "G2": (1, 5),
    "F4": (1, 5, 7, 11),
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}
LISTED_ALT_SET_SIZES = {"G2": 2, "F4": 25, "E6": 58, "E7": 258, "E8": 2318}
EXPECTED_ALT_SET_SIZES = {"G2": 3, "F4": 25, "E6": 58, "E7": 258, "E8": 2318}
LISTED_WEYL_ORDERS = {
    "G2": 12,
    "F4": 1152,
    "E6": 25920,
    "E7": 2903040,
    "E8": 696729600,
}


def reference_exponents(t: Union[str, LieType]) -> tuple[int, ...]:
    """Exponents of the simple type, as a sorted multiset.

    Classical families follow the closed forms (D_r repeats r-1 when r is
    even); exceptional types use the table above.
    """
    t = LieType.parse(t)
    r = t.rank
    if t.family == "A":
        return tuple(range(1, r + 1))
    if t.family in "BC":
        return tuple(range(1, 2 * r, 2))
    if t.family == "D":
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return EXCEPTIONAL_EXPONENTS[str(t)]


@dataclass(frozen=True)
class MultiplicityResult:
    """The multiplicity polynomial with its full per-element breakdown."""

    lie_type: LieType
    lam: Weight
    mu: Weight
    mq: QPolynomial
    m: int
    records: tuple[AlternationRecord, ...]


def compute_mq(
    rs: RootSystem,
    lam: Optional[Weight] = None,
    mu: Optional[Weight] = None,
    method: str = "genfunc",
) -> MultiplicityResult:
    """q-analog multiplicity of mu in the highest-weight representation of
    lam, from the alternation set; defaults are the highest root and zero.
    Counts come from the genfunc kernel.  ``method="tree"`` counts each
    record with :func:`partition_tree_count` instead; it exists only as a
    cross-check of the two kernels, which the benchmark's smoke test runs.

    lam must be dominant integral (ValueError otherwise).  Unless mu is
    dominant too, the polynomial may have negative coefficients.  Every
    xi_sigma lies in the box lam - mu, and distinct sigma give distinct
    xi_sigma, so one budget on the table over that box bounds the search
    and the table alike: past it, TableBudgetError (a ValueError) is raised
    before any work.

    With genfunc, m_q is read from one pass evaluated at q = 2^w (module
    notes); a record's ``pq`` is computed when it is first read, by one
    graded pass over the same table for all of them.
    """
    lam = rs.highest_root if lam is None else lam
    mu = rs.zero_weight() if mu is None else mu
    if method not in ("genfunc", "tree"):
        raise ValueError(f"unknown method {method!r}; expected 'tree' or 'genfunc'")
    box = _as_int_vec(rs, lam - mu)
    if box is not None:
        check_table_budget(rs, box)
    records = alternation_set(rs, lam, mu)
    # Nonnegativity is a theorem only for dominant lam and mu (Kato 1982,
    # Lusztig 1983); alternation_set has already rejected a non-dominant lam.
    dominant = bool(records) and rs.is_dominant(mu)
    if method == "tree":
        records = [
            AlternationRecord(
                rec.element, rec.xi, rec.sign, partition_tree_count(rs, rec.xi)
            )
            for rec in records
        ]
        mq = sum(
            (rec.pq if rec.sign > 0 else -rec.pq for rec in records),
            QPolynomial.zero(),
        )
        m = mq.at_one()
    elif records:
        mq, m, records = _evaluated_mq(rs, box, records, dominant)
    else:
        mq, m = QPolynomial.zero(), 0
    if dominant and any(c < 0 for c in mq.coeffs):
        raise RuntimeError(
            f"negative coefficient in m_q({lam!r}, {mu!r}) over {rs.lie_type}: "
            f"{list(mq.coeffs)} -- this indicates a bug"
        )
    return MultiplicityResult(
        lie_type=rs.lie_type,
        lam=lam,
        mu=mu,
        mq=mq,
        m=m,
        records=tuple(records),
    )


def _evaluated_mq(
    rs: RootSystem,
    box: IntVec,
    records: Sequence[AlternationRecord],
    dominant: bool,
) -> tuple[QPolynomial, int, list[AlternationRecord]]:
    """m_q, m and the records with a lazy ``pq``, from one table over
    ``box``: m from the plain pass, m_q from one pass evaluated at q = 2^w,
    w wide enough for every coefficient (module notes)."""
    table = _GenfuncTable(rs, box)
    xis = [rec.xi.coeffs for rec in records]
    # sigma(lam + rho) <= lam + rho for dominant lam, so every xi is <= box
    top = tuple(map(max, *xis, box))
    if top != box:
        raise RuntimeError(
            f"some xi reaches {top}, outside the box {box} -- this indicates a bug"
        )
    counts = [table.count(v) for v in xis]
    m = sum(c if rec.sign > 0 else -c for c, rec in zip(counts, records))
    # Every coefficient of m_q is at most B in absolute value: B = m when
    # the coefficients are nonnegative (dominant mu), the sum of the
    # |terms| at q = 1 otherwise.
    mq = table.signed_sum(
        zip((rec.sign for rec in records), xis), m if dominant else sum(counts)
    )
    if mq.at_one() != m:
        raise RuntimeError(
            f"m_q(1) = {mq.at_one()} but the plain counts give m = {m} over "
            f"{rs.lie_type} -- this indicates a bug"
        )
    filled = [
        AlternationRecord(rec.element, rec.xi, rec.sign, partial(table, v))
        for rec, v in zip(records, xis)
    ]
    return mq, m, filled


def compute_m(
    rs: RootSystem,
    lam: Optional[Weight] = None,
    mu: Optional[Weight] = None,
) -> int:
    """Plain weight multiplicity: the q-analog evaluated at q = 1."""
    return compute_mq(rs, lam, mu).m


def full_group_mq(
    rs: RootSystem,
    lam: Optional[Weight] = None,
    mu: Optional[Weight] = None,
    elements: Optional[Sequence[WeylElement]] = None,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> QPolynomial:
    """The same polynomial summed over the whole Weyl group (no pruning).

    Exists as the independent cross-check of the alternation-set route;
    only feasible for groups small enough to enumerate.  Every
    xi = sigma(lam+rho)-(rho+mu) goes to the partition kernel unfiltered:
    one that is not a nonnegative integral vector counts as zero there.
    """
    lam = rs.highest_root if lam is None else lam
    mu = rs.zero_weight() if mu is None else mu
    if elements is None:
        elements = enumerate_group(rs, max_order)
    target = lam + rs.rho
    shift = rs.rho + mu
    pqs = partition_genfunc_batch(rs, [apply(e, target) - shift for e in elements])
    return sum(
        (-pq if e.length % 2 else pq for e, pq in zip(elements, pqs) if pq),
        QPolynomial.zero(),
    )


@dataclass(frozen=True)
class ExponentReport:
    """Outcome of the exponent identity check for one simple type."""

    lie_type: LieType
    mq: QPolynomial
    exponents: tuple[int, ...]
    reference: tuple[int, ...]
    identity_holds: bool
    multiplicity_free: bool
    sum_matches_root_count: bool
    product_matches_group_order: bool
    alt_set_size: int
    expected_alt_set_size: Optional[int]
    listed_alt_set_size: Optional[int]
    weyl_order: int
    enumerated_weyl_order: Optional[int]
    notes: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        checks = [
            self.identity_holds,
            self.sum_matches_root_count,
            self.product_matches_group_order,
        ]
        if self.expected_alt_set_size is not None:
            checks.append(self.alt_set_size == self.expected_alt_set_size)
        if self.enumerated_weyl_order is not None:
            checks.append(self.enumerated_weyl_order == self.weyl_order)
        return all(checks)


def verify_exponents(rs: RootSystem, enumerate_order_limit: int = 0) -> ExponentReport:
    """Check that the adjoint zero-weight q-multiplicity, by the genfunc
    kernel, lists the exponents.

    When ``enumerate_order_limit`` is positive and at least the known group
    order, the group is also counted by walking it and compared against the
    closed form.  Mismatches are reported in the returned record, never raised.
    """
    started = time.perf_counter()
    result = compute_mq(rs)
    reference = reference_exponents(rs.lie_type)
    exponents = result.mq.exponent_multiset()
    identity_holds = exponents == tuple(sorted(reference))
    order = rs.weyl_order
    name = str(rs.lie_type)
    notes: list[str] = []

    multiplicity_free = result.mq.is_multiplicity_free()
    if not multiplicity_free:
        notes.append(
            "repeated exponent (expected for D with even rank); the identity "
            "is checked as a multiset"
        )
    sum_ok = sum(reference) == len(rs.positive_roots)
    product_ok = prod(e + 1 for e in reference) == order

    alt_size = len(result.records)
    expected_alt = EXPECTED_ALT_SET_SIZES.get(name)
    listed_alt = LISTED_ALT_SET_SIZES.get(name)
    if listed_alt is not None and listed_alt != alt_size:
        notes.append(
            f"computed |A| = {alt_size} but the reference table lists "
            f"{listed_alt}; the computed value follows from the definition"
        )
    listed_order = LISTED_WEYL_ORDERS.get(name)
    if listed_order is not None and listed_order != order:
        notes.append(
            f"|W| = {order} (= prod(e_i + 1)) but the reference table lists "
            f"{listed_order}"
        )

    enumerated = None
    if 0 < order <= enumerate_order_limit:
        enumerated = group_order_bfs(rs, enumerate_order_limit)
        if enumerated != order:
            notes.append(
                f"walking the group found {enumerated} elements, closed form "
                f"gives {order}"
            )

    return ExponentReport(
        lie_type=rs.lie_type,
        mq=result.mq,
        exponents=exponents,
        reference=tuple(sorted(reference)),
        identity_holds=identity_holds,
        multiplicity_free=multiplicity_free,
        sum_matches_root_count=sum_ok,
        product_matches_group_order=product_ok,
        alt_set_size=alt_size,
        expected_alt_set_size=expected_alt,
        listed_alt_set_size=listed_alt,
        weyl_order=order,
        enumerated_weyl_order=enumerated,
        notes=tuple(notes),
        elapsed=time.perf_counter() - started,
    )

"""Acceptance criteria, one test per criterion at its stated tolerance.

Every tolerance is exact; the stated runtime limits are asserted on wall
time.  A one-line PASS/FAIL summary per criterion is printed at the end of
the run (see conftest).
"""

import json
import time
from fractions import Fraction
from math import prod
from random import Random

import pytest

import golden_tables as gt
from qkostant import (
    QPolynomial,
    Weight,
    alternation_set,
    apply,
    build_root_system,
    compute_mq,
    enumerate_group,
    full_group_mq,
    partition_genfunc,
    partition_tree_count,
    partition_tree_list,
    verify_exponents,
    weyl_group_order,
    word_str,
)
from qkostant.cli import main as cli_main
from support import (
    brute_force_pq,
    determinant,
    exhaustive_alternation,
    random_dominant_pair,
    simple_reflection,
)

RANK_LE_4 = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "F4", "G2",
]
ALL_RANK_8 = (
    [f"A{r}" for r in range(1, 9)]
    + [f"B{r}" for r in range(2, 9)]
    + [f"C{r}" for r in range(2, 9)]
    + [f"D{r}" for r in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


@pytest.fixture(scope="session")
def exceptional_reports():
    """Exponent reports for all five exceptional types, computed once."""
    return {
        name: verify_exponents(build_root_system(name))
        for name in ["G2", "F4", "E6", "E7", "E8"]
    }


def check_golden_table(name, rank, rows, mq_latex):
    """Row-for-row comparison against a reference table; returns seconds."""
    rs = build_root_system(name)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = compute_mq(rs)
        best = min(best, time.perf_counter() - start)
    assert len(result.records) == len(rows)
    for (_, word, length, xi_latex, pq_latex), rec in zip(rows, result.records):
        # same group element, and the canonical word agrees verbatim
        assert rec.element.word == gt.parse_word(word)
        assert word_str(rec.element.word) == word
        assert rec.element.length == length
        assert rec.xi.nonnegative_ints() == gt.parse_weight_latex(xi_latex, rank)
        assert rec.pq.coeffs == gt.parse_qpoly_latex(pq_latex)
        assert rec.pq.latex() == pq_latex
        assert rec.xi.latex() == xi_latex
        assert rec.sign == (-1) ** length
    assert result.mq == QPolynomial(gt.parse_qpoly_latex(mq_latex))
    return best


@pytest.mark.acceptance(1, "G2 golden table")
def test_c1_g2_golden_table():
    elapsed = check_golden_table("G2", gt.G2_RANK, gt.G2_ROWS, gt.G2_MQ)
    result = compute_mq(build_root_system("G2"))
    assert result.mq.compact_text() == "q + q^5"
    assert [r.xi.nonnegative_ints() for r in result.records] == [(3, 2), (2, 2), (3, 0)]
    assert elapsed < 0.010


@pytest.mark.acceptance(2, "F4 golden table")
def test_c2_f4_golden_table():
    elapsed = check_golden_table("F4", gt.F4_RANK, gt.F4_ROWS, gt.F4_MQ)
    assert elapsed < 1.0


@pytest.mark.acceptance(3, "E6 golden table")
def test_c3_e6_golden_table():
    elapsed = check_golden_table("E6", gt.E6_RANK, gt.E6_ROWS, gt.E6_MQ)
    assert elapsed < 10.0


@pytest.mark.acceptance(4, "alternation-set cardinalities G2/F4/E6/E7/E8")
def test_c4_cardinalities(exceptional_reports, tmp_path):
    expected = {"G2": 3, "F4": 25, "E6": 58, "E7": 258, "E8": 2318}
    for name, size in expected.items():
        report = exceptional_reports[name]
        assert report.alt_set_size == size, name
    g2 = exceptional_reports["G2"]
    assert g2.listed_alt_set_size == 2
    assert any("reference table lists 2" in note for note in g2.notes)
    # E8: worklist search plus one graded count per record, within 15 minutes
    assert exceptional_reports["E8"].elapsed < 900.0
    # the CLI surface agrees
    out = tmp_path / "e8.json"
    assert cli_main(["altset", "E8", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 2318
    assert len(payload["records"]) == 2318


@pytest.mark.acceptance(5, "exponent identity, exceptional and classical")
def test_c5_exponent_identity(exceptional_reports):
    table = {
        "G2": (1, 5),
        "F4": (1, 5, 7, 11),
        "E6": (1, 4, 5, 7, 8, 11),
        "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    }
    for name, exps in table.items():
        report = exceptional_reports[name]
        assert report.identity_holds, name
        assert report.exponents == exps
        assert report.multiplicity_free
        assert report.mq.at_one() == build_root_system(name).rank
        assert report.ok
    classical = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4"]
    for name in classical:
        rs = build_root_system(name)
        report = verify_exponents(rs)
        assert report.identity_holds, name
        assert sum(report.reference) == len(rs.positive_roots)
        assert prod(e + 1 for e in report.reference) == weyl_group_order(name)
        assert report.ok, name


@pytest.mark.acceptance(6, "tree/generating-function agreement, 500 random weights")
def test_c6_dual_algorithm_oracle():
    rng = Random(2024)
    start = time.perf_counter()
    pool = [
        "A2", "A3", "A4", "A5", "A6",
        "B2", "B3", "B4", "B5", "B6",
        "C2", "C3", "C4", "C5", "C6",
        "D3", "D4", "D5", "D6",
        "E6", "F4", "G2",
    ]
    small_pool = ["A2", "A3", "B2", "B3", "C3", "G2", "D3"]
    checked = 0
    brute_checked = 0
    while checked < 500:
        if checked % 4 == 0:
            # rank <= 3 draws kept small enough for the enumeration oracle
            name = rng.choice(small_pool)
            rs = build_root_system(name)
            xi_vec = [rng.randint(0, 2) for _ in range(rs.rank)]
        else:
            name = rng.choice(pool)
            rs = build_root_system(name)
            while True:
                xi_vec = [rng.randint(0, 6) for _ in range(rs.rank)]
                if prod(c + 1 for c in xi_vec) <= 30000:
                    break
            if rng.random() < 0.06:
                xi_vec[rng.randrange(rs.rank)] = -rng.randint(1, 6)
        xi = Weight(xi_vec)
        tree = partition_tree_count(rs, xi)
        gen = partition_genfunc(rs, xi)
        assert tree == gen, (name, xi_vec)
        if (
            rs.rank <= 3
            and xi.nonnegative_ints() is not None
            and xi.height() <= 8
        ):
            oracle = QPolynomial(brute_force_pq(rs.root_vectors, xi.nonnegative_ints()))
            assert tree == oracle, (name, xi_vec)
            brute_checked += 1
        checked += 1
    elapsed = time.perf_counter() - start
    assert brute_checked >= 100
    assert elapsed < 60.0


@pytest.mark.acceptance(7, "pruned search equals exhaustive filter, rank <= 4")
def test_c7_pruning_soundness():
    rng = Random(99)
    for name in RANK_LE_4:
        rs = build_root_system(name)
        elements = enumerate_group(rs)
        for _ in range(50):
            lam, mu = random_dominant_pair(rs, rng)
            records = alternation_set(rs, lam, mu)
            expected = exhaustive_alternation(elements, lam, mu, rs.rho)
            assert {r.element.columns for r in records} == set(expected)
            for rec in records:
                assert rec.xi == expected[rec.element.columns]
            assert (
                compute_mq(rs, lam, mu).mq
                == full_group_mq(rs, lam, mu, elements=elements)
            )


@pytest.mark.acceptance(8, "structural invariants")
def test_c8_structural_invariants():
    # determinant-sign law over three whole groups
    for name in ["G2", "F4", "B3"]:
        rs = build_root_system(name)
        for e in enumerate_group(rs):
            assert determinant(e.columns) == (-1) ** e.length
    # positive-root counts and the half-sum identity, every type of rank <= 8
    for name in ALL_RANK_8:
        rs = build_root_system(name)
        t = rs.lie_type
        assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[t.family](t.rank)
        total = Weight.zero(rs.rank)
        for w in rs.positive_roots:
            total = total + w
        assert rs.rho == total * Fraction(1, 2)
    # top-coefficient law on 200 random nonnegative integral weights
    rng = Random(314)
    for _ in range(200):
        name = rng.choice(["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"])
        rs = build_root_system(name)
        xi = Weight([rng.randint(0, 5) for _ in range(rs.rank)])
        pq = partition_genfunc(rs, xi)
        height = int(xi.height())
        assert pq.degree == height
        assert pq[height] == 1


@pytest.mark.acceptance(9, "G2 worked-example trace")
def test_c9_worked_example_trace():
    rs = build_root_system("G2")
    s1 = simple_reflection(rs, 1)
    xi = apply(s1, rs.highest_root + rs.rho) - rs.rho
    assert xi == Weight([2, 2])
    parts = partition_tree_list(rs, xi)
    assert len(parts) == 4
    assert sorted(p.roots_used() for p in parts) == [2, 2, 3, 4]
    assert {p.mults for p in parts} == {
        (2, 2, 0, 0, 0, 0),  # 2(a1) + 2(a2), four roots
        (0, 0, 2, 0, 0, 0),  # 2(a1+a2), two roots
        (1, 1, 1, 0, 0, 0),  # a1 + a2 + (a1+a2), three roots
        (0, 1, 0, 1, 0, 0),  # a2 + (2a1+a2), two roots
    }
    for p in parts:
        assert p.weight(rs) == xi

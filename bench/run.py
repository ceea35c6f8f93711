"""Benchmark of q-multiplicity computation through qkostant's public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
caller issues operations back to back (a closed loop, single process, single
thread).  Each run:

1. sets up ``SETUP_REPEATS`` times: a fresh import of the library, the root
   systems of the workload's types, the inputs as library weights and, for
   ``full-group``, the enumerated Weyl groups; ``setup_s`` is the median;
2. checks the library on a fixed G2 example;
3. repeats whole rounds of operations until ``--seconds`` have passed;
4. checks every output against ``checker`` (which shares no code with the
   library) and against properties the method must have, and confirms that
   the same checks reject an answer with one coefficient off by one.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``; per-layer metrics from wrapped library calls with
``--trace 1``).  Results and traces are also written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
from math import prod
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

from checker import E8_ALTERNATION_SIZE, Roots, e8_exponents, self_test  # noqa: E402
from layers import Tracer  # noqa: E402

SETUP_REPEATS = 21


def import_library(tracer):
    """Import qkostant afresh from ``src/``, so every set-up pays for the
    import and starts with empty library caches."""
    for name in [n for n in sys.modules if n == "qkostant" or n.startswith("qkostant.")]:
        del sys.modules[name]
    qk = importlib.import_module("qkostant")
    if Path(qk.__file__).resolve().parent != SRC / "qkostant":
        raise ImportError(f"qkostant was imported from {qk.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    return qk


def pair_input(roots, t, lam, mu):
    """(key, lambda, mu) for one (type, lambda, mu) in omega coordinates; the
    key carries ht(lambda - mu) and the weights are in alpha coordinates."""
    lam_alpha, mu_alpha = roots[t].to_alpha(lam), roots[t].to_alpha(mu)
    height = sum(lam_alpha) - sum(mu_alpha)
    return (t, lam, mu, int(height)), lam_alpha, mu_alpha


def monic_of_degree(coeffs, height):
    return len(coeffs) == height + 1 and coeffs[-1] == 1


# -- workloads ------------------------------------------------------------------
#
# Each workload draws integer inputs from the seed (untimed, harness work),
# turns them into library objects in ``prepare`` (timed as set-up), yields the
# operations of each round, and checks the outputs.  An operation returns its
# output; an exception counts it as failed.


class E8Adjoint:
    """compute_mq on E8 at the highest root and zero: the genfunc DP over the
    box (2,3,4,6,5,4,3,2) dominates, the alternation search is the rest.
    The inputs are fixed, so the seed does not change them."""

    types = ("E8",)

    def draw(self, rng, roots):
        return None

    def prepare(self, qk, rs, roots, drawn):
        return rs["E8"], qk.Weight(roots["E8"].roots[-1]), qk.Weight((0,) * 8)

    def rounds(self, qk, state):
        rs, lam, mu = state

        def op():
            res = qk.compute_mq(rs, lam, mu)
            return (res.mq.coeffs, len(res.records))

        while True:
            yield [(("E8", "adjoint"), op)]

    def check(self, roots, key, out):
        coeffs, size = out
        want = [0] * 30
        for e in e8_exponents():
            want[e] += 1
        errors = []
        if list(coeffs) != want:
            errors.append(f"m_q = {coeffs}, expected the E8 exponents")
        if size != E8_ALTERNATION_SIZE:
            errors.append(f"|A| = {size}, expected {E8_ALTERNATION_SIZE}")
        if sum(coeffs) != roots["E8"].freudenthal(roots["E8"].roots_omega[-1])[(0,) * 8]:
            errors.append("m(1) differs from Freudenthal")
        return errors

    def perturb(self, out):
        coeffs, size = out
        return (bump(coeffs), size)


class DominantTables:
    """compute_mq for every dominant mu <= lambda of a fixed (type, lambda)
    list covering A-G: building q-multiplicity tables one after another.  The
    inputs are fixed, so the seed does not change them."""

    # lambda in fundamental-weight coordinates; chosen so that no single call
    # (the mu = 0 one) takes more than about a tenth of a round.
    TABLES = (
        ("A6", (1, 1, 1, 1, 1, 1)),
        ("B4", (2, 2, 1, 2)),
        ("C4", (2, 1, 1, 2)),
        ("D5", (1, 1, 1, 1, 1)),
        ("E6", (1, 0, 1, 0, 0, 1)),
        ("F4", (1, 1, 0, 1)),
        ("G2", (3, 2)),
    )
    types = tuple(t for t, _ in TABLES)

    def draw(self, rng, roots):
        self.freud = {}
        pairs = []
        for t, lam in self.TABLES:
            self.freud[t, lam] = roots[t].freudenthal(lam)
            pairs += [pair_input(roots, t, lam, mu)
                      for mu in sorted(roots[t].dominant_weights(lam))]
        return pairs

    def prepare(self, qk, rs, roots, drawn):
        return [(key, rs[key[0]], qk.Weight(lam), qk.Weight(mu))
                for key, lam, mu in drawn]

    def rounds(self, qk, state):
        ops = [(key, _mq(qk, r, lam, mu)) for key, r, lam, mu in state]
        while True:
            yield ops

    def check(self, roots, key, out):
        t, lam, mu, height = key
        errors = []
        if mu == lam and out != (1,):
            errors.append("m_q(lambda, lambda) != 1")
        if not monic_of_degree(out, height):
            errors.append(f"not monic of degree {height}")
        if min(out) < 0:
            errors.append("negative coefficient at a dominant mu")
        if sum(out) != self.freud[t, lam][mu]:
            errors.append(f"m(1) = {sum(out)}, Freudenthal gives {self.freud[t, lam][mu]}")
        return errors

    def perturb(self, out):
        return bump(out)


def _mq(qk, rs, lam, mu):
    return lambda: qk.compute_mq(rs, lam, mu).mq.coeffs


class FullGroup:
    """full_group_mq over the enumerated group against compute_mq, for a
    random fundamental weight lambda and a random dominant mu <= lambda;
    every third mu is replaced by a random Weyl conjugate.  Small lambda
    keeps the genfunc boxes small, so the group action in exact Fraction
    arithmetic dominates and varies little from seed to seed.

    compute_mq raises on some non-dominant mu (see FAULT), and which drawn
    conjugates hit that depends on the seed.  So a drawn non-dominant mu gets
    full_group_mq alone, and the fault is kept as one fixed operation per
    round, which fails in every round until it is mended.
    """

    # pairs per type and round; F4 has the most so that the 90th percentile
    # falls inside its cluster of operation times rather than between two.
    PER_TYPE = (("A3", 3), ("A4", 3), ("B3", 3), ("B4", 3), ("C3", 3),
                ("C4", 3), ("D4", 3), ("F4", 6), ("G2", 3))
    # The known fault, on fixed inputs: compute_mq raises on a non-dominant
    # mu whose alternating sum has a negative coefficient.
    FAULT = ("A2", (0, 0), (-3, -3))
    types = tuple(t for t, _ in PER_TYPE) + ("A2",)

    def draw(self, rng, roots):
        pairs = []
        for t, n in self.PER_TYPE:
            R = roots[t]
            for i in range(n):
                k = rng.randrange(R.rank)
                lam = tuple(int(j == k) for j in range(R.rank))
                mu = rng.choice(sorted(R.dominant_weights(lam)))
                if i % 3 == 2:
                    for _ in range(rng.randint(1, 2 * R.rank)):
                        mu = R.reflect(mu, rng.randrange(R.rank))
                pairs.append((t, lam, mu))
        pairs.append(self.FAULT)
        self.freud = {(t, lam): roots[t].freudenthal(lam)
                      for t, lam in {p[:2] for p in pairs}}
        return [pair_input(roots, *p) for p in pairs]

    def prepare(self, qk, rs, roots, drawn):
        groups = {t: qk.enumerate_group(rs[t]) for t in self.types}
        return [(key, rs[key[0]], groups[key[0]], qk.Weight(lam), qk.Weight(mu))
                for key, lam, mu in drawn]

    def rounds(self, qk, state):
        def make(key, r, group, lam, mu):
            with_mq = min(key[2]) >= 0 or key[:3] == self.FAULT

            def op():
                full = qk.full_group_mq(r, lam, mu, elements=group).coeffs
                alt = qk.compute_mq(r, lam, mu).mq.coeffs if with_mq else None
                return (full, alt)

            return (key, op)

        ops = [make(*s) for s in state]
        while True:
            yield ops

    def check(self, roots, key, out):
        t, lam, mu, height = key
        full, alt = out
        want = self.freud[t, lam].get(roots[t].dominant_conjugate(mu), 0)
        errors = []
        if alt is not None and alt != full:
            errors.append(f"compute_mq {alt} != full_group_mq {full}")
        if not monic_of_degree(full, height):
            errors.append(f"not monic of degree {height}")
        if sum(full) != want:
            errors.append(f"m(1) = {sum(full)}, Freudenthal gives {want}")
        if min(mu) >= 0 and min(full) < 0:
            errors.append("negative coefficient at a dominant mu")
        if mu == lam and full != (1,):
            errors.append("m_q(lambda, lambda) != 1")
        return errors

    def perturb(self, out):
        full, alt = out
        return (bump(full), alt)


class PartitionSweep:
    """Graded partition counts of random xi by the tree kernel and by
    single-shot genfunc, with prod(xi_j + 1) in a fixed band.  Each round
    draws fresh xi; the library's tree memo persists across calls, as in a
    user's session."""

    TYPES = ("A4", "A5", "A6", "B4", "B5", "C4", "C5", "D4", "D5", "E6", "F4")
    PER_TYPE = 2
    BAND = (100, 1000)
    MAX_COORD = 6
    types = TYPES

    def draw(self, rng, roots):
        self.rng = rng
        self.coin_change = {}  # type -> lookup into one table over the box
        return None

    def _xi(self, rank):
        lo, hi = self.BAND
        while True:
            xi = tuple(self.rng.randint(0, self.MAX_COORD) for _ in range(rank))
            if lo <= prod(x + 1 for x in xi) <= hi:
                return xi

    def prepare(self, qk, rs, roots, drawn):
        return rs

    def rounds(self, qk, rs):
        while True:
            ops = []
            for t in self.TYPES:
                for _ in range(self.PER_TYPE):
                    xi = self._xi(rs[t].rank)
                    w = qk.Weight(xi)
                    ops.append(((t, xi), _tree_and_genfunc(qk, rs[t], w)))
            yield ops

    def check(self, roots, key, out):
        t, xi = key
        tree, gen = out
        errors = []
        if tree != gen:
            errors.append(f"tree {tree} != genfunc {gen}")
        if not monic_of_degree(gen, sum(xi)):
            errors.append(f"not monic of degree {sum(xi)}")
        if t not in self.coin_change:
            box = (self.MAX_COORD,) * roots[t].rank
            self.coin_change[t] = roots[t].graded_partition_table(box)
        want = tuple(self.coin_change[t](xi))
        if gen != want:
            errors.append(f"genfunc {gen} != coin-change {want}")
        return errors

    def perturb(self, out):
        tree, gen = out
        return (tree, bump(gen))


def _tree_and_genfunc(qk, rs, w):
    return lambda: (qk.partition_tree_count(rs, w).coeffs,
                    qk.partition_genfunc(rs, w).coeffs)


def bump(coeffs):
    """The same answer with one coefficient off by one."""
    out = list(coeffs)
    out[len(out) // 2] += 1
    return tuple(out)


WORKLOADS = {
    "e8-adjoint": E8Adjoint,
    "dominant-tables": DominantTables,
    "full-group": FullGroup,
    "partition-sweep": PartitionSweep,
}


# -- the run --------------------------------------------------------------------


def smoke(qk):
    """A fixed G2 example through every layer, before anything is timed."""
    g2 = qk.build_root_system("G2")
    xi = qk.Weight((2, 2))
    got = (
        qk.compute_mq(g2).mq.coeffs,
        qk.compute_mq(g2, method="tree").mq.coeffs,
        qk.full_group_mq(g2, elements=qk.enumerate_group(g2)).coeffs,
        qk.partition_genfunc(g2, xi).coeffs,
        qk.partition_tree_count(g2, xi).coeffs,
    )
    if got != ((0, 1, 0, 0, 0, 1),) * 3 + ((0, 0, 2, 1, 1),) * 2:
        return [f"G2 example: {got}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    self_test()
    work = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    roots = {t: Roots(t) for t in work.types}
    drawn = work.draw(random.Random(args.seed), roots)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each set-up starts without the previous one's garbage
        start = perf_counter()
        try:
            qk = import_library(tracer)
        except ImportError as exc:
            print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
            return 2
        rs = {t: qk.build_root_system(t) for t in work.types}
        state = work.prepare(qk, rs, roots, drawn)
        setup_times.append(perf_counter() - start)
    errors = smoke(qk)
    gc.collect()

    outputs = []  # (round, key, output)
    latencies = []
    attempted = failed = 0
    start = perf_counter()
    for rnd, ops in enumerate(work.rounds(qk, state)):
        if tracer is not None:
            tracer.counting = rnd == 0
        for key, op in ops:
            attempted += 1
            t0 = perf_counter()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                if key[:3] != getattr(work, "FAULT", None):
                    errors.append(f"{key}: unexpected {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - t0)
            outputs.append((rnd, key, out))
        if perf_counter() - start >= args.seconds:
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks, outside the timed phase.  Identical keys must give identical
    # outputs; each distinct key is checked once against the references.
    seen = {}
    for rnd, key, out in outputs:
        if key in seen:
            if seen[key] != out:
                errors.append(f"{key}: output changed between rounds")
            continue
        seen[key] = out
        errors += [f"{key}: {e}" for e in work.check(roots, key, out)]
    if outputs:
        _, key, out = outputs[0]
        if not work.check(roots, key, work.perturb(out)):
            errors.append("the checks accept an answer with a coefficient off by one")
    for e in errors[:20]:
        print("check failed:", e, file=sys.stderr)

    completed = len(latencies)
    if tracer is None:
        latencies = latencies or [0.0]  # nothing completed: the run is incorrect
        p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
               if completed > 1 else latencies[0])
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (completed / wall, "1/s"),
            "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "op_p90_ms": (1000 * p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
    result = {
        "correct": not errors and completed > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {completed} ops in "
          f"{wall:.3f} s over {rnd + 1} rounds, {completed / wall:.4f} ops/s, "
          f"{len(seen)} distinct outputs checked", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        report = tracer.report()
        report["timed_s"] = wall
        report["rounds"] = rnd + 1
        (OUT / f"trace-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands::

    partition        graded and plain partition counts of one weight
    list-partitions  the explicit partitions of one weight
    altset           the contributing Weyl elements for (lambda, mu)
    mult             the multiplicity polynomial m_q and its value at q = 1
    verify           exponent identity checks, exit 1 on any failure

Every subcommand but ``verify`` takes one Lie type, positional.  Weights
are comma-separated coefficient lists (fractions like 3/2 allowed), read in
the simple-root basis by default or in the fundamental-weight basis with
``--basis omega``.  Output formats: text (default), json, csv, latex; every
csv table goes through one writer.  Counts come from the generating-function
kernel, and ``list-partitions`` refuses a listing past the table budget.
``verify`` takes Lie types, ``--format`` and ``--out``, and answers from
each type's m_q alone.  Each subparser names the function that runs it.
A ``ValueError`` (bad input, or one the library raises) or an ``OSError``
(an unwritable ``--out``) prints one line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, Union

from .multiplicity import (
    MultiplicityResult,
    compute_mq,
    verify_exponents,
)
from .partition import partition_genfunc, partition_tree_list
from .rootsys import RootSystem, Weight, build_root_system
from .weyl import word_str


# options whose value is a weight, which may start with a minus sign
_WEIGHT_OPTIONS = ("--xi", "--lambda", "--mu")


def _parse_coeff_list(s: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in s.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse coefficient list {s!r}: {exc}") from None


def _input_weight(rs: RootSystem, s: str, basis: str) -> Weight:
    coeffs = _parse_coeff_list(s)
    if len(coeffs) != rs.rank:
        raise ValueError(
            f"{rs.lie_type} needs {rs.rank} coefficients, got {len(coeffs)} in {s!r}"
        )
    if basis == "omega":
        return rs.omega_to_alpha(coeffs)
    return Weight(coeffs)


def _json_num(x: Fraction):
    return int(x) if x.denominator == 1 else str(x)


def _weight_json(w: Weight) -> list:
    return [_json_num(c) for c in w.coeffs]


def _emit(chunks: Union[str, Iterable[str]], args: argparse.Namespace) -> None:
    """Write a text, or its chunks as they come, and a newline: to --out or stdout."""
    out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with out as fh:
        fh.writelines([chunks] if isinstance(chunks, str) else chunks)
        fh.write("\n")


def _json_chunks(payload: dict, key: str, items: Iterable[dict]) -> Iterator[str]:
    """json.dumps(payload | {key: list(items)}, indent=2), an item at a time."""
    sep = "\n    "
    yield json.dumps(payload, indent=2)[:-2] + f",\n  {json.dumps(key)}: ["
    for item in items:
        yield sep + json.dumps(item, indent=2).replace("\n", "\n    ")
        sep = ",\n    "
    yield "]\n}" if sep == "\n    " else "\n  ]\n}"


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """The lines joined by newlines, a line at a time."""
    sep = ""
    for line in lines:
        yield sep + line
        sep = "\n"


def _csv(columns: Sequence[str], rows: Iterable[dict]) -> Iterator[str]:
    """A header of ``columns``, then those fields of each row, a row at a
    time; a list field is written as its items joined by ";".  These are
    the bytes of ``csv.writer``, every line ended by CR LF (the last LF is
    _emit's), without its 128 KB record buffer: every field is a number, a
    word or such a list, and none holds a comma, a quote or a line break."""
    yield ",".join(columns)
    for row in rows:
        fields = (row[c] for c in columns)
        yield "\r\n" + ",".join(
            ";".join(map(str, f)) if isinstance(f, list) else str(f) for f in fields
        )
    yield "\r"


def _record_dicts(result: MultiplicityResult) -> list[dict]:
    rows = []
    for idx, rec in enumerate(result.records, start=1):
        rows.append(
            {
                "index": idx,
                "word": word_str(rec.element.word),
                "word_indices": list(rec.element.word),
                "length": rec.element.length,
                "xi": [int(c) for c in rec.xi.coeffs],
                "pq": list(rec.pq.coeffs),
                "sign": rec.sign,
            }
        )
    return rows


def _records_text(result: MultiplicityResult) -> str:
    lines = ["no | sigma | length | xi | pq"]
    for row, rec in zip(_record_dicts(result), result.records):
        lines.append(
            f"{row['index']} | {row['word']} | {row['length']} | "
            f"{rec.xi.text()} | {rec.pq.text()}"
        )
    return "\n".join(lines)


def _records_latex(result: MultiplicityResult) -> str:
    lines = [
        r"\begin{longtable}{|c|c|c|p{4cm}|p{6cm}|}",
        r"\hline",
        r"No. & $\sigma$ & $\ell(\sigma)$ & "
        r"$\xi = \sigma(\lambda+\rho)-\rho-\mu$ & $\wp_q(\xi)$\\\hline",
    ]
    for idx, rec in enumerate(result.records, start=1):
        lines.append(
            f"{idx} & ${word_str(rec.element.word)}$ & {rec.element.length} & "
            f"$ {rec.xi.latex()} $ & $ {rec.pq.latex()} $\\\\\\hline"
        )
    lines.append(
        r"\multicolumn{5}{|c|}{$m_q = " + result.mq.compact_latex() + r"$}\\"
    )
    lines.append(r"\hline")
    lines.append(r"\end{longtable}")
    return "\n".join(lines)


def _mult_payload(result: MultiplicityResult) -> dict:
    return {
        "type": str(result.lie_type),
        "lambda": _weight_json(result.lam),
        "mu": _weight_json(result.mu),
        "count": len(result.records),
        "mq": list(result.mq.coeffs),
        "mq_text": result.mq.compact_text(),
        "m": result.m,
        "records": _record_dicts(result),
    }


def _cmd_partition(args: argparse.Namespace) -> int:
    """``partition`` and ``list-partitions``, which also lists them."""
    rs = build_root_system(args.type)
    xi = _input_weight(rs, args.xi, args.basis)
    pq = partition_genfunc(rs, xi)
    count = pq.at_one()
    partitions = partition_tree_list(rs, xi) if args.listing else None

    if args.format == "json":
        payload = {
            "type": str(rs.lie_type),
            "xi": _weight_json(xi),
            "pq": list(pq.coeffs),
            "pq_text": pq.text(),
            "p": count,
        }
        if partitions is None:
            _emit(json.dumps(payload, indent=2), args)
        else:
            entries = (
                dict(mults=list(p.mults), roots_used=p.roots_used(), text=p.text(rs))
                for p in partitions
            )
            _emit(_json_chunks(payload, "partitions", entries), args)
    elif args.format == "csv" and partitions is None:
        rows = ({"power": p, "coefficient": c} for p, c in pq.terms())
        _emit(_csv(("power", "coefficient"), rows), args)
    elif args.format == "csv":
        rows = (
            {"index": i, "roots_used": p.roots_used(), "mults": list(p.mults)}
            for i, p in enumerate(partitions, start=1)
        )
        _emit(_csv(("index", "roots_used", "mults"), rows), args)
    elif args.format == "latex":
        listed = (f"$ {p.latex(rs)} $" for p in partitions or ())
        _emit(_lines(chain([f"$ {pq.latex()} $"], listed)), args)
    else:
        listed = (p.text(rs) for p in partitions or ())
        _emit(_lines(chain([pq.text(), f"℘ = {count}"], listed)), args)
    return 0


def _cmd_mult(args: argparse.Namespace) -> int:
    """``altset`` and ``mult``: one computation; in text form ``altset``
    lists the records and ``mult`` prints m_q."""
    rs = build_root_system(args.type)
    lam = _input_weight(rs, args.lam, args.basis) if args.lam else None
    mu = _input_weight(rs, args.mu, args.basis) if args.mu else None
    result = compute_mq(rs, lam, mu)
    if args.format == "json":
        _emit(json.dumps(_mult_payload(result), indent=2), args)
    elif args.format == "csv":
        columns = ("index", "word", "length", "xi", "pq", "sign")
        _emit(_csv(columns, _record_dicts(result)), args)
    elif args.format == "latex":
        _emit(_records_latex(result), args)
    elif args.command == "altset":
        _emit(_records_text(result), args)
    else:
        _emit(f"m_q = {result.mq.compact_text()}; m = {result.m}", args)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not args.types:
        raise ValueError("verify needs at least one Lie type")
    reports = [verify_exponents(build_root_system(name)) for name in args.types]
    all_ok = all(r.ok for r in reports)

    rows = [
        {
            "type": str(r.lie_type),
            "ok": r.ok,
            "mq": list(r.mq.coeffs),
            "mq_text": r.mq.compact_text(),
            "exponents": list(r.exponents),
            "reference_exponents": list(r.reference),
            "identity_holds": r.identity_holds,
            "sum_matches_root_count": r.sum_matches_root_count,
            "product_matches_group_order": r.product_matches_group_order,
            "alt_set_size": r.alt_set_size,
            "expected_alt_set_size": r.expected_alt_set_size,
            "listed_alt_set_size": r.listed_alt_set_size,
            "weyl_order": r.weyl_order,
            "notes": list(r.notes),
            "seconds": round(r.elapsed, 6),
        }
        for r in reports
    ]
    if args.format == "json":
        _emit(json.dumps({"ok": all_ok, "reports": rows}, indent=2), args)
    elif args.format == "csv":
        columns = ("type", "ok", "exponents", "alt_set_size", "weyl_order", "seconds")
        _emit(_csv(columns, rows), args)
    elif args.format == "latex":
        lines = [
            r"\begin{tabular}{|c|c|c|c|}",
            r"\hline",
            r"type & exponents & $|W|$ & $|\mathcal{A}|$\\\hline",
        ]
        for r in reports:
            exps = ",".join(str(e) for e in r.exponents)
            lines.append(
                f"${r.lie_type}$ & {exps} & {r.weyl_order} & {r.alt_set_size}"
                "\\\\\\hline"
            )
        lines.append(r"\end{tabular}")
        _emit("\n".join(lines), args)
    else:
        lines = []
        for r in reports:
            status = "OK" if r.ok else "FAIL"
            lines.append(f"{r.lie_type}: {status}")
            lines.append(f"  m_q = {r.mq.compact_text()}")
            exps = ", ".join(str(e) for e in r.exponents)
            refs = ", ".join(str(e) for e in r.reference)
            lines.append(f"  exponents {exps} (reference {refs})")
            lines.append(
                f"  sum(e) = {sum(r.reference)}, |Φ⁺| check "
                f"{'passed' if r.sum_matches_root_count else 'FAILED'}; "
                f"prod(e+1) = {r.weyl_order}, |W| check "
                f"{'passed' if r.product_matches_group_order else 'FAILED'}"
            )
            expected = (
                f" (expected {r.expected_alt_set_size})"
                if r.expected_alt_set_size is not None
                else ""
            )
            lines.append(f"  |A| = {r.alt_set_size}{expected}")
            for note in r.notes:
                lines.append(f"  note: {note}")
            lines.append(f"  time: {r.elapsed:.3f} s")
        lines.append("verification " + ("passed" if all_ok else "FAILED"))
        _emit("\n".join(lines), args)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkostant",
        description="Partition counts, alternation sets and weight "
        "multiplicities for the simple Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv", "latex"), default="text"
    )
    common.add_argument("--out", metavar="FILE")

    # one type and weights: every subcommand but verify
    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("type", nargs="?", default="", metavar="TYPE")
    typed.add_argument("--basis", choices=("alpha", "omega"), default="alpha")

    p_part = sub.add_parser(
        "partition", parents=[typed, common], help="graded partition count"
    )
    p_part.add_argument("--xi", metavar="COEFFS", required=True)
    p_part.set_defaults(run=_cmd_partition, listing=False)

    p_list = sub.add_parser(
        "list-partitions",
        parents=[typed, common],
        help="explicit partitions of a weight",
    )
    p_list.add_argument("--xi", metavar="COEFFS", required=True)
    p_list.set_defaults(run=_cmd_partition, listing=True)

    for name, help_text in (
        ("altset", "contributing Weyl elements"),
        ("mult", "multiplicity polynomial"),
    ):
        sp = sub.add_parser(name, parents=[typed, common], help=help_text)
        sp.add_argument("--lambda", dest="lam", metavar="COEFFS")
        sp.add_argument("--mu", metavar="COEFFS")
        sp.set_defaults(run=_cmd_mult)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="exponent identity checks"
    )
    p_verify.add_argument("types", nargs="*", metavar="TYPE")
    p_verify.set_defaults(run=_cmd_verify)

    return parser


def _attach_negative_weights(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--mu -3,-3`` as ``--mu=-3,-3``: argparse takes a value that
    starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for tok in argv:
        negative = tok[:1] == "-" and tok[1:2].isdigit()
        if negative and out and out[-1] in _WEIGHT_OPTIONS:
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_weights(sys.argv[1:] if argv is None else argv)
    )
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:  # bad input; an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

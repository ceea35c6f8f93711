"""Command-line interface: formats, basis conversion, exit codes."""

import json
import re
import shlex
import time
from pathlib import Path

import pytest

import golden_tables as gt
from qkostant import QPolynomial
from qkostant.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_examples():
    """(argv, shown output lines) for each `$ qkostant ...` line of the
    README's command-line block; a comment after the command is dropped."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```text\n", 1)[1]
    examples = []
    for chunk in block.split("```", 1)[0].strip().split("\n\n"):
        command, *shown = chunk.splitlines()
        assert command.startswith("$ qkostant "), command
        examples.append((shlex.split(command[2:], comments=True)[1:], shown))
    return examples


README_EXAMPLES = readme_examples()

# Every writer is pinned byte for byte: the four formats of these commands,
# stored in cli_outputs.json as the lines of stdout (csv rows end in "\r").
PINNED_COMMANDS = [
    "partition G2 --xi 2,2",
    "list-partitions G2 --xi 2,2",
    "altset G2",
    "mult A2 --lambda 0,0 --mu -3,-3 --basis omega",
    "verify G2",
]
FORMATS = ["text", "json", "csv", "latex"]
PINNED_OUTPUTS = json.loads(
    (Path(__file__).parent / "cli_outputs.json").read_text(encoding="utf-8")
)


def mask_timings(out: str) -> str:
    """``out`` with the timings of ``verify`` (text, json, csv) as "*"."""
    out = re.sub(r"time: \d+\.\d+ s", "time: * s", out)
    seconds = r"(\d+\.\d*|\d+(\.\d+)?e-\d+)"
    out = re.sub(rf'"seconds": {seconds}', '"seconds": *', out)
    return re.sub(rf",{seconds}\r\n", ",*\r\n", out)


class TestPartitionCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "partition", "G2", "--xi", "2,2")
        assert code == 0
        assert out.splitlines() == ["2q^2 + q^3 + q^4", "℘ = 4"]

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "partition", "G2", "--xi", "0,0")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_f4_row_one(self, capsys):
        code, out, _ = run(capsys, "partition", "F4", "--xi", "2,3,4,2")
        assert code == 0
        expected = QPolynomial(gt.parse_qpoly_latex(gt.F4_ROWS[0][4]))
        assert out.splitlines()[0] == expected.text()

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "partition", "G2", "--xi", "2,2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["pq"] == [0, 0, 2, 1, 1]
        assert payload["p"] == 4
        assert payload["xi"] == [2, 2]

    def test_listing(self, capsys):
        code, out, _ = run(capsys, "list-partitions", "G2", "--xi", "2,2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "2q^2 + q^3 + q^4"
        assert "2(α1) + 2(α2)" in lines
        assert "1(α2) + 1(2α1 + α2)" in lines
        assert len(lines) == 2 + 4


class TestAltsetCommand:
    def test_g2_text(self, capsys):
        code, out, _ = run(capsys, "altset", "G2")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 4  # header + 3 rows
        assert lines[-1] == "3 | s_2 | 1 | 3α1 | q^3"

    def test_a1_mu(self, capsys):
        code, out, _ = run(capsys, "altset", "A1", "--mu", "1")
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "1 | 1 | 0 | 0 | 1"

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "altset", "G2", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "index,word,length,xi,pq,sign"
        assert lines[1] == "1,1,0,3;2,0;1;2;2;1;1,1"
        assert lines[3] == "3,s_2,1,3;0,0;0;0;1,-1"

    def test_json_round_trip_reproduces_mq(self, capsys):
        for name in ["G2", "F4"]:
            _, alt_out, _ = run(capsys, "altset", name, "--format", "json")
            payload = json.loads(alt_out)
            folded = QPolynomial()
            for rec in payload["records"]:
                term = QPolynomial(rec["pq"])
                folded = folded + term if rec["sign"] > 0 else folded - term
            _, mult_out, _ = run(capsys, "mult", name, "--format", "json")
            assert json.loads(mult_out)["mq"] == list(folded.coeffs)
            assert payload["mq"] == list(folded.coeffs)

    def test_latex_matches_reference_rows(self, capsys):
        code, out, _ = run(capsys, "altset", "G2", "--format", "latex")
        for _, word, length, xi_l, pq_l in gt.G2_ROWS:
            assert f"$ {pq_l} $" in out
            assert f"$ {xi_l} $" in out
        assert "\\begin{longtable}" in out
        assert "$m_q = q + q^5$" in out


class TestMultCommand:
    def test_f4(self, capsys):
        code, out, _ = run(capsys, "mult", "F4")
        assert code == 0
        assert out.strip() == "m_q = q + q^5 + q^7 + q^11; m = 4"

    def test_lambda_equals_mu(self, capsys):
        code, out, _ = run(capsys, "mult", "G2", "--lambda", "3,2", "--mu", "3,2")
        assert out.strip() == "m_q = 1; m = 1"

    def test_a2(self, capsys):
        code, out, _ = run(capsys, "mult", "A2")
        assert out.strip() == "m_q = q + q^2; m = 2"

    @pytest.mark.parametrize("mu", [["--mu=-3,-3"], ["--mu", "-3,-3"]])
    def test_negative_mu(self, capsys, mu):
        code, out, _ = run(
            capsys, "mult", "A2", "--lambda", "0,0", *mu, "--basis", "omega"
        )
        assert code == 0
        assert out.strip() == "m_q = -q + q^2 + q^3 - q^4 - q^5 + q^6; m = 0"

    def test_negative_lambda(self, capsys):
        # "-2,-1" parses; the library then rejects it as not dominant
        code, out, err = run(capsys, "altset", "A2", "--lambda", "-2,-1", "--mu=-2,-1")
        assert code == 2
        assert out == ""
        assert err == (
            "error: lambda = Weight(-2, -1) is not dominant integral for A2: "
            "its coroot pairings (-3, 0) must be nonnegative integers\n"
        )

    def test_omega_basis(self, capsys):
        # the highest root of G2 is the second fundamental weight
        _, out_omega, _ = run(
            capsys, "mult", "G2", "--lambda", "0,1", "--basis", "omega"
        )
        _, out_alpha, _ = run(capsys, "mult", "G2", "--lambda", "3,2")
        assert out_omega == out_alpha

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, "mult", "G2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip() == "m_q = q + q^5; m = 2"


class TestVerifyCommand:
    def test_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "G2", "A2", "D4")
        assert code == 0
        assert "verification passed" in out
        assert "reference table lists 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "B3", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["reports"][0]["exponents"] == [1, 3, 5]

    def test_failure_exit_code(self, capsys, monkeypatch):
        import qkostant.multiplicity as mult

        monkeypatch.setitem(mult.EXCEPTIONAL_EXPONENTS, "G2", (1, 4))
        code, out, _ = run(capsys, "verify", "G2")
        assert code == 1
        assert "FAIL" in out

    def test_max_group_order_limits_enumeration(self, capsys):
        _, out_default, _ = run(capsys, "verify", "G2")
        assert "|W| enumerated = 12" in out_default
        _, out_limited, _ = run(capsys, "verify", "G2", "--max-group-order", "5")
        assert "enumerated" not in out_limited


class TestPinnedOutputs:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("command", PINNED_COMMANDS)
    def test_prints_the_pinned_bytes(self, capsys, command, fmt):
        argv = [*shlex.split(command), "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert mask_timings(out).split("\n") == PINNED_OUTPUTS[" ".join(argv)]


class TestReadmeExamples:
    def test_every_example_is_found(self):
        assert [argv[0] for argv, _ in README_EXAMPLES] == [
            "partition", "list-partitions", "altset", "mult", "verify"
        ]

    @pytest.mark.parametrize(
        "argv, shown", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES]
    )
    def test_prints_what_the_readme_shows(self, capsys, argv, shown):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if shown:
            assert out.splitlines() == shown


class TestUsageErrors:
    def test_bad_type(self, capsys):
        code, _, err = run(capsys, "partition", "Q9", "--xi", "1,1")
        assert code == 2
        assert "error" in err

    def test_wrong_length(self, capsys):
        code, _, err = run(capsys, "partition", "G2", "--xi", "1,1,1")
        assert code == 2

    def test_missing_type(self, capsys):
        code, _, err = run(capsys, "mult")
        assert code == 2

    def test_bad_coefficient(self, capsys):
        code, _, err = run(capsys, "partition", "G2", "--xi", "1,x")
        assert code == 2

    def test_missing_xi_is_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["partition", "G2"])
        assert exc.value.code == 2

    def test_verify_without_types(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    def test_empty_xi(self, capsys):
        code, out, err = run(capsys, "partition", "G2", "--xi", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse coefficient list ''")

    @pytest.mark.parametrize(
        "argv, what",
        [
            # the search alone ran for minutes here before the budget
            (
                ("mult", "E8", "--lambda", "1,1,1,1,1,1,1,1", "--basis", "omega"),
                "a partition table of ",
            ),
            (
                ("partition", "A45", "--xi", ",".join(["1"] * 45)),
                "a partition table of ",
            ),
            # a table in budget, but 8,931,457 partitions to list
            (("list-partitions", "E8", "--xi", "2,3,4,6,5,4,3,2"), "a listing of "),
        ],
        ids=["mult-E8-rho", "partition-A45-ones", "list-partitions-E8-theta"],
    )
    def test_table_over_budget(self, capsys, argv, what):
        # refused before any work: 6.7e14 and 3.5e13 planned cells, and
        # before the first partition is listed
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 1
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {argv[1]}: {what}")
        assert len(err.splitlines()) == 1

    def test_list_partitions_a45(self, capsys):
        # 1,035 positive roots: the lister keeps its own stack
        xi = "1,1" + ",0" * 43
        code, out, err = run(capsys, "list-partitions", "A45", "--xi", xi)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "q^1 + q^2", "℘ = 2", "1(α1 + α2)", "1(α1) + 1(α2)"
        ]

    def test_unwritable_out(self, capsys, tmp_path):
        missing = tmp_path / "no-such-dir" / "result.txt"
        code, out, err = run(capsys, "mult", "G2", "--out", str(missing))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["mult", "G2", "--method", "tree"],
            ["altset", "G2", "--method", "tree"],
            ["verify", "G2", "--method", "tree"],
            ["list-partitions", "G2", "--xi", "2,2", "--method", "tree"],
            ["verify", "G2", "--basis", "omega"],
            ["verify", "--type", "A1"],
            ["mult", "G2", "--type", "F4"],
            ["partition", "G2", "--xi", "2,2", "--method", "tree"],
            ["partition", "A45", "--xi", ",".join(["1"] * 45), "--method", "tree"],
        ],
    )
    def test_option_not_offered(self, capsys, argv):
        # no subcommand offers --method (every count is genfunc), verify
        # takes no --basis, and the type is positional only
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

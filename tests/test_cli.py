"""CLI behaviour: exit-code channels, output shapes, golden-file determinism.

The golden table below is the list of documented command examples; every
entry is kept byte-identical across repeated runs and different hash
seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsionfree.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file, argv) - paths are repo-relative so the byte output is stable
GOLDEN_COMMANDS = [
    ("g1-split-exact.txt", ["split", "tests/data/g1.grp", "--basis", "(1,0);(0,1)", "--partition", "1|2"]),
    ("g1-split-none.txt", ["split", "tests/data/g1.grp", "--basis", "(1,0);(1,1)", "--partition", "1|2"]),
    ("g3-split-quasi.txt", ["split", "tests/data/g3.grp", "--basis", "(1,0);(0,1)", "--partition", "1|2"]),
    ("g3-member.txt", ["member", "tests/data/g3.grp", "(1/2,1/2)", "--oracle"]),
    ("g2-type.txt", ["type", "tests/data/g2.grp", "(1,1)"]),
    ("g3-purify.txt", ["purify", "tests/data/g3.grp", "(1,1)"]),
    ("g3-brep.txt", ["brep", "tests/data/g3.grp", "(1/2,1/2)", "--basis", "(1,0);(0,1)"]),
    ("g1-decompose.txt", ["decompose", "tests/data/g1.grp"]),
    ("g1-iso.txt", ["iso", "tests/data/g1.grp", "--first", "(1,0)|(0,1)", "--second", "(1,1)|(0,1)"]),
    ("z2-aut-quasi.txt", ["aut-check", "tests/data/z2.grp", "--matrix", "3,0;0,3", "--quasi"]),
    ("divergence-quasi-eq.txt", ["quasi-eq", "tests/data/z2.grp", "tests/data/zhalf.grp"]),
    ("divergence-commensurable.txt", ["commensurable", "tests/data/z2.grp", "tests/data/zhalf.grp"]),
    ("g3-jonsson.txt", ["jonsson", "tests/data/g3.grp", "--summands", "(1,0)|(0,1)"]),
    ("g3-regulating.txt", ["regulating", "tests/data/g3.grp", "--height", "2"]),
    ("g3-quotient.txt", ["quotient", "tests/data/g3.grp", "tests/data/a3.grp"]),
    ("g3-quotient.json", ["quotient", "tests/data/g3.grp", "tests/data/a3.grp", "--json"]),
    ("g2-si-check.txt", ["si-check", "tests/data/g2.grp", "--basis", "(1,0);(0,1)"]),
    ("g2-si-search.txt", ["si-search", "tests/data/g2.grp", "--height", "2"]),
    ("g3-si-search.txt", ["si-search", "tests/data/g3.grp", "--height", "2"]),
    ("verify-cd.txt", ["verify", "--profile", "cd", "--count", "3", "--seed", "7"]),
    # a rank-3 group no bounded search decides: every search walks its whole scope
    ("probe3-si-search.txt", ["si-search", "tests/data/probe3.grp", "--height", "1"]),
    ("probe3-decompose.txt", ["decompose", "tests/data/probe3.grp", "--height", "1"]),
    ("probe3-regulating.json", ["regulating", "tests/data/probe3.grp", "--height", "1", "--json"]),
]


def run_cli(argv, hashseed="0", timeout=None):
    cmd = [sys.executable, "-m", "torsionfree.cli", *argv]
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


class TestExitCodes:
    def test_definite_answer_is_zero(self, capsys):
        assert main(["member", str(DATA / "g3.grp"), "(1/2,1/2)"]) == 0
        assert "member: true" in capsys.readouterr().out

    def test_scope_limited_answer_is_two(self, capsys):
        assert main(["decompose", str(DATA / "g2.grp"), "--height", "1"]) == 2
        assert "none found" in capsys.readouterr().out

    def test_missing_file_is_one(self, capsys):
        assert main(["member", str(DATA / "missing.grp"), "(1,0)"]) == 1

    def test_bad_vector_is_one(self, capsys):
        assert main(["member", str(DATA / "g3.grp"), "(1,oops)"]) == 1

    @pytest.mark.parametrize("token", ["1e200000", "1_0", "2.5", "1/0"])
    def test_vector_tokens_are_digits_over_digits(self, capsys, token):
        assert main(["member", str(DATA / "g3.grp"), f"(1,{token})"]) == 1
        assert f"bad rational: {token!r}" in capsys.readouterr().err

    def test_bad_subcommand_is_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_group_error_is_one(self, capsys):
        assert main(["split", str(DATA / "g3.grp"), "--basis", "(1,0);(2,0)", "--partition", "1|2"]) == 1

    def test_regulating_without_basis_is_two(self, capsys):
        # G2 has three distinct divisible lines W_2, W_3, W_5, which no two
        # rank-1 summands can all carry, so no Jonsson basis exists
        assert main(["regulating", str(DATA / "g2.grp"), "--height", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no Jonsson basis found within the height bound (height 1)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["si-search", "g2.grp", "--height", "-1"],
            ["regulating", "g3.grp", "--height", "0"],
            ["decompose", "g1.grp", "--max-blocks", "1"],
            ["verify", "g3.grp", "--count", "-3"],
            ["member", "g3.grp", "--bound", "-1", "(1,0)", "--oracle"],
            ["purify", "g3.grp", "--bound", "-1", "(1,0)", "--oracle"],
        ],
        ids=["height-negative", "height-zero", "max-blocks", "count", "member-bound", "purify-bound"],
    )
    def test_nonsense_search_bound_is_one(self, capsys, argv):
        argv = [argv[0], str(DATA / argv[1]), *argv[2:]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument {argv[2]}: must be at least ")

    @pytest.mark.parametrize("u", ["(3/2)", "(1/2)"])
    def test_lift_rejects_fractional_images(self, capsys, u):
        argv = ["lift", str(DATA / "g3.grp"), "--summands", "(1,0)|(0,1)", "--u", u, "--w", "-"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: not an integer: {u[1:-1]}\n"

    @pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
    def test_internal_error_is_one_without_traceback(self, capsys, monkeypatch, exc):
        def broken(g, x):
            raise exc("hull lost rank")

        monkeypatch.setattr("torsionfree.cli.member", broken)
        assert main(["member", str(DATA / "g3.grp"), "(1,0)"]) == 1
        assert capsys.readouterr().err == "error: internal error: hull lost rank\n"

    @pytest.mark.parametrize("command", ["decompose", "si-search"])
    def test_search_past_the_rank_limit_fails_fast(self, tmp_path, command):
        # the 11 unit vectors and their sum: rank 11, one past the partition
        # limit; the limit must stop the search before it lists 3^12 candidates
        n = 11
        rows = [[int(i == j) for j in range(n)] for i in range(n)] + [[1] * n]
        path = tmp_path / "rank11.grp"
        path.write_text(
            f"group R11 ambient {n}\n" + "".join(f"gen [{', '.join(map(str, r))}] inv {{}}\n" for r in rows)
        )
        done = run_cli([command, str(path), "--height", "1"], timeout=20)
        assert done.returncode == 1
        assert done.stdout == ""
        assert "exceeds the partition" in done.stderr

    def test_lift_on_a_large_quotient_finishes(self, tmp_path):
        # G/A = Z/1000003 for the axis summands: the subgroups of the
        # quotient must be handled without listing their elements
        path = tmp_path / "big.grp"
        path.write_text("group B ambient 2\ngen [1, 0] inv {}\ngen [0, 1] inv {}\ngen [1/1000003, 1/1000003] inv {}\n")
        done = run_cli(["lift", str(path), "--summands", "(1,0)|(0,1)", "--u", "1", "--w", "-"], timeout=20)
        assert done.returncode == 0
        assert done.stdout == "lift: refused (no grouping matches)\ngroupings searched: 1\n"

    def test_si_search_without_evidence_is_two(self, capsys):
        # free groups of rank one: no proper partition, no rank-2 certificate
        path = DATA / "g1.grp"
        code = main(["si-search", str(DATA / "g2.grp"), "--height", "1"])
        out = capsys.readouterr().out
        assert code == 0 and "certified" in out
        assert main(["si-search", str(path), "--height", "1"]) == 0


class TestOutputs:
    def test_named_group_selection(self, capsys):
        assert main(["member", str(DATA / "g3.grp"), "(1,0)", "--name", "G3"]) == 0
        assert main(["member", str(DATA / "g3.grp"), "(1,0)", "--name", "nope"]) == 1

    def test_json_is_sorted_and_parseable(self, capsys):
        import json

        assert main(["quotient", str(DATA / "g3.grp"), str(DATA / "a3.grp"), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "quotient"
        assert report["result"]["quotient"]["invariant_factors"] == [2]

    def test_oracle_mismatch_would_fail(self, capsys):
        # a bound that is honest can only agree; exercise the flag end to end
        assert main(["member", str(DATA / "g3.grp"), "(1/4,1/4)", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "agreement: true" in out

    def test_verify_reports_checks(self, capsys):
        assert main(["verify", str(DATA / "g3.grp")]) == 0
        out = capsys.readouterr().out
        assert out.endswith("checks)\n")


class TestLargeNumbers:
    # 10^30 + 57 is a 31-digit prime, past the proven Miller-Rabin range;
    # neither command may factor it or trial-divide it
    def test_type_with_a_31_digit_multiplier(self, tmp_path):
        path = tmp_path / "big.grp"
        path.write_text("group big ambient 2\ngen [1/1000000000000000000000000000057, 0] inv {}\n")
        done = run_cli(["type", str(path), "(1,0)"], timeout=20)
        assert done.returncode == 0
        assert done.stdout == "type: 1/1000000000000000000000000000057 Z\n"

    def test_minmul_of_a_31_digit_multiplier(self, tmp_path):
        p = 10**30 + 57
        path = tmp_path / "bigm.grp"
        path.write_text(f"group bigm ambient 2\ngen [1/{p}, 0] inv {{}}\ngen [0, 1] inv {{}}\n")
        basis = f"(1/{p * p}, 0); (0, 1)"
        done = run_cli(["minmul", str(path), "--basis", basis], timeout=20)
        assert done.returncode == 0
        assert done.stdout == "minimal multiplier: 1000000000000000000000000000057\n"

    def test_quotient_witness_prime_beside_a_31_digit_entry(self, tmp_path):
        # W_ALL differs, so the witness prime is the least one outside both
        # groups' data; finding it must not factor the hull entry
        p = 10**30 + 57
        path = tmp_path / "bigq.grp"
        path.write_text(
            f"group G ambient 2\ngen [1, 0] inv ALL\ngen [0, 1/{p}] inv {{}}\n"
            f"group A ambient 2\ngen [1, 0] inv {{}}\ngen [0, 1/{p}] inv {{}}\n"
        )
        argv = ["quotient", str(path), str(path), "--name", "G", "--other-name", "A"]
        done = run_cli(argv, timeout=20)
        assert done.returncode == 0
        assert done.stdout == "InfiniteTorsion(p=2, direction=(1, 0))\n"

    def test_uncertified_prime_in_prime_set_is_one(self, tmp_path):
        path = tmp_path / "bigp.grp"
        path.write_text("group bigp ambient 1\ngen [1] inv {1000000000000000000000000000057}\n")
        done = run_cli(["member", str(path), "(1)"], timeout=20)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: {path}: line 2, col 14: cannot certify primality of a 31-digit number\n"
        )


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden(name, argv):
    expected = (GOLDEN / name).read_bytes().decode()
    first = run_cli(argv, hashseed="0")
    again = run_cli(argv, hashseed="12345")
    assert first.returncode == again.returncode
    assert first.stdout == expected
    assert again.stdout == expected


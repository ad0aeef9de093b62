"""CLI behaviour: exit-code channels, output shapes, golden-file determinism.

The golden table below is the list of documented command examples; every
entry is kept byte-identical across repeated runs and different hash
seeds.
"""

import contextlib
import io
import os
import shlex
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


def run_main(argv):
    """main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# (argv, exit code, stdout, stderr) of the calls run between the goldens: a
# parse error, a bad rational and a --json report
INTERLUDES = [
    (["member", "tests/data/g3.grp"], 1, "", "error: the following arguments are required: vector\n"),
    (["member", "tests/data/g3.grp", "(1,1.5)"], 1, "", "error: bad rational: '1.5'\n"),
    (
        ["member", "tests/data/g3.grp", "(1/2,1/2)", "--json"],
        0,
        '{"command": "member", "result": {"member": true}}\n',
        "",
    ),
]


def repeated_golden_mismatches():
    """Every golden command but the probe3 searches, run through main() in one
    process in order and then reversed, with an interlude after each; returns
    a line per output that differs.  Paths are relative to the repo root."""
    commands = [(name, argv) for name, argv in GOLDEN_COMMANDS if not name.startswith("probe3-")]
    mismatches = []
    for step, (name, argv) in enumerate(commands + commands[::-1]):
        out = run_main(argv)[1]
        if out != (GOLDEN / name).read_text():
            mismatches.append(f"{name} (call {step})")
        interlude, *expected = INTERLUDES[step % len(INTERLUDES)]
        if list(run_main(interlude)) != expected:
            mismatches.append(f"{shlex.join(interlude)} after {name}")
    return mismatches


class TestExitCodes:
    def test_definite_answer_is_zero(self, capsys):
        assert main(["member", str(DATA / "g3.grp"), "(1/2,1/2)"]) == 0
        assert "member: true" in capsys.readouterr().out

    def test_scope_limited_answer_is_two(self, capsys):
        assert main(["decompose", str(DATA / "g2.grp"), "--height", "1"]) == 2
        assert "none found" in capsys.readouterr().out

    @pytest.mark.parametrize("gens", ["", "gen [1, 2] inv {3}\n"], ids=["rank0", "rank1"])
    def test_decompose_below_rank_two_is_a_definite_no(self, tmp_path, capsys, gens):
        # a group of rank at most 1 has no decomposition at any height
        path = tmp_path / "r.grp"
        path.write_text("group r ambient 2\n" + gens)
        assert main(["decompose", str(path)]) == 0
        assert capsys.readouterr().out == "none found (height 1)\n"
        assert main(["decompose", str(path), "--height", "2", "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "decompose", "result": {"decompositions": [], "height": 2}}\n'
        )

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

    @pytest.mark.parametrize("n", [10**30 + 57, 1000000000039 * 1000000000061], ids=["prime", "semiprime"])
    def test_purify_on_a_line_with_a_large_index_finishes(self, tmp_path, n):
        # the line through (1, n) meets Q e1 + Z e2 in Z (1/n, 1); purify
        # factors nothing, so neither a 31-digit prime nor a product of two
        # 13-digit primes stalls or refuses it
        path = tmp_path / "qz.grp"
        path.write_text("group Q ambient 2\ngen [1, 0] inv ALL\ngen [0, 1] inv {}\n")
        done = run_cli(["purify", str(path), f"(1,{n})"], timeout=20)
        assert done.returncode == 0
        assert done.stdout == f"purified subgroup:\n  gen [1/{n}, 1] inv {{}}\n"

    @pytest.mark.parametrize("n", [10**30 + 57, 1000000000039 * 1000000000061], ids=["prime", "semiprime"])
    def test_commensurable_with_a_large_index_finishes(self, tmp_path, n):
        # n*Z2 <= nZ + Z <= Z2: the pair is read from least multipliers, so
        # neither a 31-digit prime nor a product of two 13-digit primes is factored
        path = tmp_path / "z2.grp"
        path.write_text("group Z ambient 2\ngen [1, 0] inv {}\ngen [0, 1] inv {}\n")
        sub = tmp_path / "nz.grp"
        sub.write_text(f"group N ambient 2\ngen [{n}, 0] inv {{}}\ngen [0, 1] inv {{}}\n")
        done = run_cli(["commensurable", str(path), str(sub)], timeout=20)
        assert done.returncode == 0
        assert done.stdout == f"commensurable: (a, b) = ({n}, 1)\n"

    def test_regulating_on_the_zero_group_is_the_empty_basis(self, tmp_path, capsys):
        # the empty family is a Jonsson basis of the zero group, of index 1
        path = tmp_path / "z.grp"
        path.write_text("group z ambient 2\n")
        assert main(["regulating", str(path), "--height", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index: 1\nexhaustive: true (height 1)\n")
        assert "summand" not in out

    def test_empty_generator_images_read_none(self, tmp_path, capsys):
        # the zero group has no generators, so no images to list
        path = tmp_path / "z.grp"
        path.write_text("group z ambient 2\n")
        assert main(["regulating", str(path), "--height", "1"]) == 0
        assert capsys.readouterr().out.endswith("quotient: trivial\ngenerator images: none\n")
        assert main(["quotient", str(path), str(path)]) == 0
        assert capsys.readouterr().out == "trivial\norder: 1\nexponent: 1\ngenerator images: none\n"

    @pytest.mark.parametrize(
        "gens, bases", [("", 1), ("gen [1, 2] inv {3}\n", 2)], ids=["rank0", "rank1"]
    )
    def test_si_search_below_rank_two_is_a_definite_no(self, tmp_path, capsys, gens, bases):
        # a quasi-decomposition needs two summands of rank >= 1, so a group of
        # rank at most 1 has none at any height
        path = tmp_path / "r.grp"
        path.write_text("group r ambient 2\n" + gens)
        assert main(["si-search", str(path)]) == 0
        assert capsys.readouterr().out == f"NoWitnessFound (height 2, {bases} bases)\n"
        assert main(["si-search", str(path), "--json"]) == 0
        assert capsys.readouterr().out == (
            '{"command": "si-search", "result": {"bases_searched": %d, "certificate": null, '
            '"height": 2, "witness": null}}\n' % bases
        )

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

    @pytest.mark.parametrize("command", [["member", "(1,1)", "--oracle"], ["verify"]], ids=["member-oracle", "verify"])
    def test_factoring_a_31_digit_denominator_fails_fast(self, tmp_path, command):
        # the oracle bound and verify factor the lattice's entries; the prime
        # cofactor must fail its certificate rather than be trial-divided
        path = tmp_path / "bigo.grp"
        path.write_text("group bigo ambient 2\ngen [1/1000000000000000000000000000057, 0] inv {}\ngen [0, 1] inv {}\n")
        done = run_cli([command[0], str(path), *command[1:]], timeout=20)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: cannot certify primality of a 31-digit number\n"

    def test_uncertified_prime_in_prime_set_is_one(self, tmp_path):
        path = tmp_path / "bigp.grp"
        path.write_text("group bigp ambient 1\ngen [1] inv {1000000000000000000000000000057}\n")
        done = run_cli(["member", str(path), "(1)"], timeout=20)
        assert done.returncode == 1
        assert done.stderr == (
            f"error: {path}: line 2, col 14: cannot certify primality of a 31-digit number\n"
        )


class TestSharedParser:
    def test_goldens_repeat_in_one_process(self, monkeypatch):
        monkeypatch.chdir(ROOT)
        assert repeated_golden_mismatches() == []

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        # the console script calls main() with no arguments
        monkeypatch.chdir(ROOT)
        monkeypatch.setattr(sys, "argv", ["torsionfree", "member", "tests/data/g3.grp", "(1/2,1/2)", "--oracle"])
        assert main() == 0
        assert capsys.readouterr().out == (GOLDEN / "g3-member.txt").read_text()

    def test_one_parser_per_process(self):
        # a fresh process, so that no earlier test has built the parser yet;
        # add_subparsers runs once per tree (the subparsers do not call it)
        script = (
            "from torsionfree import cli\n"
            "trees = []\n"
            "class Counting(cli._Parser):\n"
            "    def add_subparsers(self, **kwargs):\n"
            "        trees.append(self)\n"
            "        return super().add_subparsers(**kwargs)\n"
            "cli._Parser = Counting\n"
            "for _ in range(3):\n"
            "    cli.main(['type', 'tests/data/g2.grp', '(1,1)'])\n"
            "print(len(trees))\n"
        )
        done = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True, timeout=60)
        assert done.stdout == (GOLDEN / "g2-type.txt").read_text() * 3 + "1\n"


def test_readme_lists_the_golden_commands():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("The documented examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [shlex.split(line)[1:] for line in block.splitlines()]
    assert listed == [argv for _, argv in GOLDEN_COMMANDS]


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden(name, argv):
    expected = (GOLDEN / name).read_bytes().decode()
    first = run_cli(argv, hashseed="0")
    again = run_cli(argv, hashseed="12345")
    assert first.returncode == again.returncode
    assert first.stdout == expected
    assert again.stdout == expected


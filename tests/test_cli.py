import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from varproj.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProject:
    def test_ball(self, capsys):
        code, out, _ = run(capsys, "project", "--set", "ball", "--radius", "1", "--point", "[3, 4]")
        assert code == 0
        payload = json.loads(out)
        assert payload["projection"] == pytest.approx([0.6, 0.8])

    def test_cone_rn(self, capsys):
        code, out, _ = run(capsys, "project", "--set", "cone-rn", "--point", "[2, -1, 0]")
        assert code == 0
        assert json.loads(out)["projection"] == [2.0, 0.0, 0.0]

    def test_cone_l2(self, capsys):
        code, out, _ = run(
            capsys, "project", "--set", "cone-l2", "--point", "[[1, 2.0], [3, -1.0]]"
        )
        assert code == 0
        assert json.loads(out)["projection"] == [[1, 2.0]]

    @pytest.mark.parametrize(
        "radius, point, want",
        [
            ("1", "[1e200, 1e200]", [0.7071067811865476, 0.7071067811865476]),
            ("1e-200", "[3e-200, 4e-200]", [6e-201, 8e-201]),
        ],
    )
    def test_ball_wide_magnitudes(self, capsys, radius, point, want):
        code, out, err = run(capsys, "project", "--set", "ball", "--radius", radius, "--point", point)
        assert code == 0 and err == ""
        assert json.loads(out)["projection"] == pytest.approx(want, rel=1e-15)

    def test_missing_radius(self, capsys):
        code, _, err = run(capsys, "project", "--set", "ball", "--point", "[1, 0]")
        assert code == 2 and "radius" in err

    def test_dim_check(self, capsys):
        code, _, err = run(
            capsys, "project", "--set", "cone-rn", "--dim", "3", "--point", "[1, 2]"
        )
        assert code == 2 and "dimension" in err

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "project", "--set", "cone-rn", "--point", "[1, ")
        assert code == 2 and err == "error: --point: invalid JSON (Expecting value)\n"


class TestRejectedInput:
    @pytest.mark.parametrize("argv, message", [
        (("coderiv", "--set", "cone-l2", "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0]]", "--support", '{"a": 1}'),
         "--support: expected a JSON array of indices"),
        (("project", "--set", "cone-l2", "--point", "[[1, true]]"), "--point: sparse values must be numbers"),
        (("project", "--set", "cone-l2", "--point", "[[1, 1.0, 2]]"),
         "--point: sparse vector entries must be [index, value] pairs"),
        (("project", "--set", "cone-l2", "--point", '{"1": 1.0}'),
         "--point: sparse vector must be a JSON array of [index, value] pairs"),
        (("project", "--set", "cone-l2", "--point", "[[1, 1e999]]"), "--point: sparse values must be finite"),
        (("project", "--set", "cone-l2", "--point", "[[1.5, 1.0]]"),
         "--point: sparse indices must be positive integers"),
        (("project", "--set", "ball", "--radius", "-1", "--point", "[1, 0]"),
         "--radius: radius must be a positive finite number"),
        (("project", "--set", "cone-rn", "--point", "[]"),
         "--point: dense vector must be a non-empty JSON array of numbers"),
        (("project", "--set", "cone-rn", "--point", '[1, "a"]'), "--point: dense vector entries must be numbers"),
    ])
    def test_exits_2_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestGateauxFrechet:
    def test_gateaux_sphere(self, capsys):
        code, out, _ = run(
            capsys, "gateaux", "--set", "ball", "--radius", "1",
            "--xbar", "[1, 0]", "--w", "[1, 1]",
        )
        assert code == 0
        assert json.loads(out)["derivative"] == pytest.approx([0.0, 1.0])

    def test_gateaux_not_for_l2(self, capsys):
        # frechet too; one test id for both commands
        for command in ("gateaux", "frechet"):
            code, out, err = run(
                capsys, command, "--set", "cone-l2", "--xbar", "[[1, 1.0]]", "--w", "[[1, 1.0]]"
            )
            assert code == 2 and out == ""
            assert err == f"error: {command} is not available for --set cone-l2\n"

    @pytest.mark.parametrize("xbar", ["[0.1, 0]", "[2, 0]", "[1, 0]"])
    def test_gateaux_rejects_w_of_other_dimension(self, capsys, xbar):
        code, out, err = run(
            capsys, "gateaux", "--set", "ball", "--radius", "1", "--xbar", xbar, "--w", "[1, 2, 3]"
        )
        assert code == 2 and out == "" and "dimension mismatch" in err

    @pytest.mark.parametrize("setting", [("ball", "--radius", "1"), ("cone-rn",)])
    def test_frechet_reads_w_at_the_dimension_of_xbar(self, capsys, setting):
        code, out, err = run(
            capsys, "frechet", "--set", *setting, "--xbar", "[0.1, 0.2]", "--w", "[1, 2, 3]"
        )
        assert code == 2 and out == ""
        assert err == "error: --w: expected dimension 2, got 3\n"

    def test_frechet_exterior(self, capsys):
        code, out, _ = run(
            capsys, "frechet", "--set", "ball", "--radius", "1", "--xbar", "[2, 0]", "--w", "[1, 1]"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["differentiable"] is True
        assert payload["map"]["kind"] == "scaled_complement"
        assert payload["applied"] == pytest.approx([0.0, 0.5])

    def test_frechet_sphere_none(self, capsys):
        code, out, _ = run(capsys, "frechet", "--set", "ball", "--radius", "1", "--xbar", "[1, 0]")
        assert code == 0
        payload = json.loads(out)
        assert payload["differentiable"] is False and payload["map"] is None

    def test_frechet_cone(self, capsys):
        code, out, _ = run(capsys, "frechet", "--set", "cone-rn", "--xbar", "[1, -1]")
        assert code == 0
        assert json.loads(out)["map"]["kind"] == "coordinate_mask"


class TestCoderiv:
    def test_cone_rn_singleton(self, capsys):
        code, out, _ = run(
            capsys, "coderiv", "--set", "cone-rn", "--xbar", "[1, -1]", "--y", "[3, 4]"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["descriptor"] == {"variant": "singleton", "value": [3.0, 0.0]}

    def test_ball_empty(self, capsys):
        code, out, _ = run(
            capsys, "coderiv", "--set", "ball", "--radius", "1", "--xbar", "[1, 0]", "--y", "[1, 0]"
        )
        assert code == 0
        assert json.loads(out)["descriptor"]["variant"] == "empty"

    def test_contains_answers(self, capsys):
        args = (
            "coderiv", "--set", "cone-l2", "--support", "[1]",
            "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0], [2, 0.5]]",
        )
        code, out, _ = run(capsys, *args, "--z", "[[1, 1.0], [2, 0.25]]")
        assert code == 0 and json.loads(out)["contains"] is True
        code, out, _ = run(capsys, *args, "--z", "[[1, 1.0], [2, 0.75]]")
        assert code == 0 and json.loads(out)["contains"] is False

    def test_contains_with_overflowing_squares(self, capsys):
        # z is the singleton value times 1 + 1e-12; ||z - value||^2 overflows
        code, out, err = run(
            capsys, "coderiv", "--set", "ball", "--radius", "1", "--xbar", "[3, 4]",
            "--y", "[3e200, -4e200]", "--z", "[7.680000000000768e+199, -5.760000000000576e+199]",
        )
        assert code == 0 and err == "" and json.loads(out)["contains"] is True

    def test_ball_whose_split_product_overflows(self, capsys):
        code, out, err = run(
            capsys, "coderiv", "--set", "ball", "--radius", "1e10", "--xbar", "[1e10, 0]", "--y", "[-1e300, 1e300]",
        )
        assert code == 0 and err == ""
        assert json.loads(out)["descriptor"] == {"variant": "partial", "rule": "ball-sphere",
                                                 "known": {"contains_zero": False}}

    def test_contains_unknown(self, capsys):
        code, out, _ = run(
            capsys, "coderiv", "--set", "ball", "--radius", "1",
            "--xbar", "[1, 0]", "--y", "[-2, 0]", "--z", "[0.5, 0]",
        )
        assert code == 0 and json.loads(out)["contains"] == "unknown"

    @pytest.mark.parametrize("z", ["[0, 0, 0]", "[0]"])
    def test_partial_rejects_other_dimensions(self, capsys, z):
        code, out, err = run(
            capsys, "coderiv", "--set", "ball", "--radius", "1",
            "--xbar", "[0.6,0.8]", "--y", "[-0.6,-0.8]", "--z", z,
        )
        assert code == 2 and out == "" and "dimension mismatch" in err

    def test_l2_needs_valid_base(self, capsys):
        code, _, err = run(
            capsys, "coderiv", "--set", "cone-l2", "--support", "[1]",
            "--xbar", "[[1, -1.0]]", "--y", "[[1, 1.0]]",
        )
        assert code == 2 and err

    @pytest.mark.parametrize("y, z, contains, verdict", [
        ("[[1, 1.0]]", "[[1, 0.5]]", True, "member"),
        ("[[1, 1.0]]", "[[1, 1.5]]", False, "non_member"),
        ("[[1, 1.0], [2, 0.5]]", "[[2, -0.5]]", False, "non_member"),
    ])
    def test_l2_at_the_origin_agrees_with_the_oracle(self, capsys, y, z, contains, verdict):
        # the empty support is the origin's: the interval {0 <= z <= y}
        code, out, err = run(capsys, "coderiv", "--set", "cone-l2", "--xbar", "[]", "--support", "[]",
                             "--y", y, "--z", z)
        assert code == 0 and err == ""
        assert json.loads(out)["contains"] is contains
        code, out, _ = run(capsys, "oracle-member", "--set", "cone-l2", "--xbar", "[]", "--y", y, "--z", z)
        assert code == 0 and json.loads(out)["verdict"] == verdict


class TestUnusedFlags:
    @pytest.mark.parametrize("argv, flag", [
        (("project", "--set", "cone-l2", "--support", "[1, 4]", "--point", "[[1, 2.5]]"), "--support"),
        (("oracle-member", "--set", "cone-l2", "--support", "[1]",
          "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0]]", "--z", "[[1, 1.0]]"), "--support"),
        (("coderiv", "--set", "cone-rn", "--support", "[1]", "--xbar", "[1, 0]", "--y", "[1, 0]"), "--support"),
        (("gateaux", "--set", "ball", "--radius", "1", "--support", "[1]",
          "--xbar", "[2, 0]", "--w", "[1, 1]"), "--support"),
        (("project", "--set", "cone-rn", "--radius", "1", "--point", "[1, -1]"), "--radius"),
        (("coderiv", "--set", "cone-l2", "--support", "[1]", "--radius", "1",
          "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0]]"), "--radius"),
        (("project", "--set", "cone-l2", "--dim", "2", "--point", "[[1, 2.5]]"), "--dim"),
        (("coderiv", "--set", "cone-l2", "--support", "[1]", "--dim", "1",
          "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0]]"), "--dim"),
    ])
    def test_rejected(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} is not used by {argv[0]} --set {argv[2]}\n"

    @pytest.mark.parametrize("argv", [
        ("project", "--set", "ball", "--radius", "1", "--dim", "2", "--point", "[3, 4]"),
        ("frechet", "--set", "cone-rn", "--dim", "2", "--xbar", "[1, -1]"),
        ("coderiv", "--set", "cone-l2", "--support", "[1]", "--xbar", "[[1, 1.0]]", "--y", "[[1, 1.0]]"),
    ])
    def test_read_flags_accepted(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and json.loads(out)["set"] == argv[2]


class TestOracleMember:
    def test_non_member(self, capsys):
        code, out, _ = run(
            capsys, "oracle-member", "--set", "ball", "--radius", "1",
            "--xbar", "[1, 0]", "--y", "[0, 0]", "--z", "[1.3, 0]",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "non_member"
        assert payload["witness"]["quotient"] == pytest.approx(1.3)

    def test_sparse_non_member_witness(self, capsys):
        code, out, _ = run(
            capsys, "oracle-member", "--set", "cone-l2", "--xbar", "[[1, 1.0], [3, 0.5]]",
            "--y", "[[1, 1.0], [2, 1.0]]", "--z", "[[1, 1.0], [2, 1.5]]", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "non_member" and payload["witness"]["direction"] == [[2, 1.0]]

    def test_sparse_witness_quotient_sums_left_to_right(self, capsys):
        # three products per sparse sum; a compensated sum (the builtin sum
        # since Python 3.12) gives 2.107373739760024
        code, out, _ = run(
            capsys, "oracle-member", "--set", "cone-l2", "--xbar", "[[2, 1.34], [6, 1.11]]",
            "--y", "[[2, -0.12], [6, 1.66], [8, -1.97]]", "--z", "[[2, 1.96], [6, -0.12], [8, 1.29]]", "--seed", "9",
        )
        witness = json.loads(out)["witness"]
        assert code == 0 and len(witness["direction"]) == 3
        assert repr(witness["quotient"]) == "2.1073737397600234"

    def test_member(self, capsys):
        code, out, _ = run(
            capsys, "oracle-member", "--set", "cone-rn",
            "--xbar", "[1, 1]", "--y", "[2, 3]", "--z", "[2, 3]",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "member"

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("VARPROJ_SEED", "7")
        args = (
            "oracle-member", "--set", "ball", "--radius", "1",
            "--xbar", "[1, 0]", "--y", "[0.5, 0]", "--z", "[0, 0]",
        )
        code, out_env, _ = run(capsys, *args)
        assert code == 0
        monkeypatch.delenv("VARPROJ_SEED")
        code, out_seed, _ = run(capsys, *args, "--seed", "7")
        assert out_env == out_seed

    @pytest.mark.parametrize("argv, message", [
        # an infinite tolerance would read every supremum as a member
        *((("--xbar", "[3, 4]", "--y", "[1, 0]", "--z", "[5, 5]", "--tolerance", tolerance),
           "tolerance must be positive and finite") for tolerance in ("inf", "nan", "0", "-1")),
        # from ||xbar|| near 1e13 the smallest radii lie below the round-back
        # floor ||spacing(xbar)|| / 2, refused with no warning on the way
        (("--xbar", "[1e13, 1e13, 1e13]", "--y", "[1, 0, 0]", "--z", "[0, 1, 0]"), "rounds back to xbar"),
    ])
    def test_rejected_query(self, capsys, argv, message):
        code, out, err = run(capsys, "oracle-member", "--set", "ball", "--radius", "1", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("VARPROJ_SEED", "soup")
        code, _, err = run(
            capsys, "oracle-member", "--set", "cone-rn",
            "--xbar", "[1, 1]", "--y", "[0, 0]", "--z", "[0, 0]",
        )
        assert code == 2 and "VARPROJ_SEED" in err

    def test_negative_seed(self, capsys, monkeypatch):
        # refused before any verdict, naming where the seed came from
        query = ("oracle-member", "--set", "cone-rn", "--xbar", "[1, 2]", "--y", "[1, 0]", "--z", "[1, 0]")
        monkeypatch.setenv("VARPROJ_SEED", "-1")
        for argv, name in (((*query, "--seed", "-1"), "--seed"), (query, "VARPROJ_SEED"),
                           (("verify", "--suite", "decomp"), "VARPROJ_SEED")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == f"error: {name}: must be nonnegative, got -1\n"


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "decomp", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0 and payload["total"] > 0

    def test_deterministic_output(self, capsys):
        code_a, out_a, _ = run(capsys, "verify", "--suite", "ball-coderiv", "--seed", "5")
        code_b, out_b, _ = run(capsys, "verify", "--suite", "ball-coderiv", "--seed", "5")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_unknown_suite_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "nope")
        assert code == 2


class TestParser:
    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 2 and "usage" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "transmogrify")
        assert code == 2 and "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "project" in out


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples():
    """Every ``$ varproj ...`` line of the README with the line printed under it.

    Each is named by its subcommand and its ordinal among the examples
    (``project-1``, ...), so a line added to the README above them renames none.
    """
    lines = README.read_text().splitlines()
    examples = [(line, lines[i + 1]) for i, line in enumerate(lines) if line.startswith("$ varproj ")]
    return [
        pytest.param(shlex.split(line[len("$ varproj "):]), printed, id=f"{line.split()[2]}-{k}")
        for k, (line, printed) in enumerate(examples, 1)
    ]


class TestProcess:
    """``python -m varproj.cli`` in a fresh interpreter."""

    SRC = str(Path(__file__).resolve().parents[1] / "src")

    def spawn(self, *argv, python_flags=(), **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *python_flags, "-m", "varproj.cli", *argv],
                              env=env, stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)

    def test_runs_as_module_without_runtime_warning(self):
        proc = self.spawn("project", "--set", "cone-rn", "--point", "[1,-1]",
                          python_flags=("-W", "error::RuntimeWarning"), stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["projection"] == [1.0, 0.0]

    @pytest.mark.parametrize("argv", [
        ("project", "--set", "ball", "--radius", "1", "--point", "[1e200, 1e200]"),
        ("coderiv", "--set", "ball", "--radius", "1", "--xbar", "[0.1, 0]", "--y", "[1e308, 1e308]",
         "--z", "[-1e308, -1e308]"),
    ])
    def test_handled_overflow_warns_nothing(self, argv):
        # the library answers these overflows itself, so no warning reaches
        # stderr even when every warning is an error
        proc = self.spawn(*argv, python_flags=("-W", "error"), stdout=subprocess.PIPE)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert isinstance(json.loads(proc.stdout), dict)

    def test_readme_has_examples(self):
        assert len(_readme_examples()) >= 6

    @pytest.mark.parametrize("argv, printed", _readme_examples())
    def test_readme_example(self, argv, printed):
        proc = self.spawn(*argv, stdout=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip("\n") == printed

    def test_closed_stdout_is_quiet(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.spawn("verify", "--suite", "decomp", stdout=write_end)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr
        assert proc.returncode == 1

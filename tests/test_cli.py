import json

import pytest

from qso_reps import GeneratorMatrix, RelationReport, SingularCoefficientError
from qso_reps.reps import RelationResidual
from qso_reps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_examples(capsys):
    code, out, _ = run(capsys, "dim", "--algebra", "4", "--weight", "1,0")
    assert code == 0 and json.loads(out)["dim"] == 4
    code, out, _ = run(capsys, "dim", "--algebra", "3", "--weight", "2")
    assert code == 0 and json.loads(out)["dim"] == 5
    code, out, _ = run(capsys, "dim", "--algebra", "3", "--kind",
                       "nonclassical", "--weight", "3/2", "--eps", "++")
    assert code == 0 and json.loads(out)["dim"] == 2
    # a sign string starting with - is a value, not an option
    code, out, _ = run(capsys, "dim", "--algebra", "3", "--kind",
                       "nonclassical", "--weight", "3/2", "--eps", "-+")
    assert code == 0 and json.loads(out)["label"]["eps"] == [-1, 1]


def test_weight_starting_with_minus_is_a_value(capsys):
    code, out, _ = run(capsys, "dim", "--algebra", "2", "--weight", "-1/2")
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out, _ = run(capsys, "decompose", "--algebra", "2", "--weight",
                       "-3/2")
    assert code == 0
    assert json.loads(out)["label"]["weight"] == [-3]
    # "--" stays argparse's end of options, which it never keeps as a value
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--algebra", "2", "--weight", "--"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_dim_validation_error(capsys):
    code, _, err = run(capsys, "dim", "--algebra", "4", "--weight", "1,0,9")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "dim", "--algebra", "4", "--weight", "0,1")
    assert code == 2
    code, _, err = run(capsys, "dim", "--algebra", "3", "--kind",
                       "nonclassical", "--weight", "3/2")
    assert code == 2 and "eps" in err


def test_check_vector_rep(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "5", "--weight", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert {r["q"] for r in data["results"]} == {1.3, 0.7}


def test_check_nonclassical(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "4", "--kind",
                       "nonclassical", "--weight", "1/2,1/2", "--eps", "+++")
    assert code == 0 and json.loads(out)["passed"] is True


def test_check_corrupted_matrix_exits_one(capsys, monkeypatch):
    import qso_reps.cli as cli

    real = cli.build_all_generators

    def corrupt(label, ctx):
        mats = real(label, ctx)
        bad = mats[0].mat.copy()
        bad[0, 0] += 0.25
        return [GeneratorMatrix(mats[0].label, mats[0].gen, bad)] + mats[1:]

    monkeypatch.setattr(cli, "build_all_generators", corrupt)
    code, out, _ = run(capsys, "check", "--algebra", "4", "--weight", "1,0",
                       "--q", "1.3")
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_decompose_so3_blocks(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "3", "--weight", "1",
                       "--q", "1.3")
    assert code == 0
    data = json.loads(out)
    blocks = data["results"][0]["blocks"]
    assert [(b["target"], b["dim"]) for b in blocks] == [
        ([4], 5), ([0], 1), ([2], 3)]
    assert data["results"][0]["rank"] == 9
    assert data["results"][0]["sum_rule_ok"] is True


def test_decompose_so3_trivial(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "3", "--weight", "0",
                       "--q", "1.3")
    data = json.loads(out)
    blocks = data["results"][0]["blocks"]
    assert [(b["target"], b["dim"]) for b in blocks] == [([2], 3)]


def test_decompose_nonclassical_halfline(capsys):
    code, out, _ = run(capsys, "decompose", "--algebra", "3", "--kind",
                       "nonclassical", "--weight", "1/2", "--eps", "++",
                       "--q", "1.3")
    data = json.loads(out)
    blocks = data["results"][0]["blocks"]
    assert [b["target"] for b in blocks] == [[3], [1]]


def test_decompose_deterministic_in_process(capsys):
    args = ["decompose", "--algebra", "4", "--weight", "1,1", "--q", "1.3"]
    outputs = {run(capsys, *args)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_reduced_table(capsys):
    code, out, _ = run(capsys, "reduced", "--algebra", "4",
                       "--ambient-weight", "1,0", "--q", "1.3")
    assert code == 0
    data = json.loads(out)
    pairs = data["results"][0]["pairs"]
    assert len(pairs) == 2
    assert all(p["residual"] < 1e-8 for p in pairs)


def test_reduced_kind_or_eps_is_usage_error(capsys):
    # reduced reads its label from --ambient-*; --kind and --eps are refused
    for extra in (["--kind", "nonclassical"], ["--eps", "+++"]):
        with pytest.raises(SystemExit) as exc:
            main(["reduced", "--algebra", "4", "--ambient-weight", "1,0",
                  "--q", "1.3", *extra])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " + " ".join(extra) in captured.err
        assert "Traceback" not in captured.err


def test_reduced_nonclassical_ambient_signs(capsys):
    argv = ["reduced", "--algebra", "4", "--ambient-kind", "nonclassical",
            "--ambient-weight", "3/2,1/2", "--q", "1.3"]
    code, out, err = run(capsys, *argv, "--ambient-eps", "-+++")
    assert code == 0, err
    data = json.loads(out)
    assert data["ambient"]["eps"] == [-1, 1, 1, 1]
    assert data["results"][0]["pairs"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: nonclassical labels need --ambient-eps\n"


def test_reduced_malformed_weight(capsys):
    code, _, err = run(capsys, "reduced", "--algebra", "4",
                       "--ambient-weight", "1,0,0")
    assert code == 2


def test_csv_format(capsys):
    code, out, _ = run(capsys, "check", "--algebra", "3", "--weight", "1",
                       "--q", "1.3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,relation,residual,scale,passed"
    assert len(lines) == 3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run(capsys, "dim", "--algebra", "4", "--weight", "1,0",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 4


def test_float_format_17_digits(capsys):
    _, out, _ = run(capsys, "check", "--algebra", "3", "--weight", "1",
                    "--q", "1.3")
    # a scale entry like 1/sqrt(2) renders with full precision
    assert "0.70710678118654757" in out


def test_check_rejects_infinite_q(capsys):
    code, out, err = run(capsys, "check", "--algebra", "3", "--weight", "1",
                         "--q", "inf")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


def test_check_overflowing_q_exits_one(capsys):
    code, out, err = run(capsys, "check", "--algebra", "3", "--weight", "1",
                         "--q", "1e300")
    assert code == 1 and out == ""
    assert err.startswith("numerical error: OverflowError")
    assert len(err.strip().splitlines()) == 1


def test_singular_coefficient_exits_one(capsys, monkeypatch):
    import qso_reps.cli as cli

    def singular(label, ctx):
        raise SingularCoefficientError("vanishing denominator bracket in A^1")

    monkeypatch.setattr(cli, "build_all_generators", singular)
    code, out, err = run(capsys, "check", "--algebra", "4", "--weight", "1,0",
                         "--q", "1.3")
    assert code == 1 and out == ""
    assert err == ("numerical error: SingularCoefficientError: vanishing "
                   "denominator bracket in A^1\n")


def test_reduced_rank_two_negative_weights(capsys):
    # the aux cap must reach |m| for the negative so2 weights of so3(2)
    code, out, err = run(capsys, "reduced", "--algebra", "2",
                         "--ambient-weight", "2", "--q", "1.3")
    assert code == 0, err
    pairs = json.loads(out)["results"][0]["pairs"]
    assert pairs
    assert all(p["residual"] < 1e-8 for p in pairs)


@pytest.mark.parametrize("argv", [
    # argparse turns the value of `--weight=--` into an empty list
    ("dim", "--algebra", "3", "--weight=--"),
    ("reduced", "--algebra", "3", "--ambient-weight=--"),
    # a rank-2 ambient restricts to so1, which carries no vector operator
    ("reduced", "--algebra", "1", "--ambient-weight", "1"),
    ("reduced", "--algebra", "1", "--ambient-weight", "0"),
    # `--eps=--` loses its value the same way and reads as a missing --eps
    ("dim", "--algebra", "3", "--kind", "nonclassical", "--weight", "3/2",
     "--eps=--"),
])
def test_malformed_input_exits_two_without_traceback(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_extreme_q_leaves_stderr_empty(capsys):
    # rejected aux candidates meet inf * 0 here; no numpy warning may reach
    # stderr ahead of (or instead of) the CLI's own message
    code, out, err = run(capsys, "decompose", "--algebra", "4", "--weight",
                         "1,1", "--q", "1e25")
    assert code == 0 and out and err == ""


def test_memory_error_exits_two(capsys, monkeypatch):
    import qso_reps.cli as cli

    def too_large(label, ctx):
        raise MemoryError("Unable to allocate 596. GiB for an array")

    monkeypatch.setattr(cli, "build_all_generators", too_large)
    code, out, err = run(capsys, "check", "--algebra", "3", "--weight",
                         "99999", "--q", "1e300")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unwritable_out_exits_two(capsys):
    code, out, err = run(capsys, "decompose", "--algebra", "3", "--weight",
                         "1", "--out", "/nonexistent/dir/x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "/nonexistent/dir/x" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tol_must_be_finite_and_positive(capsys, tol):
    code, out, err = run(capsys, "check", "--algebra", "3", "--weight", "1",
                         "--tol", tol)
    assert code == 2 and out == ""
    assert err.startswith("error: tol must be positive and finite")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("option", ["--q", "--tol"])
def test_dim_takes_no_q_or_tol(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--algebra", "3", "--weight", "1", option, "abc"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} abc" in captured.err


def test_tol_reaches_the_checks(capsys):
    argv = ["check", "--algebra", "3", "--weight", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, *argv, "--tol", "1e-30")
    assert code == 1 and json.loads(out)["passed"] is False


def test_covariance_failure_in_reduced_exits_one(capsys, monkeypatch):
    import qso_reps.cli as cli

    failing = RelationReport((RelationResidual("raise(2)", 1.0, 1.0, False),))
    monkeypatch.setattr(cli, "check_vector_operator", lambda vop, ctx: failing)
    code, out, err = run(capsys, "reduced", "--algebra", "3",
                         "--ambient-weight", "1,0", "--q", "1.3")
    assert code == 1 and out == ""
    assert err == ("numerical check failed: canonical operator failed "
                   "covariance check at q=1.3: max residual 1.000e+00\n")


def test_failed_intertwiner_in_decompose_exits_one(capsys, monkeypatch):
    import qso_reps.cgc as cgc

    real = cgc.tensor_action
    monkeypatch.setattr(cgc, "tensor_action",
                        lambda *args: real(*args) + 1.0)
    code, out, err = run(capsys, "decompose", "--algebra", "3", "--weight",
                         "1", "--q", "1.3")
    assert code == 1 and out == ""
    assert err.startswith("numerical check failed: intertwiner residual ")
    assert len(err.splitlines()) == 1

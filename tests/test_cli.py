import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from qso_reps import (GeneratorMatrix, HalfInt, RelationReport,
                      SingularCoefficientError, dimension)
from qso_reps.reps import RelationResidual, Sparse
from qso_reps.cli import _attach_dash_values, _label_from, build_parser, main


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
        return [GeneratorMatrix(mats[0].label, Sparse.of(bad))] + mats[1:]

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


def test_memory_error_without_text_still_names_a_reason(capsys, monkeypatch):
    import qso_reps.cli as cli

    def exhausted(label):
        raise MemoryError()  # as an allocation failure raises it

    monkeypatch.setattr(cli, "dimension", exhausted)
    code, out, err = run(capsys, "dim", "--algebra", "3", "--weight", "4")
    assert code == 2 and out == ""
    assert err == "error: input too large: ran out of memory\n"


def test_unwritable_out_exits_two(capsys):
    code, out, err = run(capsys, "decompose", "--algebra", "3", "--weight",
                         "1", "--out", "/nonexistent/dir/x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "/nonexistent/dir/x" in err


# False: the directory cannot be written; True: it is missing; "dir": the
# path is itself a directory
@pytest.mark.parametrize("missing", [False, True, "dir"])
def test_unwritable_out_exits_two_before_any_work(capsys, monkeypatch,
                                                  tmp_path, missing):
    import qso_reps.cli as cli

    def refuse(label, ctx):
        raise AssertionError("decomposed before checking --out")

    monkeypatch.setattr(cli, "assemble_decomposition", refuse)
    out_path = tmp_path / "x"
    if missing == "dir":
        out_path.mkdir()
        error = IsADirectoryError(21, "Is a directory", str(out_path))
    elif missing:
        out_path = tmp_path / "missing" / "x"
        error = FileNotFoundError(2, "No such file or directory", str(out_path))
    else:
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        error = PermissionError(13, "Permission denied", str(out_path))
    code, out, err = run(capsys, "decompose", "--algebra", "3", "--weight",
                         "1", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"
    assert out_path.is_dir() if missing == "dir" else not out_path.exists()


def test_out_is_untouched_when_a_check_fails(capsys, monkeypatch, tmp_path):
    import qso_reps.cli as cli
    from qso_reps.cgc import DecompositionError

    def fail(label, ctx):
        raise DecompositionError("intertwiner residual")

    monkeypatch.setattr(cli, "assemble_decomposition", fail)
    out_path = tmp_path / "kept.json"
    out_path.write_text("earlier output")
    code, out, _ = run(capsys, "decompose", "--algebra", "3", "--weight", "1",
                       "--out", str(out_path))
    assert code == 1 and out == ""
    assert out_path.read_text() == "earlier output"


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
                   "covariance check at q=1.3: raise(2) residual 1.000e+00 "
                   "scale 1.000e+00 tolerance 2.000e-09\n")


def test_forbidden_pair_entry_in_reduced_exits_one(capsys, monkeypatch):
    import qso_reps.cli as cli
    from oracles import with_forbidden_entry

    real = cli.canonical_vector_operator
    keys = []

    def corrupt(ambient, ctx):
        broken, key = with_forbidden_entry(real(ambient, ctx), 1e-30)
        keys.append(key)
        return broken

    monkeypatch.setattr(cli, "canonical_vector_operator", corrupt)
    code, out, err = run(capsys, "reduced", "--algebra", "4",
                         "--ambient-weight", "2,1", "--q", "1.3")
    assert code == 1 and out == "" and len(keys) == 1
    assert err == ("numerical check failed: matrix element 1.000e-30 on "
                   f"forbidden pair {keys[0]}\n")


def test_corrupted_operator_names_each_failing_relation(capsys, monkeypatch):
    import re

    import qso_reps.cli as cli
    from qso_reps import VectorOperator, check_vector_operator
    from qso_reps.qarith import QContext

    real = cli.canonical_vector_operator
    bad = {}

    def corrupt(ambient, ctx):
        vop = real(ambient, ctx)
        components = (vop.components[0] * (1 + 1e-3),) + vop.components[1:]
        bad["vop"] = VectorOperator(vop.n, vop.blocks, vop.gens, components)
        return bad["vop"]

    monkeypatch.setattr(cli, "canonical_vector_operator", corrupt)
    code, out, err = run(capsys, "reduced", "--algebra", "3",
                         "--ambient-weight", "2,1", "--q", "1.3")
    assert code == 1 and out == "" and len(err.splitlines()) == 1
    prefix = ("numerical check failed: canonical operator failed covariance "
              "check at q=1.3: ")
    assert err.startswith(prefix)
    ctx = QContext(1.3)
    failures = check_vector_operator(bad["vop"], ctx).failures()
    assert [e.relation for e in failures] == ["raise(2)", "lower(2)"]
    listed = re.findall(r"(\S+) residual (\S+) scale (\S+) tolerance ([^;\s]+)",
                        err[len(prefix):])
    assert listed == [(e.relation, f"{e.residual:.3e}", f"{e.scale:.3e}",
                       f"{ctx.tolerance(e.scale):.3e}") for e in failures]


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


# malformed and extreme command lines for the exit-code contract
_JUNK = st.sampled_from(
    [str(i) for i in range(-3, 4)] + [f"{i}/2" for i in range(-5, 6, 2)]
    + ["", "x", "1/3", "1.5", "--", "+1", " 1", "1/2/2", "9" * 30])
_BAD_SIGNS = st.one_of(st.none(), st.text("+-", max_size=9),
                       st.sampled_from(["--", "+x-", "++ ", "0"]))
_GOOD_QS = st.sampled_from(["1e300", "1e-300", "1e-6", "1.3"])
_BAD_QS = st.sampled_from(["0", "1", "-2", "inf", "-inf", "nan", "", "abc"])
_BAD_TOLS = st.sampled_from(["0", "-1", "nan", "inf", "", "abc"])


@st.composite
def _argv(draw):
    """A command line whose parts are each malformed with probability 1/8,
    so that about half name a label and run."""
    def bad():
        return draw(st.integers(0, 7)) == 0

    command = draw(st.sampled_from(["dim", "check", "decompose", "reduced"]))
    n = draw(st.integers(0, 8))
    rank = n + 1 if command == "reduced" else n
    prefix = "--ambient-" if command == "reduced" else "--"
    kind = draw(st.sampled_from(["classical", "nonclassical"]))
    if bad():
        weight = ",".join(draw(st.lists(_JUNK, min_size=1, max_size=4)))
    else:
        # rank // 2 decreasing entries of one parity (half-integers for the
        # nonclassical family), the last one sometimes negated
        odd = 1 if kind == "nonclassical" else draw(st.integers(0, 1))
        size = max(rank // 2, 1)
        twice = sorted((2 * t + odd for t in draw(st.lists(
            st.integers(0, max(7 - rank, 0)),
            min_size=size, max_size=size))), reverse=True)
        if bad():
            twice[-1] = -twice[-1]
        weight = ",".join(str(HalfInt(t)) for t in twice)
    argv = [command, "--algebra", str(n), prefix + "weight", weight]
    if not bad():
        argv += [prefix + "kind", kind]
    elif draw(st.booleans()):
        argv += [prefix + "kind", "other"]
    signs = draw(_BAD_SIGNS if bad() else st.text(
        "+-", min_size=max(rank - 1, 0), max_size=max(rank - 1, 0)))
    if signs is not None:
        argv += ([prefix + "eps=" + signs] if draw(st.booleans())
                 else [prefix + "eps", signs])
    if command != "dim":
        if not bad():
            qs = [draw(_BAD_QS if bad() else _GOOD_QS)
                  for _ in range(draw(st.integers(1, 2)))]
            argv += ["--q", ",".join(qs)]
        if bad():
            argv += ["--tol", draw(_BAD_TOLS)]
    if bad():
        argv += ["--format", draw(st.sampled_from(["csv", "xml", ""]))]
    return argv


def _label_size(argv):
    """Dimension of the label an argument list names, 0 when the CLI
    refuses it before any work, and infinity for an entry above 4, whose
    tableaux may be too many to count by enumeration."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(_attach_dash_values(argv))
        if args.command == "reduced":
            label = _label_from(args, kind_attr="ambient_kind",
                                weight_attr="ambient_weight",
                                eps_attr="ambient_eps", n=args.algebra + 1)
        else:
            label = _label_from(args)
    except (SystemExit, ValueError):
        return 0
    if max(abs(e.twice) for e in label.m_top) > 8:
        return float("inf")
    return dimension(label)


@settings(max_examples=250, derandomize=True, deadline=None)
@given(argv=_argv())
def test_exit_code_contract_on_malformed_and_extreme_argv(argv):
    assume(_label_size(argv) <= 60)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()

"""Self-tests of the benchmark: tracing leaves stdout alone, call lists
follow the seed, and the verifier rejects broken outputs.

Run with: python3 -m pytest bench/tests -q
"""

import copy
import json
import subprocess
import sys

import pytest

import run
import tracer
import verify
import workloads

SMALL_CALLS = [
    ["decompose", "--algebra", "4", "--weight", "1,1", "--q", "1.3"],
    ["reduced", "--algebra", "4", "--ambient-weight", "3/2,1/2",
     "--ambient-kind", "nonclassical", "--ambient-eps=+-++", "--q", "0.7"],
    ["check", "--algebra", "5", "--weight", "2,1", "--q", "1.3,0.7"],
    ["dim", "--algebra", "7", "--weight", "4,3,2"],
]


@pytest.fixture
def env(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TMP", tmp_path)
    return run.child_env()


@pytest.mark.parametrize("argv", SMALL_CALLS, ids=lambda a: a[0])
def test_traced_stdout_is_byte_identical(env, argv):
    plain = run.run_call(argv, env, traced=False)
    traced = run.run_call(argv, env, traced=True)
    assert plain.code == traced.code == 0
    assert traced.stdout == plain.stdout
    assert traced.trace["counts"]["cli.main"] == 1
    assert traced.trace["absent"] == []


def test_missing_wrapped_function_is_absent_not_fatal(env):
    code = ("import tracer, qso_reps.cli; tracer.COUNTED['cgc'] += ('_gone',); "
            "t = tracer.Tracer(); t.install(); print(t.absent)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         cwd=run.BENCH, capture_output=True, text=True).stdout
    assert out.strip() == "['cgc._gone']"


def test_absent_function_drops_its_metrics():
    trace = {"import_s": 0.2, "spans": [["cli.main", 0.0, 1.0, -1]],
             "counts": {"cli.main": 1}, "values": {},
             "absent": ["cgc.cgc_is_zero"]}
    values, absent = tracer.layer_metrics(tracer.PassTrace([trace], 10, 0.1))
    assert absent == ["cgc.cgc_is_zero.calls", "cgc.coefficient_yield"]
    assert "cgc.cgc_is_zero.calls" not in values
    assert values["cli.output_bytes"] == 10


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0.0, 10.0, -1], ["cgc.assemble_decomposition", 1.0, 7.0, 0],
             ["reps.build_generator", 2.0, 5.0, 1], ["reps.build_generator", 8.0, 9.0, 0]]
    assert tracer.self_times(spans) == {"cli.main": 3.0,
                                        "cgc.assemble_decomposition": 3.0,
                                        "reps.build_generator": 4.0}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_call_list_follows_the_seed(workload):
    assert workloads.calls(workload, 5) == workloads.calls(workload, 5)
    assert workloads.calls(workload, 5) != workloads.calls(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_the_default_seed(workload):
    keys = {verify.call_key(a)
            for a in workloads.calls(workload, workloads.DEFAULT_SEED)}
    assert set(verify.load_reference(workload)) == keys


def _decompose_reference():
    reference = verify.load_reference("small-calls")
    argv = next(a for a in workloads.calls("small-calls", workloads.DEFAULT_SEED)
                if a[0] == "decompose")
    return reference, argv, reference[verify.call_key(argv)]


def _stdout(data) -> bytes:
    return json.dumps(data).encode()


def test_verifier_accepts_the_reference_and_added_keys():
    reference, argv, data = _decompose_reference()
    assert verify.check_output(argv, 0, _stdout(data), reference) is None
    extended = copy.deepcopy(data)
    extended["results"][0]["evidence"] = {"aux": [1, 2]}
    assert verify.check_output(argv, 0, _stdout(extended), reference) is None


def test_verifier_rejects_a_perturbed_float():
    reference, argv, data = _decompose_reference()
    bad = copy.deepcopy(data)
    term = bad["results"][0]["blocks"][0]["cgc"]["entries"][-1]["terms"][-1]
    term["re"] *= 1 + 1e-7
    assert "!=" in verify.check_output(argv, 0, _stdout(bad), reference)


@pytest.mark.parametrize("reference_used", [True, False])
def test_verifier_rejects_a_dropped_block(reference_used):
    reference, argv, data = _decompose_reference()
    bad = copy.deepcopy(data)
    del bad["results"][0]["blocks"][-1]
    problem = verify.check_output(argv, 0, _stdout(bad),
                                  reference if reference_used else None)
    assert problem is not None


def test_verifier_rejects_a_nonzero_exit():
    reference, argv, data = _decompose_reference()
    assert verify.check_output(argv, 1, _stdout(data), reference) == "exit code 1"
    assert verify.check_output(argv, 2, b"", None) == "exit code 2"


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, in_json in run.E2E_METRICS if in_json]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, *_ in tracer.LAYER_METRICS]
    # small-calls runs by hand but is not gated (see README.md)
    assert [w["name"] for w in spec["workloads"]] == \
        [w for w in workloads.WORKLOADS if w != "small-calls"]


@pytest.mark.xfail(strict=True, reason="argparse drops the value of --eps=--, "
                   "so the CLI cannot take the sign string '--'; the "
                   "workloads redraw it until this is fixed")
def test_cli_takes_the_sign_string_minus_minus(capsys):
    import qso_reps.cli

    assert qso_reps.cli.main(["dim", "--algebra", "3", "--kind", "nonclassical",
                              "--weight", "3/2", "--eps=--"]) == 0

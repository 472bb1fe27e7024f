"""End-to-end tests of the command-line interface.

Everything goes through main(argv) in-process: stdout must carry only the
report, stderr the diagnostics, and the exit code must follow the
0 = pass / 1 = check failed / 2 = usage-or-input-error contract.
"""

import csv
import io
import json
import math
import re
import tracemalloc
import warnings

import pytest

import empcalc as ec
import empcalc.cli as cli
from empcalc.cli import main
from empcalc.correlation import rho_from_moments
from empcalc.io import Report
from empcalc.streams import derive_rng


FOUR_ROWS = "1,1\n2,3\n3,2\n4,4\n"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def byte_stdin(data: bytes):
    """A stand-in for sys.stdin: bytes beneath a text layer that, like the
    interpreter's stdin under a C locale, decodes bad bytes to surrogates."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- estimate

def test_estimate_four_row_file(tmp_path, capsys):
    path = write_csv(tmp_path, FOUR_ROWS)
    with pytest.warns(UserWarning, match="normal approximation"):  # n = 4
        code, out, err = run_cli(capsys, "estimate", "--input", path)
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == ["command", "config", "results", "checks", "seed"]
    assert report["command"] == "estimate"
    assert report["results"]["rho_n"] == pytest.approx(0.8, rel=1e-14)
    assert report["results"]["n"] == 4
    lo, hi = report["results"]["ci95"]
    assert lo < 0.8 < hi
    assert 0.0 <= report["results"]["p_value"] <= 1.0


def test_estimate_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(FOUR_ROWS.encode()))
    with pytest.warns(UserWarning, match="normal approximation"):
        code, out, _ = run_cli(capsys, "estimate", "--input", "-")
    assert code == 0
    assert json.loads(out)["results"]["rho_n"] == pytest.approx(0.8, rel=1e-14)


def test_estimate_rejects_a_malformed_first_row_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", byte_stdin(b"1.5,2..0\n" + FOUR_ROWS.encode()))
    code, out, err = run_cli(capsys, "estimate", "--input", "-")
    assert code == 2
    assert out == ""
    assert "line 1: non-numeric value '2..0'" in err


def test_estimate_warns_about_kurtosis_once(tmp_path, capsys):
    # one outlier among 200 rows puts the x kurtosis near 200, over the threshold
    rows = [f"{i % 7 - 3},{i * 3 % 5 - 2}" for i in range(199)] + ["1000,1"]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
    assert code == 0
    assert json.loads(out)["results"]["n"] == 200
    assert len([w for w in caught if "kurtosis" in str(w.message)]) == 1


def test_estimate_rho_n_is_taken_from_the_reported_moments(tmp_path, capsys):
    # on these rows a second centring pass would give rho_n one ulp away
    rows = [f"{i * 37 % 101 / 7:.3f},{i * 53 % 89 / 3 + i / 50:.3f}" for i in range(500)]
    path = write_csv(tmp_path, "\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "estimate", "--input", path)
    assert code == 0
    r = json.loads(out)["results"]
    assert r["rho_n"] == r["cov_xy"] / math.sqrt(r["var_x"] * r["var_y"])


def test_estimate_rho_n_and_z_are_the_library_values(tmp_path, capsys):
    # one moment set gives rho_n and z, so the z-test called without moments
    # reproduces the report's z bit for bit
    for i in range(5):
        path = str(tmp_path / f"gaussian_{i}.csv")
        ec.write_paired_csv(ec.GaussianLaw(0.3).sample(500, derive_rng(15, i)), path)
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert code == 0
        r = json.loads(out)["results"]
        sample = ec.read_paired_csv(path)
        assert r["rho_n"] == rho_from_moments(ec.estimate_moments(sample))
        assert r["z"] == ec.test_zero_correlation(sample).z


@pytest.mark.parametrize("shift, scale", [(0.0, 1.0), (1e3, 1.0), (1e6, 1.0),
                                          (0.0, 1e-3), (0.0, 1e3), (1e6, 1e-3)])
def test_estimate_rho_n_is_compute_rho_n_bitwise(tmp_path, capsys, shift, scale):
    # the library's rho_n and the report's are one formula on one moment set
    rng = derive_rng(16, int(shift), int(scale * 1000))
    for i in range(4):
        n = int(rng.integers(30, 300))
        xs = rng.standard_normal(n)
        ys = rng.uniform(-0.9, 0.9) * xs + rng.standard_normal(n)
        path = str(tmp_path / f"sample_{i}.csv")
        ec.write_paired_csv(ec.PairedSample(xs * scale + shift, ys * scale - shift), path)
        code, out, _ = run_cli(capsys, "estimate", "--input", path)
        assert code == 0
        rho_n = json.loads(out)["results"]["rho_n"]
        assert rho_n.hex() == ec.compute_rho_n(ec.read_paired_csv(path)).hex(), (i, n)


def test_estimate_reports_bad_line_number(tmp_path, capsys):
    path = write_csv(tmp_path, "1,2\n3,4\noops,5\n")
    code, out, err = run_cli(capsys, "estimate", "--input", path)
    assert code == 2
    assert out == ""
    assert "error: line 3: non-numeric value 'oops'" in err
    # a record the csv module refuses is an input error with its line too
    path = write_csv(tmp_path, "x,y\n1,2\n" + "a" * 200_000 + ",1\n3,4\n5,6\n")
    code, out, err = run_cli(capsys, "estimate", "--input", path)
    assert (code, out) == (2, "")
    assert err == "error: line 3: field larger than field limit (131072)\n"


def test_estimate_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x,y\n1,2\n\xff\xfe,3\n4,5\n")
    code, out, err = run_cli(capsys, "estimate", "--input", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: input is not UTF-8 text: cannot decode byte 0xff")


def test_estimate_reads_stdin_as_strict_utf8(monkeypatch, capsys):
    # stdin follows a path's rule, whatever the interpreter's stdin encoding:
    # the same bytes give the same error, not a cell of surrogate escapes
    monkeypatch.setattr("sys.stdin", byte_stdin(b"x,y\n1,2\n\xff\xfe,3\n4,5\n"))
    code, out, err = run_cli(capsys, "estimate", "--input", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: input is not UTF-8 text: cannot decode byte 0xff")


def test_estimate_rejects_constant_column(tmp_path, capsys):
    path = write_csv(tmp_path, "1,7\n2,7\n3,7\n")
    code, out, err = run_cli(capsys, "estimate", "--input", path)
    assert code == 2
    assert "degenerated marginal" in err


def test_estimate_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "estimate", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------- variance

def test_variance_gaussian_half(capsys):
    code, out, _ = run_cli(capsys, "variance", "--law", "gaussian", "--rho", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["sigma2"] == pytest.approx(0.5625, rel=1e-12)
    assert report["results"]["abs_difference"] < 1e-9
    assert report["checks"][0]["name"] == "pipeline_agreement"
    assert report["checks"][0]["pass"] is True


def test_variance_independent_normals_is_one(capsys):
    code, out, _ = run_cli(capsys, "variance", "--law", "independent",
                           "--mx", "standard_normal", "--my", "standard_normal")
    assert code == 0
    assert json.loads(out)["results"]["sigma2"] == pytest.approx(1.0, rel=1e-12)


def test_variance_affine_rho_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "variance", "--law", "gaussian", "--rho", "1")
    assert code == 2
    assert out == ""
    assert "affine dependence, asymptotics excluded" in err


def test_variance_requires_a_law(capsys):
    code, _, err = run_cli(capsys, "variance")
    assert code == 2
    assert "requires --law" in err


def test_variance_gaussian_requires_rho(capsys):
    code, _, err = run_cli(capsys, "variance", "--law", "gaussian")
    assert code == 2
    assert "--rho" in err


def test_variance_independent_requires_both_marginals(capsys):
    code, out, err = run_cli(capsys, "variance", "--law", "independent", "--mx", "uniform_std")
    assert code == 2
    assert out == ""
    assert err == "error: --law independent requires --mx and --my\n"


def test_variance_mixture_via_law_json(capsys):
    spec = json.dumps({
        "kind": "mixture",
        "components": [{"kind": "gaussian", "rho": 0.8},
                       {"kind": "gaussian", "rho": -0.2}],
        "weights": [0.3, 0.7],
    })
    code, out, _ = run_cli(capsys, "variance", "--law-json", spec)
    assert code == 0
    assert json.loads(out)["results"]["rho"] == pytest.approx(0.1, rel=1e-12)


def test_variance_mixture_with_a_nan_weight_is_usage_error(capsys):
    spec = ('{"kind":"mixture","weights":[NaN,0.5],"components":'
            '[{"kind":"gaussian","rho":0.5},{"kind":"gaussian","rho":0.1}]}')
    code, out, err = run_cli(capsys, "variance", "--law-json", spec)
    assert code == 2
    assert out == ""
    assert err == "error: mixture weights must be finite, got [nan, 0.5]\n"


def test_variance_invalid_law_json(capsys):
    code, _, err = run_cli(capsys, "variance", "--law-json", "{not json")
    assert code == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("depth, reason", [
    (350, "law spec nests more than 32 mixtures"),
    (600, "--law-json nests too deeply to decode"),
])
def test_deeply_nested_law_json_is_usage_error(capsys, depth, reason):
    # a gaussian in one-component mixtures: a typed error, never a RecursionError
    spec = ('{"kind":"mixture","weights":[1.0],"components":[' * depth
            + '{"kind":"gaussian","rho":0.5}' + "]}" * depth)
    code, out, err = run_cli(capsys, "variance", "--law-json", spec)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_variance_mixture_flag_needs_json(capsys):
    code, _, err = run_cli(capsys, "variance", "--law", "mixture")
    assert code == 2
    assert "--law-json" in err


@pytest.mark.parametrize("spec", [
    '{"kind":"gaussian","rho":"x"}',
    '{"kind":"gaussian","rho":[1]}',
    '{"kind":"mixture","components":[{"kind":"gaussian","rho":0.1}],"weights":"a"}',
    '{"kind":"discrete","xs":"a","ys":[0],"weights":[1]}',
    '{"kind":"independent","marginal_x":["x"],"marginal_y":"rademacher"}',
])
def test_law_json_value_of_the_wrong_type_is_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "variance", "--law-json", spec)
    assert code == 2
    assert out == ""
    assert "malformed value" in err


@pytest.mark.parametrize("command", [["variance"], ["simulate", "--n", "50", "--reps", "100"],
                                     ["lemma1", "--n", "50", "--reps", "100"]])
@pytest.mark.parametrize("flags, named", [
    (["--law", "gaussian"], "--law"),
    (["--rho", "0.3"], "--rho"),
    (["--mx", "rademacher"], "--mx"),
    (["--my", "rademacher"], "--my"),
    (["--law", "independent", "--mx", "rademacher", "--my", "uniform_std"], "--law, --mx, --my"),
])
def test_law_json_with_other_law_flags_is_usage_error(capsys, command, flags, named):
    code, out, err = run_cli(capsys, *command, "--law-json", '{"kind":"gaussian","rho":0.5}',
                             *flags)
    assert code == 2
    assert out == ""
    assert f"--law-json cannot be combined with {named}" in err


# --------------------------------------------------------------- simulate

def test_simulate_gaussian_reference_run(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--law", "gaussian", "--rho", "0.5",
                           "--n", "2000", "--reps", "5000", "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert 0.506 <= report["results"]["empirical_variance"] <= 0.619
    assert report["results"]["predicted_sigma2"] == pytest.approx(0.5625, rel=1e-12)
    assert all(c["pass"] for c in report["checks"])


def test_simulate_rejects_small_reps(capsys):
    code, out, err = run_cli(capsys, "simulate", "--law", "gaussian", "--rho", "0.5",
                             "--n", "100", "--reps", "50")
    assert code == 2
    assert "reps ≥ 100 required" in err


def test_simulate_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "simulate", "--law", "gaussian", "--rho", "0.5",
                             "--n", "100", "--reps", "100", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "error: --seed must be >= 0, got -1" in err


@pytest.mark.parametrize("command", ["simulate", "lemma1"])
def test_a_run_too_large_to_allocate_is_a_usage_error(capsys, command):
    # one replicate of 1e15 pairs asks for 14.2 PiB of raw draws: numpy refuses
    # the allocation at once, and the CLI reports it as one error line
    code, out, err = run_cli(capsys, command, "--law", "gaussian", "--rho", "0.5",
                             "--n", "1000000000000000", "--reps", "100", "--seed", "1")
    assert code == 2
    assert out == ""
    assert re.fullmatch(r"error: Unable to allocate 14\.2 PiB [^\n]*\n", err), err


@pytest.mark.parametrize("command", ["simulate", "lemma1"])
def test_more_replicates_than_stream_keys_is_a_usage_error(capsys, command):
    # a replicate's stream key is one uint32 word: the bound is checked
    # before the stream table of 4294967297 rows, 128 GiB, is asked for
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, command, "--law", "gaussian", "--rho", "0.5",
                                 "--n", "100", "--reps", "4294967297")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert code == 2
    assert out == ""
    assert err == "error: reps ≤ 2**32 required, got 4294967297\n"


def test_simulate_failed_check_exits_one(capsys):
    # n=2 is legal but cannot pass; the report must still be emitted
    code, out, _ = run_cli(capsys, "simulate", "--law", "gaussian", "--rho", "0.5",
                           "--n", "2", "--reps", "100", "--seed", "7")
    assert code == 1
    report = json.loads(out)
    assert any(not c["pass"] for c in report["checks"])


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--ks-tol", "nan"), ("simulate", "--variance-rtol", "inf"),
    ("simulate", "--ks-tol", "-0.01"), ("lemma1", "--cov-atol", "nan"),
    ("lemma1", "--ks-tol", "-inf")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tolerance_not_finite_or_negative_is_usage_error(capsys, command, flag, value, fmt):
    code, out, err = run_cli(capsys, command, "--law", "gaussian", "--rho", "0.5",
                             "--n", "100", "--reps", "100", f"{flag}={value}",
                             "--format", fmt)
    assert code == 2
    assert out == ""
    assert "must be finite and >= 0" in err


# ----------------------------------------------------------------- lemma1

def test_lemma1_small_run(capsys):
    # a quick flow check: reps=400 needs wider bands than the defaults,
    # which are sized for reps=5000
    code, out, _ = run_cli(capsys, "lemma1", "--law", "gaussian", "--rho", "0.3",
                           "--n", "400", "--reps", "400", "--seed", "3",
                           "--functions", "pi1,pi2,p",
                           "--cov-atol", "0.25", "--ks-tol", "0.15")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["functions"] == ["pi1", "pi2", "p"]
    assert report["config"]["cov_atol"] == 0.25
    assert report["results"]["degenerate_coordinates"] == []


def test_lemma1_unknown_function(capsys):
    code, _, err = run_cli(capsys, "lemma1", "--law", "gaussian", "--rho", "0.3",
                           "--n", "100", "--reps", "100", "--functions", "pi3")
    assert code == 2
    assert "unknown function" in err and "pi1" in err


# ------------------------------------------------------------------ check

def test_check_subset_is_byte_identical_across_runs(capsys):
    args = ("check", "--criteria", "1,4,6", "--seed", "42")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, err2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    for err in (err1, err2):
        assert "criterion 1 (" in err and "pass" in err


def test_check_report_nests_each_criterion_and_flattens_its_checks(capsys):
    args = ("check", "--criteria", "1,4", "--seed", "42")
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"criteria": [1, 4]}
    criteria = report["results"]["criteria"]
    assert [(c["number"], c["name"], c["pass"]) for c in criteria] == [
        (1, "gaussian_closed_form", True), (4, "pipeline_vs_closed_form", True)]
    assert report["results"]["all_pass"] is True
    flat = [dict(check, name=f"criterion_{c['number']}.{check['name']}")
            for c in criteria for check in c["checks"]]
    assert flat == report["checks"]
    assert [re.fullmatch(r"criterion (\d) \((\w+)\): pass in \d+\.\d\ds", line).groups()
            for line in err.splitlines()] == [("1", "gaussian_closed_form"),
                                               ("4", "pipeline_vs_closed_form")]

    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    nested = json.loads(next(r[2] for r in rows if r[:2] == ["result", "criteria"]))
    assert nested == criteria

    def cell(v):
        return "" if v is None else repr(v)

    assert [r[1:] for r in rows if r[0] == "check"] == [
        [f"criterion_{c['number']}.{check['name']}", cell(check["value"]),
         cell(check["threshold"]), "pass" if check["pass"] else "fail"]
        for c in nested for check in c["checks"]]


LAW = ("--law", "gaussian", "--rho", "0.5")
EXPERIMENT = (*LAW, "--n", "100", "--reps", "100")
VALID_ARGS = {"estimate": ("--input", "-"), "variance": LAW, "simulate": EXPERIMENT,
              "lemma1": EXPERIMENT, "check": ("--criteria", "1")}


@pytest.mark.parametrize("command", VALID_ARGS)
def test_thread_flag_is_not_recognized(monkeypatch, capsys, command):
    monkeypatch.setattr("sys.stdin", byte_stdin(FOUR_ROWS.encode()))
    with pytest.raises(SystemExit) as exc:
        main([command, *VALID_ARGS[command], "--threads", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --threads 2" in err


def test_variance_of_a_law_shifted_far_beyond_its_scale(capsys):
    # x is 1e-3 times a small law plus 1e6, y 1e3 times it minus 1e6: raw
    # second moments would lose the variance, central ones keep it
    spec = {"kind": "discrete",
            "xs": [1000000.0001, 1000000.0013, 999999.9993, 1000000.0022, 1000000.0005],
            "ys": [-999000.0, -1000400.0, -999700.0, -999100.0, -1001100.0],
            "weights": [0.1, 0.2, 0.3, 0.25, 0.15]}
    code, out, err = run_cli(capsys, "variance", "--law-json", json.dumps(spec))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [(c["name"], c["pass"]) for c in report["checks"]] == [("pipeline_agreement", True)]


def test_check_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "check", "--criteria", "9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("criteria, repeated", [("1,1", 1), ("4,1,4", 4)])
def test_check_repeated_criterion_is_a_usage_error(capsys, criteria, repeated):
    # a repeated number exits 2 before any criterion runs, not once for each time given
    code, out, err = run_cli(capsys, "check", "--criteria", criteria)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == f"error: acceptance criterion {repeated} is given twice"
    assert "criterion 1 (" not in err and "criterion 4 (" not in err


def test_check_non_integer_criteria(capsys):
    code, _, err = run_cli(capsys, "check", "--criteria", "one")
    assert code == 2
    assert "comma-separated integers" in err


def test_check_empty_criteria_is_a_usage_error(capsys):
    # an empty list is not "all criteria": it exits 2 before any criterion runs
    code, out, err = run_cli(capsys, "check", "--criteria", "")
    assert (code, out) == (2, "")
    assert "--criteria must be comma-separated integers, got ''" in err


# ----------------------------------------------------------- output modes

def test_output_flag_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "variance", "--law", "gaussian", "--rho", "0.5",
                           "--output", str(dest))
    assert code == 0
    assert out == ""
    report = json.loads(dest.read_text())
    assert report["command"] == "variance"


def test_csv_format_output(capsys):
    code, out, _ = run_cli(capsys, "variance", "--law", "gaussian", "--rho", "0.5",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "section,name,value,threshold,pass"
    assert any(line.startswith("result,sigma2,0.5625") for line in lines)
    assert any(line.startswith("check,pipeline_agreement,") and line.endswith(",pass")
               for line in lines)


def test_unwritable_output_is_io_error(tmp_path, capsys):
    dest = tmp_path / "missing_dir" / "report.json"
    code, _, err = run_cli(capsys, "variance", "--law", "gaussian", "--rho", "0.5",
                           "--output", str(dest))
    assert code == 2
    assert "error:" in err


# ------------------------------------------------------ one parser per process

SIMULATE = ("simulate", "--law", "gaussian", "--rho", "0.5", "--n", "100", "--reps", "300")


def test_cached_parser_holds_no_state_between_calls(capsys):
    cli._build_parser.cache_clear()
    alone = run_cli(capsys, *SIMULATE)  # exit 1: 300 replicates fail a check
    assert alone[0] == 1
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:  # an argparse usage error
        main([*SIMULATE, "--format", "xml"])
    assert exc.value.code == 2
    assert run_cli(capsys, *SIMULATE, "--seed", "-1")[0] == 2
    code, out, _ = run_cli(capsys, *SIMULATE, "--seed", "9",
                           "--ks-tol", "0.5", "--variance-rtol", "0.5")
    assert code == 0 and json.loads(out)["seed"] == 9
    code, out, _ = run_cli(capsys, *SIMULATE, "--format", "csv")
    assert out.startswith("section,name,value,threshold,pass")
    assert run_cli(capsys, *SIMULATE)[:2] == alone[:2]
    assert json.loads(alone[1])["config"]["ks_tol"] == 0.03
    assert cli._build_parser() is parser


def test_patched_experiment_takes_effect_after_the_parser_is_built(monkeypatch, capsys):
    cli._build_parser()
    seen = []

    def fake(cfg, variance_rtol, ks_tol):
        seen.append((cfg.n, cfg.reps, variance_rtol, ks_tol))
        return Report("simulate", {}, {}, [], cfg.seed)

    monkeypatch.setattr(cli, "run_clt_experiment", fake)
    code, out, _ = run_cli(capsys, *SIMULATE)
    assert code == 0
    assert seen == [(100, 300, 0.10, 0.03)]
    assert json.loads(out)["command"] == "simulate"

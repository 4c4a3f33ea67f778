"""CLI surface: toy generator, Bayes demo, benchmark runner, train/detect."""

import argparse
import csv
import importlib.util
import json
import multiprocessing
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scafd
from scafd.cli import (
    METHODS,
    BenchCase,
    BenchSpec,
    bayes_posterior,
    build_parser,
    derive_seed,
    gen_toy,
    main,
    resolve_p,
    run_bench,
    toy_response,
    toy_samples,
    train_method,
    _expand_config,
    _parse_case,
    _write_trace_csv,
)
from scafd.data import load_csv, write_samples_csv
from scafd.optimizer import FitTrace, LineSearchError


# ---------------------------------------------------------------------------
# toy process


def test_toy_response_at_origin():
    assert np.array_equal(toy_response(0.0, 0.0), np.zeros(3))


def test_toy_response_hand_value():
    # t1=1, t2=0: (1, 1 - 0 + 6 + 0, 3 - 0 + 0)
    assert np.array_equal(toy_response(1.0, 0.0), np.array([1.0, 7.0, 3.0]))


def test_toy_fault_adds_one_to_each_variable():
    shifted = toy_response(1.0, 0.0) + 1.0
    assert np.array_equal(shifted, np.array([2.0, 8.0, 4.0]))


def test_toy_samples_shape_and_determinism():
    a = toy_samples(np.random.default_rng(9), 50, 0.3)
    b = toy_samples(np.random.default_rng(9), 50, 0.3)
    assert a.shape == (3, 50)
    assert np.array_equal(a, b)


def test_gen_toy_layout(tmp_path):
    train_path, test_path = gen_toy(tmp_path, seed=1, train_m=20, normal_m=5,
                                    fault_m=7)
    train = load_csv(train_path, samples="rows", header=True)
    test = load_csv(test_path, samples="rows", header=True)
    assert train.values.shape == (3, 20)
    assert test.values.shape == (3, 12)
    assert train.variable_names == ["x1", "x2", "x3"]


def test_gen_toy_seed_reproducible(tmp_path):
    a = gen_toy(tmp_path / "a", seed=4, train_m=15, normal_m=3, fault_m=3)
    b = gen_toy(tmp_path / "b", seed=4, train_m=15, normal_m=3, fault_m=3)
    c = gen_toy(tmp_path / "c", seed=5, train_m=15, normal_m=3, fault_m=3)
    assert a[0].read_bytes() == b[0].read_bytes()
    assert a[1].read_bytes() == b[1].read_bytes()
    assert a[0].read_bytes() != c[0].read_bytes()


def test_gen_toy_noise_parameter_is_a_variance(tmp_path):
    # variance 0.25 is the noise std 0.5 that toy_samples takes
    train_path, test_path = gen_toy(tmp_path, seed=2, train_m=10, normal_m=2,
                                    fault_m=2, train_noise=0.25, test_noise=0.25)
    rng = np.random.default_rng(2)
    train, normal, fault = (toy_samples(rng, m, 0.5) for m in (10, 2, 2))
    read = [load_csv(path, samples="rows", header=True).values
            for path in (train_path, test_path)]
    assert np.array_equal(read[0], train)
    assert np.array_equal(read[1], np.concatenate([normal, fault + 1.0], axis=1))


def test_gen_toy_rejects_empty_blocks(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        gen_toy(tmp_path, train_m=0)
    # numpy's own message names neither the seed nor its value
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        gen_toy(tmp_path / "seed", seed=-1)
    assert not (tmp_path / "seed").exists()
    # a negative or non-finite variance would write NaN samples
    for key in ("train_noise", "test_noise"):
        for bad in (-1.0, float("nan"), float("inf")):
            out = tmp_path / f"{key}{bad}"
            with pytest.raises(ValueError, match="finite and non-negative"):
                gen_toy(out, **{key: bad})
            flag = "--" + key.replace("_", "-")
            assert main(["gen-toy", "--out-dir", str(out), flag, str(bad)]) == 2
            assert not out.exists()


# ---------------------------------------------------------------------------
# Bayes posterior demo


def test_bayes_identical_classes_give_half():
    grid = np.linspace(-6.0, 6.0, 101)
    post = bayes_posterior(0.0, 0.0, 1.0, 1.0, grid)
    assert np.all(post == 0.5)


def test_bayes_equal_sds_reduce_to_a_sigmoid():
    mu0, mu1, sd = 0.0, 1.0, 1.3
    grid = np.linspace(-6.0, 6.0, 241)
    post = bayes_posterior(mu0, mu1, sd, sd, grid)
    w = (mu0 - mu1) / sd**2
    b = (mu1**2 - mu0**2) / (2.0 * sd**2)
    sigmoid = 1.0 / (1.0 + np.exp(-(w * grid + b)))
    assert np.max(np.abs(post - sigmoid)) <= 1e-12


def test_bayes_unequal_sds_have_quadratic_log_odds():
    sd0, sd1 = 1.0, 2.0
    grid = np.linspace(-6.0, 6.0, 241)
    post = bayes_posterior(0.0, 1.0, sd0, sd1, grid)
    logit = np.log(post / (1.0 - post))
    second = np.diff(logit, 2)
    dx = grid[1] - grid[0]
    quad_coeff = 0.5 / sd1**2 - 0.5 / sd0**2
    assert np.max(np.abs(second - 2.0 * quad_coeff * dx**2)) <= 1e-8


def test_bayes_rejects_bad_sds(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        bayes_posterior(0.0, 1.0, 0.0, 1.0, np.zeros(3))
    with pytest.raises(ValueError, match="positive"):
        bayes_posterior(0.0, 1.0, 1.0, -2.0, np.zeros(3))
    nan, inf = float("nan"), float("inf")
    for args in ((0.0, 1.0, nan, 1.0), (0.0, 1.0, 1.0, inf), (nan, 1.0, 1.0, 1.0),
                 (0.0, -inf, 1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            bayes_posterior(*args, np.zeros(3))
    for grid in ([0.0, nan], [-inf, 0.0]):
        with pytest.raises(ValueError, match="^grid entries must be finite$"):
            bayes_posterior(0.0, 1.0, 1.0, 2.0, np.array(grid))
    out = tmp_path / "posterior.csv"
    for flag, bad in (("--sd0", "nan"), ("--sd1", "-1"), ("--mu0", "inf"),
                      ("--grid-min", "nan"), ("--grid-max", "inf"), ("--grid-points", "0")):
        assert main(["bayes-demo", "--out", str(out), flag, bad]) == 2
        assert not out.exists()
    # finite bounds whose span overflows
    assert main(["bayes-demo", "--out", str(out), "--grid-min=-1e308",
                 "--grid-max=1e308"]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# seeds, case parsing, spec validation


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, "sca")
    assert a == derive_seed(0, "sca")
    assert a != derive_seed(0, "ae")
    assert a != derive_seed(1, "sca")
    assert 0 <= a < 2**63


def test_parse_case_splits_from_the_right():
    case = _parse_case("dir:with:colons.csv:5:f3")
    assert str(case.test_path) == "dir:with:colons.csv"
    assert case.normal_count == 5
    assert case.fault_id == "f3"
    with pytest.raises(ValueError, match="path:normal_count:fault_id"):
        _parse_case("only_two:parts")
    message = "^bad --test value 't.csv:abc:1': normal_count 'abc' is not an integer$"
    with pytest.raises(ValueError, match=message):
        _parse_case("t.csv:abc:1")


def test_bench_spec_validation(tmp_path):
    case = BenchCase(tmp_path / "t.csv", 10, "f1")
    with pytest.raises(ValueError, match="unknown method"):
        BenchSpec(tmp_path / "train.csv", [case], ["pca", "mystery"], p=2)
    with pytest.raises(ValueError, match="exactly one"):
        BenchSpec(tmp_path / "train.csv", [case], ["pca"])
    with pytest.raises(ValueError, match="normal_count"):
        BenchCase(tmp_path / "t.csv", 0, "f1")
    # a repeated method or fault id would overwrite another cell's files
    with pytest.raises(ValueError, match="at least one method"):
        BenchSpec(tmp_path / "train.csv", [case], [], p=2)
    with pytest.raises(ValueError, match="repeated method"):
        BenchSpec(tmp_path / "train.csv", [case], ["pca", "sca", "pca"], p=2)
    with pytest.raises(ValueError, match="repeated fault id"):
        BenchSpec(tmp_path / "train.csv", [case, BenchCase(tmp_path / "u.csv", 5, "f1")],
                  ["pca"], p=2)
    # a comma, quote or line break would also break metrics.csv's fields or rows
    for fault_id in ("", "a/b", f"a{os.sep}b", "a,b", 'a"b', "a\rb", "a\nb"):
        with pytest.raises(ValueError, match="no path separator"):
            BenchCase(tmp_path / "t.csv", 10, fault_id)
    for zeta in (0.0, -0.1, 0.7):
        with pytest.raises(ValueError, match=r"zeta must lie in \(0, 0.5\]"):
            BenchSpec(tmp_path / "train.csv", [case], ["pca"], p=2, zeta=zeta)
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters must be positive"):
            BenchSpec(tmp_path / "train.csv", [case], ["pca"], p=2, max_iters=max_iters)


def test_cli_bench_rejects_a_bad_spec_before_any_fit(toy_paths, tmp_path, capsys,
                                                    monkeypatch):
    import scafd.cli

    monkeypatch.setattr(scafd.cli, "train_method", None)  # any fit would fail
    train_path, test_path = toy_paths
    out = tmp_path / "bench"
    case = ["--test", f"{test_path}:100:3"]
    for flags, error in [
        (case + case, "repeated fault id"),
        (case + ["--zeta", "0.7"], "zeta must lie in (0, 0.5], got 0.7"),
        (case + ["--max-iters", "0"], "max_iters must be positive"),
        # a comma would add a field to the case's metrics.csv rows
        (["--test", f"{test_path}:100:a,b"],
         "fault_id 'a,b' must be non-empty and hold no path separator, comma"),
    ]:
        rc = main(["bench", "--train", str(train_path), "--header", "--methods", "pca,sca",
                   *flags, "--p", "2", "--out-dir", str(out)])
        assert rc == 2
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()


def test_config_bool_keys_are_the_store_true_flags(tmp_path):
    # read as a plain value, key=true would become "--key true", which
    # argparse rejects
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [(name, option) for name, command in sub.choices.items()
             for option, action in command._option_string_actions.items()
             if option.startswith("--") and isinstance(action, argparse._StoreTrueAction)]
    assert flags  # --header of train, detect and bench
    cfg = tmp_path / "flags.cfg"
    for name, option in flags:
        argv = [name, "--config", str(cfg)]
        for value, tokens in (("true", [option]), ("false", [])):
            cfg.write_text(f"{option[2:]}={value}\n")
            assert _expand_config(argv, parser) == [name, *tokens]
        cfg.write_text(f"# flags\n{option[2:]}=maybe\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}: config line 2: "
                                             f"key {option[2:]}: boolean value expected$"):
            _expand_config(argv, parser)


def test_train_and_bench_declare_the_fit_flags_alike():
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def fit_flags(command):
        return {action.dest: (action.option_strings, action.type, action.default,
                              action.help)
                for action in sub.choices[command]._actions
                if action.dest in ("p", "energy", "zeta", "seed", "max_iters")}

    assert len(fit_flags("train")) == 5
    assert fit_flags("bench") == fit_flags("train")


def test_resolve_p_explicit_and_energy(toy_train):
    assert resolve_p(toy_train, 2, None) == 2
    p_energy = resolve_p(toy_train, None, 0.85)
    assert 1 <= p_energy <= 3


# ---------------------------------------------------------------------------
# run_bench


@pytest.fixture(scope="module")
def bench_run(toy_paths, tmp_path_factory):
    train_path, test_path = toy_paths
    out = tmp_path_factory.mktemp("bench")
    spec = BenchSpec(
        train_path=train_path,
        cases=[BenchCase(test_path, 100, "toy")],
        methods=["pca", "sca"],
        p=2,
        seed=0,
        out_dir=out,
        max_iters=60,
    )
    return spec, run_bench(spec)


def test_bench_metrics_shape(bench_run):
    spec, result = bench_run
    assert result.resolved_p == 2
    assert len(result.rows) == 2  # 1 fault case x 2 methods
    lines = result.metrics_path.read_text().splitlines()
    assert lines[0] == "fault_id,method,mdr,far"
    assert len(lines) == 3
    assert [(row["fault_id"], row["method"]) for row in result.rows] == [
        ("toy", "pca"), ("toy", "sca")
    ]
    for row in result.rows:
        assert 0.0 <= row["mdr"] <= 100.0 and 0.0 <= row["far"] <= 100.0


def test_bench_chart_flags_match_limit_exactly(bench_run):
    spec, _ = bench_run
    for method in ("pca", "sca"):
        path = spec.out_dir / f"chart_faulttoy_{method}.csv"
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        for i, row in enumerate(rows):
            assert int(row["index"]) == i
            assert int(row["flag"]) == int(float(row["t2"]) > float(row["tau"]))
            assert int(row["label"]) == int(i >= 100)


def test_bench_writes_trace_and_metadata(bench_run):
    spec, _ = bench_run
    trace = (spec.out_dir / "trace_sca.csv").read_text().splitlines()
    assert trace[0] == "iter,cost,grad_norm"
    assert len(trace) >= 3
    costs = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
    assert not (spec.out_dir / "trace_pca.csv").exists()

    import json

    meta = json.loads((spec.out_dir / "run_metadata.json").read_text())
    assert meta["p"] == 2
    assert meta["seed"] == 0
    assert set(meta["method_seeds"]) == {"pca", "sca"}
    assert meta["failures"] == []
    assert "sca" in meta["wall_times"]
    # two methods fit in as many processes as there are usable CPUs, up to two
    assert meta["fit_workers"] == min(2, len(os.sched_getaffinity(0)))
    # why the one iterative fit stopped, and after as many iterations as its
    # trace has rows after the starting point's
    assert list(meta["fits"]) == ["sca"]
    fit = meta["fits"]["sca"]
    assert fit["iterations"] == len(trace) - 2 >= 1
    assert fit["stop_reason"] in ("grad_tol", "flat", "max_iters", "line_search")
    assert (fit["stop_reason"] == "max_iters") == (fit["iterations"] == spec.max_iters)


def test_write_trace_csv_aligns_iteration_cost_grad(tmp_path):
    trace = FitTrace(cost_per_iter=[3.0, 0.1 + 0.2], grad_norm_per_iter=[1.0, 0.5])
    path = tmp_path / "trace.csv"
    _write_trace_csv(path, trace)
    assert path.read_text().splitlines() == [
        "iter,cost,grad_norm",
        "0,3.0,1.0",
        "1,0.30000000000000004,0.5",
    ]


def test_bench_records_na_for_failing_case(toy_paths, tmp_path):
    train_path, _ = toy_paths
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n1,2,3,4\n5,6,7,8\n")  # four variables, model has 3
    spec = BenchSpec(
        train_path=train_path,
        cases=[BenchCase(bad, 1, "bad")],
        methods=["pca"],
        p=2,
        out_dir=tmp_path / "out",
    )
    result = run_bench(spec)
    assert result.rows == [{"fault_id": "bad", "method": "pca", "mdr": None, "far": None}]
    line = result.metrics_path.read_text().splitlines()[1]
    assert line == "bad,pca,NA,NA"

    import json

    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    assert meta["failures"] and meta["failures"][0]["stage"] == "fault bad"


def test_bench_rerun_is_byte_identical(toy_paths, tmp_path):
    train_path, test_path = toy_paths
    outputs = []
    for name in ("one", "two"):
        spec = BenchSpec(
            train_path=train_path,
            cases=[BenchCase(test_path, 100, "toy")],
            methods=["pca", "sca"],
            p=2,
            seed=3,
            out_dir=tmp_path / name,
            max_iters=40,
        )
        run_bench(spec)
        outputs.append(
            [
                (tmp_path / name / f).read_bytes()
                for f in ("metrics.csv", "chart_faulttoy_pca.csv",
                          "chart_faulttoy_sca.csv", "trace_sca.csv")
            ]
        )
    assert outputs[0] == outputs[1]


def test_bench_and_train_detect_write_the_same_chart(toy_paths, tmp_path):
    # one seed derivation and one chart writer, with the model in memory in
    # the bench and reloaded from its file by detect
    train_path, test_path = toy_paths
    spec = BenchSpec(
        train_path=train_path,
        cases=[BenchCase(test_path, 100, "toy")],
        methods=["pca", "sca"],
        p=2,
        seed=3,
        out_dir=tmp_path / "bench",
        max_iters=40,
    )
    run_bench(spec)
    for method in spec.methods:
        model_path, chart = tmp_path / f"{method}.json", tmp_path / f"{method}.csv"
        assert main(["train", "--train", str(train_path), "--method", method,
                     "--seed", "3", "--p", "2", "--max-iters", "40", "--header",
                     "--out", str(model_path)]) == 0
        assert main(["detect", "--model", str(model_path), "--data", str(test_path),
                     "--header", "--normal-count", "100", "--out", str(chart)]) == 0
        bench_chart = spec.out_dir / f"chart_faulttoy_{method}.csv"
        assert chart.read_bytes() == bench_chart.read_bytes()


def _bench_with_failing_fit(toy_paths, tmp_path, monkeypatch, error):
    import scafd.cli

    # forked fit workers inherit the patched train_method
    def failing_fit(method, *args, **kwargs):
        if method == "pca":
            raise error
        return train_method(method, *args, **kwargs)

    monkeypatch.setattr(scafd.cli, "train_method", failing_fit)
    train_path, test_path = toy_paths
    spec = BenchSpec(
        train_path=train_path,
        cases=[BenchCase(test_path, 100, "toy")],
        methods=["pca", "kpca"],
        p=2,
        out_dir=tmp_path / "out",
    )
    return run_bench(spec)


def test_bench_records_na_for_failing_fit(toy_paths, tmp_path, monkeypatch):
    result = _bench_with_failing_fit(
        toy_paths, tmp_path, monkeypatch, ValueError("degenerate features")
    )
    assert multiprocessing.active_children() == []
    assert result.rows[0] == {"fault_id": "toy", "method": "pca", "mdr": None, "far": None}
    assert result.rows[1]["mdr"] is not None
    assert result.metrics_path.read_text().splitlines()[1] == "toy,pca,NA,NA"

    import json

    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    assert meta["failures"] == [
        {"method": "pca", "stage": "train", "error": "degenerate features"}
    ]
    assert list(meta["wall_times"]) == ["kpca"]


@pytest.mark.parametrize("in_workers", [False, True])
def test_bench_records_the_fit_a_line_search_failure_carries(toy_paths, tmp_path,
                                                               monkeypatch, in_workers):
    if in_workers and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    if not in_workers:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    error = LineSearchError("no admissible step", trials=12)
    error.trace = FitTrace(cost_per_iter=[3.0, 2.0, 1.5], grad_norm_per_iter=[1.0, 0.5, 0.4],
                           iterations=2, stop_reason="line_search")
    _bench_with_failing_fit(toy_paths, tmp_path, monkeypatch, error)
    meta = json.loads((tmp_path / "out" / "run_metadata.json").read_text())
    assert meta["fit_workers"] == (2 if in_workers else 1)
    assert meta["fits"] == {"pca": {"stop_reason": "line_search", "iterations": 2}}
    assert meta["failures"] == [
        {"method": "pca", "stage": "train", "error": "no admissible step"}
    ]
    assert list(meta["wall_times"]) == ["kpca"]


def test_bench_propagates_programming_errors(toy_paths, tmp_path, monkeypatch):
    with pytest.raises(TypeError, match="not a fit failure"):
        _bench_with_failing_fit(
            toy_paths, tmp_path, monkeypatch, TypeError("not a fit failure")
        )
    assert multiprocessing.active_children() == []


def test_bench_with_a_missing_test_csv_fails_before_any_fit(toy_paths, tmp_path):
    train_path, _ = toy_paths
    out = tmp_path / "out"
    spec = BenchSpec(train_path=train_path,
                     cases=[BenchCase(tmp_path / "missing.csv", 100, "toy")],
                     methods=["pca", "sca"], p=2, out_dir=out, max_iters=5)
    with pytest.raises(OSError, match="missing.csv"):
        run_bench(spec)
    assert list(out.iterdir()) == []  # no trace_sca.csv, no metrics.csv


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_bench_files_are_the_same_in_process_and_in_workers(toy_paths, tmp_path,
                                                           monkeypatch):
    import scafd.cli

    train_path, test_path = toy_paths
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c,d\n1,2,3,4\n5,6,7,8\n")  # four variables, the models have 3

    # forked workers inherit the patched train_method
    def failing_fit(method, *args, **kwargs):
        if method == "kpca":
            raise ValueError("degenerate features")
        return train_method(method, *args, **kwargs)

    monkeypatch.setattr(scafd.cli, "train_method", failing_fit)

    def bench(name):
        out = tmp_path / name
        result = run_bench(BenchSpec(train_path=train_path,
                                     cases=[BenchCase(test_path, 100, "toy"),
                                            BenchCase(bad, 1, "bad")],
                                     methods=list(METHODS), p=2, seed=5,
                                     out_dir=out, max_iters=20))
        meta = json.loads((out / "run_metadata.json").read_text())
        files = {f.name: f.read_bytes() for f in out.iterdir()
                 if f.name != "run_metadata.json"}
        return files, meta, result.rows

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        files_in_process, meta_in_process, rows_in_process = bench("in_process")
    files_in_workers, meta_in_workers, rows_in_workers = bench("in_workers")
    assert meta_in_process.pop("fit_workers") == 1
    assert meta_in_workers.pop("fit_workers") == min(5, len(os.sched_getaffinity(0)))
    fitted = [m for m in METHODS if m != "kpca"]
    for meta in (meta_in_process, meta_in_workers):
        assert list(meta.pop("wall_times")) == fitted
    assert meta_in_process == meta_in_workers
    # the fit failure first, then each case's failures in method order
    assert [(f["method"], f["stage"]) for f in meta_in_process["failures"]] == (
        [("kpca", "train")] + [(m, "fault bad") for m in fitted]
    )
    # case-major rows, in method order; NA for the failed fit and the bad case
    assert rows_in_process == rows_in_workers
    assert [(r["fault_id"], r["method"], r["mdr"] is None) for r in rows_in_process] == (
        [("toy", m, m == "kpca") for m in METHODS] + [("bad", m, True) for m in METHODS]
    )
    assert len(files_in_process) == 1 + 4 + 3  # metrics, charts, traces
    assert files_in_process == files_in_workers
    metrics = files_in_process["metrics.csv"].decode().splitlines()
    assert [line.split(",")[:2] for line in metrics[1:]] == (
        [["toy", m] for m in METHODS] + [["bad", m] for m in METHODS]
    )


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_bench_files_are_the_same_in_process_and_in_workers_at_52_variables(
    tmp_path, monkeypatch
):
    # at this shape OpenBLAS threads its products, and its default thread
    # count changes a fit's bits, so each forked worker must fit as the
    # caller does; latent-factor data: 52 variables driven by 12 factors
    rng = np.random.default_rng(11)
    loadings = rng.standard_normal((52, 12))

    def plant(m):
        return loadings @ rng.standard_normal((12, m)) + 0.3 * rng.standard_normal((52, m))

    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    write_samples_csv(train_path, plant(500))
    test = plant(200)
    test[:, 100:] += 1.0
    write_samples_csv(test_path, test)

    def bench(name):
        out = tmp_path / name
        run_bench(BenchSpec(train_path=train_path, cases=[BenchCase(test_path, 100, "step")],
                            methods=["sca", "pca"], p=27, out_dir=out, max_iters=10))
        meta = json.loads((out / "run_metadata.json").read_text())
        del meta["wall_times"], meta["fit_workers"]
        files = {f.name: f.read_bytes() for f in out.iterdir()}
        files["run_metadata.json"] = meta
        return files

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        in_process = bench("in_process")
    in_workers = bench("in_workers")
    assert sorted(in_process) == ["chart_faultstep_pca.csv", "chart_faultstep_sca.csv",
                                  "metrics.csv", "run_metadata.json", "trace_sca.csv"]
    assert in_process == in_workers


# ---------------------------------------------------------------------------
# command-line entry points


def test_cli_gen_toy_and_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("train-m=7\nnormal-m=2\nfault-m=2\nseed=1\n")
    out = tmp_path / "data"
    rc = main(["gen-toy", "--config", str(cfg), "--out-dir", str(out),
               "--train-m", "9"])
    assert rc == 0
    lines = (out / "train.csv").read_text().splitlines()
    assert len(lines) == 10  # header + 9 samples: explicit flag beat the config


@pytest.mark.parametrize(
    "command, text, error",
    [
        ("gen-toy", "train-m=7\nbogus\n", "config line 2: expected key=value, got 'bogus'"),
        ("train", "# sizes\n\np=2\nheader=maybe\n",
         "config line 4: key header: boolean value expected"),
        # argparse would name neither the file nor the line
        ("gen-toy", "train-m=7\n# note\n\nseed=1\nbogus=1\n",
         "config line 5: unknown key 'bogus'"),
        # gen-toy has no --header, though train, detect and bench have
        ("gen-toy", "header=true\n", "config line 1: unknown key 'header'"),
    ],
    ids=["no-equals", "bad-boolean", "unknown-key", "other-command-key"],
)
def test_cli_config_error_names_the_file_and_its_line(command, text, error, tmp_path,
                                                      capsys):
    # lines are counted from 1, comments and blank lines included
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(text)
    out = tmp_path / "data"
    out_flag = {"gen-toy": "--out-dir", "train": "--out"}[command]
    rc = main([command, "--config", str(cfg), out_flag, str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {cfg}: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [["--config", "{first}", "--config", "{cfg}"], ["--config={cfg}"], ["--conf", "{cfg}"]],
    ids=["repeated", "equals", "abbreviated"],
)
def test_cli_rejects_a_config_it_would_not_read(flag, tmp_path, capsys):
    # argparse accepted each form and no code read the file: gen-toy wrote the
    # default 500 training samples instead of 40 and exited 0
    first, cfg = tmp_path / "a.cfg", tmp_path / "b.cfg"
    first.write_text("normal-m=2\nfault-m=2\n")
    cfg.write_text("train-m=40\n")
    out = tmp_path / "data"
    tokens = [t.format(first=first, cfg=cfg) for t in flag]
    rc = main(["gen-toy", "--out-dir", str(out), *tokens])
    assert rc == 2
    assert "give --config FILE once" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bayes_demo_writes_curve(tmp_path, capsys):
    out = tmp_path / "bayes.csv"
    rc = main(["bayes-demo", "--mu1", "0", "--sd1", "1", "--out", str(out),
               "--grid-points", "11"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,p_normal"
    assert len(lines) == 12
    assert all(line.endswith(",0.5") for line in lines[1:])


def test_cli_train_then_detect_round_trip(toy_paths, tmp_path, capsys):
    train_path, test_path = toy_paths
    model_path = tmp_path / "model.json"
    rc = main(["train", "--train", str(train_path), "--method", "sca",
               "--p", "2", "--max-iters", "60", "--header",
               "--out", str(model_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert model_path.exists()
    assert "trained sca (p=2" in out
    assert re.search(r"; stopped: (grad_tol|flat|max_iters) after \d+ iterations$",
                     out.strip())

    chart = tmp_path / "chart.csv"
    rc = main(["detect", "--model", str(model_path), "--data", str(test_path),
               "--header", "--normal-count", "100", "--out", str(chart)])
    captured = capsys.readouterr().out
    assert rc == 0
    body = captured.splitlines()
    assert body[0].startswith("0,")
    assert any(line.startswith("# alarms:") for line in body)
    assert any(line.startswith("# MDR:") for line in body)
    with chart.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 500
    for row in rows[:20]:
        assert int(row["flag"]) == int(float(row["t2"]) > float(row["tau"]))


@pytest.mark.parametrize("method", ["ae", "sae"])
def test_cli_train_says_why_the_descent_stopped(toy_paths, tmp_path, capsys, method):
    train_path, _ = toy_paths
    model_path, trace_path = tmp_path / "m.json", tmp_path / "trace.csv"
    rc = main(["train", "--train", str(train_path), "--method", method, "--p", "2",
               "--header", "--trace", str(trace_path), "--out", str(model_path)])
    out = capsys.readouterr().out
    assert rc == 0
    found = re.search(r"; stopped: (\w+) after (\d+) iterations$", out.strip())
    assert found and found[1] in ("flat", "max_iters", "step_floor")
    # one trace row per accepted step, plus the starting cost
    assert len(trace_path.read_text().splitlines()) == int(found[2]) + 2


@pytest.mark.parametrize("method", ["pca", "kpca"])
def test_cli_train_trace_needs_an_iterative_method(toy_paths, tmp_path, capsys, method):
    train_path, _ = toy_paths
    model_path, trace_path = tmp_path / "m.json", tmp_path / "t.csv"
    rc = main(["train", "--train", str(train_path), "--method", method, "--p", "2",
               "--header", "--trace", str(trace_path), "--out", str(model_path)])
    assert rc == 2
    assert "error: --trace needs an iterative method (sca, ae, sae)" in (
        capsys.readouterr().err
    )
    assert not model_path.exists() and not trace_path.exists()
    # the check comes before any data is read
    assert main(["train", "--train", str(tmp_path / "missing.csv"), "--method", method,
                 "--p", "2", "--trace", str(trace_path),
                 "--out", str(model_path)]) == 2
    assert "--trace needs an iterative method" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag", [("train", "--out"), ("train", "--trace"), ("detect", "--out")],
    ids=["train-out", "train-trace", "detect-out"],
)
def test_cli_checks_output_directories_before_any_work(toy_paths, tmp_path, capsys,
                                                       command, flag):
    # the model used to be written before a bad --trace failed, and detect
    # printed every sample before a bad --out failed
    golden = Path(__file__).parent / "data" / "v1" / "pca.json"
    argv = {"train": ["--train", str(toy_paths[0]), "--method", "ae", "--p", "2",
                      "--out", str(tmp_path / "m.json"), "--trace", str(tmp_path / "t.csv")],
            "detect": ["--model", str(golden), "--data", str(toy_paths[1]),
                       "--out", str(tmp_path / "c.csv")]}[command]
    missing = tmp_path / "missing" / "x.csv"
    argv[argv.index(flag) + 1] = str(missing)
    assert main([command, "--header", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {flag} {missing}: no such directory "
                            f"{str(missing.parent)!r}\n")
    assert list(tmp_path.iterdir()) == []  # no model, trace or chart file


def test_cli_train_requires_a_size_argument(toy_paths, tmp_path, capsys):
    train_path, _ = toy_paths
    rc = main(["train", "--train", str(train_path), "--header",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size_args", [["--p", "2", "--energy", "0.85"], ["--p", "0"]], ids=["both", "p0"]
)
def test_cli_train_rejects_ambiguous_size(toy_paths, tmp_path, capsys, size_args):
    train_path, _ = toy_paths
    rc = main(["train", "--train", str(train_path), "--header", "--method", "pca",
               *size_args, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "error: specify exactly one of p (at least 1) or energy" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "m.json").exists()


def test_cli_detect_reports_variable_mismatch(toy_paths, tmp_path, capsys):
    train_path, _ = toy_paths
    model_path = tmp_path / "model.json"
    assert main(["train", "--train", str(train_path), "--method", "pca",
                 "--p", "2", "--header", "--out", str(model_path)]) == 0
    capsys.readouterr()
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b,c,d\n1,2,3,4\n")
    rc = main(["detect", "--model", str(model_path), "--data", str(wide),
               "--header"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "3" in err


def test_cli_detect_reports_malformed_model_file(toy_paths, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "v1" / "pca.json"
    doc = json.loads(golden.read_text())
    del doc["loading"]
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    rc = main(["detect", "--model", str(model_path), "--data", str(toy_paths[1]),
               "--header"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "'loading'" in err


def test_cli_detect_reports_malformed_format_2_array(toy_paths, tmp_path, capsys):
    golden = Path(__file__).parent / "data" / "v2" / "pca.json"
    doc = json.loads(golden.read_text())
    doc["loading"]["data"] = "not base64!"
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    rc = main(["detect", "--model", str(model_path), "--data", str(toy_paths[1]),
               "--header"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {model_path}: entry 'loading' holds invalid base64 data" in err


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: [doc], "model file must hold a JSON object, got list"),
        (lambda doc: {**doc, "activations": 5}, "entry 'activations' must be a list"),
        (lambda doc: {**doc, "activations": "xy"}, "entry 'activations' must be a list"),
        (lambda doc: {**doc, "scaler": [0.0]}, "entry 'scaler' must be an object"),
        # an infinite limit used to load, and then no sample ever alarmed
        (lambda doc: {**doc, "control_limit": float("inf")},
         "control_limit contains non-finite entries"),
    ],
    ids=["array", "activations-int", "activations-str", "scaler-list", "limit-inf"],
)
def test_cli_detect_reports_malformed_model_structure(toy_paths, tmp_path, capsys, edit, match):
    golden = Path(__file__).parent / "data" / "v2" / "sca.json"
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(edit(json.loads(golden.read_text()))))
    rc = main(["detect", "--model", str(model_path), "--data", str(toy_paths[1]),
               "--header"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"error: {model_path}: {match}" in err


@pytest.mark.parametrize(
    "count, error",
    [
        (lambda n: 0, "normal_count must be positive"),
        (lambda n: n, "no faulty segment: normal_count equals sample count"),
        (lambda n: n + 1, "normal_count 501 exceeds sample count 500"),
    ],
    ids=["zero", "sample-count", "above-sample-count"],
)
def test_cli_detect_checks_the_normal_count_before_printing(toy_paths, tmp_path, capsys,
                                                             count, error):
    train_path, test_path = toy_paths
    model_path = tmp_path / "model.json"
    assert main(["train", "--train", str(train_path), "--method", "pca",
                 "--p", "2", "--header", "--out", str(model_path)]) == 0
    capsys.readouterr()
    n = load_csv(test_path, samples="rows", header=True).n_samples
    rc = main(["detect", "--model", str(model_path), "--data", str(test_path),
               "--header", "--normal-count", str(count(n))])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "count, error",
    [
        (lambda n: n, "no faulty segment: normal_count equals sample count"),
        (lambda n: n + 1, "normal_count 501 exceeds sample count 500"),
    ],
    ids=["sample-count", "above-sample-count"],
)
def test_cli_bench_rejects_a_case_it_cannot_score_before_any_fit(
        toy_paths, tmp_path, capsys, monkeypatch, count, error):
    import scafd.cli

    monkeypatch.setattr(scafd.cli, "train_method", None)  # any fit would fail
    train_path, test_path = toy_paths
    n = load_csv(test_path, samples="rows", header=True).n_samples
    out = tmp_path / "bench"
    rc = main(["bench", "--train", str(train_path), "--header", "--methods", "pca,sca",
               "--test", f"{test_path}:{count(n)}:1", "--p", "2", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {test_path}: {error}\n"
    assert list(out.iterdir()) == []  # no metrics.csv, chart or trace


def test_cli_missing_file_exits_nonzero(tmp_path, capsys):
    rc = main(["detect", "--model", str(tmp_path / "none.json"),
               "--data", str(tmp_path / "none.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_cli_bench_end_to_end(toy_paths, tmp_path, capsys):
    train_path, test_path = toy_paths
    out = tmp_path / "bench"
    rc = main(["bench", "--train", str(train_path), "--header",
               "--test", f"{test_path}:100:toy", "--methods", "pca",
               "--p", "2", "--out-dir", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "p = 2" in printed
    assert (out / "metrics.csv").exists()
    assert (out / "chart_faulttoy_pca.csv").exists()


def _install_console_script(bin_dir, name):
    """Write into `bin_dir` the wrapper pip generates for the `name` entry
    of `[project.scripts]` in the repo's pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = entry.partition(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(script.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP
                 | stat.S_IXOTH)


def test_console_script_smoke(tmp_path, monkeypatch):
    # The console script is built from pyproject.toml rather than found on
    # PATH, so the test needs no install and runs the source tree under
    # test, not whatever `scafd` an older install left behind.
    bin_dir = tmp_path / "bin"
    _install_console_script(bin_dir, "scafd")
    src_dir = Path(scafd.__file__).resolve().parents[1]
    monkeypatch.setenv("PATH", str(bin_dir), prepend=os.pathsep)
    monkeypatch.setenv("PYTHONPATH", str(src_dir), prepend=os.pathsep)
    result = subprocess.run(
        ["scafd", "gen-toy", "--out-dir", str(tmp_path), "--train-m", "5",
         "--normal-m", "2", "--fault-m", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "train.csv").exists()
    assert (tmp_path / "test.csv").exists()


@pytest.mark.parametrize(
    "script",
    sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py")),
    ids=lambda path: path.name,
)
def test_script_help_exits_zero(script):
    # runs against the source tree under test, so a script that imports a
    # name the package no longer has fails here
    src_dir = Path(scafd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src_dir), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plant_data_converts_and_benches_end_to_end(tmp_path):
    # the public layout: d00.dat holds variables as rows, dNN_te.dat samples
    # as rows with the normal samples first
    convert = _load_script("convert_tep_dat").convert
    rng = np.random.default_rng(3)
    n, normal = 52, 16
    raw = tmp_path / "raw"
    raw.mkdir()
    np.savetxt(raw / "d00.dat", rng.standard_normal((n, 60)))
    faults = (1, 2)
    for fault in faults:
        block = rng.standard_normal((40, n))
        block[normal:, fault] += 6.0
        np.savetxt(raw / f"d{fault:02d}_te.dat", block)
    csv_dir = tmp_path / "csv"
    assert tuple(convert(raw / "d00.dat", csv_dir / "train.csv", "auto")) == (60, n)
    for fault in faults:
        convert(raw / f"d{fault:02d}_te.dat", csv_dir / f"d{fault:02d}.csv", "auto")
    loaded = load_csv(csv_dir / "d01.csv", samples="rows", header=True)
    assert np.array_equal(loaded.values, np.loadtxt(raw / "d01_te.dat").T)

    # p = 53 exceeds PCA's 52 variables; kpca and sca still report
    out = tmp_path / "bench"
    rc = main(["bench", "--train", str(csv_dir / "train.csv"), "--header",
               "--methods", "pca,kpca,sca", "--p", "53", "--max-iters", "10",
               "--out-dir", str(out)]
              + [f"--test={csv_dir / f'd{f:02d}.csv'}:{normal}:{f}" for f in faults])
    assert rc == 0
    with (out / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["fault_id"], r["method"]) for r in rows] == [
        (f, m) for f in ("1", "2") for m in ("pca", "kpca", "sca")
    ]
    for row in rows:
        if row["method"] == "pca":
            assert (row["mdr"], row["far"]) == ("NA", "NA")
        else:
            assert 0.0 <= float(row["mdr"]) <= 100.0
            assert 0.0 <= float(row["far"]) <= 100.0
    failures = json.loads((out / "run_metadata.json").read_text())["failures"]
    assert failures == [{"method": "pca", "stage": "train",
                         "error": "p=53 out of range for 52 variables"}]

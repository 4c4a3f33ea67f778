"""Command-line front-end: dataset generation, demos, training, benchmarks.

Subcommands: ``gen-toy``, ``bayes-demo``, ``train``, ``detect``, ``bench``.
Every subcommand also accepts one ``--config FILE`` pointing at a flat
``key=value`` file whose keys mirror the long flag names (one ``test=...``
line per benchmark case; boolean flags take true/false).  Explicit flags
override config values.

A bench is one cell per method: ``_bench_cell`` fits the method on the
training block, scores every test block with that model and writes the
method's trace and chart CSVs.  ``run_bench`` loads every block once, binds
them into one callable of the method, maps it over the methods in forked
worker processes (in the caller itself on one CPU), and writes metrics.csv
and run_metadata.json from the small values the cells return.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, persistence, sca
from .data import DataMatrix, load_csv, write_samples_csv
from .optimizer import CgConfig, FitTrace

METHODS = ("pca", "kpca", "ae", "sae", "sca")


# ---------------------------------------------------------------------------
# Toy heteroscedastic process


def toy_response(t1, t2) -> np.ndarray:
    """Noise-free response of the two-factor toy process.

    Three measured variables driven by two latent factors through polynomial
    maps of different degrees, so the variables react to factor shifts with
    very different variances.
    """
    x1 = t1 + np.zeros_like(np.asarray(t1, dtype=float))
    x2 = t1**3 - 4.5 * t2**2 + 6.0 * t1 + t2
    x3 = 3.0 * t1**4 - t2**3 + 3.0 * t2**2
    return np.array([x1, x2, x3])


def toy_samples(rng: np.random.Generator, m: int, noise_scale: float) -> np.ndarray:
    """Draw m samples (3 x m) of the toy process with standard-normal factors.

    ``noise_scale`` is the additive-noise std per variable.
    """
    t1 = rng.standard_normal(m)
    t2 = rng.standard_normal(m)
    e = rng.normal(0.0, noise_scale, size=(3, m))
    return toy_response(t1, t2) + e


def gen_toy(
    out_dir: str | Path,
    seed: int = 0,
    train_m: int = 500,
    normal_m: int = 100,
    fault_m: int = 400,
    train_noise: float = 0.1,
    test_noise: float = 0.5,
) -> tuple[Path, Path]:
    """Write toy train/test CSVs (samples as rows, header x1,x2,x3).

    The test file holds ``normal_m`` normal samples followed by ``fault_m``
    faulty ones (every variable shifted by +1).  The noise parameters are
    variances.
    """
    if min(train_m, normal_m, fault_m) < 1:
        raise ValueError("sample counts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not all(0.0 <= v < np.inf for v in (train_noise, test_noise)):
        raise ValueError("noise variances must be finite and non-negative")
    rng = np.random.default_rng(seed)
    train = toy_samples(rng, train_m, float(np.sqrt(train_noise)))
    normal = toy_samples(rng, normal_m, float(np.sqrt(test_noise)))
    fault = toy_samples(rng, fault_m, float(np.sqrt(test_noise))) + 1.0

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.csv"
    test_path = out_dir / "test.csv"
    write_samples_csv(train_path, train)
    write_samples_csv(test_path, np.concatenate([normal, fault], axis=1))
    return train_path, test_path


# ---------------------------------------------------------------------------
# Bayes posterior demo (why squared terms matter for unequal variances)


def bayes_posterior(
    mu0: float, mu1: float, sd0: float, sd1: float, grid: np.ndarray
) -> np.ndarray:
    """P(normal | x) for two equal-prior Gaussian classes on a 1-D grid.

    With unequal class sds the log-odds is quadratic in x, so a purely
    linear score cannot represent the posterior boundary.
    """
    if not np.all(np.isfinite([mu0, mu1, sd0, sd1])):
        raise ValueError("class means and standard deviations must be finite")
    if sd0 <= 0 or sd1 <= 0:
        raise ValueError("class standard deviations must be positive")
    x = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("grid entries must be finite")
    log_p0 = -0.5 * ((x - mu0) / sd0) ** 2 - np.log(sd0)
    log_p1 = -0.5 * ((x - mu1) / sd1) ** 2 - np.log(sd1)
    # sigmoid of the log-likelihood gap, computed stably on both sides
    gap = log_p0 - log_p1
    out = np.empty_like(gap)
    pos = gap >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-gap[pos]))
    eg = np.exp(gap[~pos])
    out[~pos] = eg / (1.0 + eg)
    return out


# ---------------------------------------------------------------------------
# Benchmark orchestration


@dataclass
class BenchCase:
    test_path: Path
    normal_count: int
    fault_id: str

    def __post_init__(self) -> None:
        self.test_path = Path(self.test_path)
        if self.normal_count < 1:
            raise ValueError("normal_count must be at least 1")
        # the fault id becomes part of the chart file names and a metrics.csv field
        if not self.fault_id or {os.sep, "/", ",", '"', "\r", "\n"} & set(self.fault_id):
            raise ValueError(
                f"fault_id {self.fault_id!r} must be non-empty and hold no path "
                "separator, comma, double quote or line break"
            )


def _check_size(p: int | None, energy: float | None) -> None:
    """A monitor size is either a component count p >= 1 or an energy target."""
    if (p is None) == (energy is None) or (p is not None and p < 1):
        raise ValueError("specify exactly one of p (at least 1) or energy")


@dataclass
class BenchSpec:
    train_path: Path
    cases: list[BenchCase]
    methods: list[str]
    p: int | None = None
    energy: float | None = None
    zeta: float = sca.DEFAULT_ZETA
    seed: int = 0
    out_dir: Path = Path("bench_out")
    samples: str = "rows"
    header: bool = True
    max_iters: int = CgConfig.max_iters

    def __post_init__(self) -> None:
        self.train_path = Path(self.train_path)
        self.out_dir = Path(self.out_dir)
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        # a repeat would overwrite the other's chart and trace files
        fault_ids = [c.fault_id for c in self.cases]
        for label, values in (("method", self.methods), ("fault id", fault_ids)):
            if len(set(values)) != len(values):
                raise ValueError(f"repeated {label} in {values}")
        _check_size(self.p, self.energy)
        sca._check_zeta(self.zeta)
        CgConfig(max_iters=self.max_iters)  # its own range check


@dataclass
class BenchResult:
    rows: list[dict] = field(default_factory=list)
    resolved_p: int | None = None
    metrics_path: Path | None = None


def derive_seed(seed: int, *labels: str) -> int:
    """Stable per-cell seed from the run seed and string labels."""
    digest = hashlib.sha256(
        ("|".join([str(seed), *labels])).encode()
    ).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def resolve_p(train: DataMatrix, p: int | None, energy: float | None) -> int:
    """Explicit p, or the smallest rank reaching the eigenvalue-energy target."""
    if p is not None:
        return p
    model = baselines.pca_fit(train, energy=energy)
    return model.n_components


def train_method(
    method: str,
    train_dm: DataMatrix,
    p: int,
    zeta: float,
    seed: int,
    max_iters: int = CgConfig.max_iters,
):
    """Fit one monitoring method; returns (model, trace-or-None)."""
    if method == "pca":
        return baselines.pca_fit(train_dm, n_components=p, zeta=zeta), None
    if method == "kpca":
        return baselines.kpca_fit(train_dm, p, zeta=zeta), None
    if method in ("ae", "sae"):
        return baselines.ae_train(
            train_dm, p, seed=seed, zeta=zeta, expand_inputs=method == "sae"
        )
    if method == "sca":
        cfg = CgConfig(seed=seed, max_iters=max_iters)
        return sca.train(train_dm, p, cfg=cfg, zeta=zeta)
    raise ValueError(f"unknown method {method!r}")


# What a fit or a score can legitimately raise on bad data: ValueError (which
# covers numpy's LinAlgError), FloatingPointError, and RuntimeError (which
# covers LineSearchError).  Anything else is a programming error.
_FIT_ERRORS = (ValueError, FloatingPointError, RuntimeError)


def _fit_record(trace: FitTrace) -> dict:
    return {"stop_reason": trace.stop_reason, "iterations": trace.iterations}


def _bench_cell(spec: BenchSpec, train_dm: DataMatrix, p: int,
                tests: list[DataMatrix], method: str) -> dict:
    """Fit one method, score every case of ``spec`` with it and write its files.

    Writes the method's trace CSV (iterative methods only) and one chart CSV
    per case it scored.  Returns small values only: ``scores``, one (MDR,
    FAR, error text) triple per case, either the fit's ``error`` text or
    its own ``seconds``, and ``fit``: why an iterative fit stopped and after
    how many iterations, also for a fit whose error carries its trace (a
    ``LineSearchError`` from ``cg_optimize``).  A fit or score that raises
    one of ``_FIT_ERRORS`` leaves None in place of MDR and FAR.
    """
    seed = derive_seed(spec.seed, method)
    t0 = time.perf_counter()
    try:
        model, trace = train_method(method, train_dm, p, spec.zeta, seed,
                                    max_iters=spec.max_iters)
    except _FIT_ERRORS as exc:
        cell = {"error": str(exc), "scores": [(None, None, None)] * len(tests)}
        trace = getattr(exc, "trace", None)
        if trace is not None:
            cell["fit"] = _fit_record(trace)
        return cell
    cell = {"seconds": time.perf_counter() - t0, "scores": []}
    if trace is not None:
        cell["fit"] = _fit_record(trace)
        _write_trace_csv(spec.out_dir / f"trace_{method}.csv", trace)
    for case, test_dm in zip(spec.cases, tests):
        try:
            report = sca.monitor(model, test_dm)
            mdr, far = sca.score(report.flags, case.normal_count)
        except _FIT_ERRORS as exc:
            cell["scores"].append((None, None, str(exc)))
            continue
        _write_chart_csv(spec.out_dir / f"chart_fault{case.fault_id}_{method}.csv",
                         report, model.control_limit, case.normal_count)
        cell["scores"].append((mdr, far, None))
    return cell


def run_bench(spec: BenchSpec) -> BenchResult:
    """Train every requested method once and score every fault case.

    Loads the training block and every test block, rejects a case whose
    normal count leaves no faulty sample in its block (with ``sca.score``'s
    message) and resolves p; only then does it create ``out_dir``, so a
    bench whose inputs fail leaves nothing behind.  It binds the blocks to
    ``_bench_cell`` once, and runs that callable per method: concurrently,
    in at most one worker per method and per usable CPU, forked from the
    caller, each task carrying the pickled blocks; or in the calling
    process, with one worker or where ``fork`` is unavailable.  The cells
    write one chart CSV per case and method and a trace CSV per iterative
    method (sca, ae, sae); this function then writes metrics.csv (fault_id,
    method, mdr, far), case by case in method order, and run_metadata.json.
    Only run_metadata.json depends on how many workers ran the cells: it
    records them as ``fit_workers``, and each fit's own seconds as
    ``wall_times``, whose sum can exceed the bench's elapsed time.  A method
    or case that fails with one of ``_FIT_ERRORS`` is recorded as NA and
    skipped, not fatal; any other exception propagates, and may leave the
    files of cells that had finished.
    """
    # imported here, as they add about 1.3 MB to every process importing cli
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    train_dm = load_csv(spec.train_path, samples=spec.samples, header=spec.header)
    tests = [load_csv(case.test_path, samples=spec.samples, header=spec.header)
             for case in spec.cases]
    for case, test_dm in zip(spec.cases, tests):
        try:
            sca._check_normal_count(case.normal_count, test_dm.n_samples)
        except ValueError as exc:
            raise ValueError(f"{case.test_path}: {exc}") from None
    result = BenchResult()
    p = result.resolved_p = resolve_p(train_dm, spec.p, spec.energy)
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    cell = functools.partial(_bench_cell, spec, train_dm, p, tests)
    methods = spec.methods
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(len(methods), cpus)
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            cells = list(pool.map(cell, methods))
    else:
        workers, cells = 1, list(map(cell, methods))

    metadata = {
        "seed": spec.seed,
        "zeta": spec.zeta,
        "methods": methods,
        "train_path": str(spec.train_path),
        "cases": [
            {"test_path": str(c.test_path), "normal_count": c.normal_count,
             "fault_id": c.fault_id}
            for c in spec.cases
        ],
        "fit_workers": workers,
        "wall_times": {},
        "method_seeds": {m: derive_seed(spec.seed, m) for m in methods},
        "fits": {},
        "failures": [],
        "p": p,
        "energy": spec.energy,
    }
    failures = metadata["failures"]
    for method, cell in zip(methods, cells):
        if "fit" in cell:
            metadata["fits"][method] = cell["fit"]
        if "error" in cell:
            failures.append({"method": method, "stage": "train", "error": cell["error"]})
        else:
            metadata["wall_times"][method] = cell["seconds"]
    for i, case in enumerate(spec.cases):
        for method, cell in zip(methods, cells):
            mdr, far, error = cell["scores"][i]
            result.rows.append({"fault_id": case.fault_id, "method": method,
                                "mdr": mdr, "far": far})
            if error is not None:
                failures.append({"method": method, "stage": f"fault {case.fault_id}",
                                 "error": error})

    metrics_path = result.metrics_path = spec.out_dir / "metrics.csv"
    with metrics_path.open("w") as fh:
        fh.write("fault_id,method,mdr,far\n")
        for row in result.rows:
            mdr = "NA" if row["mdr"] is None else f"{row['mdr']:.2f}"
            far = "NA" if row["far"] is None else f"{row['far']:.2f}"
            fh.write(f"{row['fault_id']},{row['method']},{mdr},{far}\n")
    (spec.out_dir / "run_metadata.json").write_text(json.dumps(metadata, indent=2))
    return result


def _write_trace_csv(path: Path, trace) -> None:
    with path.open("w") as fh:
        fh.write("iter,cost,grad_norm\n")
        for k, (c, g) in enumerate(zip(trace.cost_per_iter, trace.grad_norm_per_iter)):
            fh.write(f"{k},{c!r},{g!r}\n")


def _write_chart_csv(
    path: Path, report: sca.DetectionReport, tau: float,
    normal_count: int | None,
) -> None:
    tau_text = repr(float(tau))
    path.write_text("index,t2,tau,label,flag\n" + "".join([
        f"{i},{value!r},{tau_text},"
        f"{'' if normal_count is None else int(i >= normal_count)},{int(flag)}\n"
        for i, (value, flag) in enumerate(zip(report.t2.tolist(), report.flags.tolist()))
    ]))


# ---------------------------------------------------------------------------
# Argument parsing


def _expand_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Replace --config FILE with the flag tokens it encodes.

    After a line's syntax, its key is checked against the long flags of the
    subcommand (the first token once --config FILE is taken out), and a
    store-true flag takes a boolean; argparse reports an unknown subcommand.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config requires a file path")
    path = Path(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = sub.choices.get(rest[0]) if rest else None
    tokens: list[str] = []
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        at = f"{path}: config line {line_no}"
        if "=" not in line:
            raise ValueError(f"{at}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = (None if command is None
                  else command._option_string_actions.get(f"--{key}"))
        if command is not None and action is None:
            raise ValueError(f"{at}: unknown key {key!r}")
        if isinstance(action, argparse._StoreTrueAction):
            if value.lower() in ("true", "1", "yes"):
                tokens.append(f"--{key}")
            elif value.lower() not in ("false", "0", "no"):
                raise ValueError(f"{at}: key {key}: boolean value expected")
        else:
            tokens.extend([f"--{key}", value])
    # insert after the subcommand so explicit flags (later tokens) win
    return rest[:1] + tokens + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scafd",
        description="Second-order component analysis fault detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value file mirroring the flags")
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--samples", choices=("rows", "cols"), default="rows",
                        help="CSV layout: samples as rows or columns")
    layout.add_argument("--header", action="store_true",
                        help="skip one header line in input CSVs")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--p", type=int, default=None)
    fit.add_argument("--energy", type=float, default=None,
                     help="eigenvalue-energy fraction for choosing p")
    fit.add_argument("--zeta", type=float, default=sca.DEFAULT_ZETA)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--max-iters", type=int, default=CgConfig.max_iters,
                     help="caps sca's conjugate gradient only; ae and sae run "
                          f"up to {baselines._AE_MAX_ITERS} steps")

    p_gen = sub.add_parser("gen-toy", parents=[config],
                           help="generate the toy heteroscedastic dataset")
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--train-m", type=int, default=500)
    p_gen.add_argument("--normal-m", type=int, default=100)
    p_gen.add_argument("--fault-m", type=int, default=400)
    p_gen.add_argument("--train-noise", type=float, default=0.1, help="variance")
    p_gen.add_argument("--test-noise", type=float, default=0.5, help="variance")
    p_gen.set_defaults(func=_cmd_gen_toy)

    p_bayes = sub.add_parser("bayes-demo", parents=[config],
                             help="posterior of two Gaussian classes on a grid")
    p_bayes.add_argument("--mu0", type=float, default=0.0)
    p_bayes.add_argument("--mu1", type=float, default=1.0)
    p_bayes.add_argument("--sd0", type=float, default=1.0)
    p_bayes.add_argument("--sd1", type=float, default=2.0)
    p_bayes.add_argument("--grid-min", type=float, default=-6.0)
    p_bayes.add_argument("--grid-max", type=float, default=6.0)
    p_bayes.add_argument("--grid-points", type=int, default=241)
    p_bayes.add_argument("--out", required=True)
    p_bayes.set_defaults(func=_cmd_bayes_demo)

    p_train = sub.add_parser("train", parents=[config, layout, fit],
                             help="fit a monitor and save the model file")
    p_train.add_argument("--train", required=True, help="training CSV (normal data)")
    p_train.add_argument("--method", choices=METHODS, default="sca")
    p_train.add_argument("--out", required=True, help="model file to write")
    p_train.add_argument("--trace", default=None, help="optional trace CSV path")
    p_train.set_defaults(func=_cmd_train)

    p_detect = sub.add_parser("detect", parents=[config, layout],
                              help="score a data file with a saved model")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--data", required=True)
    p_detect.add_argument("--normal-count", type=int, default=None)
    p_detect.add_argument("--out", default=None, help="optional chart CSV path")
    p_detect.set_defaults(func=_cmd_detect)

    p_bench = sub.add_parser("bench", parents=[config, layout, fit],
                             help="train methods and score fault cases")
    p_bench.add_argument("--train", required=True)
    p_bench.add_argument("--test", action="append", default=[],
                         help="case as path:normal_count:fault_id (repeatable)")
    p_bench.add_argument("--methods", default="pca,sca",
                         help="comma-separated subset of " + ",".join(METHODS))
    p_bench.add_argument("--out-dir", required=True)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def _check_out_dir(flag: str, path: str | None) -> None:
    """Reject an output path that is a directory or lies in a missing one, before any work."""
    if path is not None and Path(path).is_dir():
        raise ValueError(f"{flag} {path}: is a directory")
    if path is not None and not Path(path).parent.is_dir():
        raise ValueError(f"{flag} {path}: no such directory {str(Path(path).parent)!r}")


def _cmd_gen_toy(args) -> int:
    train_path, test_path = gen_toy(
        args.out_dir, seed=args.seed, train_m=args.train_m,
        normal_m=args.normal_m, fault_m=args.fault_m,
        train_noise=args.train_noise, test_noise=args.test_noise,
    )
    print(f"wrote {train_path}")
    print(f"wrote {test_path} (first {args.normal_m} samples normal)")
    return 0


def _cmd_bayes_demo(args) -> int:
    _check_out_dir("--out", args.out)
    # before linspace, which warns on a NaN, infinite or overflowing span
    if not np.isfinite(args.grid_max - args.grid_min):
        raise ValueError("--grid-min and --grid-max must be finite, as must their difference")
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    grid = np.linspace(args.grid_min, args.grid_max, args.grid_points)
    posterior = bayes_posterior(args.mu0, args.mu1, args.sd0, args.sd1, grid)
    with Path(args.out).open("w") as fh:
        fh.write("x,p_normal\n")
        for x, p_val in zip(grid, posterior):
            fh.write(f"{float(x)!r},{float(p_val)!r}\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    _check_size(args.p, args.energy)
    if args.trace and args.method in ("pca", "kpca"):
        raise ValueError("--trace needs an iterative method (sca, ae, sae)")
    _check_out_dir("--out", args.out)
    _check_out_dir("--trace", args.trace)
    train_dm = load_csv(args.train, samples=args.samples, header=args.header)
    p = resolve_p(train_dm, args.p, args.energy)
    seed = derive_seed(args.seed, args.method)
    model, trace = train_method(
        args.method, train_dm, p, args.zeta, seed, max_iters=args.max_iters
    )
    persistence.save_model(model, args.out)
    summary = (f"trained {args.method} (p={model.n_components}, "
               f"limit={model.control_limit:.4g}); wrote {args.out}")
    if trace is not None:
        if args.trace:
            _write_trace_csv(Path(args.trace), trace)
        summary += f"; stopped: {trace.stop_reason} after {trace.iterations} iterations"
    print(summary)
    return 0


def _cmd_detect(args) -> int:
    _check_out_dir("--out", args.out)
    model = persistence.load_model(args.model)
    data = load_csv(args.data, samples=args.samples, header=args.header)
    report = sca.monitor(model, data)
    if args.normal_count is not None:  # a bad count fails before any row is printed
        mdr, far = sca.score(report.flags, args.normal_count)
    for i, (value, flag) in enumerate(zip(report.t2, report.flags)):
        print(f"{i},{float(value):.6g},{int(flag)}")
    alarms = int(report.flags.sum())
    print(f"# alarms: {alarms}/{len(report.flags)} "
          f"(limit {model.control_limit:.6g})")
    if args.normal_count is not None:
        print(f"# MDR: {mdr:.2f}%  FAR: {far:.2f}%")
    if args.out:
        _write_chart_csv(Path(args.out), report, model.control_limit,
                         args.normal_count)
        print(f"# wrote {args.out}")
    return 0


def _parse_case(text: str) -> BenchCase:
    parts = text.rsplit(":", 2)
    bad = f"bad --test value {text!r}: "
    if len(parts) != 3:
        raise ValueError(bad + "expected path:normal_count:fault_id")
    try:
        count = int(parts[1])
    except ValueError:
        raise ValueError(bad + f"normal_count {parts[1]!r} is not an integer") from None
    return BenchCase(Path(parts[0]), count, parts[2])


def _cmd_bench(args) -> int:
    if not args.test:
        raise ValueError("at least one --test case is required")
    spec = BenchSpec(
        train_path=Path(args.train),
        cases=[_parse_case(t) for t in args.test],
        methods=[m.strip() for m in args.methods.split(",") if m.strip()],
        p=args.p,
        energy=args.energy,
        zeta=args.zeta,
        seed=args.seed,
        out_dir=Path(args.out_dir),
        samples=args.samples,
        header=args.header,
        max_iters=args.max_iters,
    )
    result = run_bench(spec)
    print(f"p = {result.resolved_p}")
    for row in result.rows:
        mdr = "NA" if row["mdr"] is None else f"{row['mdr']:6.2f}"
        far = "NA" if row["far"] is None else f"{row['far']:6.2f}"
        print(f"fault {row['fault_id']:>4}  {row['method']:>5}  "
              f"MDR {mdr}  FAR {far}")
    print(f"wrote {result.metrics_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_expand_config(argv, parser))
        # argparse stores a second --config, --config=FILE or --conf unread
        if args.config is not None:
            raise ValueError("give --config FILE once, as two tokens, flag name in full")
        return args.func(args)
    except (ValueError, OSError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

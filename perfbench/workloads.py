"""The three benchmark workloads and the metrics derived from their runs.

Every input is generated here from the benchmark seed; the program only
sees the resulting CSV files, ``DataMatrix`` blocks and saved model files.

Process data comes from one fixed latent-factor plant (52 variables driven
by 12 factors plus 0.3 noise, the AC10 shape).  The seed draws each
variable's units as a power-of-two scale.  Scaling by a power of two is
exact in floating point, so z-scoring returns the same matrix bit for bit
and every seed poses the identical fitting problem: inputs differ from seed
to seed, the work and the counts do not.  (An offset or a general scale
would perturb the z-scores by rounding and let CG iteration counts drift by
one or two between seeds.)  Samples that are only scored (``detect52``) are
fresh draws from the seed, because scoring cost does not depend on values.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scafd import cli, data, manifold, persistence, sca
from scafd.data import DataMatrix
from scafd.optimizer import CgConfig

# Values fitted at the commit the benchmark was defined on.  Full size: the
# full-convergence cost (default CgConfig, seed 0) that the cost_rel_tol=1e-5
# stop must come within 1e-4 of, and the control limit that stop yields.
# The smoke problem stops far from convergence, so its entries are the cost
# and control limit its own cost_rel_tol=1e-5 stop reached.
REFERENCE = {
    "full": {"cost": 1519107.57464504, "control_limit": 104.5208},
    "smoke": {"cost": 3985.1188877746354, "control_limit": 39.26280246928448},
}
COST_SLACK = 1e-4
LIMIT_RTOL = 1e-3
ORTHO_TOL = 1e-8
SINGLE_RTOL = 1e-9

SIZES = {
    "full": {
        "n": 52, "factors": 12, "m": 500, "p": 27,
        "cost_rel_tol": 1e-5, "detect_fit_iters": 10,
        "block": 960, "blocks": 10, "bulk": 20000, "singles": 500,
        "toy_seeds": 5, "toy_iters": 150,
    },
    "smoke": {
        "n": 6, "factors": 2, "m": 80, "p": 3,
        "cost_rel_tol": 1e-5, "detect_fit_iters": 3,
        "block": 96, "blocks": 2, "bulk": 500, "singles": 20,
        "toy_seeds": 1, "toy_iters": 20,
    },
}


def plant_units(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-variable units: scales 2**-8 .. 2**12, one column per variable."""
    return np.ldexp(1.0, rng.integers(-8, 13, n))[:, None]


def plant_training_block(size: dict) -> np.ndarray:
    """The fixed latent-factor training block, in z-score-free raw form."""
    rng = np.random.default_rng(0)
    latent = rng.standard_normal((size["n"], size["factors"])) @ rng.standard_normal(
        (size["factors"], size["m"])
    )
    return latent + 0.3 * rng.standard_normal((size["n"], size["m"]))


def plant_samples(rng: np.random.Generator, size: dict, m: int) -> np.ndarray:
    """Fresh samples of the same plant (same loadings), drawn from ``rng``."""
    loadings = np.random.default_rng(0).standard_normal((size["n"], size["factors"]))
    return loadings @ rng.standard_normal((size["factors"], m)) + 0.3 * rng.standard_normal(
        (size["n"], m)
    )


def write_samples_csv(path: Path, values: np.ndarray) -> None:
    """Samples as rows with an x1..xn header, full repr precision."""
    header = ",".join(f"x{i + 1}" for i in range(values.shape[0]))
    with path.open("w") as fh:
        fh.write(header + "\n")
        for col in values.T:
            fh.write(",".join(repr(float(v)) for v in col) + "\n")


@dataclass
class OpResult:
    """One timed operation: its wall time and how many program calls it checked."""

    seconds: float
    attempted: int
    failed: int


class Train52:
    """SCA training at the AC10 shape, stopped at cost_rel_tol=1e-5."""

    name = "train52"

    def __init__(self, seed: int, size_name: str, work: Path) -> None:
        self.seed, self.size, self.work = seed, SIZES[size_name], work
        self.ref = REFERENCE[size_name]
        self.cfg = CgConfig(seed=0, cost_rel_tol=self.size["cost_rel_tol"])
        self.details: dict[str, list[float]] = {"train_s": [], "iterations": [], "final_cost": []}

    def setup(self) -> None:
        units = plant_units(np.random.default_rng(self.seed), self.size["n"])
        raw = units * plant_training_block(self.size)
        path = self.work / "train.csv"
        write_samples_csv(path, raw)
        self.train = data.load_csv(path, samples="rows", header=True)

    def warmup(self) -> None:
        """Nothing to warm: one training is the whole operation."""

    def op(self) -> OpResult:
        t0 = time.perf_counter()
        model, trace = sca.train(self.train, self.size["p"], cfg=self.cfg)
        seconds = time.perf_counter() - t0
        final = trace.cost_per_iter[-1]
        ok = (
            final <= (1.0 + COST_SLACK) * self.ref["cost"]
            and manifold.orthonormality_error(model.w_tilde.matrix) <= ORTHO_TOL
            and abs(model.control_limit / self.ref["control_limit"] - 1.0) <= LIMIT_RTOL
        )
        self.details["train_s"].append(seconds)
        self.details["iterations"].append(trace.iterations)
        self.details["final_cost"].append(final)
        return OpResult(seconds, 1, int(not ok))

    def report(self) -> list[tuple[str, float, str]]:
        d = self.details
        return [
            ("train_s", statistics.median(d["train_s"]), "s"),
            ("cg_iterations", statistics.median(d["iterations"]), "count"),
            ("final_cost", statistics.median(d["final_cost"]), "cost"),
        ]


class Toy5:
    """The AC6/AC7 protocol: run_bench over five toy seeds x five methods."""

    name = "toy5"

    def __init__(self, seed: int, size_name: str, work: Path) -> None:
        self.seed, self.size, self.work = seed, SIZES[size_name], work
        self.toy_seeds = list(range(self.size["toy_seeds"]))
        self.rounds = 0
        self.reference: dict[int, bytes] = {}
        self.details: dict[str, list[float]] = {"toy_bench_s": []}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.inputs = {}
        for toy_seed in self.toy_seeds:
            raw_dir = self.work / f"raw{toy_seed}"
            train_path, test_path = cli.gen_toy(raw_dir, seed=toy_seed)
            units = plant_units(rng, 3)
            paths = []
            for src in (train_path, test_path):
                values = np.loadtxt(src, delimiter=",", skiprows=1).T
                dst = self.work / f"toy{toy_seed}_{src.name}"
                write_samples_csv(dst, units * values)
                paths.append(dst)
            shutil.rmtree(raw_dir)
            self.inputs[toy_seed] = paths

    def _round(self, out: Path) -> tuple[float, dict[int, cli.BenchResult]]:
        results = {}
        t0 = time.perf_counter()
        for toy_seed, (train_path, test_path) in self.inputs.items():
            results[toy_seed] = cli.run_bench(cli.BenchSpec(
                train_path=train_path,
                cases=[cli.BenchCase(test_path, 100, f"s{toy_seed}")],
                methods=list(cli.METHODS),
                p=2,
                seed=toy_seed,
                out_dir=out / f"seed{toy_seed}",
                max_iters=self.size["toy_iters"],
            ))
        return time.perf_counter() - t0, results

    def warmup(self) -> None:
        """First round, untimed; its metrics.csv files are the reference."""
        out = self.work / "round0"
        _, results = self._round(out)
        self.reference = {s: r.metrics_path.read_bytes() for s, r in results.items()}
        shutil.rmtree(out)

    def op(self) -> OpResult:
        self.rounds += 1
        out = self.work / f"round{self.rounds}"
        seconds, results = self._round(out)
        failed = 0
        for toy_seed, result in results.items():
            na_rows = sum(row["mdr"] is None for row in result.rows)
            same = result.metrics_path.read_bytes() == self.reference[toy_seed]
            failed += na_rows if same else len(result.rows)
        shutil.rmtree(out)
        self.details["toy_bench_s"].append(seconds)
        return OpResult(seconds, len(self.toy_seeds) * len(cli.METHODS), failed)

    def report(self) -> list[tuple[str, float, str]]:
        return [("toy_bench_s", statistics.median(self.details["toy_bench_s"]), "s")]


class Detect52:
    """Online and batch scoring with a saved 52-variable, p=27 SCA model."""

    name = "detect52"

    def __init__(self, seed: int, size_name: str, work: Path) -> None:
        self.seed, self.size, self.work = seed, SIZES[size_name], work
        self.model_path = self.work / "model.json"
        self.resave_path = self.work / "model_resaved.json"
        self.details: dict[str, list[float]] = {
            "load_s": [], "save_s": [], "block_sps": [], "bulk_sps": [], "single_s": [],
        }

    def setup(self) -> None:
        size = self.size
        rng = np.random.default_rng(self.seed)
        units = plant_units(rng, size["n"])
        train = DataMatrix(units * plant_training_block(size))
        cfg = CgConfig(seed=0, max_iters=size["detect_fit_iters"])
        self.model, _ = sca.train(train, size["p"], cfg=cfg)
        persistence.save_model(self.model, self.model_path)
        self.blocks = [units * plant_samples(rng, size, size["block"])
                       for _ in range(size["blocks"])]
        self.bulk = units * plant_samples(rng, size, size["bulk"])
        self.singles = units * plant_samples(rng, size, size["singles"])
        # In-memory answers the reloaded model must reproduce bit for bit.
        self.block0_t2 = sca.monitor(self.model, DataMatrix(self.blocks[0])).t2
        self.singles_t2 = sca.monitor(self.model, DataMatrix(self.singles)).t2

    def warmup(self) -> None:
        """One untimed cycle so page faults and lazy set-up are paid first."""
        self.op()
        for values in self.details.values():
            values.clear()

    def op(self) -> OpResult:
        d = self.details
        clock = time.perf_counter
        start = clock()
        model = persistence.load_model(self.model_path)
        d["load_s"].append(clock() - start)
        block0_t2 = None
        for block in self.blocks:
            t0 = clock()
            t2 = sca.monitor(model, DataMatrix(block)).t2
            d["block_sps"].append(block.shape[1] / (clock() - t0))
            if block0_t2 is None:
                block0_t2 = t2
        t0 = clock()
        sca.monitor(model, DataMatrix(self.bulk))
        d["bulk_sps"].append(self.bulk.shape[1] / (clock() - t0))
        single_t2 = np.empty(self.singles.shape[1])
        for j in range(self.singles.shape[1]):
            t0 = clock()
            single_t2[j] = sca.monitor(model, DataMatrix(self.singles[:, j : j + 1])).t2[0]
            d["single_s"].append(clock() - t0)
        t0 = clock()
        persistence.save_model(model, self.resave_path)
        d["save_s"].append(clock() - t0)
        seconds = clock() - start

        reload_ok = np.array_equal(block0_t2, self.block0_t2)
        single_bad = int(np.sum(
            np.abs(single_t2 - self.singles_t2) > SINGLE_RTOL * np.abs(self.singles_t2)
        ))
        attempted = 2 + len(self.blocks) + 1 + len(single_t2)
        return OpResult(seconds, attempted, int(not reload_ok) + single_bad)

    def report(self) -> list[tuple[str, float, str]]:
        d = self.details
        lat = d["single_s"]
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return [
            ("detect_block_sps", statistics.median(d["block_sps"]), "samples/s"),
            ("detect_bulk_sps", statistics.median(d["bulk_sps"]), "samples/s"),
            ("detect_single_p50_us", 1e6 * statistics.median(lat), "us"),
            ("detect_single_p90_us", 1e6 * q[89], "us"),
            ("detect_single_p99_us", 1e6 * q[98], "us"),
            ("detect_single_samples", len(lat), "count"),
            ("model_load_s", statistics.median(d["load_s"]), "s"),
            ("model_save_s", statistics.median(d["save_s"]), "s"),
        ]


WORKLOADS = {w.name: w for w in (Train52, Toy5, Detect52)}

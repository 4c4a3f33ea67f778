"""Acceptance gate: ten checkable criteria over the full pipeline.

Each test appends one (criterion, PASS/FAIL/SKIP, detail) line to RESULTS;
the conftest terminal hook echoes those lines after the run so every
criterion is visible at a glance.
"""

import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from scafd.activations import get_activation
from scafd.baselines import ae_cost_grad, pca_fit
from scafd.cli import BenchCase, BenchSpec, gen_toy, run_bench
from scafd.data import DataMatrix, apply_scaler, fit_scaler, load_csv
from scafd.manifold import (
    ProductPoint,
    StiefelPoint,
    inner,
    orthonormality_error,
    project_tangent,
    random_stiefel,
    random_tangent,
    retract,
    tangency_error,
)
from scafd.optimizer import CgConfig, cg_optimize, cost, euclidean_grad, init_product_point
from scafd.sca import control_limit, monitor, train

TANH_ID = get_activation("tanh")
IDENTITY = get_activation("identity")
ALL_METHODS = ("pca", "kpca", "ae", "sae", "sca")

RESULTS: list[tuple[str, str, str]] = []


def _record(name: str, ok: bool, detail: str) -> None:
    RESULTS.append((name, "PASS" if ok else "FAIL", detail))
    assert ok, f"{name}: {detail}"


def _record_skip(name: str, detail: str) -> None:
    RESULTS.append((name, "SKIP", detail))
    pytest.skip(f"{name}: {detail}")


@contextmanager
def _criterion(name: str):
    """Guarantee a summary line even when the check crashes mid-computation."""
    try:
        yield
    except Exception as exc:
        if not any(entry[0] == name for entry in RESULTS):
            RESULTS.append((name, "FAIL", f"error: {exc}"))
        raise


def _loose_stiefel(matrix: np.ndarray) -> StiefelPoint:
    pt = object.__new__(StiefelPoint)
    pt.matrix = matrix
    return pt


def _central_diff(cost_fn, arrays, eps=1e-6):
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            for sgn in (1.0, -1.0):
                probe = [a.copy() for a in arrays]
                probe[k][idx] += sgn * eps
                g[idx] += sgn * cost_fn(probe) / (2 * eps)
        grads.append(g)
    return grads


def _rel_gap(analytic, fd):
    return float(
        max(
            np.max(np.abs(a - f) / np.maximum(1.0, np.abs(a)))
            for a, f in zip(analytic, fd)
        )
    )


# ---------------------------------------------------------------------------
# 1. Manifold property suite


def test_ac1_manifold_property_suite():
    name = "AC1 manifold retraction/projection suite"
    with _criterion(name):
        rng = np.random.default_rng(1)
        worst = {"ortho": 0.0, "at_zero": 0.0, "rigidity": 0.0,
                 "idempotence": 0.0, "self_adjoint": 0.0, "fd_transport": 0.0}
        for _ in range(1000):
            N = int(rng.integers(2, 9))
            p = int(rng.integers(1, min(3, N) + 1))
            base = random_stiefel(N, p, rng)
            H = random_tangent(base, rng)
            t = float(rng.uniform(-2.0, 2.0))

            moved = retract(base, H, t)
            worst["ortho"] = max(worst["ortho"],
                                 orthonormality_error(moved.matrix))
            worst["at_zero"] = max(
                worst["at_zero"],
                float(np.max(np.abs(retract(base, H, 0.0).matrix - base.matrix))),
            )
            h_norm = float(np.linalg.norm(H))
            tiny = retract(base, H, 1e-5)
            rigidity = float(
                np.linalg.norm(tiny.matrix - base.matrix - 1e-5 * H)
            ) / max(h_norm, 1e-300)
            worst["rigidity"] = max(worst["rigidity"], rigidity)

            Z = rng.standard_normal((N, p))
            Y = rng.standard_normal((N, p))
            PZ = project_tangent(base, Z)
            worst["idempotence"] = max(
                worst["idempotence"],
                float(np.max(np.abs(project_tangent(base, PZ) - PZ))),
            )
            worst["self_adjoint"] = max(
                worst["self_adjoint"],
                abs(float(np.sum(project_tangent(base, Y) * Z))
                    - float(np.sum(Y * PZ))),
            )

            eps = 1e-5
            velocity = (
                retract(base, H, t + eps).matrix - retract(base, H, t - eps).matrix
            ) / (2 * eps)
            worst["fd_transport"] = max(
                worst["fd_transport"], tangency_error(moved, velocity)
            )

        ok = (
            worst["ortho"] <= 1e-10
            and worst["at_zero"] <= 1e-12
            and worst["rigidity"] <= 1e-4
            and worst["idempotence"] <= 1e-10
            and worst["self_adjoint"] <= 1e-10
            and worst["fd_transport"] <= 1e-6
        )
        detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        _record(name, ok, f"1000 cases; worst {detail}")


# ---------------------------------------------------------------------------
# 2. Gradient correctness for both objectives


def test_ac2_gradients_match_finite_differences():
    name = "AC2 analytic gradients vs central differences"
    with _criterion(name):
        worst_manifold = 0.0
        worst_ae = 0.0
        for trial in range(50):
            rng = np.random.default_rng(100 + trial)
            N = int(rng.integers(2, 11))
            p = int(rng.integers(1, min(3, N) + 1))
            m = int(rng.integers(2, 9))
            X = rng.standard_normal((N, m))

            point = ProductPoint(
                w=rng.standard_normal((N, p)), w_tilde=random_stiefel(N, p, rng)
            )
            analytic = euclidean_grad(point, X, TANH_ID)
            fd = _central_diff(
                lambda arrs: cost(
                    ProductPoint(w=arrs[0], w_tilde=_loose_stiefel(arrs[1])),
                    X,
                    TANH_ID,
                ),
                [point.w, point.w_tilde.matrix],
            )
            worst_manifold = max(worst_manifold, _rel_gap(analytic, fd))

            params = (
                rng.standard_normal((N, p)),
                rng.standard_normal(p),
                rng.standard_normal((N, p)),
                rng.standard_normal(N),
            )
            _, ae_grads = ae_cost_grad(params, X, TANH_ID)
            ae_fd = _central_diff(
                lambda arrs: ae_cost_grad(tuple(arrs), X, TANH_ID)[0],
                list(params),
            )
            worst_ae = max(worst_ae, _rel_gap(ae_grads, ae_fd))

        ok = worst_manifold <= 1e-5 and worst_ae <= 1e-5
        _record(
            name,
            ok,
            f"50 instances each; worst rel err: constrained {worst_manifold:.2e}, "
            f"unconstrained {worst_ae:.2e}",
        )


# ---------------------------------------------------------------------------
# 3. Optimizer behavior


def test_ac3_optimizer_monotone_and_subspace_recovery():
    name = "AC3 optimizer descent + principal-subspace recovery"
    with _criterion(name):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(2024)
        N, p, m = 12, 3, 200
        sing = np.array(
            [10.0, 7.0, 5.0, 1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]
        )
        U, _ = np.linalg.qr(rng.standard_normal((N, N)))
        X = U @ np.diag(sing) @ rng.standard_normal((N, m)) / np.sqrt(m)
        point, trace = cg_optimize(
            init_product_point(N, p, np.random.default_rng(3)),
            X,
            CgConfig(seed=3, max_iters=2000, grad_tol=1e-10, cost_rel_tol=1e-15),
            IDENTITY,
        )
        costs = np.array(trace.cost_per_iter)
        monotone = bool(np.all(np.diff(costs) <= 1e-12))
        ortho = orthonormality_error(point.w_tilde.matrix)

        vals, vecs = np.linalg.eigh(X @ X.T)
        top = vecs[:, ::-1][:, :p]
        angle = float(np.max(subspace_angles(top, point.w_tilde.matrix)))
        ok = monotone and ortho <= 1e-8 and angle <= 1e-3
        _record(
            name,
            ok,
            f"monotone={monotone}, final orthonormality {ortho:.2e}, "
            f"max principal angle {angle:.2e} rad over {trace.iterations} iters",
        )


# ---------------------------------------------------------------------------
# 4. PCA oracle


def test_ac4_pca_against_brute_force():
    name = "AC4 PCA eigendecomposition oracle + energy rule"
    with _criterion(name):
        from scipy.linalg import subspace_angles

        rng = np.random.default_rng(7)
        X = DataMatrix(rng.standard_normal((6, 300)) * np.arange(1, 7)[:, None])
        p = 3
        model = pca_fit(X, n_components=p)
        scaled = apply_scaler(fit_scaler(X), X.values)
        vals, vecs = np.linalg.eigh(np.cov(scaled, ddof=1))
        order = np.argsort(vals)[::-1]
        angle = float(
            np.max(subspace_angles(vecs[:, order[:p]], model.loading))
        )
        recon = model.loading @ (model.loading.T @ scaled)
        resid = float(np.sum((scaled - recon) ** 2))
        oracle = float(model.eigenvalues[p:].sum()) * (X.n_samples - 1)
        recon_rel = abs(resid - oracle) / oracle

        latent = rng.standard_normal((52, 12)) @ rng.standard_normal((12, 500))
        tep_like = DataMatrix(latent + 0.3 * rng.standard_normal((52, 500)))
        p_energy = pca_fit(tep_like, energy=0.85).n_components

        ok = angle <= 1e-8 and recon_rel <= 1e-8
        _record(
            name,
            ok,
            f"principal angle {angle:.2e}, reconstruction rel err {recon_rel:.2e}; "
            f"85%-energy rule on 52-variable data -> p={p_energy}",
        )


# ---------------------------------------------------------------------------
# 5. Control limit


def test_ac5_control_limit_and_training_alarm(toy_sca_model, toy_train):
    name = "AC5 KDE control limit + training alarm rate"
    with _criterion(name):
        t0 = time.perf_counter()
        draws = np.random.default_rng(0).exponential(size=10000)
        tau = control_limit(draws, 0.01)
        target = -np.log(0.01)
        tau_rel = abs(tau - target) / target

        model, _ = toy_sca_model
        alarm = float(monitor(model, toy_train).flags.mean())
        wall = time.perf_counter() - t0
        ok = tau_rel <= 0.10 and 0.0 <= alarm <= 0.025 and wall < 5.0
        _record(
            name,
            ok,
            f"tau={tau:.3f} vs 4.605 (rel {tau_rel:.3f}), training alarm "
            f"{100 * alarm:.1f}%, {wall:.2f}s",
        )


# ---------------------------------------------------------------------------
# 6 & 7. Toy benchmark orderings


_BENCH_CACHE: dict = {}


def _toy_benchmark():
    """Five-seed toy benchmark shared by the ordering criteria.

    Protocol: default toy generator sizes (500 train, 100 normal + 400
    faulty), all five methods at p = 2 (the 85% energy pick on this data),
    zeta = 0.01, per-method seeds derived from the run seed, 150 manifold
    iterations.
    """
    if "toy" not in _BENCH_CACHE:
        t0 = time.perf_counter()
        root = Path(tempfile.mkdtemp(prefix="scafd_accept_"))
        mdr = {m: [] for m in ALL_METHODS}
        far = {m: [] for m in ALL_METHODS}
        for seed in range(5):
            train_path, test_path = gen_toy(root / f"gen{seed}", seed=seed)
            spec = BenchSpec(
                train_path=train_path,
                cases=[BenchCase(test_path, 100, f"s{seed}")],
                methods=list(ALL_METHODS),
                p=2,
                zeta=0.01,
                seed=seed,
                out_dir=root / f"out{seed}",
                max_iters=150,
            )
            for row in run_bench(spec).rows:
                if row["mdr"] is None:
                    raise RuntimeError(f"{row['method']} failed on seed {seed}")
                mdr[row["method"]].append(row["mdr"])
                far[row["method"]].append(row["far"])
        _BENCH_CACHE["toy"] = (mdr, far, time.perf_counter() - t0)
    return _BENCH_CACHE["toy"]


def test_ac6_toy_ordering_sca_beats_linear_and_unconstrained():
    name = "AC6 toy 5-seed ordering (SCA vs PCA/AE)"
    with _criterion(name):
        mdr, far, wall = _toy_benchmark()
        med = {m: statistics.median(v) for m, v in mdr.items()}
        max_far = max(far["sca"])
        ok = (
            med["sca"] < med["pca"]
            and med["sca"] < med["ae"]
            and max_far <= 10.0
            and wall < 120.0
        )
        _record(
            name,
            ok,
            f"median MDR: sca={med['sca']:.2f} pca={med['pca']:.2f} "
            f"ae={med['ae']:.2f} (kpca={med['kpca']:.2f}), "
            f"sca max FAR {max_far:.1f}%, {wall:.1f}s",
        )


def test_ac7_toy_ablation_direction():
    name = "AC7 ablation: expanded-but-unconstrained trails the constrained model"
    with _criterion(name):
        mdr, _, _ = _toy_benchmark()
        med_sae = statistics.median(mdr["sae"])
        med_sca = statistics.median(mdr["sca"])
        _record(
            name,
            med_sae >= med_sca,
            f"median MDR: sae={med_sae:.2f} >= sca={med_sca:.2f}",
        )


# ---------------------------------------------------------------------------
# 8. Conditional industrial-benchmark criterion


def _load_tep_dir(tep_dir: Path):
    """d00.dat is variables x samples; every other file is samples x variables."""
    train_raw = np.loadtxt(tep_dir / "d00.dat")
    if train_raw.shape[0] != 52:
        train_raw = train_raw.T
    train = DataMatrix(train_raw[:, :500])
    cases = {}
    for fault in (3, 4, 6, 9, 15):
        cases[fault] = DataMatrix(np.loadtxt(tep_dir / f"d{fault:02d}_te.dat").T)
    return train, cases


def test_ac8_tep_conditional():
    name = "AC8 TEP conditional (faults 3/4/6/9/15)"
    tep_env = os.environ.get("SCAFD_TEP_DIR")
    if not tep_env:
        _record_skip(name, "set SCAFD_TEP_DIR to a directory of TEP .dat files")
    with _criterion(name):
        from scafd.baselines import ae_train
        from scafd.cli import derive_seed
        from scafd.sca import monitor, score

        train_dm, cases = _load_tep_dir(Path(tep_env))
        sca_model, _ = train(
            train_dm, p=27, cfg=CgConfig(seed=derive_seed(0, "sca"))
        )
        ae_model, _ = ae_train(train_dm, p=27, seed=derive_seed(0, "ae"))
        rates = {}
        for fault, test_dm in cases.items():
            for tag, model in (("sca", sca_model), ("ae", ae_model)):
                mdr, _ = score(monitor(model, test_dm).flags, 160)
                rates[(fault, tag)] = mdr
        hard_ok = all(rates[(f, "sca")] > 90.0 for f in (3, 9, 15))
        ok = (
            rates[(6, "sca")] <= 2.0
            and rates[(6, "ae")] <= 2.0
            and rates[(4, "sca")] < rates[(4, "ae")]
            and hard_ok
        )
        detail = ", ".join(
            f"f{f}:{tag}={rates[(f, tag)]:.2f}"
            for f in (3, 4, 6, 9, 15)
            for tag in ("sca", "ae")
        )
        _record(name, ok, detail)


# ---------------------------------------------------------------------------
# 9. Determinism


def test_ac9_bench_reruns_byte_identical():
    name = "AC9 identical seeds give byte-identical benchmark files"
    with _criterion(name):
        root = Path(tempfile.mkdtemp(prefix="scafd_det_"))
        train_path, test_path = gen_toy(root / "data", seed=0)
        files = ("metrics.csv", "chart_faulttoy_pca.csv",
                 "chart_faulttoy_sca.csv", "trace_sca.csv")
        blobs = []
        for run in ("one", "two"):
            spec = BenchSpec(
                train_path=train_path,
                cases=[BenchCase(test_path, 100, "toy")],
                methods=["pca", "sca"],
                p=2,
                seed=0,
                out_dir=root / run,
                max_iters=60,
            )
            run_bench(spec)
            blobs.append([(root / run / f).read_bytes() for f in files])
        ok = blobs[0] == blobs[1]
        _record(name, ok, f"{len(files)} files compared across two runs")


# ---------------------------------------------------------------------------
# 10. Desk-scale runtime


def test_ac10_training_runtime_at_industrial_scale():
    name = "AC10 52-variable training completes within the runtime budget"
    with _criterion(name):
        rng = np.random.default_rng(0)
        latent = rng.standard_normal((52, 12)) @ rng.standard_normal((12, 500))
        X = DataMatrix(latent + 0.3 * rng.standard_normal((52, 500)))
        t0 = time.perf_counter()
        _, trace = train(X, p=27, cfg=CgConfig(seed=0))
        wall = time.perf_counter() - t0
        _record(
            name,
            wall <= 600.0,
            f"{wall:.1f}s for {trace.iterations} iterations "
            f"(budget 600s, 2757-dimensional expansion)",
        )

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its headline numbers. Criteria 3-10 drive the shipped
scenario harness at its default configuration."""
import json
import time
from dataclasses import asdict

import numpy as np

from specsync import (
    PlantedAepConfig,
    check_aep,
    eigendecompose_general,
    indicator_matrix,
    laplacian,
    planted_aep,
    quotient_matrix,
    run_scenario,
    spectral_basis,
)

from conftest import oracle_incidence, random_connected_graph, random_partition


def _report(num, passed, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _run(name, num, budget, seed=0):
    start = time.time()
    result = run_scenario(name, seed=seed)
    elapsed = time.time() - start
    json.dumps(asdict(result))  # result.json renders: no numpy scalar in it
    failures = [f"{a.name} ({a.detail})" for a in result.assertions if not a.passed]
    detail = f"{name} in {elapsed:.1f}s (budget {budget:.0f}s)"
    if failures:
        detail += "; failed: " + "; ".join(failures)
    _report(num, result.passed and elapsed < budget, detail)
    return result


def test_criterion_01_spectral_identities():
    start = time.time()
    rng = np.random.default_rng(11)
    worst_factor = worst_resid = worst_pair = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, n_max=20)
        lap = laplacian(g)
        b = oracle_incidence(g)
        worst_factor = max(worst_factor, np.abs(b @ np.diag(g.edge_w) @ b.T - lap).max())
        basis = spectral_basis(g)
        v, lam = basis.vertex_vectors, basis.eigenvalues
        worst_resid = max(worst_resid, np.abs(lap @ v - v * lam).max())
        e = basis.edge_vectors
        gram = e.T @ (g.edge_w[:, None] * e)
        worst_pair = max(worst_pair, np.abs(gram - np.diag(lam)).max())
    elapsed = time.time() - start
    ok = worst_factor <= 1e-12 and worst_resid <= 1e-8 and worst_pair <= 1e-8 and elapsed < 10
    _report(
        1,
        ok,
        f"100 graphs: |L - BWB^T| <= {worst_factor:.1e}, eigen residual <= "
        f"{worst_resid:.1e}, pairing deviation <= {worst_pair:.1e}, {elapsed:.1f}s",
    )


def test_criterion_02_invariance_characterization():
    start = time.time()
    rng = np.random.default_rng(12)
    worst_dev = worst_lift = 0.0
    planted = 0
    for seed in range(20):
        k = int(rng.integers(2, 5))
        sizes = tuple(int(s) for s in rng.integers(2, 6, size=k))
        d = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                w = rng.uniform(0.5, 2.0)
                d[i, j] = w
                d[j, i] = w * sizes[i] / sizes[j]
        g, p = planted_aep(
            PlantedAepConfig(
                cell_sizes=sizes,
                quotient_weights=tuple(map(tuple, d)),
                intra_density=float(rng.uniform(0.3, 1.0)),
                seed=seed,
            )
        )
        report = check_aep(g, p)
        worst_dev = max(worst_dev, report.max_deviation)
        planted += report.max_deviation <= 1e-9
        lap = laplacian(g)
        vals, vecs = eigendecompose_general(quotient_matrix(lap, p))
        pmat = indicator_matrix(p)
        for r in range(p.k):
            lifted = pmat @ vecs[:, r]
            resid = np.linalg.norm(lap @ lifted - vals[r] * lifted) / np.linalg.norm(lifted)
            worst_lift = max(worst_lift, resid)
    rejected = 0
    for _ in range(100):
        g = random_connected_graph(rng, n_max=14)
        p = random_partition(rng, g.n)
        rejected += not check_aep(g, p).is_aep
    elapsed = time.time() - start
    ok = planted == 20 and worst_lift <= 1e-8 and rejected == 100 and elapsed < 10
    _report(
        2,
        ok,
        f"20 planted AEPs max deviation {worst_dev:.1e}, lifted residual "
        f"{worst_lift:.1e}, {rejected}/100 random partitions rejected, {elapsed:.1f}s",
    )


def test_criterion_03_basis_equivalence():
    result = _run("basis_equivalence", 3, budget=60)
    assert result.metrics["max_phase_diff"] <= 1e-6


def test_criterion_04_cluster_synchronization_limits():
    _run("fig2_cluster_sync", 4, budget=30)


def test_criterion_05_linearization_error_profile():
    result = _run("fig3_linearization_error", 5, budget=60)
    assert result.metrics["pooled_spearman"] >= 0.5


def test_criterion_06_transient_hierarchy():
    _run("fig4_hierarchical", 6, budget=300)


def test_criterion_07_qep_stability():
    _run("fig5_qep", 7, budget=120)


def test_criterion_08_multi_frequency_mode():
    result = _run("fig6_single_mode", 8, budget=60)
    assert result.metrics["delta_slip_mode"] < 0
    assert result.metrics["tracking_rel_err"] <= 0.1


def test_criterion_09_phase_lag_examples():
    start = time.time()
    res1 = run_scenario("phase_lag_ex1", seed=0)
    res2 = run_scenario("phase_lag_ex2", seed=0)
    elapsed = time.time() - start
    failures = [
        f"{r.name}.{a.name} ({a.detail})"
        for r in (res1, res2)
        for a in r.assertions
        if not a.passed
    ]
    detail = f"phase_lag_ex1 + phase_lag_ex2 in {elapsed:.1f}s"
    if failures:
        detail += "; failed: " + "; ".join(failures)
    _report(9, res1.passed and res2.passed, detail)


def test_criterion_10_sbm_concentration():
    result = _run("sbm_limit", 10, budget=120)
    assert result.metrics["identity_dev"] <= 1e-10

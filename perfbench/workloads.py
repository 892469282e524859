"""The four benchmark workloads: inputs from the seed, one operation, checks.

Each workload builds its inputs in `__init__` (which also imports velakit),
runs one operation in `run`, fully checks one output against the oracle in
`check_reference`, and checks every later output in `check`. Checks return
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle

AGENCIES = ("CNSA", "ESA", "JAXA", "NASA", "ROSCOSMOS")
VARIABLES = ("sb", "gpc", "rd", "md", "ed", "sd")
CSV_HEADER = ("agency,year,sb_usd_b,gdp_per_capita_usd,researchers_per_million,"
              "military_pct_gdp,education_pct_gdp,rnd_pct_gdp")
YEARS = np.arange(1973, 2023)  # 50 years
# log-level offsets giving plausible magnitudes: budget (B$), GDP per
# capita ($), researchers per million, and three shares of GDP (%)
LOG_OFFSETS = np.log([10.0, 30000.0, 2000.0, 2.0, 5.0, 2.0])
NOISE = 0.05
# one rank-1 relation among sb, gpc and rd; md, ed and sd are independent walks
PANEL_ALPHA = np.array([[-0.6], [0.3], [0.1], [0.0], [0.0], [0.0]])
PANEL_BETA = np.array([[1.0], [-2.0], [0.5], [0.0], [0.0], [0.0]])
N_BLANKS = 4
SOURCE_DATE_EPOCH = "1700000000"

CV_P_MINUS_R, CV_REPS, CV_T = 2, 2000, 400
REC_T, REC_REPS = 500, 200
SPEC_ATTEMPTS_PER_PANEL = 93  # 31 subsets containing sb, times k = 1, 2, 3
TAGS = {"cli_pipeline": 1, "spec_search": 2, "mc_cv": 3, "mc_recovery": 4}


def base_seed(seed: int, workload: str) -> int:
    """Well-mixed 64-bit stream seed for one workload at one --seed."""
    return oracle.splitmix64((oracle.splitmix64(seed & oracle.MASK64) + TAGS[workload])
                             & oracle.MASK64)


class OperationFailed(Exception):
    """An operation did not complete; it counts as failed, not as incorrect."""


class Workload:
    name = ""
    units_per_op = 1
    min_ops = 5
    # a workload with a tail runs at least run.TAIL_MIN_OPS operations; without
    # one, latency_tail_ms is the median however many operations a run fits
    reports_tail = False

    def __init__(self, seed: int, root: Path):
        self.base = base_seed(seed, self.name)

    def op_seed(self, i: int) -> int:
        return oracle.splitmix64((self.base + i) & oracle.MASK64)

    def run(self, i: int, tracer=None):
        raise NotImplementedError

    def collect(self, handle):
        """Turn what `run` returned into the output to check (not timed)."""
        return handle

    def check_inputs(self) -> list[str]:
        return []

    def check_reference(self, out) -> list[str]:
        return self.check(out)

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


class CliPipeline(Workload):
    """Cold `python -m velakit.cli pipeline` on one generated panel."""

    name = "cli_pipeline"
    reports_tail = True

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import velakit.cli  # noqa: F401  (the import is part of set-up)

        self.src = root / "src"
        self.work = root / ".perfbench" / "work"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.csv = self.work / "panel.csv"
        self.values, self.blanks = self._write_panel()
        self.digest = hashlib.sha256(self.csv.read_bytes()).hexdigest()
        self.env = dict(os.environ, SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH)
        self.child_rss_kb: list[int] = []
        self.reference = None

    def _write_panel(self):
        # drawn by the oracle's recursion, so velakit's generator stays off this path
        z = oracle.generate_ecm(PANEL_ALPHA, PANEL_BETA, len(YEARS), self.base, 0, NOISE)
        levels = np.exp(z + LOG_OFFSETS)
        rng = np.random.default_rng(self.base)
        # distinct cells in the interior years
        flat = rng.choice((len(YEARS) - 2) * len(VARIABLES), N_BLANKS, replace=False)
        blanks = sorted(((VARIABLES[c % 6], int(YEARS[1 + c // 6])) for c in flat),
                        key=lambda b: (VARIABLES.index(b[0]), b[1]))
        blank_set = set(blanks)
        lines = [CSV_HEADER]
        values = np.empty_like(levels)
        for row, year in enumerate(YEARS):
            cells_text = []
            for col, var in enumerate(VARIABLES):
                if (var, int(year)) in blank_set:
                    cells_text.append("")
                    values[row, col] = np.nan
                else:
                    text = f"{levels[row, col]:.6f}"
                    cells_text.append(text)
                    values[row, col] = float(text)
            lines.append(",".join(["NASA", str(int(year))] + cells_text))
        self.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return values, [list(b) for b in blanks]

    def run(self, i: int, tracer=None):
        out_dir = self.work / f"out_{i}"
        cli_args = ["pipeline", "--input", str(self.csv), "--agency", "NASA",
                    "--out-dir", str(out_dir)]
        sidecar = self.work / f"trace_{i}.json"
        if tracer is None:
            cmd = [sys.executable, "-m", "velakit.cli", *cli_args]
        else:
            keep = "1" if tracer.spans is not None else "0"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                   str(sidecar), keep, *cli_args]
        with open(self.work / "stdout", "wb") as out, open(self.work / "stderr", "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.src, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return i, proc.returncode

    def collect(self, handle):
        i, rc = handle
        out_dir = self.work / f"out_{i}"
        if rc != 0:
            stderr = (self.work / "stderr").read_text(encoding="utf-8", errors="replace")
            shutil.rmtree(out_dir, ignore_errors=True)
            raise OperationFailed(f"exit code {rc}: {stderr.strip()[-300:]}")
        result = {
            "stdout": (self.work / "stdout").read_bytes(),
            "stderr": (self.work / "stderr").read_bytes(),
        }
        for ext in ("json", "txt"):
            path = out_dir / f"pipeline_NASA.{ext}"
            result[ext] = path.read_bytes() if path.exists() else None
        shutil.rmtree(out_dir, ignore_errors=True)
        sidecar = self.work / f"trace_{i}.json"
        if sidecar.exists():
            result["trace"] = json.loads(sidecar.read_text(encoding="utf-8"))
            sidecar.unlink()
        return result

    def _check_process(self, out) -> list[str]:
        problems = []
        if out["stderr"]:
            problems.append(f"stderr not empty: {out['stderr'][:200]!r}")
        if out["txt"] is None or out["json"] is None:
            problems.append("artifacts missing")
        elif out["stdout"] != out["txt"]:
            problems.append("stdout differs from the written .txt")
        return problems

    def check_reference(self, out) -> list[str]:
        problems = self._check_process(out)
        if problems:
            return problems
        self.reference = out
        payload = json.loads(out["json"])
        if payload["manifest"]["input_digests"].get("panel") != self.digest:
            problems.append("manifest input digest differs from the sha256 of the input")
        if payload["stages"]["ingest"]["missing_cells"] != self.blanks:
            problems.append("missing cells differ from the blanks written")

        # the oracle repairs and logs the panel itself
        idx = np.arange(len(YEARS), dtype=float)
        logs = np.empty_like(self.values)
        for j in range(len(VARIABLES)):
            v = self.values[:, j]
            seen = ~np.isnan(v)
            logs[:, j] = np.log(np.interp(idx, idx[seen], v[seen]))
        lags = oracle.schwert_lags(len(YEARS))
        for j, var in enumerate(VARIABLES):
            got = payload["stages"]["adf"][var]["statistic"]
            want = oracle.adf_statistic(logs[:, j], lags)
            if not oracle.close(got, want):
                problems.append(f"ADF statistic for {var}: {got} vs oracle {want}")
        specs = payload["stages"]["specification_search"]["specs"]
        if not specs:
            problems.append("no admissible specification")
        for spec in specs:
            cols = [VARIABLES.index(v) for v in spec["subset"]]
            R0, R1, T_eff = oracle.concentrate(logs[:, cols], spec["k"])
            want = oracle.eigenvalues(R0, R1, T_eff)
            if not oracle.close(spec["model"]["eigenvalues"], want):
                problems.append(f"eigenvalues of {spec['subset']} k={spec['k']} differ from the oracle")
        return problems

    def check(self, out) -> list[str]:
        problems = self._check_process(out)
        ref = self.reference
        if ref is None:
            return problems + ["no reference output"]
        for key in ("json", "txt"):
            if out[key] != ref[key]:
                problems.append(f"{key} artifact differs from the first operation's")
        return problems

    def peak_rss_mb(self) -> float:
        return statistics.median(self.child_rss_kb) / 1024.0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class SpecSearch(Workload):
    """run_specification_search over five agencies' generated panels."""

    name = "spec_search"
    units_per_op = SPEC_ATTEMPTS_PER_PANEL * len(AGENCIES)
    reports_tail = True

    def __init__(self, seed, root):
        super().__init__(seed, root)
        import velakit
        from velakit import spec_search, synthetic

        self.search = spec_search
        spec = synthetic.SyntheticSpec(
            p=6, r=1, alpha_true=PANEL_ALPHA, beta_true=PANEL_BETA,
            T=len(YEARS), seed=self.base, noise_scale=NOISE,
        )
        self.generated = [synthetic.generate_vecm_data(spec, i)
                          for i in range(len(AGENCIES))]
        self.panels = [
            velakit.LogLevelPanel(agency, YEARS,
                                  {v: z[:, j] + LOG_OFFSETS[j] for j, v in enumerate(VARIABLES)})
            for agency, z in zip(AGENCIES, self.generated)
        ]
        self.reference = None

    def run(self, i: int, tracer=None):
        return [self.search.run_specification_search(p, min_size=2, k_candidates=(1, 2, 3))
                for p in self.panels]

    def check_inputs(self) -> list[str]:
        problems = []
        for i, z in enumerate(self.generated):
            want = oracle.generate_ecm(PANEL_ALPHA, PANEL_BETA, len(YEARS), self.base, i, NOISE)
            if not oracle.close(z, want, rtol=1e-9, atol=1e-12):
                problems.append(f"generate_vecm_data differs from the oracle recursion (panel {i})")
        return problems

    def check_reference(self, reports) -> list[str]:
        problems = []
        for panel, report in zip(self.panels, reports):
            problems += self._check_report(panel, report)
        self.reference = reports
        return problems

    def _check_report(self, panel, report) -> list[str]:
        problems = []
        tag = panel.agency_id
        if len(report.specs) + len(report.rejected) != SPEC_ATTEMPTS_PER_PANEL:
            problems.append(f"{tag}: {len(report.specs)} fitted + {len(report.rejected)} "
                            f"rejected != {SPEC_ATTEMPTS_PER_PANEL}")
        decisions = [(s.subset, s.k, 1) for s in report.specs]
        for rej in report.rejected:
            if rej.reason.startswith("selected rank "):
                decisions.append((rej.subset, rej.k, int(rej.reason.rsplit(" ", 1)[1])))
            else:
                problems.append(f"{tag}: {rej.subset} k={rej.k} rejected: {rej.reason}")
        oracle_lam = {}
        for subset, k, rank in decisions:
            z = panel.matrix(subset)
            R0, R1, T_eff = oracle.concentrate(z, k)
            lam = oracle.eigenvalues(R0, R1, T_eff)
            trace = oracle.trace_statistics(lam, T_eff)
            oracle_lam[(subset, k)] = lam
            if oracle.decision_is_clear(trace) and oracle.selected_rank(trace) != rank:
                problems.append(f"{tag}: {subset} k={k} selected rank {rank}, "
                                f"oracle {oracle.selected_rank(trace)}")
        for spec in report.specs:
            model = spec.model
            if not oracle.close(model.eigenvalues, oracle_lam[(spec.subset, spec.k)]):
                problems.append(f"{tag}: eigenvalues of {spec.subset} k={spec.k} differ")
            alpha, gammas = oracle.short_run_given_beta(panel.matrix(spec.subset), model.beta, spec.k)
            if not (oracle.close(model.alpha, alpha, rtol=1e-6)
                    and all(oracle.close(g, w, rtol=1e-6) for g, w in zip(model.gamma, gammas))
                    and len(model.gamma) == len(gammas)):
                problems.append(f"{tag}: alpha/Gamma of {spec.subset} k={spec.k} differ")
        for var, row in (report.correlation_row or {}).items():
            idx = row["source_spec"]
            if idx is None:
                continue
            best = max(abs(s.equation.z_scores[var]) for s in report.specs
                       if var in s.equation.z_scores and np.isfinite(s.equation.z_scores[var]))
            if abs(report.specs[idx].equation.z_scores[var]) != best:
                problems.append(f"{tag}: correlation row {var} source is not the largest |z|")
        return problems

    def check(self, reports) -> list[str]:
        problems = []
        for ref, rep in zip(self.reference, reports):
            same = (
                [(s.subset, s.k) for s in ref.specs] == [(s.subset, s.k) for s in rep.specs]
                and [(r.subset, r.k, r.reason) for r in ref.rejected]
                == [(r.subset, r.k, r.reason) for r in rep.rejected]
                and all(np.array_equal(a.model.eigenvalues, b.model.eigenvalues)
                        and np.array_equal(a.model.alpha, b.model.alpha)
                        for a, b in zip(ref.specs, rep.specs))
                and ref.correlation_row == rep.correlation_row
            )
            if not same:
                problems.append(f"{rep.agency_id}: output differs from the first operation's")
        return problems


class McCriticalValues(Workload):
    """One monte_carlo_critical_values study (p-r=2, rconst, 2000 x 400)."""

    name = "mc_cv"
    units_per_op = CV_REPS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from velakit import synthetic

        self.synthetic = synthetic

    def run(self, i: int, tracer=None):
        return self.synthetic.monte_carlo_critical_values(
            p_minus_r=CV_P_MINUS_R, case="rconst", reps=CV_REPS, T=CV_T,
            seed=self.op_seed(i), keep_statistics=True,
        )

    def check(self, study) -> list[str]:
        problems = []
        stats = study.statistics
        if stats is None or stats.shape != (CV_REPS,) or not np.all(np.isfinite(stats)):
            return ["statistics missing or not finite"]
        k = study.seed % CV_REPS
        for rep in sorted({0, CV_REPS - 1, k, (k * 7919 + 13) % CV_REPS}):
            rng = oracle.replication_rng(study.seed, rep)
            z = np.cumsum(rng.standard_normal((CV_T, CV_P_MINUS_R)), axis=0)
            R0, R1, T_eff = oracle.concentrate(z, 1)
            want = oracle.trace_statistics(oracle.eigenvalues(R0, R1, T_eff), T_eff)[0]
            if not oracle.close(stats[rep], want):
                problems.append(f"replication {rep}: trace {stats[rep]} vs oracle {want}")
        for key, value in study.percentiles.items():
            if value != float(np.percentile(stats, float(key.rstrip("%")))):
                problems.append(f"percentile {key} is not np.percentile of the statistics")
        table = oracle.TRACE_95[CV_P_MINUS_R - 1]
        if abs(study.percentiles["95%"] - table) > 0.10 * table:
            problems.append(f"95% value {study.percentiles['95%']} not within 10% of {table}")
        if not all(np.isfinite(v) and v > 0 for v in study.bootstrap_se.values()):
            problems.append(f"bootstrap standard errors {study.bootstrap_se}")
        return problems


class McRecovery(Workload):
    """One run_recovery_study on the default rank-1 system (T=500, 200 reps)."""

    name = "mc_recovery"
    units_per_op = REC_REPS

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from velakit import synthetic

        self.synthetic = synthetic

    def run(self, i: int, tracer=None):
        spec = self.synthetic.study_spec(T=REC_T, seed=self.op_seed(i))
        return self.synthetic.run_recovery_study(spec, reps=REC_REPS)

    def check(self, study) -> list[str]:
        problems = []
        spec = study.spec
        if study.rank_accuracy < 0.80:
            problems.append(f"rank accuracy {study.rank_accuracy} < 0.80")
        if not study.beta_angle_median_deg < 5.0:
            problems.append(f"median beta angle {study.beta_angle_median_deg} >= 5 deg")
        rows = study.per_rep
        if len(rows) != REC_REPS:
            return problems + [f"{len(rows)} replications reported"]
        hits = sum(row["selected_rank"] == spec.r for row in rows) / REC_REPS
        if hits != study.rank_accuracy:
            problems.append("rank accuracy disagrees with per_rep")
        if not oracle.close(np.median([row["beta_angle_deg"] for row in rows]),
                            study.beta_angle_median_deg):
            problems.append("median angle disagrees with per_rep")
        k = spec.seed % REC_REPS
        for rep in sorted({0, REC_REPS - 1, k}):
            z = oracle.generate_ecm(spec.alpha_true, spec.beta_true, REC_T, spec.seed, rep)
            R0, R1, T_eff = oracle.concentrate(z, 1)
            lam = oracle.eigenvalues(R0, R1, T_eff)
            trace = oracle.trace_statistics(lam, T_eff)
            angle = oracle.angle_deg(oracle.leading_beta(R0, R1, T_eff)[: spec.p],
                                     spec.beta_true)
            row = rows[rep]
            if not oracle.close(row["trace_r0"], trace[0]):
                problems.append(f"replication {rep}: trace {row['trace_r0']} vs oracle {trace[0]}")
            if oracle.decision_is_clear(trace) and row["selected_rank"] != oracle.selected_rank(trace):
                problems.append(f"replication {rep}: rank {row['selected_rank']} vs oracle")
            if abs(row["beta_angle_deg"] - angle) > 1e-6:
                problems.append(f"replication {rep}: angle {row['beta_angle_deg']} vs oracle {angle}")
        return problems


WORKLOADS = {w.name: w for w in (CliPipeline, SpecSearch, McCriticalValues, McRecovery)}

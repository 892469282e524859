"""Command-line surface for the budget pipeline and mission planner.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 no admissible specification, 5 any other error (a fault in velakit: one
stderr line naming its type, no traceback). Artifacts embed a run
manifest; with SOURCE_DATE_EPOCH set, repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NoAdmissibleSpecError, NumericalError, ValidationError, VelakitError
from .johansen import CASES, RESTRICTED_CONSTANT, concentrate, rank_test
from .lag_selection import max_feasible_lag, select_lag
from .manifest import dump_json, file_digest, make_manifest
from .panel import VARIABLES, interpolate_missing, load_panel, to_log_levels
from .report import (
    render_adf_table,
    render_correlation_table,
    render_lag_table,
    render_mission_plan,
    render_model_table,
    render_rank_table,
)
from .spec_search import run_specification_search
from .unit_root import adf_test, default_adf_lags
from .vecm import estimate_vecm, normalize_cointegrating_equation, stability_check

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NO_SPEC = 4
EXIT_INTERNAL = 5

SAMPLE_CONFIG = Path(__file__).with_name("data") / "mission_config_sample.json"


def _parse_vars(text: str | None) -> tuple[str, ...]:
    if not text:
        return VARIABLES
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    unknown = [v for v in names if v not in VARIABLES]
    if unknown:
        raise ValidationError(f"unknown variable(s) {unknown}; choose from {VARIABLES}")
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate variable in {names}")
    return names


def _make_out_dir(args) -> Path:
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from None
    return out


def _write_file(path: Path, text: str) -> None:
    """Write an artifact; a path that cannot be written is a ValidationError
    naming it."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, stem: str, body: dict, text: str, manifest=None,
          extra: tuple[str, str] | None = None) -> int:
    """Write a command's artifacts and output. The JSON payload is the
    manifest, by default the panel manifest of args.command and --input,
    followed by ``body``. The ``extra`` (name, text) file, if any, and the
    JSON and text artifacts go to --out-dir, then the chosen format to
    stdout, so a failed write leaves stdout empty (and a failed extra
    leaves no JSON behind)."""
    if manifest is None:
        manifest = make_manifest(args.command, input_paths={"panel": args.input})
    payload = {"manifest": manifest, **body}
    out = _make_out_dir(args) if args.out_dir else None
    data = dump_json(payload) if args.format == "json" or out is not None else None
    if out is not None:
        if extra is not None:
            _write_file(out / extra[0], extra[1])
        _write_file(out / f"{stem}.json", data)
        _write_file(out / f"{stem}.txt", text)
    sys.stdout.write(data if args.format == "json" else text)
    return EXIT_OK


def _load_log_panel(args):
    panel = load_panel(args.input, args.agency)
    repaired = interpolate_missing(panel)
    return panel, repaired, to_log_levels(repaired)


def cmd_ingest(args) -> int:
    panel, repaired, logs = _load_log_panel(args)
    body = {
        "agency": panel.agency_id,
        "years": [int(y) for y in panel.years],
        "missing_before_repair": [list(c) for c in panel.missing_cells()],
        "levels": {k: list(repaired.series[k]) for k in VARIABLES},
        "log_levels": {k: list(logs.series[k]) for k in VARIABLES},
    }
    n_missing = len(panel.missing_cells())
    text = (
        f"panel {panel.agency_id}: years {panel.years[0]}-{panel.years[-1]} "
        f"({panel.n_years} rows), {n_missing} missing cell(s) repaired\n"
    )
    return _emit(args, f"panel_{panel.agency_id}", body, text)


def cmd_adf(args) -> int:
    _, _, logs = _load_log_panel(args)
    lags = args.lags if args.lags is not None else default_adf_lags(logs.n_years)
    deterministic = "constant+trend" if args.trend else "constant"
    results = {}
    diff_lags = min(lags, logs.n_years - 1 - 10)
    for name in _parse_vars(args.vars):
        results[name] = adf_test(logs.series[name], lags=lags, deterministic=deterministic)
        results[f"d.{name}"] = adf_test(
            np.diff(logs.series[name]), lags=max(0, diff_lags), deterministic=deterministic
        )
    return _emit(args, f"adf_{args.agency}", {"agency": args.agency, "results": results},
                 render_adf_table(results))


def cmd_lagselect(args) -> int:
    _, _, logs = _load_log_panel(args)
    table = select_lag(logs, _parse_vars(args.vars), k_max=args.kmax)
    return _emit(args, f"lagselect_{args.agency}", {"agency": args.agency, "table": table},
                 render_lag_table(table))


def cmd_vecrank(args) -> int:
    _, _, logs = _load_log_panel(args)
    m = concentrate(logs, _parse_vars(args.vars), k=args.lags, case=args.case)
    result = rank_test(m)
    return _emit(args, f"vecrank_{args.agency}", {"agency": args.agency, "rank_test": result},
                 render_rank_table(result))


def cmd_vecm(args) -> int:
    _, _, logs = _load_log_panel(args)
    model = estimate_vecm(logs, _parse_vars(args.vars), k=args.lags, r=args.rank,
                          case=args.case)
    equation = normalize_cointegrating_equation(model) if args.rank == 1 else None
    moduli, unit_count, stable = stability_check(model)
    body = {
        "agency": args.agency,
        "model": model,
        "equation": equation,
        "stability": {"moduli": list(moduli), "unit_root_count": unit_count, "stable": stable},
    }
    text = (
        render_model_table(model, equation, agency=args.agency)
        if equation is not None
        else f"estimated rank-{args.rank} model over {model.vars} (no single equation)\n"
    )
    return _emit(args, f"vecm_{args.agency}", body, text)


def _spec_report_payload(report):
    return {
        "agency": report.agency_id,
        "case": report.case,
        "specs": [
            {
                "subset": list(s.subset),
                "k": s.k,
                "criteria": s.criteria,
                "model": s.model,
                "equation": s.equation,
            }
            for s in report.specs
        ],
        "rejected": [
            {"subset": list(r.subset), "k": r.k, "reason": r.reason}
            for r in report.rejected
        ],
        "correlation_row": report.correlation_row,
    }


def _spec_report_text(report) -> str:
    parts = []
    for i, s in enumerate(report.specs):
        parts.append(render_model_table(s.model, s.equation, spec_id=i + 1,
                                        agency=report.agency_id))
        parts.append("\n")
    parts.append(render_correlation_table(report))
    return "".join(parts)


def cmd_specsearch(args) -> int:
    _, _, logs = _load_log_panel(args)
    report = run_specification_search(
        logs, min_size=args.min_size, k_candidates=tuple(args.k_candidates), case=args.case
    )
    return _emit(args, f"specsearch_{args.agency}", _spec_report_payload(report),
                 _spec_report_text(report))


def cmd_pipeline(args) -> int:
    """ingest -> repair -> log -> ADF -> lag selection -> spec search -> table."""
    stages: dict[str, object] = {}
    # an input that cannot be read fails in the ingest stage, whose failure
    # artifact then carries a manifest without its digest
    manifest = make_manifest("pipeline")
    body = {"agency": args.agency, "stages": stages}
    stage = "ingest"
    try:
        manifest = make_manifest("pipeline", input_paths={"panel": args.input})
        panel = load_panel(args.input, args.agency)
        stages["ingest"] = {
            "years": [int(y) for y in panel.years],
            "missing_cells": [list(c) for c in panel.missing_cells()],
        }
        stage = "interpolate"
        repaired = interpolate_missing(panel)
        stage = "log-transform"
        logs = to_log_levels(repaired)
        stage = "adf"
        lags = default_adf_lags(logs.n_years)
        adf = {name: adf_test(logs.series[name], lags=lags) for name in VARIABLES}
        stages["adf"] = adf
        stage = "lag-selection"
        kmax = min(args.kmax, max_feasible_lag(logs.n_years, len(VARIABLES)))
        lag_table = select_lag(logs, VARIABLES, k_max=kmax)
        stages["lag_selection"] = lag_table
        stage = "specification-search"
        report = run_specification_search(
            logs, min_size=args.min_size, k_candidates=tuple(args.k_candidates),
            case=args.case,
        )
        stages["specification_search"] = _spec_report_payload(report)
    except VelakitError as exc:
        payload = {"manifest": manifest, **body, "failed_stage": stage,
                   "error": f"{type(exc).__name__}: {exc}"}
        sys.stderr.write(f"pipeline failed at stage {stage}: {exc}\n")
        if args.out_dir:
            _write_file(_make_out_dir(args) / f"pipeline_{args.agency}.json", dump_json(payload))
        raise

    text = "".join(
        [
            render_adf_table(adf),
            "\n",
            render_lag_table(lag_table),
            "\n",
            _spec_report_text(report),
        ]
    )
    return _emit(args, f"pipeline_{args.agency}", body, text, manifest)


def cmd_mission(args) -> int:
    from .mission import allocate, load_config

    config_path = Path(args.config) if args.config else SAMPLE_CONFIG
    config = load_config(config_path)
    command = "mission"
    if args.horizon_years is not None:
        config = dataclasses.replace(config, horizon_years=args.horizon_years)
        command = f"mission --horizon-years {args.horizon_years}"
    plan = allocate(config)
    return _emit(args, "mission", {"plan": plan}, render_mission_plan(plan),
                 make_manifest(command, config_digest=file_digest(config_path)))


def cmd_mc_validate(args) -> int:
    from .synthetic import monte_carlo_critical_values, run_recovery_study, study_spec

    if args.dump_reps and not args.out_dir:
        raise ValidationError("--dump-reps writes its CSV to --out-dir; give --out-dir")
    seeds = (args.seed,)
    if args.study == "cv":
        p_minus_r = 1 if args.p_minus_r is None else args.p_minus_r
        result = monte_carlo_critical_values(
            p_minus_r=p_minus_r, case=args.case, reps=args.reps, T=args.T,
            seed=args.seed, keep_statistics=bool(args.dump_reps),
        )
        text = (
            f"trace critical values (p-r={p_minus_r}, case {args.case}, "
            f"reps={args.reps}, T={args.T}):\n"
            + "".join(
                f"  {k}: {v:.3f} (bootstrap se {result.bootstrap_se[k]:.3f})\n"
                for k, v in result.percentiles.items()
            )
        )
        stats = result.statistics
        result = dataclasses.replace(result, statistics=None)
        body = {"critical_value_study": result}
    else:
        if args.p_minus_r is not None:
            raise ValidationError("--p-minus-r applies to the cv study only; the recovery "
                                  "study simulates a fixed p=3, r=1 system")
        spec = study_spec(T=args.T, seed=args.seed)
        study = run_recovery_study(spec, reps=args.reps, case=args.case)
        keep = study if args.dump_reps else dataclasses.replace(study, per_rep=())
        text = (
            f"recovery study (p=3, r=1, reps={args.reps}, T={args.T}):\n"
            f"  rank accuracy: {study.rank_accuracy:.3f}\n"
            f"  median beta angle: {study.beta_angle_median_deg:.3f} deg\n"
            f"  alpha rmse: {study.alpha_rmse:.4f}\n"
        )
        stats = None
        body = {"recovery_study": keep}

    csv = None
    if args.dump_reps:
        if stats is not None:
            rows = ["rep,trace_r0\n"]
            rows += [f"{i},{float(v)!r}\n" for i, v in enumerate(stats)]
        else:
            rows = ["rep,selected_rank,beta_angle_deg,trace_r0\n"]
            rows += [f"{row['rep']},{row['selected_rank']},"
                     f"{float(row['beta_angle_deg'])!r},{float(row['trace_r0'])!r}\n"
                     for row in study.per_rep]
        csv = (f"mcvalidate_{args.study}_reps.csv", "".join(rows))
    return _emit(args, f"mcvalidate_{args.study}", body, text,
                 make_manifest(f"mc-validate/{args.study}", seeds=seeds), csv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="velakit",
        description="Space-agency budget econometrics and mission cost sharing.",
    )
    parser.add_argument("--version", action="version", version=f"velakit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_panel=True):
        if needs_panel:
            p.add_argument("--input", required=True, help="panel CSV path")
            p.add_argument("--agency", required=True, help="agency id to filter on")
        p.add_argument("--out-dir", default=None, help="directory for JSON/text artifacts")
        p.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("ingest", help="load, validate and repair a panel")
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("adf", help="unit-root tests on the log panel")
    add_common(p)
    p.add_argument("--vars", default=None, help="comma-separated subset (default all)")
    p.add_argument("--lags", type=int, default=None, help="ADF lag order (default Schwert rule)")
    p.add_argument("--trend", action="store_true", help="include a linear trend")
    p.set_defaults(func=cmd_adf)

    p = sub.add_parser("lagselect", help="information-criteria lag selection")
    add_common(p)
    p.add_argument("--vars", default=None)
    p.add_argument("--kmax", type=int, default=4)
    p.set_defaults(func=cmd_lagselect)

    p = sub.add_parser("vecrank", help="cointegration rank test")
    add_common(p)
    p.add_argument("--vars", default=None)
    p.add_argument("--lags", type=int, default=2)
    p.add_argument("--case", choices=CASES, default=RESTRICTED_CONSTANT)
    p.set_defaults(func=cmd_vecrank)

    p = sub.add_parser("vecm", help="estimate the error-correction model")
    add_common(p)
    p.add_argument("--vars", default=None)
    p.add_argument("--lags", type=int, default=2)
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--case", choices=CASES, default=RESTRICTED_CONSTANT)
    p.set_defaults(func=cmd_vecm)

    p = sub.add_parser("specsearch", help="fit all admissible specifications")
    add_common(p)
    p.add_argument("--min-size", type=int, default=4)
    p.add_argument("--k-candidates", type=int, nargs="+", default=[1, 2])
    p.add_argument("--case", choices=CASES, default=RESTRICTED_CONSTANT)
    p.set_defaults(func=cmd_specsearch)

    p = sub.add_parser("pipeline", help="full analysis: ingest through correlation table")
    add_common(p)
    p.add_argument("--min-size", type=int, default=4)
    p.add_argument("--k-candidates", type=int, nargs="+", default=[1, 2])
    p.add_argument("--kmax", type=int, default=4,
                   help="lag-selection cap; shortened automatically if the sample is small")
    p.add_argument("--case", choices=CASES, default=RESTRICTED_CONSTANT)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("mission", help="mission cost-sharing plan")
    add_common(p, needs_panel=False)
    p.add_argument("--config", default=None,
                   help="mission config JSON (default: bundled sample)")
    p.add_argument("--horizon-years", type=int, default=None)
    p.set_defaults(func=cmd_mission)

    p = sub.add_parser("mc-validate", help="Monte Carlo validation studies")
    add_common(p, needs_panel=False)
    p.add_argument("--study", choices=("cv", "recovery"), default="cv")
    p.add_argument("--p-minus-r", type=int, default=None,
                   help="cv study only: the dimension p - r (default 1)")
    p.add_argument("--case", choices=CASES, default=RESTRICTED_CONSTANT)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--T", type=int, dest="T", default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump-reps", action="store_true",
                   help="also write per-replication statistics as CSV to --out-dir")
    p.set_defaults(func=cmd_mc_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoAdmissibleSpecError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_SPEC
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericalError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL
    except Exception as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

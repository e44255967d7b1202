"""Statistical analysis: summaries, one-sided Welch tests, bootstrap ratio CIs.

The Student-t upper tail is computed from the regularized incomplete beta
function, evaluated with a modified Lentz continued fraction (accurate to
about 1e-14); no external stats library is involved, so tests can check it
against an independent reference.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InsufficientDataError, ReportError
from .metrics import TrialSummary
from .numerics import RngStream

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 500
CI_LEVEL = 0.95  # of `bootstrap_ratio_ci`'s intervals, as `format_report` prints them


@dataclass
class Summary:
    n: int
    mean: float
    std: float  # sample standard deviation (ddof=1)
    std_error: float  # std / sqrt(n)


@dataclass
class TestResult:
    t_stat: float
    dof: float
    p_one_sided: float


def summarize(values) -> Summary:
    """Mean plus both dispersion readings (sample std and standard error)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise InsufficientDataError(f"need at least 2 samples, got {v.size}")
    mean = float(v.mean())
    std = float(v.std(ddof=1))
    return Summary(n=v.size, mean=mean, std=std, std_error=std / math.sqrt(v.size))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not 0.0 <= x <= 1.0:
        raise ConfigurationError(f"x={x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """P(T > t) for Student's t with `dof` degrees of freedom."""
    if dof <= 0:
        raise ConfigurationError(f"dof must be positive, got {dof}")
    x = dof / (dof + t * t)
    p = 0.5 * betainc_regularized(0.5 * dof, 0.5, x)
    return p if t >= 0 else 1.0 - p


def welch_one_sided(a, b) -> TestResult:
    """Welch's t-test of mean(a) > mean(b), Welch-Satterthwaite dof."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise InsufficientDataError("welch test needs >= 2 samples per group")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    na, nb = a.size, b.size
    se2 = va / na + vb / nb
    if se2 == 0.0:
        raise InsufficientDataError("both samples have zero variance; test undefined")
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    dof = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return TestResult(t_stat=float(t), dof=float(dof), p_one_sided=student_t_sf(t, dof))


def bootstrap_ratio_ci(
    num,
    den,
    rng: RngStream,
    resamples: int = 10000,
) -> tuple[float, float]:
    """`CI_LEVEL` percentile CI for mean(num)/mean(den) from paired independent
    resamples."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    if np.any(den <= 0):
        raise ConfigurationError("denominator samples must be positive")
    gen = rng.child("bootstrap").gen
    idx_num = gen.integers(0, num.size, size=(resamples, num.size))
    idx_den = gen.integers(0, den.size, size=(resamples, den.size))
    ratios = num[idx_num].mean(axis=1) / den[idx_den].mean(axis=1)
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(ratios, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# report generation (Tables 2-4 style)

BASELINE = "mlp"  # Table 3 tests the Spline-KAN against it; Table 4 divides every time by it


@dataclass
class Report:
    accuracy_rows: list[dict]  # round x model mean/std/std_error
    comparison_rows: list[dict]  # spline-vs-mlp differences and p-values
    time_rows: list[dict]  # per-model mean time and ratio CI vs MLP


def _acc_at_round(trials: list[TrialSummary], rnd: int) -> list[float]:
    return [t.records[rnd - 1].test_acc for t in trials]


def report_tables(groups: dict[str, list[TrialSummary]], rng: RngStream) -> Report:
    """Build the three result tables from grouped trial logs."""
    if not groups:
        raise ReportError("no trial groups to report on")
    for kind, trials in groups.items():
        if len(trials) < 2:
            raise ReportError(f"model group {kind!r} has fewer than 2 trials")
    n_rounds = min(len(t.records) for trials in groups.values() for t in trials)
    report_rounds = [r for r in range(10, n_rounds + 1, 10)] or [n_rounds]
    models = sorted(groups)

    accuracy_rows = []
    for rnd in report_rounds:
        row = {"round": rnd}
        for kind in models:
            s = summarize(_acc_at_round(groups[kind], rnd))
            row[f"{kind}_mean"] = s.mean
            row[f"{kind}_std"] = s.std
            row[f"{kind}_std_error"] = s.std_error
        accuracy_rows.append(row)

    comparison_rows = []
    if "spline_kan" in groups and BASELINE in groups:
        for rnd in report_rounds:
            a = _acc_at_round(groups["spline_kan"], rnd)
            b = _acc_at_round(groups[BASELINE], rnd)
            res = welch_one_sided(a, b)
            comparison_rows.append(
                {
                    "round": rnd,
                    "diff": float(np.mean(a) - np.mean(b)),
                    "t_stat": res.t_stat,
                    "dof": res.dof,
                    "p_one_sided": res.p_one_sided,
                }
            )

    time_rows = []
    if BASELINE in groups:
        base_times = [t.total_time_s for t in groups[BASELINE]]
        for kind in models:
            times = [t.total_time_s for t in groups[kind]]
            s = summarize(times)
            if kind == BASELINE:
                lo, hi = 1.0, 1.0
            else:
                lo, hi = bootstrap_ratio_ci(times, base_times, rng.child("ratio", kind))
            time_rows.append(
                {
                    "model": kind,
                    "mean_time_s": s.mean,
                    "std_error": s.std_error,
                    "ratio_lo": lo,
                    "ratio_hi": hi,
                }
            )

    return Report(accuracy_rows, comparison_rows, time_rows)


def write_report_csv(report: Report, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def dump(rows, name):
        if not rows:
            return
        with open(out / name, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)

    dump(report.accuracy_rows, "accuracy_by_round.csv")
    dump(report.comparison_rows, "spline_vs_mlp.csv")
    dump(report.time_rows, "execution_time.csv")


def format_report(report: Report) -> str:
    """Aligned plain-text rendering of the three tables."""
    lines = []
    if report.accuracy_rows:
        models = sorted(
            k[: -len("_mean")] for k in report.accuracy_rows[0] if k.endswith("_mean")
        )
        lines.append("Test accuracy by round (mean +- std error):")
        header = f"{'round':>6}" + "".join(f"{m:>22}" for m in models)
        lines.append(header)
        for row in report.accuracy_rows:
            cells = "".join(
                f"{row[m + '_mean']:>12.3f} +- {row[m + '_std_error']:<6.3f}"
                for m in models
            )
            lines.append(f"{row['round']:>6}" + cells)
        lines.append("")
    if report.comparison_rows:
        lines.append("Spline-KAN vs MLP accuracy (one-sided Welch test):")
        lines.append(f"{'round':>6}{'diff':>10}{'t':>10}{'dof':>10}{'p':>12}")
        for row in report.comparison_rows:
            lines.append(
                f"{row['round']:>6}{row['diff']:>10.3f}{row['t_stat']:>10.3f}"
                f"{row['dof']:>10.2f}{row['p_one_sided']:>12.4g}"
            )
        lines.append("")
    if report.time_rows:
        lines.append(f"Execution time (ratio vs MLP, {CI_LEVEL:.0%} bootstrap CI):")
        lines.append(f"{'model':>12}{'mean s':>12}{'std err':>10}{'ratio':>18}")
        for row in report.time_rows:
            ratio = f"{row['ratio_lo']:.2f}x - {row['ratio_hi']:.2f}x"
            if row["ratio_lo"] == row["ratio_hi"]:
                ratio = f"{row['ratio_lo']:.2f}x"
            lines.append(
                f"{row['model']:>12}{row['mean_time_s']:>12.1f}"
                f"{row['std_error']:>10.1f}{ratio:>18}"
            )
    return "\n".join(lines) + "\n"

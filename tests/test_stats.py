import numpy as np
import pytest
from scipy import special as spsp
from scipy import stats as sps

from kanfed.errors import ConfigurationError, InsufficientDataError, ReportError
from kanfed.metrics import RoundRecord, TrialSummary
from kanfed.numerics import RngStream
from kanfed.stats import (
    betainc_regularized,
    bootstrap_ratio_ci,
    format_report,
    report_tables,
    student_t_sf,
    summarize,
    welch_one_sided,
    write_report_csv,
)


class TestSummarize:
    def test_constant(self):
        s = summarize([1.0, 1.0, 1.0, 1.0])
        assert s.mean == 1.0 and s.std == 0.0 and s.std_error == 0.0

    def test_two_values(self):
        assert summarize([0.0, 1.0]).mean == 0.5

    def test_against_two_pass_oracle(self):
        v = RngStream(1).gen.uniform(-5, 5, 37)
        s = summarize(v)
        mean = sum(v) / len(v)
        var = sum((x - mean) ** 2 for x in v) / (len(v) - 1)
        assert abs(s.mean - mean) < 1e-12
        assert abs(s.std - var**0.5) < 1e-12
        assert abs(s.std_error - var**0.5 / len(v) ** 0.5) < 1e-12

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            summarize([1.0])


class TestStudentT:
    def test_incomplete_beta_against_scipy(self):
        gen = RngStream(2).gen
        for _ in range(50):
            a = gen.uniform(0.5, 20)
            b = gen.uniform(0.5, 20)
            x = gen.uniform(0, 1)
            assert abs(betainc_regularized(a, b, x) - spsp.betainc(a, b, x)) < 1e-12

    def test_sf_against_scipy(self):
        gen = RngStream(3).gen
        for _ in range(50):
            t = gen.uniform(-8, 8)
            dof = gen.uniform(1, 40)
            assert abs(student_t_sf(t, dof) - sps.t.sf(t, dof)) < 1e-12

    def test_zero_is_half(self):
        assert student_t_sf(0.0, 7.3) == 0.5


class TestWelch:
    def test_identical_samples(self):
        a = [2.1, 2.5, 2.3]
        res = welch_one_sided(a, list(a))
        assert res.t_stat == 0.0
        assert abs(res.p_one_sided - 0.5) < 1e-12

    def test_extreme_separation(self):
        b = [1.9, 2.0, 2.1, 2.05]
        a = [x + 1000 for x in b]
        assert welch_one_sided(a, b).p_one_sided < 1e-6

    def test_fixed_vectors_against_reference(self):
        a = [2.1, 2.5, 2.3, 2.2]
        b = [1.9, 2.0, 2.1]
        res = welch_one_sided(a, b)
        t_ref, p_ref = sps.ttest_ind(a, b, equal_var=False, alternative="greater")
        # Welch-Satterthwaite dof, computed independently
        va, vb = np.var(a, ddof=1) / 4, np.var(b, ddof=1) / 3
        dof_ref = (va + vb) ** 2 / (va**2 / 3 + vb**2 / 2)
        assert abs(res.t_stat - t_ref) < 1e-9
        assert abs(res.p_one_sided - p_ref) < 1e-9
        assert abs(res.dof - dof_ref) < 1e-9

    def test_twenty_random_pairs_against_reference(self):
        gen = RngStream(4).gen
        for _ in range(20):
            a = gen.normal(gen.uniform(-1, 1), gen.uniform(0.5, 2), 15)
            b = gen.normal(gen.uniform(-1, 1), gen.uniform(0.5, 2), 15)
            res = welch_one_sided(a, b)
            t_ref, p_ref = sps.ttest_ind(a, b, equal_var=False, alternative="greater")
            assert abs(res.t_stat - t_ref) < 1e-9
            assert abs(res.p_one_sided - p_ref) < 1e-9

    def test_symmetry_complement(self):
        gen = RngStream(5).gen
        a = gen.normal(0, 1, 15)
        b = gen.normal(0.3, 2, 12)
        p1 = welch_one_sided(a, b).p_one_sided
        p2 = welch_one_sided(b, a).p_one_sided
        assert abs(p1 + p2 - 1.0) < 1e-12

    def test_monotone_in_mean_difference(self):
        gen = RngStream(6).gen
        b = gen.normal(0, 1, 15)
        a = gen.normal(0, 1, 15)
        ps = [welch_one_sided(a + shift, b).p_one_sided for shift in (0.0, 0.5, 1.0, 2.0)]
        assert all(x > y for x, y in zip(ps, ps[1:]))

    def test_zero_variance_undefined(self):
        with pytest.raises(InsufficientDataError):
            welch_one_sided([1.0, 1.0], [1.0, 1.0])


class TestBootstrap:
    # equal constants, reproducibility, coverage: tests/test_acceptance.py criterion 8
    def test_scaled_constants(self):
        ci = bootstrap_ratio_ci([4.0] * 15, [2.0] * 15, RngStream(8))
        assert ci == (2.0, 2.0)

    def test_matches_loop_oracle_with_same_stream(self):
        gen = RngStream(11).gen
        num = gen.normal(10, 1, 15)
        den = gen.normal(5, 0.5, 15)
        resamples = 500
        lo, hi = bootstrap_ratio_ci(num, den, RngStream(12), resamples=resamples)
        # second implementation: same index stream, explicit per-resample loop
        g2 = RngStream(12).child("bootstrap").gen
        idx_num = g2.integers(0, 15, size=(resamples, 15))
        idx_den = g2.integers(0, 15, size=(resamples, 15))
        ratios = []
        for r in range(resamples):
            mn = sum(num[i] for i in idx_num[r]) / 15
            md = sum(den[i] for i in idx_den[r]) / 15
            ratios.append(mn / md)
        lo2, hi2 = np.quantile(ratios, [0.025, 0.975])
        assert abs(lo - lo2) < 1e-12 and abs(hi - hi2) < 1e-12

    def test_point_estimate_inside_ci(self):
        gen = RngStream(13).gen
        num = gen.normal(10, 1, 15)
        den = gen.normal(5, 0.5, 15)
        lo, hi = bootstrap_ratio_ci(num, den, RngStream(14))
        point = num.mean() / den.mean()
        assert lo <= point <= hi

    def test_nonpositive_denominator(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ratio_ci([1.0] * 15, [1.0] * 14 + [0.0], RngStream(15))


def _trial(model, seed, accs, total_time):
    records = [
        RoundRecord(round=r, test_acc=a, test_loss=1.0, train_acc=a, train_loss=1.0,
                    elapsed_s=0.0, sampled_clients=[])
        for r, a in enumerate(accs, start=1)
    ]
    return TrialSummary(f"{model}:{seed}", model, seed, records, total_time)


class TestReportTables:
    def _groups(self):
        gen = RngStream(16).gen
        groups = {}
        for model, base, t in [("mlp", 0.3, 100.0), ("spline_kan", 0.6, 130.0), ("rbf_kan", 0.15, 105.0)]:
            groups[model] = [
                _trial(model, s, list(base + gen.uniform(-0.05, 0.05, 20)), t + float(gen.uniform(-5, 5)))
                for s in range(5)
            ]
        return groups

    def test_tables_shape_and_consistency(self):
        rep = report_tables(self._groups(), rng=RngStream(17))
        assert [row["round"] for row in rep.accuracy_rows] == [10, 20]
        for row in rep.comparison_rows:
            acc = next(r for r in rep.accuracy_rows if r["round"] == row["round"])
            assert abs(row["diff"] - (acc["spline_kan_mean"] - acc["mlp_mean"])) < 1e-12
        mlp_row = next(r for r in rep.time_rows if r["model"] == "mlp")
        assert mlp_row["ratio_lo"] == 1.0 and mlp_row["ratio_hi"] == 1.0

    def test_known_two_model_fixture(self):
        groups = {
            "mlp": [_trial("mlp", 0, [0.2] * 10, 100.0), _trial("mlp", 1, [0.4] * 10, 100.0)],
            "spline_kan": [
                _trial("spline_kan", 0, [0.5] * 10, 200.0),
                _trial("spline_kan", 1, [0.7] * 10, 200.0),
            ],
        }
        rep = report_tables(groups, rng=RngStream(18))
        row = rep.accuracy_rows[0]
        assert row["round"] == 10
        assert abs(row["mlp_mean"] - 0.3) < 1e-12
        assert abs(row["spline_kan_mean"] - 0.6) < 1e-12
        assert abs(rep.comparison_rows[0]["diff"] - 0.3) < 1e-12
        # constant times: ratio CI collapses to the exact ratio
        sp = next(r for r in rep.time_rows if r["model"] == "spline_kan")
        assert sp["ratio_lo"] == 2.0 and sp["ratio_hi"] == 2.0

    def test_missing_group_rejected(self):
        with pytest.raises(ReportError):
            report_tables({"mlp": [_trial("mlp", 0, [0.1] * 10, 1.0)]}, rng=RngStream(19))

    def test_writers(self, tmp_path):
        rep = report_tables(self._groups(), rng=RngStream(20))
        write_report_csv(rep, tmp_path)
        assert (tmp_path / "accuracy_by_round.csv").exists()
        assert (tmp_path / "spline_vs_mlp.csv").exists()
        assert (tmp_path / "execution_time.csv").exists()
        text = format_report(rep)
        assert "Execution time" in text and "1.00x" in text

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

import causalboot as cb
from causalboot import rng as cbrng
from causalboot import simulation
from causalboot.errors import ConfigError, EstimationError
from causalboot.simulation import (
    ZIP_COLUMNS,
    RelErrTrajectory,
    benchmark_timing,
    generate_dgm,
    generate_wide_dgm,
    oracle_interval,
    relative_error,
    run_relerr_harness,
    run_replications,
)

from oracles import COV_X1_W_ORACLE


def replay_dgm(n, key, p=2, randomized=False):
    """The generating process written out longhand on the same substream:
    covariates, assignment uniforms, then noise.  Returns (y, w, x)."""
    stream = cbrng.substream(*key)
    x = stream.standard_normal((n, p))
    u = stream.random(n)
    eps = stream.standard_normal(n)
    pi = 0.5 if randomized else expit(x @ np.full(p, -0.5 * np.sqrt(2.0 / p)))
    w = (u < pi).astype(np.int64)
    y = x.sum(axis=1) + eps + np.where(w == 1, 2.0, 0.0)
    return y, w, x


class TestGenerateDgm:
    def test_unit_effect_is_exactly_two(self):
        key = (1, cbrng.DOMAIN_DATASET, 0)
        table = generate_dgm(500, cbrng.substream(*key))
        y, w, x = replay_dgm(500, key)
        np.testing.assert_array_equal(table.x, x)
        np.testing.assert_array_equal(table.w, w)
        # y0 + 2 on treated rows and y0 elsewhere, both exactly
        np.testing.assert_array_equal(table.y, y)
        assert 0 < table.n1 < 500

    @pytest.mark.parametrize("p,randomized", [(2, False), (5, False), (2, True)])
    def test_table_is_8_bytes_a_value_and_1_a_treatment(self, p, randomized, table_bytes):
        # float64 y and x, and a one-byte treatment column
        table = generate_dgm(300, cbrng.substream(6, cbrng.DOMAIN_DATASET, 0), p=p,
                             randomized=randomized)
        assert table.w.dtype == np.int8
        assert table_bytes(table) == 300 * (8 * (p + 1) + 1)

    def test_replay_with_more_confounders(self):
        key = (8, cbrng.DOMAIN_DATASET, 0)
        table = generate_dgm(400, cbrng.substream(*key), p=5)
        for got, want in zip((table.y, table.w, table.x), replay_dgm(400, key, p=5)):
            np.testing.assert_array_equal(got, want)

    def test_traced_peak_is_at_most_1_75_tables(self, traced, table_bytes):
        n = 200_000
        table, peak = traced(
            lambda: generate_dgm(n, cbrng.substream(7, cbrng.DOMAIN_DATASET, 0), p=2)
        )
        assert peak <= 1.75 * table_bytes(table)

    def test_marginal_treated_fraction(self):
        # E(pi) = 0.5 by symmetry; 5 sigma binomial band at n=100000
        table = generate_dgm(100000, cbrng.substream(3, cbrng.DOMAIN_DATASET, 0))
        frac = table.n1 / table.n
        assert abs(frac - 0.5) < 5 * 0.5 / np.sqrt(100000)

    def test_covariate_treatment_covariance_matches_oracle(self):
        # frozen 1e7-draw oracle for Cov(X1, W); sample sd of the
        # empirical covariance at n=100000 is about 0.67/sqrt(n)
        table = generate_dgm(100000, cbrng.substream(4, cbrng.DOMAIN_DATASET, 0))
        x1 = table.x[:, 0]
        w = table.w
        cov = float(np.mean(x1 * w) - x1.mean() * w.mean())
        assert cov < 0
        assert abs(cov - COV_X1_W_ORACLE) < 5 * 0.67 / np.sqrt(100000)

    def test_deterministic_given_stream_key(self):
        a = generate_dgm(100, cbrng.substream(9, cbrng.DOMAIN_DATASET, 5))
        b = generate_dgm(100, cbrng.substream(9, cbrng.DOMAIN_DATASET, 5))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.w, b.w)

    def test_randomized_variant_has_flat_propensity(self):
        key = (5, cbrng.DOMAIN_DATASET, 0)
        table = generate_dgm(50000, cbrng.substream(*key), randomized=True)
        y, w, x = replay_dgm(50000, key, randomized=True)
        np.testing.assert_array_equal(table.w, w)
        np.testing.assert_array_equal(table.y, y)

    def test_wide_generator_shapes(self):
        table = generate_wide_dgm(300, 7, cbrng.substream(6, cbrng.DOMAIN_BENCH, 0))
        assert table.x.shape == (300, 7)
        assert 0 < table.n1 < 300
        # the same process: its bytes are generate_dgm's with p=7
        same = generate_dgm(300, cbrng.substream(6, cbrng.DOMAIN_BENCH, 0), 7)
        for a, b in ((table.y, same.y), (table.w, same.w), (table.x, same.x)):
            assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def summary():
    cfg = cb.BlbConfig(gamma=0.7, subsets=4, replicates=60, seed=101)
    return run_replications(20, 1500, cfg)


class TestRunReplications:
    def test_small_bias(self, summary):
        assert abs(summary.bias) < 0.15

    def test_coverage_mcse_matches_binomial_formula(self, summary):
        c, R = summary.coverage, summary.replications
        assert summary.coverage_mcse == pytest.approx(np.sqrt(c * (1 - c) / R))

    def test_zip_rows_are_complete(self, summary):
        rows = [dict(zip(ZIP_COLUMNS, row, strict=True)) for row in summary.zip_rows()]
        assert len(rows) == 20
        ranks = sorted(r["centile_rank"] for r in rows)
        np.testing.assert_allclose(ranks, (np.arange(20) + 0.5) / 20)
        assert all(r["covered"] in (0, 1) for r in rows)
        assert all(r["lower"] <= r["upper"] for r in rows)

    def test_thread_schedule_invariance(self):
        cfg = cb.BlbConfig(gamma=0.7, subsets=3, replicates=40, seed=55)
        one = run_replications(12, 800, dataclasses.replace(cfg, threads=1))
        two = run_replications(12, 800, dataclasses.replace(cfg, threads=4))
        assert [r.tau_hat for r in one.records] == [r.tau_hat for r in two.records]
        assert one.coverage == two.coverage

    def test_root_seed_is_the_configs(self):
        cfg = cb.BlbConfig(gamma=0.7, subsets=2, replicates=20, seed=55)

        def records(config):
            return [(r.tau_hat, r.se, r.lower, r.upper)
                    for r in run_replications(10, 600, config).records]

        first = records(cfg)
        assert records(cfg) == first
        assert records(dataclasses.replace(cfg, seed=56)) != first

    def test_minimum_replication_count(self):
        cfg = cb.BlbConfig(gamma=0.7, subsets=2, replicates=10, seed=0)
        with pytest.raises(ConfigError):
            run_replications(5, 500, cfg)

    def test_external_scores_refused_before_any_dataset(self, tmp_path, monkeypatch):
        # one scores file cannot describe datasets drawn afresh each replication
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n" * 500, encoding="utf-8")
        cfg = cb.BlbConfig(gamma=0.7, subsets=2, replicates=20, estimator="external",
                           external_scores=str(scores))
        monkeypatch.setattr(simulation, "generate_dgm", pytest.fail)
        with pytest.raises(ConfigError, match="^estimator must not be 'external'"):
            run_replications(10, 500, cfg)

    def test_marginal_estimator_unbiased_on_randomized_data(self):
        # the marginal-rate estimator targets experiments; on randomized
        # assignment its replication mean stays near the truth
        cfg = cb.BlbConfig(gamma=0.8, subsets=4, replicates=60, seed=202, estimator="marginal")
        summary = run_replications(30, 2000, cfg, randomized=True)
        assert abs(summary.bias) <= 4 * summary.mcse_mean + 0.02


class TestRelativeError:
    def test_identical_intervals_give_zero(self):
        assert relative_error((1.8, 2.2), (1.8, 2.2)) == 0.0

    def test_worked_example(self):
        assert relative_error((1.0, 3.0), (1.1, 2.7)) == pytest.approx(0.1)

    def test_linear_in_deviations(self):
        base = relative_error((1.0, 3.0), (1.1, 2.7))
        doubled = relative_error((1.0, 3.0), (1.2, 2.4))
        assert doubled == pytest.approx(2 * base)

    def test_zero_oracle_bound_rejected(self):
        with pytest.raises(EstimationError):
            relative_error((0.0, 2.0), (0.1, 1.9))

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(0.5, 3.0, size=2))
            c, d = sorted(rng.uniform(0.5, 3.0, size=2))
            assert relative_error((a, b), (c, d)) >= 0.0


@pytest.fixture(scope="module")
def trajectories():
    return run_relerr_harness(
        n=1200, gammas=[0.5, 0.9], r=50, oracle_reps=100, data_reps=2,
        seed=7, s_max=3,
    )


class TestRelErrHarness:
    def test_one_trajectory_per_gamma(self, trajectories):
        assert [t.gamma for t in trajectories] == [0.5, 0.9]

    def test_indexed_by_successive_subsets(self, trajectories):
        for t in trajectories:
            assert t.subset_counts == [1, 2, 3]
            assert len(t.err) == 3
            assert all(e >= 0 for e in t.err)

    def test_cumulative_time_is_nondecreasing(self, trajectories):
        for t in trajectories:
            assert t.cum_seconds == sorted(t.cum_seconds)

    def test_shared_oracle_interval(self, trajectories):
        assert trajectories[0].oracle_ci == trajectories[1].oracle_ci
        lo, up = trajectories[0].oracle_ci
        assert 1.5 < lo < 2.0 < up < 2.5

    def test_configs_validated_before_oracle(self, monkeypatch):
        def oracle_not_reached(*args, **kwargs):
            raise AssertionError("oracle interval computed before validation")

        monkeypatch.setattr(simulation, "oracle_interval", oracle_not_reached)
        args = dict(n=800, oracle_reps=100, data_reps=1, seed=0)
        with pytest.raises(ConfigError):
            run_relerr_harness(gammas=[0.5, 1.5], r=40, **args)
        with pytest.raises(ConfigError):
            run_relerr_harness(gammas=[0.5], r=1, **args)


class TestOracleInterval:
    def test_brackets_truth_tightly(self):
        lo, up = oracle_interval(1500, 100, seed=99)
        assert lo < 2.0 < up
        assert up - lo < 1.0

    def test_minimum_reps(self):
        with pytest.raises(ConfigError):
            oracle_interval(500, 50, seed=0)


class TestBenchmarkTiming:
    def test_standard_mode_cells(self):
        cells = benchmark_timing([1000], ["logistic", "marginal"], [2, 4], ps=[2], reps=2, seed=0)
        assert len(cells) == 4
        for cell in cells:
            assert len(cell.seconds) == 2
            assert cell.median_seconds > 0
            assert cell.p == 2

    def test_grid_mode_times_fits_only(self):
        cells = benchmark_timing(
            [800], ["logistic"], [2, 4], ps=[2, 5], reps=2, seed=0, grid=True
        )
        assert {(c.p, c.s) for c in cells} == {(2, 2), (2, 4), (5, 2), (5, 4)}

    def test_reps_validated(self):
        with pytest.raises(ConfigError):
            benchmark_timing([1000], ["logistic"], [2], ps=[2], reps=0, seed=0)

    def test_subset_counts_validated(self):
        with pytest.raises(ConfigError):
            benchmark_timing([1000], ["logistic"], [2, 0], ps=[2], reps=1, seed=0)

"""Acceptance suite: the release gate, one test per criterion clause.

Each check prints a single ``[criterion N] PASS/FAIL`` line with the
measured numbers (visible with ``pytest -s`` and in failure reports) and
then asserts.  Stated runtime budgets are enforced alongside the
numeric tolerances.

Known-red clauses: 4a, 6b and 7 compare the Markov predictor against
the last-state persistence baseline (or the single-user run) on the
built-in lazy ground-truth chain, whose most likely next state is
always the current state.  Persistence is therefore the optimal
single-state predictor of that chain and a trained predictor can only
match it up to estimation noise; the measured gaps are printed by the
failing assertions.  See the repository notes for the full analysis.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import exhaustive_best_assignment

from specagg.aggregation import allocate_spectrum
from specagg.cli import parse_config, run_single, run_sweep
from specagg.markov import (
    TransitionMatrix,
    estimate_transition_matrix,
    parse_observations,
    stationary_distribution,
)
from specagg.radio import RadioParams
from specagg.simulation import (
    EpisodeConfig,
    NetworkScenario,
    Strategy,
    run_episode,
    run_strategies,
    score_episode,
    summarize,
)
from oracles import paired_one_sided_pvalue
from specagg.topology import (
    BandProcessSet,
    SpectrumProcessConfig,
    Topology,
    derive_ground_truth_matrix,
)

EXAMPLE_STRING = "00010210000112010001"
EXAMPLE_MATRIX = np.array(
    [[7 / 12, 4 / 12, 1 / 12], [3 / 5, 1 / 5, 1 / 5], [1 / 2, 1 / 2, 0.0]]
)

TABLE_DEFAULTS = NetworkScenario()  # 5 users, 20 relays, 100 bands, P0 = 0.4
ES_GRID_DB = (0.0, 10.0, 20.0, 30.0)


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return detail


def _es(es_db=10.0):
    """The linear Es/N0 of `es_db` dB."""
    return 10.0 ** (es_db / 10.0)


def _cell(scenario, config, strategies, es_grid_db=(10.0,)):
    """One `run_strategies` call: the metrics of each of `strategies`
    at each Es/N0 point of `es_grid_db` (dB)."""
    points = [_es(es_db) for es_db in es_grid_db]
    return run_strategies(scenario, config, RadioParams(), strategies, points)


def test_criterion_1_transition_matrix_exactness():
    """The worked 20-slot sequence estimates to its exact fractions, fast."""
    observed = parse_observations(EXAMPLE_STRING)[0]
    estimate_transition_matrix(observed)  # warm-up outside the timer
    elapsed = []
    for _ in range(5):
        start = time.perf_counter()
        matrix = estimate_transition_matrix(observed)
        elapsed.append(time.perf_counter() - start)
    exact = np.array_equal(matrix.probs, EXAMPLE_MATRIX)
    runtime_ms = min(elapsed) * 1e3
    detail = _report(1, exact and runtime_ms < 1.0,
                     f"exact={exact} runtime={runtime_ms:.4f}ms (budget 1ms)")
    assert exact, detail
    assert runtime_ms < 1.0, detail


def test_criterion_2_stationary_correctness():
    """1000 random irreducible chains solve within tolerance in under 1s."""
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    max_residual = 0.0
    max_sum_error = 0.0
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(3), size=3)
        matrix = TransitionMatrix(probs)
        pi = stationary_distribution(matrix)
        max_residual = max(max_residual, float(np.abs(pi @ probs - pi).max()))
        max_sum_error = max(max_sum_error, abs(float(pi.sum()) - 1.0))
    max_idle_error = 0.0
    for p0 in (0.2, 0.4, 0.6, 0.8):
        for pers in (0.0, 0.3, 0.6, 0.9):
            chain = derive_ground_truth_matrix(p0, pers, 0.75)
            pi = stationary_distribution(chain)
            max_idle_error = max(max_idle_error, abs(float(pi[0] + pi[1]) - p0))
    runtime = time.perf_counter() - start
    ok = (
        max_residual <= 1e-9
        and max_sum_error <= 1e-12
        and max_idle_error <= 1e-9
        and runtime < 1.0
    )
    detail = _report(
        2,
        ok,
        f"residual={max_residual:.2e} sum_err={max_sum_error:.2e} "
        f"idle_err={max_idle_error:.2e} runtime={runtime:.2f}s (budget 1s)",
    )
    assert ok, detail


def test_criterion_3_allocation_oracle_equivalence():
    """Greedy allocation equals exhaustive search on 500 random instances."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst_gap = 0.0
    for _ in range(500):
        n_bands = int(rng.integers(1, 7))
        n_relays = int(rng.integers(1, 5))
        n_users = int(rng.integers(1, 4))
        owner = rng.integers(-1, n_users, size=n_relays)
        common_user = rng.integers(-1, n_users, size=n_bands)
        bits = rng.integers(0, 2, size=(n_relays, n_bands)).astype(np.int8)
        snr = rng.uniform(0.1, 50.0, size=(n_bands, n_relays))
        _, band_snr = allocate_spectrum(common_user, owner, bits, snr)
        best, _ = exhaustive_best_assignment(common_user, owner, bits, snr)
        scale = max(best, 1.0)
        worst_gap = max(worst_gap, abs(band_snr.sum() - best) / scale)
    runtime = time.perf_counter() - start
    ok = worst_gap <= 1e-12 and runtime < 10.0
    detail = _report(
        3, ok, f"max_rel_gap={worst_gap:.2e} runtime={runtime:.2f}s (budget 10s)"
    )
    assert ok, detail


def test_criterion_4a_outage_trend_at_table_defaults():
    """Prediction should beat persistence on outage rate at the defaults."""
    start = time.perf_counter()
    config = EpisodeConfig(slots=100, episodes=100, n_train=20, seed=1001)
    # each episode's outage rate, the first summary row, of each strategy
    predicted, persisted = (
        summarize(metrics)[0, 0]
        for metrics in _cell(
            TABLE_DEFAULTS, config, [Strategy.PREDICT_AGGREGATE, Strategy.NO_PREDICTION]
        )
    )
    runtime = time.perf_counter() - start
    p_value = paired_one_sided_pvalue(persisted, predicted)
    ok = (
        predicted.mean() < persisted.mean()
        and p_value < 0.05
        and runtime < 120.0
    )
    detail = _report(
        "4a",
        ok,
        f"outage with prediction={predicted.mean():.4f} "
        f"without={persisted.mean():.4f} p={p_value:.3g} "
        f"runtime={runtime:.1f}s (budget 120s)",
    )
    assert ok, detail


def test_criterion_4b_period_two_chain_exact():
    """On the alternating chain: prediction outage 0, persistence outage 1."""
    start = time.perf_counter()
    period_two = TransitionMatrix(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    )

    def world(seed):
        topology = Topology(users=2, relays=4, coverage=np.ones((4, 2), dtype=bool))
        processes = BandProcessSet(
            SpectrumProcessConfig(band_count=16, ground_truth_matrix=period_two),
            np.random.SeedSequence(seed),
            max_slots=29,
        )
        return topology, processes

    config = EpisodeConfig(slots=30, episodes=1, n_train=4, seed=7)
    params = RadioParams()

    def scored(strategy):
        """The episode's allocations and outage rate (0 when nothing was allocated)."""
        topology, processes = world(7)
        (decided,) = run_episode(config, topology, processes, params, 0, (strategy,))
        allocated, outages, _, _ = score_episode(decided, [_es()], params)
        allocated, outages = int(allocated.sum()), int(outages.sum())
        return allocated, outages / allocated if allocated > 0 else 0.0

    _, predicted = scored(Strategy.PREDICT_AGGREGATE)
    allocated, persisted = scored(Strategy.NO_PREDICTION)
    runtime = time.perf_counter() - start
    ok = predicted == 0.0 and allocated > 0 and persisted == 1.0
    detail = _report(
        "4b",
        ok,
        f"prediction outage={predicted} persistence "
        f"outage={persisted} over {allocated} "
        f"allocations runtime={runtime:.1f}s",
    )
    assert ok, detail


def _count_inversions(series):
    return int(sum(1 for a, b in zip(series[:-1], series[1:]) if b < a))


def test_criterion_5_throughput_trends_and_dominance():
    """Mean throughput rises along P0, band and relay counts; aggregation
    dominates no-aggregation in every single run."""
    start = time.perf_counter()
    axes = {
        "p0": [
            replace(TABLE_DEFAULTS, p0=v) for v in (0.2, 0.4, 0.6)
        ],
        "band_count": [
            replace(TABLE_DEFAULTS, bands=v) for v in (50, 100, 150)
        ],
        "relay_count": [
            replace(TABLE_DEFAULTS, relays=v) for v in (10, 20, 30)
        ],
    }
    monotone_strategies = {
        "p0": (Strategy.PREDICT_AGGREGATE,),
        "band_count": (Strategy.PREDICT_AGGREGATE,),
        "relay_count": (Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION),
    }
    config = EpisodeConfig(slots=60, episodes=10, n_train=20, seed=1002)
    strategies = [Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION]

    bad_curves = []
    dominance_violations = 0
    for axis, scenarios in axes.items():
        # (strategy, Es/N0) -> per scenario, each episode's mean throughput
        cells = {}
        for scenario in scenarios:
            # one cell per scenario: both strategies over the whole Es/N0 grid
            runs = _cell(scenario, config, strategies, ES_GRID_DB)
            for strategy, metrics in zip(strategies, runs):
                for es_db, summary in zip(ES_GRID_DB, summarize(metrics)):
                    # the second summary row
                    cells.setdefault((strategy, es_db), []).append(summary[1])
        for es_db in ES_GRID_DB:
            for agg, trimmed in zip(
                cells[Strategy.PREDICT_AGGREGATE, es_db], cells[Strategy.NO_AGGREGATION, es_db]
            ):
                dominance_violations += int(np.any(agg < trimmed))
            for strategy in monotone_strategies[axis]:
                curve = [throughputs.mean() for throughputs in cells[strategy, es_db]]
                inversions = _count_inversions(curve)
                if inversions > 1:
                    bad_curves.append((axis, es_db, strategy.value, inversions))
    runtime = time.perf_counter() - start
    ok = not bad_curves and dominance_violations == 0 and runtime < 300.0
    detail = _report(
        5,
        ok,
        f"curves_with_excess_inversions={bad_curves} "
        f"dominance_violations={dominance_violations} "
        f"runtime={runtime:.1f}s (budget 300s)",
    )
    assert ok, detail


@pytest.fixture(scope="module")
def capacity_runs():
    """Per strategy, its summary rows: outage rates, throughputs, and each
    episode's least and greatest user capacity."""
    config = EpisodeConfig(slots=100, episodes=100, n_train=20, seed=1003)
    strategies = [Strategy.PREDICT_AGGREGATE, Strategy.NO_AGGREGATION, Strategy.SINGLE_USER]
    runs = _cell(TABLE_DEFAULTS, config, strategies)
    return {strategy: summarize(metrics)[0] for strategy, metrics in zip(strategies, runs)}


def test_criterion_6a_worst_aggregating_user_beats_best_trimmed_user(capacity_runs):
    start = time.perf_counter()
    worst_agg = capacity_runs[Strategy.PREDICT_AGGREGATE][2]
    best_trimmed = capacity_runs[Strategy.NO_AGGREGATION][3]
    p_value = paired_one_sided_pvalue(worst_agg, best_trimmed)
    runtime = time.perf_counter() - start
    ok = worst_agg.mean() >= best_trimmed.mean() and p_value < 0.05
    detail = _report(
        "6a",
        ok,
        f"worst aggregating user={worst_agg.mean():.3e} best no-aggregation "
        f"user={best_trimmed.mean():.3e} p={p_value:.3g} runtime={runtime:.1f}s",
    )
    assert ok, detail


def test_criterion_6b_worst_user_not_below_single_user(capacity_runs):
    worst_agg = capacity_runs[Strategy.PREDICT_AGGREGATE][2]
    single = capacity_runs[Strategy.SINGLE_USER][2]
    p_below = paired_one_sided_pvalue(single, worst_agg)  # H1: single > worst
    ok = p_below >= 0.05
    detail = _report(
        "6b",
        ok,
        f"worst aggregating user={worst_agg.mean():.3e} single-user "
        f"capacity={single.mean():.3e} p(single>worst)={p_below:.3g}",
    )
    assert ok, detail


def test_criterion_7_prediction_matches_vs_default():
    """Over 100 seeds of 20 compared slots on the persistence-0.6 chain."""
    start = time.perf_counter()
    config = EpisodeConfig(slots=40, episodes=100, n_train=20, seed=1004)
    [metrics] = _cell(TABLE_DEFAULTS, config, [Strategy.PREDICT_AGGREGATE])
    # each episode's matches of the designated band's actual states
    actual, default, predicted = np.moveaxis(metrics.trace, -1, 0)
    pred = (predicted == actual).sum(-1).astype(float)
    default = (default == actual).sum(-1).astype(float)
    runtime = time.perf_counter() - start
    ok = pred.mean() >= default.mean() and runtime < 30.0
    detail = _report(
        7,
        ok,
        f"mean prediction matches={pred.mean():.2f} mean default "
        f"matches={default.mean():.2f} of 20 runtime={runtime:.1f}s (budget 30s)",
    )
    assert ok, detail


def test_criterion_8_byte_identical_reruns(tmp_path):
    """Any cell rerun with the same master seed reproduces its CSVs exactly."""
    start = time.perf_counter()
    overrides = {
        "users": "3",
        "relays": "6",
        "bands": "12",
        "slots": "26",
        "episodes": "2",
        "n_train": "20",
        "seed": "99",
        "es_n0_db_sweep": "5,15",
    }

    snapshots = []
    for attempt, workers in enumerate(("1", "2")):
        out_dir = tmp_path / f"attempt{attempt}"
        config = parse_config(
            None, {**overrides, "out": str(out_dir), "workers": workers}
        )
        run_paths = run_single(config)
        sweep_path = run_sweep(config, "p0", ["0.3", "0.5"])
        # the provenance echo legitimately differs (out, workers); the
        # criterion covers the data CSVs
        payload = {
            name: path.read_bytes()
            for name, path in run_paths.items()
            if name != "config"
        }
        payload["sweep"] = sweep_path.read_bytes()
        snapshots.append(payload)
    runtime = time.perf_counter() - start
    ok = snapshots[0] == snapshots[1]
    detail = _report(
        8,
        ok,
        f"files_identical={ok} across reruns and worker counts "
        f"runtime={runtime:.1f}s",
    )
    assert ok, detail

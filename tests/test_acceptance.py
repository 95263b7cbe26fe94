"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Each test pins its stated tolerance and asserts its runtime
budget; the heavy work happens inside the owning test.
"""

import filecmp
import json
import math
import random
import time

import numpy as np

from promo_gym.binning import assign_bin, fit_bins
from promo_gym.cli import main
from promo_gym.frozen_lake import make_frozen_lake
from promo_gym.ingest import (
    parse_promo_plan,
    parse_transactions,
    write_promo_plan,
    write_transactions,
)
from promo_gym.learner import (
    LearnerConfig,
    QTable,
    evaluate_greedy,
    greedy_policy,
    q_update,
    qtable_from_json,
    qtable_to_json,
    train,
)
from promo_gym.solve import value_iteration
from promo_gym.tables import TabularEnv, deserialize, serialize, validate

FAN = 0.14285714285714285
GOLDEN_BLOCKS = {
    "35": {
        "0": [[FAN, 30, -1.0, False], [FAN, 31, -1.0, False], [FAN, 32, -1.0, False],
              [FAN, 33, -1.0, False], [FAN, 34, -1.0, False], [FAN, 35, -1.0, False],
              [FAN, 38, -1.0, False]],
        "1": [[1.0, 25, -1.0, False]],
        "2": [[1.0, 45, -1.0, False]],
        "3": [[1.0, 35, -10.0, False]],
    },
    "36": {
        "0": [[FAN, 30, -1.0, False], [FAN, 31, -1.0, False], [FAN, 32, -1.0, False],
              [FAN, 33, -1.0, False], [FAN, 34, -1.0, False], [FAN, 35, -1.0, False],
              [FAN, 38, -1.0, False]],
        "1": [[1.0, 26, -1.0, False]],
        "2": [[1.0, 46, -1.0, False]],
        "3": [[1.0, 36, -10.0, False]],
    },
}


def _pass(criterion: int, message: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE PASS criterion {criterion}: {message} ({elapsed:.2f}s)")


def test_criterion_1_golden_transition_rows(reference_table):
    started = time.monotonic()
    text = serialize(reference_table)
    doc = json.loads(text)
    for state, actions in GOLDEN_BLOCKS.items():
        assert doc["P"][state] == actions
        assert json.dumps(doc["P"][state]).count("0.14285714285714285") == 7
    assert "0.14285714285714285" in text
    _pass(1, "demo states 35/36 reproduce the published rows exactly",
          started, budget=1.0)


def test_criterion_2_probability_normalization(fixtures_dir, tmp_path,
                                               reference_table):
    started = time.monotonic()
    tables = [
        make_frozen_lake(slippery=False),
        make_frozen_lake(slippery=True),
        reference_table,
    ]
    # plus the data-derived promo MDP from the bundled fixture
    out = str(tmp_path / "out")
    manifest = str(fixtures_dir / "manifest.json")
    assert main(["ingest", "--manifest", manifest, "--out", out]) == 0
    assert main(["build", "--manifest", manifest, "--out", out]) == 0
    tables.append(deserialize((tmp_path / "out" / "table.json").read_text()))

    for table in tables:
        assert validate(table) == []
        for s in range(table.n_states):
            for a in range(table.n_actions):
                mass = sum(e.probability for e in table.pair(s, a))
                assert abs(mass - 1.0) <= 1e-9
    _pass(2, "validation empty and per-(s,a) mass within 1e-9 on all tables",
          started, budget=1.0)


def test_criterion_3_q_update_arithmetic():
    started = time.monotonic()
    rng = random.Random(20240315)
    q = QTable(8, 5)
    terminal_cases = 0
    for _ in range(10_000):
        for s in range(8):
            q.values[s] = [rng.uniform(-100, 100) for _ in range(5)]
        s, a = rng.randrange(8), rng.randrange(5)
        s_next = rng.randrange(8)
        r = rng.uniform(-50, 50)
        done = rng.random() < 0.25
        alpha = rng.uniform(0.001, 1.0)
        gamma = rng.uniform(0.0, 0.9999)
        old = q.values[s][a]
        next_row = list(q.values[s_next])
        # independent scalar statement of the update rule
        target = r + (0.0 if done else gamma * max(next_row))
        expected = old + alpha * (target - old)
        got = q_update(q, s, a, r, s_next, done, alpha, gamma)
        assert math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-12)
        if done:
            terminal_cases += 1
            assert math.isclose(got, old + alpha * (r - old), rel_tol=0.0,
                                abs_tol=1e-12)
    assert terminal_cases > 2000
    _pass(3, f"10,000 cases match the scalar rule to 1e-12 "
             f"({terminal_cases} terminal)", started, budget=5.0)


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    lake = make_frozen_lake(slippery=False)
    sol = value_iteration(lake, gamma=0.99, tol=1e-10)
    assert sol.converged and sol.residual < 1e-10

    env = TabularEnv(lake)
    config = LearnerConfig(episodes=20_000, seed=11)  # defaults otherwise
    q = QTable(lake.n_states, lake.n_actions)
    list(train(env, config, q))
    learned = greedy_policy(q)

    ranked = np.sort(sol.Q, axis=1)
    unique = (ranked[:, -1] - ranked[:, -2]) > 1e-9
    assert unique.sum() > 0
    assert (learned[unique] == sol.policy[unique]).all()

    report = evaluate_greedy(env, q, episodes=100, max_steps=200, seed=11)
    assert report["success_rate"] == 1.0
    _pass(4, f"residual {sol.residual:.1e}; policy matches oracle at "
             f"{int(unique.sum())} unique-argmax states; success 1.0",
          started, budget=60.0)


def test_criterion_5_forecast_dominance(reference_table):
    started = time.monotonic()
    table = reference_table
    goal_states = {24}
    for gamma in (0.9, 0.99):
        sol = value_iteration(table, gamma=gamma)
        forecast_at = set(np.nonzero(sol.policy == 3)[0].tolist())
        assert forecast_at == goal_states, gamma

    env = TabularEnv(table)
    config = LearnerConfig(episodes=5000, max_steps_per_episode=60,
                           epsilon_decay_episodes=500, seed=20150608)
    q = QTable(table.n_states, table.n_actions)
    list(train(env, config, q))
    learned = greedy_policy(q)
    for g in goal_states:
        assert learned[g] == 3
    _pass(5, "oracle forecasts only at goals (gamma 0.9/0.99); "
             "learned policy forecasts at every goal", started, budget=60.0)


def test_criterion_6_saturation(fixtures_dir, tmp_path):
    started = time.monotonic()
    out = str(tmp_path / "out")
    manifest = str(fixtures_dir / "manifest.json")
    assert main(["ingest", "--manifest", manifest, "--out", out]) == 0
    assert main(["build", "--manifest", manifest, "--out", out]) == 0
    assert main(["train", "--manifest", manifest, "--out", out]) == 0

    rows = (tmp_path / "out" / "mean_cumulative.csv").read_text().splitlines()[1:]
    mean_cumulative = [float(line.split(",")[1]) for line in rows]
    decile = max(1, len(mean_cumulative) // 10)
    first = sum(mean_cumulative[:decile]) / decile
    last = sum(mean_cumulative[-decile:]) / decile
    assert last >= first

    rows = (tmp_path / "out" / "episodic.csv").read_text().splitlines()[1:]
    episodic = [float(line.split(",")[1]) for line in rows]
    assert len(episodic) == 5000
    leading = sum(episodic[:100]) / 100
    trailing = sum(episodic[-100:]) / 100
    assert trailing >= leading
    _pass(6, f"mean-cumulative deciles {first:.2f} -> {last:.2f}; "
             f"episodic means {leading:.1f} -> {trailing:.1f}",
          started, budget=60.0)


def test_criterion_7_binning():
    started = time.monotonic()
    model = fit_bins(list(range(100)))
    assert model.boundaries == (19, 39, 59, 79)
    counts = [0] * 5
    for units in range(100):
        counts[assign_bin(model, units)] += 1
    assert counts == [20, 20, 20, 20, 20]

    def brute_force(units: int) -> int:
        for b, cut in enumerate(model.boundaries):
            if units <= cut:
                return b
        return 4

    rng = random.Random(7)
    for _ in range(10_000):
        units = rng.randrange(0, 500)
        assert assign_bin(model, units) == brute_force(units)
    _pass(7, "boundaries (19, 39, 59, 79); 20 records per bin; "
             "10,000 inputs match brute force", started, budget=5.0)


def test_criterion_8_round_trips(fixtures_dir, reference_table):
    started = time.monotonic()
    # transition table
    text = serialize(reference_table)
    assert serialize(deserialize(text)) == text

    # q-table
    rng = np.random.default_rng(3)
    q = QTable(50, 4, rng.normal(size=(50, 4)))
    again = qtable_from_json(qtable_to_json(q))
    assert ([[v.hex() for v in row] for row in again.values]
            == [[v.hex() for v in row] for row in q.values])

    # the three CSV schemas, through the bundled fixture files
    import io

    promos = parse_promo_plan(fixtures_dir / "promo_plan.csv")
    buf = io.StringIO()
    write_promo_plan(buf, promos)
    assert parse_promo_plan(io.StringIO(buf.getvalue())) == promos

    for name, kind in (("online_transactions.csv", "online"),
                       ("rx_transactions.csv", "rx")):
        records = parse_transactions(fixtures_dir / name, kind)
        buf = io.StringIO()
        write_transactions(buf, records, kind)
        assert parse_transactions(io.StringIO(buf.getvalue()), kind) == records
    _pass(8, "table, q-table, and all three CSV schemas round-trip exactly",
          started, budget=5.0)


def test_criterion_9_pipeline_determinism(fixtures_dir, tmp_path):
    started = time.monotonic()
    manifest = str(fixtures_dir / "manifest.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for step in (["ingest"], ["build"], ["train"], ["eval", "--episodes", "100"]):
            assert main(step + ["--manifest", manifest, "--out", str(out)]) == 0
        outs.append(out)

    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    mismatches = [
        str(rel) for rel in files_a
        if not filecmp.cmp(outs[0] / rel, outs[1] / rel, shallow=False)
    ]
    assert mismatches == []
    _pass(9, f"two pipeline runs byte-identical across {len(files_a)} files",
          started, budget=120.0)

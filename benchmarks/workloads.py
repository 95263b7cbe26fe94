"""Seeded input generators for the benchmark workloads.

Each generator writes a run directory that the promo-gym CLI reads: the
input files plus a manifest. The same (workload, seed) always yields the
same bytes. Generators use only the standard library, so a change to
promo-gym cannot change the inputs it is measured on.

Sizes are fixed per workload and only the values vary with the seed, so
the amount of work stays the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from datetime import date, timedelta
from pathlib import Path

# promo-train: the bundled fixture with more training and evaluation, so
# that train and eval dominate the pipeline.
PROMO_TRAIN_EPISODES = 10_000
PROMO_EVAL_EPISODES = 2_000

# retail-ingest: 60 store-products over a year, several promotions each.
RETAIL_STORES = 6
RETAIL_PRODUCTS = 10
RETAIL_FIRST_DAY = date(2015, 1, 1)
RETAIL_DAYS = 365
RETAIL_PROMOS_PER_PAIR = 6
RETAIL_ZIPS = 24
RETAIL_ONLINE_SHARE = 0.3  # share of (product, day) cells with an online sale
RETAIL_TARGET_WEEK = date(2015, 6, 8)
PROMO_TYPES = ("TPR", "Weekly Ad", "Seasonal", "Display")

# wide-grid-artifacts: an explicit grid forty times the fixture's, with
# one goal per band of rows and a start two rows from it.
GRID_ROWS = 200
GRID_WIDTH = 10
GRID_CHANNELS_PER_ROW = 5
GRID_GOALS = 20
GRID_EPISODES = 3_000
GRID_MAX_STEPS = 60


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    _write(path, header + "\n" + "".join(row + "\n" for row in rows))


def _write_manifest(run_dir: Path, doc: dict) -> Path:
    path = run_dir / "manifest.json"
    _write(path, json.dumps(doc, indent=1) + "\n")
    return path


def learner_seed(workload: str, seed: int) -> int:
    return _rng(workload, seed).getrandbits(32)


def promo_train(run_dir: Path, seed: int, fixtures: Path) -> tuple[Path, dict]:
    """The fixture manifest and its inputs, with the episode count raised
    and the learner seed drawn from the benchmark seed."""
    doc = json.loads((fixtures / "manifest.json").read_text(encoding="utf-8"))
    for rel in doc["inputs"].values():
        _write(run_dir / rel, (fixtures / rel).read_text(encoding="utf-8"))
    doc["learner"]["episodes"] = PROMO_TRAIN_EPISODES
    doc["learner"]["seed"] = learner_seed("promo-train", seed)
    doc["out_dir"] = "out"
    sizes = {"states": 50, "episodes": PROMO_TRAIN_EPISODES,
             "eval_episodes": PROMO_EVAL_EPISODES}
    return _write_manifest(run_dir, doc), sizes


def retail_ingest(run_dir: Path, seed: int) -> tuple[Path, dict]:
    """A year of rx sales per store-product, an online feed joined through a
    zip map, a promotion plan and a holiday calendar covering every day."""
    rng = _rng("retail-ingest", seed)
    days = [RETAIL_FIRST_DAY + timedelta(days=i) for i in range(RETAIL_DAYS)]
    stores = [f"S{i + 1:02d}" for i in range(RETAIL_STORES)]
    products = [f"P{i + 1:03d}" for i in range(RETAIL_PRODUCTS)]
    pairs = [(s, p) for s in stores for p in products]

    rx = []
    for store, product in pairs:
        base = rng.randint(4, 40)
        for i, day in enumerate(days):
            # the first and last day are always sold, so every pair spans
            # the whole year and the unified series has a fixed length
            if 0 < i < len(days) - 1 and rng.random() < 0.1:
                continue
            weekend = 1.5 if day.weekday() >= 5 else 1.0
            units = max(0, round(base * weekend + rng.gauss(0, base / 4)))
            rx.append(f"{store},{product},{day.isoformat()},{units},EA")
    _write_csv(run_dir / "rx_transactions.csv",
               "store_id,product_id,date,eod_sales_qty,qty_uom", rx)

    zips = [f"{10000 + 37 * i:05d}" for i in range(RETAIL_ZIPS)]
    _write_csv(run_dir / "zip_store_map.csv", "zip,store_id",
               [f"{z},{stores[i % len(stores)]}" for i, z in enumerate(zips)])
    online = []
    for product in products:
        for day in days:
            if rng.random() < RETAIL_ONLINE_SHARE:
                z = rng.choice(zips)
                online.append(f"{product},{day.isoformat()},{rng.randint(1, 9)},"
                              f"{rng.randint(0, 1)},{z},City{z[-2:]},ST,GA-{z[:2]}")
    _write_csv(run_dir / "online_transactions.csv",
               "product_id,date,eod_sales_qty,eod_return_qty,zip,city,state,"
               "geo_area_code", online)

    promos = []
    for n, (store, product) in enumerate(pairs):
        for k in range(RETAIL_PROMOS_PER_PAIR):
            if n == 0 and k == 0:
                # one promotion always falls in the target week, so the
                # derived grid never lacks a channel
                start = RETAIL_TARGET_WEEK + timedelta(days=rng.randrange(5))
            else:
                start = days[rng.randrange(len(days) - 7)]
            end = start + timedelta(days=rng.randrange(7))
            promos.append(",".join([
                f"PR-{n:03d}-{k}", rng.choice(PROMO_TYPES), f"E-{rng.randrange(40):03d}",
                start.isoformat(), end.isoformat(),
                f"{rng.randint(50, 500)}.0", store, f"AD-{rng.randrange(100):02d}",
                product, str(rng.randint(1, 4)), f"{rng.randint(99, 999) / 100}",
                rng.choice("YN"), rng.choice("YN"), rng.choice("YN"), rng.choice("YN"),
            ]))
    _write_csv(run_dir / "promo_plan.csv",
               "promo_code,promo_type,event_id,promo_start_date,promo_end_date,"
               "promo_target_amount,store_id,ad_id,product_id,offer_qty,offer_price,"
               "planogram_change,special_package,ad_location,coupon", promos)

    holidays = [f"{day.isoformat()},{int(rng.random() < 0.03)},{int(rng.random() < 0.15)}"
                for day in days]
    _write_csv(run_dir / "holidays.csv", "date,state_holiday,school_holiday", holidays)

    manifest = _write_manifest(run_dir, {
        "inputs": {
            "promo_plan": "promo_plan.csv",
            "online_transactions": "online_transactions.csv",
            "rx_transactions": "rx_transactions.csv",
            "holiday_calendar": "holidays.csv",
            "zip_store_map": "zip_store_map.csv",
        },
        "environment": {"kind": "promo",
                        "target_week": RETAIL_TARGET_WEEK.isoformat()},
        "learner": {"seed": learner_seed("retail-ingest", seed)},
        "out_dir": "out",
        "emit": {"metrics": True, "traces": False, "plots": False},
    })
    sizes = {"pairs": len(pairs), "days": RETAIL_DAYS, "promos": len(promos),
             "rx_rows": len(rx), "online_rows": len(online), "states": 50}
    return manifest, sizes


def wide_grid(run_dir: Path, seed: int) -> tuple[Path, dict]:
    """An explicit grid spec of GRID_ROWS rows and a manifest that trains
    on it with per-episode trace files."""
    rng = _rng("wide-grid-artifacts", seed)
    avail = {r: sorted(rng.sample(range(GRID_WIDTH), GRID_CHANNELS_PER_ROW))
             for r in range(GRID_ROWS)}
    band = GRID_ROWS // GRID_GOALS
    goals, starts = [], []
    for g in range(GRID_GOALS):
        # every start is two rows from its goal, in the goal's column, and
        # every row offers the same number of channels, so how far an
        # episode has to go does not depend on the seed
        row = g * band + 2 + rng.randrange(band - 4)
        col = rng.choice(avail[row])
        goals.append([row, col])
        starts.append([row + rng.choice((-2, 2)), col])
    spec = {
        "rows": GRID_ROWS,
        "width": GRID_WIDTH,
        "avail": {str(r): cols for r, cols in avail.items()},
        "goals": sorted(goals),
        "step_reward": -1.0,
        "forecast_fail_reward": -10.0,
        "goal_reward": 20.0,
        "initial_states": sorted(starts),
    }
    _write(run_dir / "grid_spec.json", json.dumps(spec, indent=1) + "\n")
    manifest = _write_manifest(run_dir, {
        "environment": {"kind": "promo", "grid_spec_path": "grid_spec.json"},
        "learner": {
            "alpha": 0.1, "gamma": 0.99, "epsilon_start": 1.0, "epsilon_end": 0.05,
            "epsilon_decay_episodes": GRID_EPISODES // 3, "episodes": GRID_EPISODES,
            "max_steps_per_episode": GRID_MAX_STEPS,
            "seed": learner_seed("wide-grid-artifacts", seed),
        },
        "out_dir": "out",
        "emit": {"metrics": True, "traces": True, "plots": False},
    })
    sizes = {"rows": GRID_ROWS, "states": GRID_ROWS * GRID_WIDTH,
             "goals": GRID_GOALS, "episodes": GRID_EPISODES}
    return manifest, sizes

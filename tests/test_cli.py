import argparse
import json
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from promo_gym.cli import build_parser, main
from promo_gym.frozen_lake import make_frozen_lake
from promo_gym.ingest import read_daily_series
from promo_gym.learner import QTable, qtable_to_json
from promo_gym.metrics import read_trace_csv
from promo_gym.rendering import render_trace
from promo_gym.tables import deserialize, serialize

RX_HEADER = "store_id,product_id,date,eod_sales_qty,qty_uom"
HOLIDAY_ROWS = (
    "date,state_holiday,school_holiday\n"
    "2015-06-01,0,0\n"
    "2015-06-30,0,0\n"
)


def write_manifest(tmp_path: Path, doc: dict) -> Path:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def rename_key(mapping: dict, old: str, new: str) -> None:
    mapping[new] = mapping.pop(old)


def small_ingest_manifest(tmp_path: Path, rx_rows: list[str]) -> Path:
    (tmp_path / "rx.csv").write_text(
        RX_HEADER + "\n" + "".join(row + "\n" for row in rx_rows)
    )
    (tmp_path / "holidays.csv").write_text(HOLIDAY_ROWS)
    return write_manifest(tmp_path, {
        "inputs": {"rx_transactions": "rx.csv", "holiday_calendar": "holidays.csv"},
        "environment": {"kind": "promo", "target_week": "2015-06-08"},
        "learner": {"episodes": 50, "max_steps_per_episode": 20, "seed": 1},
        "out_dir": "out",
    })


class TestIngestCommand:
    def test_three_rows_zero_filled(self, tmp_path, capsys):
        manifest = small_ingest_manifest(tmp_path, [
            "S01,P100,2015-06-01,5,EA",
            "S01,P100,2015-06-04,7,EA",
            "S02,P100,2015-06-02,3,EA",
        ])
        assert main(["ingest", "--manifest", str(manifest)]) == 0
        series = read_daily_series(tmp_path / "out" / "daily_series.csv")
        # S01 spans 4 days (2 zero-filled), S02 spans 1 day
        assert len(series) == 5
        assert sum(r.units_sold == 0 for r in series) == 2
        out = capsys.readouterr().out
        assert "rx_transactions: 3 records" in out
        assert "daily series: 5 records" in out

    def test_missing_header_exit_2(self, tmp_path, capsys):
        manifest = small_ingest_manifest(tmp_path, ["S01,P100,2015-06-01,5,EA"])
        (tmp_path / "rx.csv").write_text("wrong,header\nx,y\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "rx.csv" in err
        assert "header" in err

    def test_empty_transactions_exit_2(self, tmp_path, capsys):
        manifest = small_ingest_manifest(tmp_path, [])
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert "empty series" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [
        ("promo_target_amount", "nan"),
        ("promo_target_amount", "inf"),
        ("offer_price", "NaN"),
        ("offer_price", "Infinity"),
    ])
    def test_non_finite_amount_exit_2(self, tmp_path, fixtures_dir, capsys, column,
                                      value):
        for name in ("manifest.json", "promo_plan.csv", "online_transactions.csv",
                     "rx_transactions.csv", "holidays.csv"):
            shutil.copy(fixtures_dir / name, tmp_path / name)
        plan = tmp_path / "promo_plan.csv"
        lines = plan.read_text().splitlines()
        cells = lines[3].split(",")  # PR-0003
        cells[lines[0].split(",").index(column)] = value
        lines[3] = ",".join(cells)
        plan.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"row 4: {column}" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, message", [
        (b"1" * 200_000, "line 3: field larger than field limit"),
        (b"2015-05-\xff5", "holidays.csv: not UTF-8 text"),
        # csv.reader rejects NUL before Python 3.11 ("line 3: ..."); later
        # versions pass it on to the date parser ("row 3: date ...")
        (b"2015-05-\x005", "3: "),
        # date.fromisoformat reads these two from Python 3.11 on; 3.10 does not
        (b"20150608", "row 3: date: '20150608' is not a YYYY-MM-DD date"),
        (b"2015-W24-1", "row 3: date: '2015-W24-1' is not a YYYY-MM-DD date"),
    ], ids=["oversized-field", "non-utf8-byte", "nul-byte", "basic-date",
            "week-date"])
    def test_unreadable_csv_exit_2(self, tmp_path, fixtures_dir, capsys, cell,
                                   message):
        for name in ("manifest.json", "promo_plan.csv", "online_transactions.csv",
                     "rx_transactions.csv", "holidays.csv"):
            shutil.copy(fixtures_dir / name, tmp_path / name)
        calendar = tmp_path / "holidays.csv"
        calendar.write_bytes(calendar.read_bytes().replace(b"2015-05-25", cell, 1))
        assert main(["ingest", "--manifest", str(tmp_path / "manifest.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err

    def test_carriage_return_in_cell_survives_build(self, tmp_path, fixtures_dir):
        for name in ("manifest.json", "promo_plan.csv", "online_transactions.csv",
                     "rx_transactions.csv", "holidays.csv"):
            shutil.copy(fixtures_dir / name, tmp_path / name)
        rx = tmp_path / "rx_transactions.csv"
        rx.write_bytes(rx.read_bytes().replace(b"\nS01,", b'\n"S\r01",', 1))
        argv = ["--manifest", str(tmp_path / "manifest.json"),
                "--out", str(tmp_path / "out")]
        assert main(["ingest", *argv]) == 0
        series = read_daily_series(tmp_path / "out" / "daily_series.csv")
        assert "S\r01" in {r.store_id for r in series}
        assert main(["build", *argv]) == 0

    def test_manifest_referencing_missing_file_exit_2(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {
            "inputs": {"rx_transactions": "nope.csv",
                       "holiday_calendar": "also-missing.csv"},
            "environment": {"kind": "promo"},
        })
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        assert "missing" in capsys.readouterr().err


class TestBuildCommand:
    def test_reference_spec_reproduces_golden_states(self, tmp_path, fixtures_dir):
        manifest = write_manifest(tmp_path, {
            "environment": {
                "kind": "promo",
                "grid_spec_path": str(fixtures_dir / "reference_grid_spec.json"),
            },
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 0
        table = deserialize((tmp_path / "out" / "table.json").read_text())
        entries = [table.pair(35, a) for a in range(4)]
        assert [(e.next_state, e.reward) for e in entries[1]] == [(25, -1.0)]
        assert [(e.next_state, e.reward) for e in entries[2]] == [(45, -1.0)]
        assert [(e.next_state, e.reward) for e in entries[3]] == [(35, -10.0)]
        assert [e.next_state for e in entries[0]] == [30, 31, 32, 33, 34, 35, 38]
        assert all(e.probability == 0.14285714285714285 for e in entries[0])
        raw = (tmp_path / "out" / "table.json").read_text()
        assert "0.14285714285714285" in raw

    def test_frozen_lake_build(self, tmp_path):
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "frozen-lake", "slippery": False},
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 0
        table = deserialize((tmp_path / "out" / "table.json").read_text())
        assert table.n_states == 16 and table.n_actions == 4

    def test_slippery_override_changes_table(self, tmp_path):
        tables = []
        for slippery in (False, True):
            manifest = write_manifest(tmp_path, {
                "environment": {"kind": "frozen-lake", "slippery": slippery},
                "out_dir": "out",
            })
            assert main(["build", "--manifest", str(manifest)]) == 0
            tables.append((tmp_path / "out" / "table.json").read_bytes())
        assert tables[0] != tables[1]

    def test_empty_avail_row_exit_2(self, tmp_path, capsys):
        bad_spec = tmp_path / "spec.json"
        bad_spec.write_text(json.dumps({
            "rows": 2,
            "avail": {"0": [1], "1": []},
            "initial_states": [[0, 0]],
        }))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "promo", "grid_spec_path": "spec.json"},
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 2
        assert "row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("inline", [False, True], ids=["path", "inline"])
    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["goals"][0].__setitem__(0, "2"),
        lambda doc: doc["avail"]["0"].__setitem__(0, "0"),
        lambda doc: doc["initial_states"][0].__setitem__(0, "3"),
        lambda doc: doc.update(initial_states=[[1.5, 0]]),
        lambda doc: doc.update(rows=5.7),
        lambda doc: doc.update(width=10.0),
        lambda doc: doc["goals"][0].__setitem__(0, True),
        lambda doc: doc.update(step_reward="-1"),
        lambda doc: doc.update(goal_reward=True),
        lambda doc: rename_key(doc["avail"], "0", "00"),
        lambda doc: rename_key(doc["avail"], "1", "+1"),
        lambda doc: rename_key(doc["avail"], "1", " 1"),
    ], ids=["string-goal-row", "string-avail-column", "string-initial-row",
            "float-initial-row", "float-rows", "float-width", "bool-goal-row",
            "string-reward", "bool-reward", "avail-key-00", "avail-key-plus-1",
            "avail-key-space-1"])
    def test_mistyped_grid_spec_exit_2(self, tmp_path, fixtures_dir, capsys, mutate,
                                       inline):
        doc = json.loads((fixtures_dir / "reference_grid_spec.json").read_text())
        mutate(doc)
        environment = {"kind": "promo", "grid_spec_path": "spec.json"}
        if inline:
            environment = {"kind": "promo", "grid_spec": doc}
        else:
            (tmp_path / "spec.json").write_text(json.dumps(doc))
        manifest = write_manifest(tmp_path, {"environment": environment,
                                             "out_dir": "out"})
        assert main(["build", "--manifest", str(manifest)]) == 2
        assert "grid spec" in capsys.readouterr().err
        assert not (tmp_path / "out" / "table.json").exists()

    def test_derived_build_requires_ingest_outputs(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "promo", "target_week": "2015-06-08"},
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 2
        assert "ingest" in capsys.readouterr().err

    def test_overflowing_target_units_in_top_bin(self, tmp_path, fixtures_dir):
        """A promotion whose target amount over its price is beyond float
        range, with no realized units, sets its goal in the top bin."""
        for name in ("manifest.json", "online_transactions.csv",
                     "rx_transactions.csv", "holidays.csv"):
            shutil.copy(fixtures_dir / name, tmp_path / name)
        plan = (fixtures_dir / "promo_plan.csv").read_text().replace(
            "PR-0003,Seasonal,E-300,2015-06-26,2015-06-28,150.0,S01,AD-13,P100,1,5.0,",
            "PR-0003,Seasonal,E-300,2015-07-01,2015-07-03,1e308,S01,AD-13,P100,1,1e-10,")
        assert "1e308" in plan
        (tmp_path / "promo_plan.csv").write_text(plan)
        manifest, out = str(tmp_path / "manifest.json"), tmp_path / "out"
        for command in ("ingest", "build"):
            assert main([command, "--manifest", manifest, "--out", str(out)]) == 0
        spec = json.loads((out / "grid_spec.json").read_text())
        assert [4, 7] in spec["goals"]


def set_fields(manifest: Path, section: str, **fields) -> None:
    """Set fields of one section of the manifest file in place."""
    doc = json.loads(manifest.read_text())
    doc[section].update(fields)
    manifest.write_text(json.dumps(doc, indent=1))


@pytest.fixture()
def built_run(tmp_path, fixtures_dir):
    """A tmp manifest with the reference table built and a short train config."""
    manifest = write_manifest(tmp_path, {
        "environment": {
            "kind": "promo",
            "grid_spec_path": str(fixtures_dir / "reference_grid_spec.json"),
        },
        "learner": {"episodes": 400, "max_steps_per_episode": 60,
                    "epsilon_decay_episodes": 100, "seed": 13},
        "out_dir": "out",
        "emit": {"metrics": True, "traces": True, "plots": False},
    })
    assert main(["build", "--manifest", str(manifest)]) == 0
    return manifest


class TestTrainCommand:
    def test_train_reproducible_byte_identical(self, built_run, tmp_path):
        assert main(["train", "--manifest", str(built_run)]) == 0
        first = (tmp_path / "out" / "q_table.json").read_bytes()
        assert main(["train", "--manifest", str(built_run)]) == 0
        second = (tmp_path / "out" / "q_table.json").read_bytes()
        assert first == second

    def test_zero_episodes_exit_2(self, built_run, capsys):
        set_fields(built_run, "learner", episodes=0)
        assert main(["train", "--manifest", str(built_run)]) == 2
        assert "episodes" in capsys.readouterr().err

    def test_metrics_files_written(self, built_run, tmp_path):
        main(["train", "--manifest", str(built_run)])
        mc = (tmp_path / "out" / "mean_cumulative.csv").read_text().splitlines()
        ep = (tmp_path / "out" / "episodic.csv").read_text().splitlines()
        assert mc[0] == "step,mean_cumulative_reward"
        assert ep[0] == "episode,total_reward"
        assert len(ep) == 401

    def test_export_metrics_matches_train_output(self, built_run, tmp_path):
        main(["train", "--manifest", str(built_run)])
        mc = (tmp_path / "out" / "mean_cumulative.csv").read_bytes()
        ep = (tmp_path / "out" / "episodic.csv").read_bytes()
        (tmp_path / "out" / "mean_cumulative.csv").unlink()
        (tmp_path / "out" / "episodic.csv").unlink()
        assert main(["export-metrics", "--manifest", str(built_run)]) == 0
        assert (tmp_path / "out" / "mean_cumulative.csv").read_bytes() == mc
        assert (tmp_path / "out" / "episodic.csv").read_bytes() == ep

    def test_export_metrics_without_traces_exit_2(self, tmp_path, fixtures_dir,
                                                  capsys):
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "frozen-lake"},
            "out_dir": "out",
        })
        assert main(["export-metrics", "--manifest", str(manifest)]) == 2
        path = tmp_path / "out" / "traces.csv"
        assert capsys.readouterr().err == \
            f"error: {path} missing; run `promo-gym train` first\n"


    def test_export_metrics_rewrites_both_charts(self, built_run, tmp_path):
        doc = json.loads(built_run.read_text())
        doc["emit"]["plots"] = True
        built_run.write_text(json.dumps(doc))
        assert main(["train", "--manifest", str(built_run)]) == 0
        charts = {}
        for name in ("mean_cumulative.svg", "episodic.svg"):
            charts[name] = (tmp_path / "out" / name).read_bytes()
            (tmp_path / "out" / name).unlink()
        assert main(["export-metrics", "--manifest", str(built_run)]) == 0
        for name, data in charts.items():
            assert (tmp_path / "out" / name).read_bytes() == data

    def test_seed_beyond_64_bits_exit_2(self, built_run, capsys):
        set_fields(built_run, "learner", seed=2**64)
        assert main(["train", "--manifest", str(built_run)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_train_clears_earlier_traces(self, built_run, tmp_path):
        """export-metrics reads only the traces of the last train."""
        out = tmp_path / "out"
        set_fields(built_run, "learner", episodes=300)
        assert main(["train", "--manifest", str(built_run)]) == 0
        set_fields(built_run, "learner", episodes=100)
        assert main(["train", "--manifest", str(built_run)]) == 0
        names = ("mean_cumulative.csv", "episodic.csv")
        written = [(out / name).read_bytes() for name in names]
        assert main(["export-metrics", "--manifest", str(built_run)]) == 0
        assert [(out / name).read_bytes() for name in names] == written
        assert len(read_trace_csv(out / "traces.csv")) == 100
        set_fields(built_run, "emit", traces=False)
        assert main(["train", "--manifest", str(built_run)]) == 0
        assert not (out / "traces.csv").exists()

    @pytest.mark.parametrize("emit_off, names", [
        ("metrics", ["mean_cumulative.csv", "episodic.csv"]),
        ("plots", ["mean_cumulative.svg", "episodic.svg"]),
        (None, ["eval_report.json"]),
    ], ids=["metrics-off", "plots-off", "eval-report"])
    def test_train_removes_outputs_it_does_not_rewrite(self, built_run, tmp_path,
                                                        emit_off, names):
        """No output of an earlier run stays beside a new q_table.json."""
        out = tmp_path / "out"
        set_fields(built_run, "emit", plots=True)
        assert main(["train", "--manifest", str(built_run)]) == 0
        assert main(["eval", "--manifest", str(built_run), "--episodes", "5"]) == 0
        assert all((out / name).exists() for name in names)
        if emit_off is not None:
            set_fields(built_run, "emit", **{emit_off: False})
        set_fields(built_run, "learner", episodes=50)
        assert main(["train", "--manifest", str(built_run)]) == 0
        assert [name for name in names if (out / name).exists()] == []
        assert (out / "q_table.json").exists()

    def test_invalid_table_file_rejected_by_every_reader(self, built_run, tmp_path,
                                                         capsys):
        # probability mass 1.37 at (35, realign); build meets it as its
        # table_path, train and eval as the run's own table_out/table.json
        doc = json.loads((tmp_path / "out" / "table.json").read_text())
        doc["P"]["35"]["3"].append([0.37, 35, -10.0, False])
        bad = tmp_path / "table_out" / "table.json"
        bad.parent.mkdir()
        bad.write_text(json.dumps(doc))
        manifest = tmp_path / "table_manifest.json"
        manifest.write_text(json.dumps({
            "environment": {"kind": "table", "table_path": "table_out/table.json"},
            "learner": {"episodes": 10, "max_steps_per_episode": 20},
            "out_dir": "table_out",
        }))
        assert main(["train", "--manifest", str(built_run)]) == 0
        trace = tmp_path / "out" / "traces.csv"
        capsys.readouterr()
        for argv in (["build", "--manifest", str(manifest)],
                     ["train", "--manifest", str(manifest)],
                     ["eval", "--manifest", str(manifest)],
                     ["render", "--trace", str(trace), "--table", str(bad)]):
            assert main(argv) == 2
            assert "state 35, action 3: probability mass" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_after_train(self, built_run, tmp_path, capsys):
        main(["train", "--manifest", str(built_run)])
        assert main(["eval", "--manifest", str(built_run),
                     "--episodes", "20"]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["episodes"] == 20
        assert set(report) == {
            "episodes", "mean_total_reward", "min_total_reward",
            "max_total_reward", "success_rate", "truncation_rate",
        }

    def test_zero_episode_eval_empty_report(self, built_run, tmp_path):
        main(["train", "--manifest", str(built_run)])
        assert main(["eval", "--manifest", str(built_run), "--episodes", "0"]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report == {"episodes": 0}

    def test_missing_q_table_exit_2(self, built_run, capsys):
        assert main(["eval", "--manifest", str(built_run)]) == 2
        path = built_run.parent / "out" / "q_table.json"
        assert capsys.readouterr().err == \
            f"error: {path} missing; run `promo-gym train` first\n"


class TestMistypedArtifact:
    @pytest.mark.parametrize("artifact, mutate", [
        ("q_table.json", lambda doc: doc.update(n_states=doc["n_states"] + 0.5)),
        ("q_table.json", lambda doc: doc.update(n_actions=float(doc["n_actions"]))),
        ("q_table.json", lambda doc: doc["values"][0].__setitem__(0, True)),
        ("q_table.json", lambda doc: doc["values"][0].__setitem__(0, "0.5")),
        ("q_table.json", lambda doc: doc["values"][0].__setitem__(0, 10**400)),
        ("binning_model.json",
         lambda doc: doc["boundaries"].__setitem__(0, str(doc["boundaries"][0]))),
        ("binning_model.json",
         lambda doc: doc["boundaries"].__setitem__(0, doc["boundaries"][0] + 0.9)),
        ("binning_model.json", lambda doc: doc.update(fitted_on=True)),
        ("binning_model.json", lambda doc: doc.update(degenerate="no")),
        ("binning_model.json", lambda doc: doc.update(k=5.0)),
    ], ids=["float-n-states", "float-n-actions", "bool-value", "string-value",
            "huge-int-value", "string-boundary", "float-boundary", "bool-fitted-on",
            "string-degenerate", "float-k"])
    def test_mistyped_artifact_exit_2(self, tmp_path, fixtures_dir, capsys, artifact,
                                      mutate):
        """eval reads q_table.json and build reads binning_model.json; each
        takes JSON integers, numbers and booleans as they are, or exits 2."""
        manifest = str(fixtures_dir / "manifest.json")
        out = tmp_path / "out"
        assert main(["ingest", "--manifest", manifest, "--out", str(out)]) == 0
        command = ["build", "--manifest", manifest, "--out", str(out)]
        if artifact == "q_table.json":
            assert main(command) == 0
            table = deserialize((out / "table.json").read_text())
            (out / artifact).write_text(
                qtable_to_json(QTable(table.n_states, table.n_actions)))
            command = ["eval", "--manifest", manifest, "--out", str(out),
                       "--episodes", "5"]
        doc = json.loads((out / artifact).read_text())
        mutate(doc)
        (out / artifact).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(command) == 2
        assert "document" in capsys.readouterr().err


class TestRenderCommand:
    def test_render_trace(self, built_run, tmp_path, capsys):
        main(["train", "--manifest", str(built_run)])
        trace = tmp_path / "out" / "traces.csv"
        capsys.readouterr()  # drop the train output
        assert main(["render", "--trace", str(trace),
                     "--table", str(tmp_path / "out" / "table.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Mon Tue Wed Thu Fri Sat Sun")
        assert "step 1:" in out

    def test_episode_picks_the_rendered_episode(self, built_run, tmp_path, capsys):
        """--episode N prints the frames of the file's episode N, and the
        default is episode 0."""
        main(["train", "--manifest", str(built_run)])
        out = tmp_path / "out"
        traces = read_trace_csv(out / "traces.csv")
        table = deserialize((out / "table.json").read_text())
        capsys.readouterr()
        for episode in (None, 0, 1, len(traces) - 1):
            argv = ["render", "--trace", str(out / "traces.csv"),
                    "--table", str(out / "table.json")]
            if episode is not None:
                argv += ["--episode", str(episode)]
            assert main(argv) == 0
            assert capsys.readouterr().out == \
                render_trace(traces[episode or 0], table) + "\n"

    def test_action_outside_table_exit_2(self, tmp_path, capsys):
        """An action the table does not have exits 2, naming the action and
        the table's range, rather than printing as a number. A negative one
        is refused by the trace reader (test_inconsistent_trace_exit_2)."""
        content = TRACE_HEADER + b"0,1,0,4,0.0,4,false\n"
        assert main(trace_argv(tmp_path, "render", content)) == 2
        assert "trace step 1 takes action 4, table has 0..3" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["render", "--trace", str(tmp_path / "nope.csv"),
                     "--table", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.update(initial_distribution=[]),
        lambda doc: doc["P"]["0"].update({"0": 7}),
        lambda doc: doc["layout"].update(rows="x"),
        lambda doc: doc["layout"].update(rows=None),
        lambda doc: doc["P"]["0"]["0"][0].__setitem__(0, "x"),
        lambda doc: doc["initial_distribution"].update({"0": "x"}),
    ], ids=["initial-list", "int-entry-list", "rows-string", "rows-null",
            "string-probability", "string-initial-probability"])
    def test_wrong_shape_table_exit_2(self, tmp_path, capsys, mutate):
        doc = json.loads(serialize(make_frozen_lake(slippery=False)))
        mutate(doc)
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        trace = tmp_path / "trace.csv"
        trace.write_text("episode,step,state,action,reward,next_state,done\n"
                         "0,1,0,1,0.0,4,false\n")
        assert main(["render", "--trace", str(trace), "--table", str(table)]) == 2
        assert "error" in capsys.readouterr().err


class TestNumberBeyondRange:
    @pytest.mark.parametrize("command", ["build", "render"])
    @pytest.mark.parametrize("mutate", [
        lambda doc: doc["P"]["0"]["0"][0].__setitem__(0, 10**400),
        lambda doc: doc["P"]["0"]["0"][0].__setitem__(2, 10**400),
        lambda doc: doc["initial_distribution"].update({"0": 10**400}),
        lambda doc: doc["P"]["0"]["0"][0].__setitem__(1, 2**64),
    ], ids=["probability", "reward", "initial-probability", "next-state"])
    def test_integer_beyond_range_exit_2(self, tmp_path, capsys, command, mutate):
        doc = json.loads(serialize(make_frozen_lake(slippery=False)))
        mutate(doc)
        table = tmp_path / "table.json"
        table.write_text(json.dumps(doc))
        if command == "build":
            manifest = write_manifest(tmp_path, {
                "environment": {"kind": "table", "table_path": "table.json"},
                "out_dir": "out",
            })
            argv = ["build", "--manifest", str(manifest)]
        else:
            trace = tmp_path / "trace.csv"
            trace.write_text("episode,step,state,action,reward,next_state,done\n"
                             "0,1,0,1,0.0,4,false\n")
            argv = ["render", "--trace", str(trace), "--table", str(table)]
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err


def lake_with_key(section: tuple[str, ...], old: str, new: str) -> dict:
    doc = json.loads(serialize(make_frozen_lake(slippery=False)))
    mapping = doc
    for key in section:
        mapping = mapping[key]
    rename_key(mapping, old, new)
    return doc


UNIT_TABLE = {"n_states": 1, "n_actions": 1, "initial_distribution": {"0": 1.0},
              "P": {"0": {"0": [[1.0, 0, 0.0, True]]}}}


class TestTableKeysAndCounts:
    @pytest.mark.parametrize("doc", [
        lake_with_key(("P",), "0", "00"),
        lake_with_key(("P",), "1", "+1"),
        lake_with_key(("P",), "1", " 1"),
        lake_with_key(("P", "0"), "1", "+1"),
        lake_with_key(("initial_distribution",), "0", "00"),
        lake_with_key(("initial_distribution",), "0", "+0"),
        lake_with_key(("initial_distribution",), "0", " 0"),
        dict(UNIT_TABLE, n_states=True),
        dict(UNIT_TABLE, n_actions=True),
    ], ids=["state-00", "state-plus-1", "state-space-1", "action-plus-1",
            "initial-00", "initial-plus-0", "initial-space-0", "bool-n-states",
            "bool-n-actions"])
    def test_non_canonical_key_or_bool_count_exit_2(self, tmp_path, capsys, doc):
        """An index key is the canonical decimal of its index and a count is a
        JSON integer; each document here names a valid table otherwise."""
        (tmp_path / "table.json").write_text(json.dumps(doc))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "table.json"},
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "table.json").exists()

    def test_header_without_actions_exits_2(self, tmp_path):
        """A header naming 10**12 states and no actions exits 2 after reading
        what P holds, in a child interpreter whose timeout fails the test if
        the read is sized by the header instead."""
        (tmp_path / "table.json").write_text(json.dumps({
            "n_states": 10**12, "n_actions": 0, "initial_distribution": {}, "P": {}}))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "table.json"},
            "out_dir": "out",
        })
        proc = subprocess.run(
            [sys.executable, "-m", "promo_gym.cli", "build", "--manifest", str(manifest)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "n_actions must be >= 1, got 0" in proc.stderr

    @pytest.mark.parametrize("text", [
        b"[" * 100_000,
        b'{"n_states": ' + b"1" * 5000 + b"}",
        b'{"n_states": "\xff"}',
    ], ids=["deep-nesting", "5000-digit-integer", "not-utf-8"])
    def test_unreadable_json_exit_2(self, tmp_path, capsys, text):
        (tmp_path / "table.json").write_bytes(text)
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "table.json"},
            "out_dir": "out",
        })
        assert main(["build", "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def trace_argv(tmp_path: Path, command: str, content: bytes,
               episode: int | None = None) -> list[str]:
    """Write content as the run's trace file beside a frozen-lake table, and
    return the argv that runs command over it (render with --episode when
    episode is given)."""
    table = tmp_path / "out" / "table.json"
    (tmp_path / "out").mkdir(parents=True, exist_ok=True)
    table.write_text(serialize(make_frozen_lake(slippery=False)))
    trace = tmp_path / "out" / "traces.csv"
    trace.write_bytes(content)
    manifest = write_manifest(tmp_path, {"environment": {"kind": "frozen-lake"},
                                         "out_dir": "out", "emit": {"plots": True}})
    render = ["render", "--trace", str(trace), "--table", str(table)]
    if episode is not None:
        render += ["--episode", str(episode)]
    return {"render": render,
            "export-metrics": ["export-metrics", "--manifest", str(manifest)]}[command]


TRACE_HEADER = b"episode,step,state,action,reward,next_state,done\n"


class TestMalformedTrace:
    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    @pytest.mark.parametrize("row", [
        "0,2,4,x,0.0,8,false",
        "0,2,4,1,0.0",
        "0,2,4,1,0.0,8,maybe",
        "x,2,4,1,0.0,8,false",
    ], ids=["non-integer", "short-row", "done-maybe", "non-integer-episode"])
    def test_bad_trace_row_exit_2(self, tmp_path, capsys, command, row):
        content = TRACE_HEADER + f"0,1,0,1,0.0,4,false\n{row}\n".encode()
        assert main(trace_argv(tmp_path, command, content)) == 2
        assert "row 3: not a trace row" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    @pytest.mark.parametrize("row, message", [
        (b"0,2,4,1," + b"0" * 200_000 + b",8,false", "line 3: field larger than field limit"),
        (b"0,2,4,1,0.0,8,f\xffalse", "traces.csv: not UTF-8 text"),
    ], ids=["oversized-field", "non-utf8-byte"])
    def test_unreadable_trace_exit_2(self, tmp_path, capsys, command, row, message):
        content = TRACE_HEADER + b"0,1,0,1,0.0,4,false\n" + row + b"\n"
        assert main(trace_argv(tmp_path, command, content)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    @pytest.mark.parametrize("rows, message", [
        ("0,1,0,1,nan,4,false", "row 2: reward 'nan' is not finite"),
        ("0,1,0,1,1e999,4,false", "row 2: reward '1e999' is not finite"),
        ("0,1,0,1,-inf,4,false", "row 2: reward '-inf' is not finite"),
        ("0,1,0,1,0.0,4,true\n0,2,4,1,0.0,8,false",
         "row 3: a step after the step that ended the episode"),
        ("0,0,0,1,0.0,4,false", "row 2: step 0, expected step 1"),
        ("0,1,0,1,0.0,4,false\n0,3,4,1,0.0,8,false", "row 3: step 3, expected step 2"),
        ("0,1,0,1,0.0,4,false\n0,1,4,1,0.0,8,false", "row 3: step 1, expected step 2"),
        ("0,1,0,1,0.0,4,false\n0,2,5,1,0.0,9,false",
         "row 3: state 5 is not the previous row's next_state 4"),
        ("1,1,0,1,0.0,4,false", "row 2: episode 1, expected episode 0"),
        ("0,1,0,1,0.0,4,true\n2,1,0,1,0.0,4,true",
         "row 3: episode 2, expected episode 0 or 1"),
        ("0,1,0,1,0.0,4,true\n1,1,0,1,0.0,4,true\n0,1,0,1,0.0,4,true",
         "row 4: episode 0, expected episode 1 or 2"),
        ("0,1,0,1,0.0,4,true\n1,2,4,1,0.0,8,false",
         "row 3: step 2, expected step 1"),
        ("0,1,-1,-3,0.0,-5,true",
         "row 2: state, action and next_state must be at least 0"),
        ("0,1,0,1,0.0,4,false\n0,2,4,-1,0.0,4,true",
         "row 3: state, action and next_state must be at least 0"),
        ("0,1,0,1,0.0,-4,true",
         "row 2: state, action and next_state must be at least 0"),
    ], ids=["reward-nan", "reward-overflow", "reward-minus-inf", "done-before-last",
            "step-from-0", "step-skipped", "step-repeated", "state-not-next-state",
            "episode-from-1", "episode-skipped", "episode-comes-back",
            "episode-not-from-step-1", "negative-indices", "negative-action",
            "negative-next-state"])
    def test_inconsistent_trace_exit_2(self, tmp_path, capsys, command, rows, message):
        content = TRACE_HEADER + f"{rows}\n".encode()
        assert main(trace_argv(tmp_path, command, content)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    def test_header_only_trace_exit_2(self, tmp_path, capsys, command):
        assert main(trace_argv(tmp_path, command, TRACE_HEADER)) == 2
        assert "traces.csv: trace has no steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    @pytest.mark.parametrize("content, message", [
        (b"episode,step,state,action,reward,next,done\n0,1,0,1,0.0,4,false\n",
         "traces.csv: header 'episode,step,state,action,reward,next,done' does not match"),
        (b"step,state,action,reward,next_state,done\n1,0,1,0.0,4,false\n",
         "traces.csv: header 'step,state,action,reward,next_state,done' does not match"),
        (b"", "traces.csv: file is empty"),
    ], ids=["wrong-header", "per-episode-header", "empty-file"])
    def test_bad_header_exit_2(self, tmp_path, capsys, command, content, message):
        assert main(trace_argv(tmp_path, command, content)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "export-metrics"])
    def test_crlf_trace_reads_as_lf(self, tmp_path, capsys, command):
        lf = TRACE_HEADER + (b"0,1,0,2,0.0,1,false\n0,2,1,2,0.5,2,false\n"
                             b"0,3,2,1,1.0,6,true\n1,1,0,2,-1.0,1,false\n")
        names = ["mean_cumulative.csv", "episodic.csv", "mean_cumulative.svg",
                 "episodic.svg"] if command == "export-metrics" else []
        outputs = []
        for content in (lf, lf.replace(b"\n", b"\r\n")):
            assert main(trace_argv(tmp_path, command, content)) == 0
            outputs.append([capsys.readouterr().out,
                            *[(tmp_path / "out" / name).read_bytes() for name in names]])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("episode", [2, 7, -1])
    def test_episode_not_in_file_exit_2(self, tmp_path, capsys, episode):
        content = TRACE_HEADER + b"0,1,0,2,0.0,1,false\n1,1,0,2,0.0,1,false\n"
        assert main(trace_argv(tmp_path, "render", content, episode)) == 2
        err = capsys.readouterr().err
        assert f"traces.csv has no episode {episode} (it holds episodes 0..1)" in err


def short_fixture_manifest(tmp_path: Path, fixtures_dir: Path, name: str,
                           episodes: int) -> str:
    """A copy of a fixture manifest that trains for fewer episodes, with its
    input paths made absolute."""
    doc = json.loads((fixtures_dir / name).read_text())
    doc["inputs"] = {key: str(fixtures_dir / value)
                     for key, value in doc["inputs"].items()}
    doc["learner"]["episodes"] = episodes
    return str(write_manifest(tmp_path, doc))


def lake_with_goal_reward(reward: float) -> str:
    """The non-slippery lake's table text with the goal's reward replaced."""
    doc = json.loads(serialize(make_frozen_lake(slippery=False)))
    for actions in doc["P"].values():
        for rows in actions.values():
            for row in rows:
                if row[2] > 0:
                    row[2] = reward
    return json.dumps(doc)


class TestOverflowingRewards:
    """Rewards whose sums pass the largest float exit 2: no file holds inf,
    NaN or Infinity, and numpy prints no overflow warning."""

    def test_train_exit_2(self, tmp_path, capsys):
        (tmp_path / "lake.json").write_text(lake_with_goal_reward(1e308))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "lake.json"},
            "learner": {"episodes": 3000, "seed": 3, "max_steps_per_episode": 40},
            "out_dir": "out", "emit": {"metrics": True, "plots": True}})
        assert main(["build", "--manifest", str(manifest)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--manifest", str(manifest)]) == 2
        assert "the per-step reward sums overflow" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["table.json"]

    def test_eval_exit_2(self, tmp_path, capsys):
        lake = tmp_path / "lake.json"
        lake.write_text(lake_with_goal_reward(1.0))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "lake.json"},
            "learner": {"episodes": 200}, "out_dir": "out"})
        for argv in (["build"], ["train"]):
            assert main([*argv, "--manifest", str(manifest)]) == 0
        # the trained q-table reaches the goal, now worth 1e308 a visit
        (tmp_path / "out" / "table.json").write_text(lake_with_goal_reward(1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--manifest", str(manifest), "--episodes", "50"]) == 2
        assert "mean total reward over 50 episodes is inf" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval_report.json").exists()

    @pytest.mark.parametrize("rows, message", [
        ("0,1,14,2,1e308,15,true\n1,1,14,2,1e308,15,true",
         "the per-step reward sums overflow"),
        ("0,1,13,2,1e308,14,false\n0,2,14,2,1e308,15,true",
         "an episode's total reward is not finite"),
    ], ids=["across-episodes", "within-an-episode"])
    def test_export_metrics_exit_2(self, tmp_path, capsys, rows, message):
        content = TRACE_HEADER + f"{rows}\n".encode()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(trace_argv(tmp_path, "export-metrics", content)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "mean_cumulative.csv").exists()


class TestPipelineClosure:
    def test_bundled_fixture_pipeline(self, tmp_path, fixtures_dir):
        out = str(tmp_path / "out")
        manifest = short_fixture_manifest(tmp_path, fixtures_dir, "manifest.json", 400)
        assert main(["ingest", "--manifest", manifest, "--out", out]) == 0
        assert main(["build", "--manifest", manifest, "--out", out]) == 0
        assert main(["train", "--manifest", manifest, "--out", out]) == 0
        assert main(["eval", "--manifest", manifest, "--out", out,
                     "--episodes", "25"]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert report["episodes"] == 25

    def test_readme_trace_commands(self, tmp_path, fixtures_dir):
        """README's render and export-metrics, after training with the
        traces-on fixture manifest."""
        out = tmp_path / "out"
        manifest = short_fixture_manifest(tmp_path, fixtures_dir,
                                          "manifest_traces.json", 50)
        for command in ("ingest", "build", "train"):
            assert main([command, "--manifest", manifest, "--out", str(out)]) == 0
        assert main(["render", "--trace", str(out / "traces.csv"),
                     "--table", str(out / "table.json"), "--episode", "0"]) == 0
        assert main(["export-metrics", "--manifest", manifest, "--out", str(out)]) == 0


class TestPathFaults:
    @pytest.mark.parametrize("case", ["trace-is-directory", "promo-plan-is-directory",
                                      "out-is-file", "eval-report-is-directory"])
    def test_path_of_wrong_kind_exit_2(self, tmp_path, fixtures_dir, capsys, case):
        """A directory where a CSV or an output file belongs, or a file
        where the output directory belongs, exits 2 with the path named."""
        if case == "trace-is-directory":
            path = tmp_path / "traces"
            path.mkdir()
            table = tmp_path / "table.json"
            table.write_text(serialize(make_frozen_lake(slippery=False)))
            argv = ["render", "--trace", str(path), "--table", str(table)]
        elif case == "promo-plan-is-directory":
            path = tmp_path / "plan"
            path.mkdir()
            manifest = write_manifest(tmp_path, {
                "inputs": {"promo_plan": "plan",
                           "rx_transactions": str(fixtures_dir / "rx_transactions.csv"),
                           "holiday_calendar": str(fixtures_dir / "holidays.csv")},
                "environment": {"kind": "promo"},
            })
            argv = ["ingest", "--manifest", str(manifest)]
        elif case == "eval-report-is-directory":
            manifest = write_manifest(tmp_path, {"environment": {"kind": "frozen-lake"},
                                                 "learner": {"episodes": 20},
                                                 "out_dir": "out"})
            assert main(["build", "--manifest", str(manifest)]) == 0
            path = tmp_path / "out" / "eval_report.json"
            path.mkdir()
            argv = ["train", "--manifest", str(manifest)]
        else:
            path = tmp_path / "out"
            path.write_text("a file\n")
            manifest = write_manifest(tmp_path, {"environment": {"kind": "frozen-lake"}})
            argv = ["build", "--manifest", str(manifest), "--out", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(path) in err

    @pytest.mark.parametrize("name, command", [
        ("q_table.json", "train"),
        ("episodic.csv", "train"),
        ("traces.csv", "train"),
        ("eval_report.json", "eval"),
    ])
    def test_output_file_is_directory_exit_2(self, tmp_path, capsys, name, command):
        """A directory where a stage writes one of its files exits 2 naming
        the path, not 1 with a traceback."""
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "frozen-lake"}, "learner": {"episodes": 20},
            "out_dir": "out", "emit": {"metrics": True, "traces": True}})
        assert main(["build", "--manifest", str(manifest)]) == 0
        if command == "eval":
            assert main(["train", "--manifest", str(manifest)]) == 0
        path = tmp_path / "out" / name
        path.mkdir()
        capsys.readouterr()
        assert main([command, "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output {path} is a directory, not a file\n"


TRAIN_AND_EVAL_OUTPUTS = ("q_table.json", "traces.csv", "mean_cumulative.csv",
                          "episodic.csv", "mean_cumulative.svg", "episodic.svg",
                          "eval_report.json")


class TestRunDirectory:
    """Each stage removes its own and every later stage's files before it
    writes, so out/ never pairs one run's file with another run's."""

    def test_rebuild_clears_later_outputs(self, tmp_path, capsys):
        """A table of the same shape (the lake made slippery) leaves no
        q-table, trace, metrics, chart or report of the earlier table."""
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "frozen-lake", "slippery": False},
            "learner": {"episodes": 20}, "out_dir": "out",
            "emit": {"metrics": True, "traces": True, "plots": True}})
        out = tmp_path / "out"
        for argv in (["build"], ["train"], ["eval", "--episodes", "5"]):
            assert main([*argv, "--manifest", str(manifest)]) == 0
        assert all((out / name).exists() for name in TRAIN_AND_EVAL_OUTPUTS)
        set_fields(manifest, "environment", slippery=True)
        assert main(["build", "--manifest", str(manifest)]) == 0
        assert [name for name in TRAIN_AND_EVAL_OUTPUTS if (out / name).exists()] == []
        capsys.readouterr()
        for command, name in (("eval", "q_table.json"), ("export-metrics", "traces.csv")):
            assert main([command, "--manifest", str(manifest)]) == 2
            assert capsys.readouterr().err == \
                f"error: {out / name} missing; run `promo-gym train` first\n"

    def test_switch_from_promo_clears_grid_spec(self, built_run, tmp_path):
        out = tmp_path / "out"
        assert (out / "grid_spec.json").exists()
        doc = json.loads(built_run.read_text())
        doc["environment"] = {"kind": "frozen-lake"}
        built_run.write_text(json.dumps(doc))
        assert main(["build", "--manifest", str(built_run)]) == 0
        assert not (out / "grid_spec.json").exists()
        assert deserialize((out / "table.json").read_text()).n_states == 16

    def test_reingest_clears_table(self, tmp_path, fixtures_dir):
        manifest = short_fixture_manifest(tmp_path, fixtures_dir, "manifest.json", 20)
        out = tmp_path / "out"
        for command in ("ingest", "build", "ingest"):
            assert main([command, "--manifest", manifest, "--out", str(out)]) == 0
        assert (out / "daily_series.csv").exists()
        assert not (out / "table.json").exists()
        assert not (out / "grid_spec.json").exists()

    def test_build_reads_its_own_output_before_clearing(self, tmp_path):
        """kind "table" may name out/table.json itself: build reads it before
        it removes it, and writes the same bytes back."""
        lake = write_manifest(tmp_path, {"environment": {"kind": "frozen-lake"},
                                         "out_dir": "out"})
        assert main(["build", "--manifest", str(lake)]) == 0
        path = tmp_path / "out" / "table.json"
        written = path.read_bytes()
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "out/table.json"},
            "out_dir": "out"})
        assert main(["build", "--manifest", str(manifest)]) == 0
        assert path.read_bytes() == written

    def test_table_kind_reads_the_run_table(self, tmp_path, lake_table,
                                            lake_table_slippery):
        """train and eval read the out/table.json that build wrote, not the
        manifest's table_path, which only build reads."""
        lake = tmp_path / "lake.json"
        lake.write_text(serialize(lake_table))
        manifest = write_manifest(tmp_path, {
            "environment": {"kind": "table", "table_path": "lake.json"},
            "learner": {"episodes": 200}, "out_dir": "out"})
        for argv in (["build"], ["train"], ["eval", "--episodes", "20"]):
            assert main([*argv, "--manifest", str(manifest)]) == 0
        report = tmp_path / "out" / "eval_report.json"
        scored = report.read_bytes()
        assert json.loads(scored)["success_rate"] == 1.0
        lake.write_text(serialize(lake_table_slippery))
        assert main(["eval", "--manifest", str(manifest), "--episodes", "20"]) == 0
        assert report.read_bytes() == scored

    def test_export_metrics_clears_nothing(self, built_run, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--manifest", str(built_run)]) == 0
        assert main(["eval", "--manifest", str(built_run), "--episodes", "5"]) == 0
        report = (out / "eval_report.json").read_bytes()
        assert main(["export-metrics", "--manifest", str(built_run)]) == 0
        assert (out / "eval_report.json").read_bytes() == report


def readme_options() -> set[str]:
    """Every --option token in README.md, bar the pip install line's."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    lines = [line for line in text.splitlines() if "pip install" not in line]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))


def parser_options() -> dict[str, set[str]]:
    """Each promo-gym subcommand's option strings, bar --help."""
    [commands] = [action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    return {name: {option for action in command._actions
                   for option in action.option_strings if option.startswith("--")}
            - {"--help"}
            for name, command in commands.choices.items()}


class TestReadmeOptions:
    def test_readme_names_only_parser_options(self):
        assert readme_options() <= set().union(*parser_options().values())

    def test_every_parser_option_in_readme(self):
        assert set().union(*parser_options().values()) <= readme_options()

    def test_only_eval_adds_an_option_to_the_manifest_ones(self):
        run = {"--manifest", "--out"}
        assert parser_options() == {
            "ingest": run, "build": run, "train": run, "eval": run | {"--episodes"},
            "render": {"--trace", "--table", "--episode"}, "export-metrics": run,
        }


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "promo_gym.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "promo-gym" in proc.stdout

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random loads when the first RngStream is made, not at import
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy; before = 'numpy.random' in sys.modules; "
             "import promo_gym.cli; print(before, 'numpy.random' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        before, after = proc.stdout.split()
        if before == "True":
            pytest.skip("this numpy loads numpy.random on import")
        assert after == "False"

    @pytest.mark.parametrize("module", ["ingest", "binning", "jsondoc", "errors"])
    def test_import_leaves_numpy_unloaded(self, module):
        # the package re-exports nothing, so a module loads only what it imports
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, promo_gym.{module}; print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "False\n"

    def test_unknown_command_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "promo_gym.cli", "bogus"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

"""Golden bytes: the fixture pipeline writes exactly these files.

Runs ingest, build, train, eval, export-metrics and render on the
bundled fixtures with traces and plots on, and pins the SHA-256 of every
artifact and of the rendered episode. A refactor that claims to keep the
outputs unchanged must leave these hashes alone; a change that means to
alter the outputs updates them and says why.

Traces were once written one file per episode (`traces/episode_00000.csv`,
...). EPISODE_FILES pins two of those files, as the one trace file holds
them: split by episode with the episode column dropped.
"""

import hashlib
import json

from promo_gym.cli import main

GOLDEN = {
    "daily_series.csv":
        "77a87fd566929e127a4b46692921e97485da61a2430218bac9e8055263d3fb7e",
    "binning_model.json":
        "9507dcdfa76514d64bac1736fbf02e549f8e54ed348905c2d195675dbb5c2075",
    "grid_spec.json":
        "8513989fb50651a19f741152a6eb53af66e859e45bfc36fca0f4781bb2e280bb",
    "table.json":
        "d12fdb1ae1bec7b26f68be5095b783f38fd03edf0cc61d66259d1ba31e21d898",
    "q_table.json":
        "04e573a5dd90166948f293dc46548e29162050d63b6328c366b813d5c0523cdb",
    "mean_cumulative.csv":
        "e79a52cb759aa9da0b8a7960129e6dab083940aac4f50c63fe0942a2126dcbeb",
    "episodic.csv":
        "274a65a42fb5b08b909240936de59af6a702639c7ee121f63d031c4b8c68770f",
    "mean_cumulative.svg":
        "9cc27126bd0b8f2de4ade1fe7f5dee60b049b1cd8ca715c9b56d3813e4d7eb99",
    "episodic.svg":
        "972ccda1cfe5646f9f7e110eeda051681f31ea7fdf8fb9ac015dc654dd785a33",
    "eval_report.json":
        "2eeec8c3e5d558cabd97eb5af50baecc0f0457840f0c39e86af24edfe0a18ee1",
    "render":
        "dc126618e34e8db1b8b45958e4bfee4a578677be4842a5b30c957f294258bc1e",
}
TRACES_CSV = "662b5f3db0f209c033e4bb25b4c19f56290dfbdf436b9b02d69b2764d623ad52"
EPISODE_FILES = {
    0: "ce27b7d7ca02f7ebab128fc721918a5acd190f7f26e1b7c5f79a9275184546ac",
    299: "c5d9c46530b3b96b1c742f356c87c19181aa6f55697855da5b0b5041e474bbcf",
}
INGEST_BUILD_OUTPUTS = ("daily_series.csv", "binning_model.json", "grid_spec.json",
                        "table.json")
TRAIN_OUTPUTS = ("q_table.json", "mean_cumulative.csv", "episodic.csv",
                 "mean_cumulative.svg", "episodic.svg")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def episode_files(traces_csv: bytes) -> dict[int, bytes]:
    """The one trace file split into the per-episode files it replaced:
    each episode's rows, episode column dropped, under the old header."""
    header, *rows = traces_csv.splitlines(keepends=True)
    assert header == b"episode,step,state,action,reward,next_state,done\n"
    files: dict[int, bytes] = {}
    for row in rows:
        episode, rest = row.split(b",", 1)
        files.setdefault(int(episode), b"step,state,action,reward,next_state,done\n")
        files[int(episode)] += rest
    return files


def test_fixture_pipeline_bytes(fixtures_dir, tmp_path, capsys):
    doc = json.loads((fixtures_dir / "manifest.json").read_text(encoding="utf-8"))
    doc["inputs"] = {name: str(fixtures_dir / path)
                     for name, path in doc["inputs"].items()}
    doc["learner"].update(episodes=300, epsilon_decay_episodes=150)
    doc["out_dir"] = "out"
    doc["emit"] = {"metrics": True, "traces": True, "plots": True}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    out = tmp_path / "out"

    got = {}
    for argv in (["ingest"], ["build"], ["train"], ["eval", "--episodes", "50"]):
        assert main(argv + ["--manifest", str(manifest)]) == 0
        if argv == ["train"]:
            got.update({name: _sha256((out / name).read_bytes())
                        for name in TRAIN_OUTPUTS})
            traces_csv = (out / "traces.csv").read_bytes()
    got.update({name: _sha256((out / name).read_bytes())
                for name in INGEST_BUILD_OUTPUTS})
    got["eval_report.json"] = _sha256((out / "eval_report.json").read_bytes())

    assert main(["export-metrics", "--manifest", str(manifest)]) == 0
    for name in TRAIN_OUTPUTS[1:]:
        assert _sha256((out / name).read_bytes()) == got[name], name

    capsys.readouterr()
    assert main(["render", "--trace", str(out / "traces.csv"),
                 "--table", str(out / "table.json"), "--episode", "0"]) == 0
    got["render"] = _sha256(capsys.readouterr().out.encode("utf-8"))

    assert got == GOLDEN
    assert _sha256(traces_csv) == TRACES_CSV
    files = episode_files(traces_csv)
    assert sorted(files) == list(range(300))
    assert {i: _sha256(files[i]) for i in EPISODE_FILES} == EPISODE_FILES

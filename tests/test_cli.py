import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import hienet
from hienet.cascade import CascadeEvent, load_cascades, load_manifest
from hienet.cli import main
from hienet.synth import write_corpus

TINY_CFG = {
    "epochs": 2,
    "batch_size": 8,
    "lr": 3e-3,
    "k_walks": 4,
    "walk_len": 5,
    "m_max": 4,
    "pe_dim": 8,
    "time_bins": 16,
    "embed_dim": 8,
    "lstm_hidden": 6,
    "gcn_hidden": 8,
    "d_model": 8,
    "heads": 2,
    "ff_hidden": 12,
    "mlp_sizes": [16, 8],
}

#: a JSON array nested too deeply for the parser's recursion limit
TOO_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        ["synth", "--out", str(root / "data"), "--users", "60", "--cascades", "24", "--seed", "4"]
    )
    assert rc == 0
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY_CFG))
    return root


@pytest.fixture(scope="module")
def trained(workspace):
    rc = main(
        [
            "train",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(workspace / "run"),
            "--config", str(workspace / "tiny.json"),
            "--seed", "2",
        ]
    )
    assert rc == 0
    return workspace / "run" / "checkpoint"


def test_synth_output_loads(workspace):
    from hienet.cascade import load_cascades, load_manifest

    data = workspace / "data" / "cascades.tsv"
    records = load_cascades(data)
    assert len(records) == 24
    assert load_manifest(data).label_horizon == 86400


def test_ingest_summarizes(workspace, capsys):
    rc = main(["ingest", "--data", str(workspace / "data" / "cascades.tsv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cascades: 24" in out
    assert "labels:" in out


def test_summaries_print_true_medians(tmp_path, capsys):
    """Ten cascades: an even count, so each median lies between two values."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--cascades", "10", "--seed", "3"]) == 0
    assert "final size: median 8, max 58" in capsys.readouterr().out
    assert load_manifest(data / "cascades.tsv").extra["final_size_median"] == 8.0
    assert main(["ingest", "--data", str(data / "cascades.tsv")]) == 0
    out = capsys.readouterr().out
    assert "observed nodes at window 21600: median 7.5, max 40" in out
    assert "labels: median 2.5, max 19" in out


def test_train_saves_checkpoint(trained):
    assert (trained / "manifest.json").is_file()
    assert (trained / "weights.bin").is_file()


def test_train_prints_history(workspace, capsys):
    rc = main(
        [
            "train",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(workspace / "quick"),
            "--config", str(workspace / "tiny.json"),
            "--epochs", "0",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "epoch    0" in out
    assert "best epoch 0" in out


def test_eval_writes_artifacts(workspace, trained, capsys):
    out_dir = workspace / "eval"
    rc = main(
        [
            "eval",
            "--checkpoint", str(trained),
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--split", "val",
            "--out", str(out_dir),
        ]
    )
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["split"] == "val"
    saved = json.loads((out_dir / "metrics.json").read_text())
    assert saved["MSLE"] == printed["MSLE"]
    assert (out_dir / "per_cascade.csv").is_file()


def test_predict_lists_every_cascade(workspace, trained, capsys):
    rc = main(
        [
            "predict",
            "--checkpoint", str(trained),
            "--data", str(workspace / "data" / "cascades.tsv"),
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24
    assert lines[0].startswith("c0000\t")


def test_disable_branch_flag_lands_in_checkpoint(workspace):
    out = workspace / "nocs"
    rc = main(
        [
            "train",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(out),
            "--config", str(workspace / "tiny.json"),
            "--epochs", "0",
            "--disable-branch", "cs",
            "--fusion", "concat",
        ]
    )
    assert rc == 0
    manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
    assert manifest["config"]["use_cs"] is False
    assert manifest["config"]["fusion_mode"] == "concat"


def test_ablate_writes_table(workspace, capsys):
    rc = main(
        [
            "ablate",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(workspace / "abl"),
            "--config", str(workspace / "tiny.json"),
            "--epochs", "1",
            "--seed", "2",
        ]
    )
    assert rc == 0
    table = (workspace / "abl" / "ablation.md").read_text().strip().splitlines()
    names = [row.split("|")[1].strip() for row in table[2:]]
    assert names == ["full", "no_cs", "no_sg", "no_cg", "concat_fusion"]


def test_ablate_rejects_resume(workspace, trained, tmp_path, capsys):
    """ablate trains every variant from scratch, so it refuses --resume before training any."""
    rc = main(
        [
            "ablate",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(tmp_path / "abl"),
            "--config", str(workspace / "tiny.json"),
            "--epochs", "1",
            "--resume", str(trained),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ablate") and "--resume" in err
    assert not (tmp_path / "abl").exists()


def modules_loaded_by_cli():
    """The modules a fresh interpreter holds after importing the command line."""
    env = {**os.environ, "PYTHONPATH": str(Path(hienet.__file__).parents[1])}
    script = "import sys, hienet.cli; print(*sys.modules)"
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


def test_import_loads_no_scipy():
    """The program runs on numpy alone: importing the command line in a
    fresh interpreter loads no scipy module."""
    loaded = modules_loaded_by_cli()
    assert "hienet.cli" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_import_loads_every_program_module():
    """``src/`` holds no module that only the tests use: importing the
    command line loads every module of the package."""
    src = Path(hienet.__file__).parents[1]
    modules = set()
    for path in src.glob("hienet/**/*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        modules.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    assert "hienet.nn.tensor" in modules
    assert sorted(modules - set(modules_loaded_by_cli())) == []


@pytest.mark.parametrize("command", ["bogus", "gradcheck"])
def test_unknown_subcommand_is_usage_error(capsys, command):
    """``gradcheck`` was a command; the gradient checks now live in the tests."""
    assert main([command]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["train", "--out", "x"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_data_file_is_data_error(workspace, trained, capsys):
    rc = main(["eval", "--checkpoint", str(trained), "--data", "/no/such/file.tsv"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_corrupt_line_is_data_error(workspace, capsys):
    bad = workspace / "bad"
    bad.mkdir()
    (bad / "cascades.tsv").write_text("onlythreefields\tx\t0\n")
    (bad / "manifest.json").write_text(json.dumps({"time_unit": "seconds", "label_horizon": 100}))
    rc = main(["ingest", "--data", str(bad / "cascades.tsv"), "--window", "10"])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_window_past_horizon_is_data_error(workspace, capsys):
    rc = main(
        [
            "train",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(workspace / "x"),
            "--config", str(workspace / "tiny.json"),
            "--window", "999999",
        ]
    )
    assert rc == 2
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["0", "-5"])
@pytest.mark.parametrize("command", ["ingest", "eval", "predict"])
def test_nonpositive_window_is_config_error(workspace, trained, capsys, command, window):
    argv = [command, "--data", str(workspace / "data" / "cascades.tsv"), "--window", window]
    if command != "ingest":
        argv += ["--checkpoint", str(trained)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: window must be >= 1, got {window}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "train", "eval", "predict", "ablate"])
def test_out_naming_a_file_is_config_error(workspace, tmp_path, capsys, command):
    """A file where the output directory should be (ablate writes below it).
    eval and predict name a missing checkpoint: they check ``--out`` first."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--out", str(blocker)]
    if command in ("eval", "predict"):
        argv += ["--data", str(workspace / "data" / "cascades.tsv")]
        argv += ["--checkpoint", str(tmp_path / "missing")]
    elif command != "synth":
        argv += ["--data", str(workspace / "data" / "cascades.tsv")]
        argv += ["--config", str(workspace / "tiny.json"), "--epochs", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use") and "output directory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "change",
    [
        {"use_cs": "no"},
        {"epochs": "2"},
        {"epochs": True},
        {"mlp_sizes": 5},
        {"mlp_sizes": [16, "8"]},
        {"lr": "0.01"},
        {"fusion_mode": 1},
    ],
    ids=["string-bool", "string-int", "bool-int", "int-sizes", "string-size", "string-float", "int-str"],
)
def test_config_value_of_wrong_type_is_config_error(workspace, tmp_path, capsys, change):
    assert_train_rejects_config(workspace, tmp_path, capsys, change)


@pytest.mark.parametrize(
    "change",
    [
        {"mlp_sizes": [0]},
        {"mlp_sizes": [-3, 8]},
        {"lr": float("nan")},
        {"lr": float("inf")},
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"seed": -1},
    ],
    ids=["zero-size", "negative-size", "nan-lr", "inf-lr", "nan-beta", "inf-beta", "negative-seed"],
)
def test_config_value_out_of_range_is_config_error(workspace, tmp_path, capsys, change):
    assert_train_rejects_config(workspace, tmp_path, capsys, change)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["train", "--lr", "nan", "--epochs", "1"], "lr"),
        (["synth", "--decay", "nan"], "decay"),
        (["synth", "--branching", "inf"], "mean_branching"),
    ],
    ids=["train-lr-nan", "synth-decay-nan", "synth-branching-inf"],
)
def test_non_finite_flag_is_config_error(workspace, tmp_path, capsys, argv, key):
    """A NaN or infinite flag value is rejected by name before any output is made."""
    if argv[0] == "train":
        argv = argv + ["--data", str(workspace / "data" / "cascades.tsv"), "--config", str(workspace / "tiny.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be a finite number")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_synth_seed_is_config_error(tmp_path, capsys):
    """numpy takes no negative seed, so the spec rejects one before ``--out`` is made."""
    assert main(["synth", "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def assert_train_rejects_config(workspace, tmp_path, capsys, change):
    """train with ``change`` over the tiny config exits 1 naming the key, before any output."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY_CFG, **change}))
    data = str(workspace / "data" / "cascades.tsv")
    rc = main(["train", "--data", data, "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(change))} must be ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "manifest",
    [
        '{"time_unit": "seconds", "label_hor',
        '[86400, "seconds"]',
        '{"time_unit": "seconds"}',
        '{"time_unit": "seconds", "label_horizon": "86400"}',
        '{"label_horizon": 86400}',
        '{"time_unit": 1, "label_horizon": 86400}',
        TOO_DEEP,
    ],
    ids=[
        "truncated", "not-an-object", "no-horizon", "string-horizon", "no-unit", "number-unit",
        "too-deep",
    ],
)
def test_bad_dataset_manifest_is_data_error(workspace, trained, tmp_path, capsys, manifest):
    shutil.copy(workspace / "data" / "cascades.tsv", tmp_path / "cascades.tsv")
    (tmp_path / "manifest.json").write_text(manifest)
    for argv in corpus_commands(trained, str(tmp_path / "cascades.tsv"), tmp_path):
        assert main(argv) == 2, argv[0]
        assert "data error" in capsys.readouterr().err


def corrupt_copy(trained, tmp_path, name, damage):
    """A copy of the trained checkpoint with ``damage`` applied to file ``name``."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained, ckpt)
    path = ckpt / name
    path.write_bytes(damage(path.read_bytes()))
    return ckpt


def edit_manifest(change):
    """A damage that applies ``change`` to the parsed checkpoint manifest."""

    def damage(raw):
        manifest = json.loads(raw)
        change(manifest)
        return json.dumps(manifest).encode()

    return damage


def first_adjacency_row(row):
    return edit_manifest(lambda m: m.update(adjacency=[row] + m["adjacency"][1:]))


def user_with_neighbours(adjacency, count):
    return next(i for i, row in enumerate(adjacency) if len(row) >= count)


def one_way_edge(manifest):
    adjacency = manifest["adjacency"]
    i = user_with_neighbours(adjacency, 1)
    adjacency[adjacency[i][0]].remove(i)


def unsorted_row(manifest):
    adjacency = manifest["adjacency"]
    adjacency[user_with_neighbours(adjacency, 2)].reverse()


def self_loop(manifest):
    adjacency = manifest["adjacency"]
    i = user_with_neighbours(adjacency, 1)
    adjacency[i] = sorted(adjacency[i] + [i])


def repeated_neighbour(manifest):
    adjacency = manifest["adjacency"]
    i = user_with_neighbours(adjacency, 1)
    adjacency[i] = sorted(adjacency[i] + adjacency[i][:1])


@pytest.mark.parametrize(
    "command, name, damage",
    [
        ("predict", "weights.bin", lambda raw: raw[: len(raw) // 2]),
        ("eval", "manifest.json", lambda raw: raw[: len(raw) // 2]),
        ("eval", "manifest.json", edit_manifest(lambda m: m["params"][0].pop("offset"))),
        ("predict", "manifest.json", edit_manifest(lambda m: m["config"].update(walks_k=3))),
        ("eval", "manifest.json", edit_manifest(lambda m: m.pop("train_mean_log"))),
        ("eval", "manifest.json", edit_manifest(lambda m: m.update(train_mean_log="1.5"))),
        ("eval", "manifest.json", first_adjacency_row(["x"])),
        ("predict", "manifest.json", first_adjacency_row(5)),
        ("eval", "manifest.json", edit_manifest(lambda m: m.update(adjacency=m["adjacency"][:-1]))),
        ("predict", "manifest.json", first_adjacency_row([10**6])),
        ("eval", "manifest.json", first_adjacency_row([-1])),
        ("predict", "manifest.json", edit_manifest(lambda m: m.update(users=m["users"][:-1] + m["users"][:1]))),
        ("predict", "manifest.json", edit_manifest(lambda m: m["config"].update(hierarchical=True))),
        ("eval", "manifest.json", edit_manifest(lambda m: m["config"].update(use_cs="no"))),
        ("predict", "manifest.json", edit_manifest(lambda m: m["config"].update(mlp_sizes=[0]))),
        ("predict", "manifest.json", edit_manifest(one_way_edge)),
        ("eval", "manifest.json", edit_manifest(unsorted_row)),
        ("predict", "manifest.json", edit_manifest(self_loop)),
        ("eval", "manifest.json", edit_manifest(repeated_neighbour)),
        ("predict", "weights.bin", lambda raw: raw + bytes(8)),
        ("eval", "manifest.json", lambda raw: TOO_DEEP.encode()),
        ("eval", "weights.bin", lambda raw: raw[:-8] + struct.pack("<d", float("nan"))),
        ("predict", "weights.bin", lambda raw: struct.pack("<d", float("-inf")) + raw[8:]),
    ],
    ids=[
        "truncated-weights",
        "garbled-manifest",
        "entry-without-offset",
        "unknown-config-key",
        "no-train-mean-log",
        "string-train-mean-log",
        "adjacency-row-of-strings",
        "adjacency-row-not-a-list",
        "adjacency-too-short",
        "neighbour-out-of-range",
        "negative-neighbour",
        "repeated-user",
        "stale-hierarchical-key",
        "string-bool-config",
        "zero-mlp-size",
        "one-way-edge",
        "unsorted-adjacency-row",
        "self-loop",
        "repeated-neighbour",
        "weights-too-long",
        "too-deep-manifest",
        "nan-weight",
        "inf-weight",
    ],
)
def test_corrupt_checkpoint_is_data_error(workspace, trained, tmp_path, capsys, command, name, damage):
    """The checkpoint is checked before any output is made, so ``--out`` is not created."""
    ckpt = corrupt_copy(trained, tmp_path, name, damage)
    data = workspace / "data" / "cascades.tsv"
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "data error" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_resume_on_other_users_is_data_error(workspace, trained, tmp_path, capsys):
    """Embedding row i is user i's, so resuming on a corpus whose users are
    all renamed would hand every trained row to another user."""
    data = workspace / "data" / "cascades.tsv"

    def rename(user):
        return None if user is None else "renamed-" + user

    records = [
        replace(
            r,
            root_user=rename(r.root_user),
            events=[CascadeEvent(rename(e.retweeter), rename(e.source), e.elapsed) for e in r.events],
        )
        for r in load_cascades(data)
    ]
    renamed = write_corpus(tmp_path / "renamed", records, load_manifest(data))
    rc = main(
        [
            "train",
            "--data", str(renamed),
            "--out", str(tmp_path / "run"),
            "--config", str(workspace / "tiny.json"),
            "--resume", str(trained),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint") and "other users" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_resume_onto_other_layout_is_data_error(workspace, trained, tmp_path, capsys):
    """Weights are restored before any output is made, so a checkpoint whose
    params are not the model's layout leaves no output directory behind."""
    ckpt = corrupt_copy(
        trained, tmp_path, "manifest.json", edit_manifest(lambda m: m["params"][0]["shape"].append(1))
    )
    rc = main(
        [
            "train",
            "--data", str(workspace / "data" / "cascades.tsv"),
            "--out", str(tmp_path / "run"),
            "--config", str(workspace / "tiny.json"),
            "--resume", str(ckpt),
        ]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: checkpoint params")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_config_file_not_utf8_is_data_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"epochs": 1, "seed": "\xff"}')
    data = str(workspace / "data" / "cascades.tsv")
    rc = main(["train", "--data", data, "--out", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: config file") and "not valid JSON" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "json_file, commands",
    [
        ("config", ["train"]),
        ("dataset-manifest", ["ingest", "train", "eval", "predict"]),
        ("checkpoint-manifest", ["train", "eval", "predict"]),
    ],
    ids=["config", "dataset-manifest", "checkpoint-manifest"],
)
def test_json_file_that_is_a_directory_is_data_error(
    workspace, trained, tmp_path, capsys, json_file, commands
):
    """Each command that reads the JSON file exits 2 before making ``--out``."""
    shutil.copytree(workspace / "data", tmp_path / "data")
    shutil.copytree(trained, tmp_path / "ckpt")
    shutil.copy(workspace / "tiny.json", tmp_path / "tiny.json")
    blocked = {
        "config": tmp_path / "tiny.json",
        "dataset-manifest": tmp_path / "data" / "manifest.json",
        "checkpoint-manifest": tmp_path / "ckpt" / "manifest.json",
    }[json_file]
    blocked.unlink()
    blocked.mkdir()
    data, ckpt, out = str(tmp_path / "data" / "cascades.tsv"), str(tmp_path / "ckpt"), str(tmp_path / "out")
    argv = {
        "ingest": ["ingest", "--data", data],
        "train": [
            "train", "--data", data, "--out", out, "--config", str(tmp_path / "tiny.json"),
            "--epochs", "0", "--resume", ckpt,
        ],
        "eval": ["eval", "--checkpoint", ckpt, "--data", data, "--out", out],
        "predict": ["predict", "--checkpoint", ckpt, "--data", data, "--out", out],
    }
    for command in commands:
        assert main(argv[command]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("data error: "), command
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def corpus_commands(trained, data, tmp_path):
    return [
        ["ingest", "--data", data],
        ["train", "--data", data, "--out", str(tmp_path / "run"), "--epochs", "0"],
        ["eval", "--checkpoint", str(trained), "--data", data],
        ["predict", "--checkpoint", str(trained), "--data", data],
    ]


def test_empty_cascade_file_is_data_error(workspace, trained, tmp_path, capsys):
    (tmp_path / "cascades.tsv").write_text("")
    shutil.copy(workspace / "data" / "manifest.json", tmp_path / "manifest.json")
    for argv in corpus_commands(trained, str(tmp_path / "cascades.tsv"), tmp_path):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("data error: no cascades in"), argv[0]
        assert "Traceback" not in err


def test_undecodable_cascade_line_is_data_error(workspace, trained, tmp_path, capsys):
    lines = (workspace / "data" / "cascades.tsv").read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b"\t", b"\xff\t", 1)
    (tmp_path / "cascades.tsv").write_bytes(b"".join(lines))
    shutil.copy(workspace / "data" / "manifest.json", tmp_path / "manifest.json")
    for argv in corpus_commands(trained, str(tmp_path / "cascades.tsv"), tmp_path):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("data error: line 3: not valid UTF-8"), argv[0]
        assert "Traceback" not in err

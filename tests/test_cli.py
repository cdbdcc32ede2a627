import json
import shutil

import pytest

from hienet.cli import main

TINY_CFG = {
    "epochs": 2,
    "batch_size": 8,
    "lr": 3e-3,
    "walks.k": 4,
    "walks.n": 5,
    "snapshot.m_max": 4,
    "snapshot.pe_dim": 8,
    "snapshot.time_bins": 16,
    "model.embed_dim": 8,
    "model.lstm_hidden": 6,
    "model.gcn_hidden": 8,
    "model.d_model": 8,
    "model.heads": 2,
    "model.ff_hidden": 12,
    "model.mlp_sizes": [16, 8],
}


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


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seeds", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    assert "FAIL" not in out


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


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["bogus"]) == 1
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


def corrupt_copy(trained, tmp_path, name, damage):
    """A copy of the trained checkpoint with ``damage`` applied to file ``name``."""
    ckpt = tmp_path / "ckpt"
    shutil.copytree(trained, ckpt)
    path = ckpt / name
    path.write_bytes(damage(path.read_bytes()))
    return ckpt


def drop_offset(raw):
    manifest = json.loads(raw)
    del manifest["params"][0]["offset"]
    return json.dumps(manifest).encode()


def unknown_config_key(raw):
    manifest = json.loads(raw)
    manifest["config"]["walks_k"] = 3
    return json.dumps(manifest).encode()


@pytest.mark.parametrize(
    "command, name, damage",
    [
        ("predict", "weights.bin", lambda raw: raw[: len(raw) // 2]),
        ("eval", "manifest.json", lambda raw: raw[: len(raw) // 2]),
        ("eval", "manifest.json", drop_offset),
        ("predict", "manifest.json", unknown_config_key),
    ],
    ids=["truncated-weights", "garbled-manifest", "entry-without-offset", "unknown-config-key"],
)
def test_corrupt_checkpoint_is_data_error(workspace, trained, tmp_path, capsys, command, name, damage):
    ckpt = corrupt_copy(trained, tmp_path, name, damage)
    data = workspace / "data" / "cascades.tsv"
    rc = main([command, "--checkpoint", str(ckpt), "--data", str(data)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err

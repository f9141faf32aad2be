import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import darlr
from darlr import cli
from darlr import dataset as ds
from darlr import engine
from darlr import worldmodel as wmod
from darlr.nncore import read_fragment, write_fragment


def dir_checksums(root):
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def json_text(value):
    """A string as it is (an edit that breaks the JSON), anything else as JSON."""
    return value if isinstance(value, str) else json.dumps(value)


def read_checkpoint(path, header_lines=0):
    """(header lines, records) of a .frag file or, with two header lines, a worldmodel.ckpt."""
    with open(path, "rb") as fh:
        header = [fh.readline() for _ in range(header_lines)]
        return header, read_fragment(fh)


def write_checkpoint(path, header, records):
    with open(path, "wb") as fh:
        fh.writelines(header)
        write_fragment(fh, records)


NAN, INF = float("nan"), float("inf")
SPEC = {"users": 12, "items": 15, "categories": 4, "log_density": 0.3, "seed": 5}
WM_CFG = {"members": 2, "epochs": 8, "batch": 32, "lr": 0.003, "seed": 2}
POLICY_CFG = {
    "seeds": [1], "epochs": 1, "trajectories_per_epoch": 3, "eval_episodes": 4,
    "eval_every": 1, "k_sel": 3, "candidate_pool": 6, "d_model": 8, "d_pref": 6,
    "d_emb": 4, "hidden": [16],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = write_json(root / "spec.json", SPEC)
    data_dir = root / "data"
    assert cli.main(["gen-data", "--spec", spec_path, "--out", str(data_dir)]) == 0
    wm_cfg = write_json(root / "wm.json", WM_CFG)
    wm_path = root / "wm.ckpt"
    assert cli.main(["train-wm", "--config", wm_cfg, "--data", str(data_dir), "--out", str(wm_path)]) == 0
    policy_cfg = write_json(root / "policy.json", POLICY_CFG)
    return {"root": root, "data": str(data_dir), "wm": str(wm_path), "policy_cfg": policy_cfg}


class TestGenData:
    def test_deterministic_directory(self, tmp_path):
        spec_path = write_json(tmp_path / "s.json", SPEC)
        cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "a")])
        cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "b")])
        assert dir_checksums(tmp_path / "a") == dir_checksums(tmp_path / "b")

    def test_single_user_rejected(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "s.json", {"users": 1, "items": 5})
        assert cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "x")]) == 2
        assert "users" in capsys.readouterr().err

    def test_density_row_count(self, tmp_path):
        spec_path = write_json(tmp_path / "s.json", {"users": 10, "items": 10, "log_density": 0.25, "seed": 0})
        cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "d")])
        rows = (tmp_path / "d" / "interactions.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 25

    def test_unknown_spec_key_rejected(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "s.json", {"users": 5, "items": 5, "densty": 0.2})
        assert cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "x")]) == 2
        assert "unknown keys" in capsys.readouterr().err


    @pytest.mark.parametrize("spec", [
        [1, 2], "users", {"users": "5", "items": 5}, {"users": 5, "items": 5.5},
        {"users": 5, "items": 5, "noise_sd": NAN}, {"users": 5, "items": 5, "noise_sd": INF},
        {"users": 5, "items": 5, "popularity_skew": NAN}, {"users": 5, "items": 5, "log_density": True},
        {"users": 5, "items": 5, "categories": True}, {"users": 5, "items": 5, "seed": 1.5},
        {"users": 5, "items": 5, "seed": "5"}, {"users": 5, "items": 5, "latent_dim": None},
        {"users": 5}, {"users": 5, "items": 5, "noise_sd": 1.01},
        {"users": 5, "items": 5, "popularity_skew": 10.01},
    ])
    def test_spec_of_wrong_type_rejected(self, tmp_path, capsys, spec):
        spec_path = write_json(tmp_path / "s.json", spec)
        assert cli.main(["gen-data", "--spec", spec_path, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not (tmp_path / "x").exists()


class TestTrainWm:
    def test_outputs_exist(self, workspace):
        assert Path(workspace["wm"]).exists()
        loss_csv = Path(workspace["wm"]).with_suffix(".loss.csv")
        lines = loss_csv.read_text().strip().splitlines()
        assert lines[0] == "member,epoch,nll"
        assert len(lines) == 1 + WM_CFG["members"] * WM_CFG["epochs"]
        # each loss reads back bit for bit
        wm = wmod.train_world_model(ds.load_dataset(workspace["data"]),
                                    wmod.WorldModelConfig(**WM_CFG))
        for line in lines[1:]:
            k, e, nll = line.split(",")
            assert float(nll) == wm.nll_history[int(k)][int(e)]

    def test_seed_determinism_and_reload(self, workspace, tmp_path):
        wm_cfg = write_json(tmp_path / "wm.json", WM_CFG)
        out2 = tmp_path / "wm2.ckpt"
        assert cli.main(["train-wm", "--config", wm_cfg, "--data", workspace["data"], "--out", str(out2)]) == 0
        assert Path(workspace["wm"]).read_bytes() == out2.read_bytes()
        d = ds.load_dataset(workspace["data"])
        in_memory = wmod.train_world_model(d, wmod.WorldModelConfig(**WM_CFG))
        reloaded = wmod.load_world_model(out2, d)
        pm_a = wmod.predict_matrix(in_memory)
        pm_b = wmod.predict_matrix(reloaded)
        assert np.array_equal(pm_a.mean, pm_b.mean)

    def test_unknown_config_key_rejected(self, workspace, tmp_path, capsys):
        bad = write_json(tmp_path / "wm.json", {"member": 2})
        rc = cli.main(["train-wm", "--config", bad, "--data", workspace["data"], "--out", str(tmp_path / "w")])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err


    def test_config_not_an_object_rejected(self, workspace, tmp_path, capsys):
        bad = write_json(tmp_path / "wm.json", [1, 2])
        rc = cli.main(["train-wm", "--config", bad, "--data", workspace["data"], "--out", str(tmp_path / "w")])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "expected a JSON object" in err[0]


    def test_diverging_training_prints_one_error_line(self, workspace, tmp_path, capsys):
        cfg = write_json(tmp_path / "wm.json", {"members": 1, "epochs": 3, "batch": 16, "lr": 1e160})
        out = tmp_path / "wm.ckpt"
        rc = cli.main(["train-wm", "--config", cfg, "--data", workspace["data"], "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == ["error: member 0 diverged at epoch 0"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wm.json"]

    @pytest.mark.parametrize("bad", [
        {"members": "2"}, {"members": 0}, {"members": 2.0}, {"members": True},
        {"epochs": 0}, {"epochs": None}, {"batch": 0}, {"batch": -4}, {"batch": 1.5},
        {"d_emb": 0}, {"d_emb": False}, {"seed": 1.5}, {"seed": "0"}, {"seed": True},
        {"lr": 0}, {"lr": -0.1}, {"lr": float("nan")}, {"lr": "0.1"}, {"lr": True}, {"lr": None},
        {"hidden": 5}, {"hidden": []}, {"hidden": [0]}, {"hidden": [8, "8"]},
        {"hidden": [True]}, {"hidden": {"0": 8}},
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, bad):
        cfg = write_json(tmp_path / "wm.json", bad)
        out = tmp_path / "w.ckpt"
        rc = cli.main(["train-wm", "--config", cfg, "--data", str(tmp_path / "no-data"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        key = next(iter(bad))
        assert len(err) == 1 and err[0].startswith(f"error: world-model config: '{key}' must be")
        assert not out.exists()


# Bad policy values, each merged into POLICY_CFG: wrong JSON types,
# non-finite numbers, out-of-range values, bad seed lists, unknown keys
# (two of them removed keys, at the values they used to default to).
BAD_POLICY = {
    "k_sel=2.5": {"k_sel": 2.5},
    "epochs=1.5": {"epochs": 1.5},
    "w_rec=2.5": {"w_rec": 2.5},
    "max_steps='5'": {"max_steps": "5"},
    "max_steps=-1": {"max_steps": -1},
    "d_model=0": {"d_model": 0},
    "d_model=true": {"d_model": True},
    "lambda_u=nan": {"lambda_u": NAN},
    "lr=inf": {"lr": INF},
    "lr=true": {"lr": True},
    "lr=1.01": {"lr": 1.01},
    "lambda_s=1.01e6": {"lambda_s": 1.01e6},
    "lambda_d=1.01e6": {"lambda_d": 1.01e6},
    "lambda_u=1.01e6": {"lambda_u": 1.01e6},
    "lambda_e=1.01e6": {"lambda_e": 1.01e6},
    "lambda_u=-0.1": {"lambda_u": -0.1},
    "uncertainty_eps=-1": {"uncertainty_eps": -1},
    "uncertainty_eps=0": {"uncertainty_eps": 0},
    "eval_greedy='no'": {"eval_greedy": "no"},
    "eval_every=-1": {"eval_every": -1},
    "encoder_heads=1": {"encoder_heads": 1},
    "alpha_shape=1.0": {"alpha_shape": 1.0},
    "hidden=[0]": {"hidden": [0]},
    "hidden=16": {"hidden": 16},
    "candidate_pool=null": {"candidate_pool": None},
    "candidate_pool=0": {"candidate_pool": 0},
    "candidate_pool=-1": {"candidate_pool": -1},
    "k_sel=100,candidate_pool=6": {"k_sel": 100},
    "d_emb=-1": {"d_emb": -1},
    "d_pref=-1": {"d_pref": -1},
    "encoder_layers=-1": {"encoder_layers": -1},
    "variant=5": {"variant": 5},
    "seeds=[1.5]": {"seeds": [1.5]},
    "seeds=[1,1]": {"seeds": [1, 1]},
    "seeds=[true]": {"seeds": [True]},
    "seeds=[]": {"seeds": []},
    "seeds=3": {"seeds": 3},
    "unknown": {"k_selection": 3},
}


@pytest.mark.parametrize("command", ["train-policy", "ablate"])
@pytest.mark.parametrize("bad", BAD_POLICY.values(), ids=BAD_POLICY.keys())
def test_bad_policy_config_rejected_before_loading(tmp_path, capsys, command, bad):
    cfg = write_json(tmp_path / "policy.json", {**POLICY_CFG, **bad})
    out = tmp_path / "out"
    rc = cli.main([command, "--config", cfg, "--data", str(tmp_path / "no-data"),
                   "--wm", str(tmp_path / "no-wm"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: ")
    unknown = set(bad) - {f.name for f in dataclasses.fields(engine.TrainSettings)} - {"seeds"}
    if unknown:
        assert err[0] == f"error: config: unknown keys: {', '.join(sorted(unknown))}"
    assert not out.exists()


class TestTrainPolicy:
    @pytest.mark.parametrize("seeds", ["1,1", "1,x", "2,1.5", ""])
    def test_bad_seed_flag_rejected_before_loading(self, tmp_path, capsys, seeds):
        out = tmp_path / "out"
        rc = cli.main([
            "train-policy", "--config", write_json(tmp_path / "policy.json", POLICY_CFG),
            "--data", str(tmp_path / "no-data"),
            "--wm", str(tmp_path / "no-wm"), "--out", str(out), "--seed", seeds,
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--seed" in err[0]
        assert not out.exists()

    def test_r_static_bundle_has_frozen_matrix(self, workspace, tmp_path, monkeypatch):
        def no_write(*args, **kwargs):
            raise AssertionError("r_static wrote to the shaped matrix")

        monkeypatch.setattr(engine.ShapedRewardMatrix, "write", no_write)
        out = tmp_path / "run"
        rc = cli.main([
            "train-policy", "--config", workspace["policy_cfg"], "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(out), "--variant", "r_static",
        ])
        assert rc == 0
        d = ds.load_dataset(workspace["data"])
        bundle = engine.load_bundle(out / "seed_1", d)
        wm = wmod.load_world_model(workspace["wm"], d)
        pm = wmod.predict_matrix(wm)
        assert np.array_equal(bundle["matrix"].current, pm.mean)

    def test_unknown_variant_exit_2_lists_names(self, workspace, tmp_path, capsys):
        rc = cli.main([
            "train-policy", "--config", workspace["policy_cfg"], "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(tmp_path / "x"), "--variant", "bogus",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        for name in engine.VARIANTS:
            assert name in err

    def test_seed_list_creates_independent_runs(self, workspace, tmp_path):
        out = tmp_path / "runs"
        rc = cli.main([
            "train-policy", "--config", workspace["policy_cfg"], "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(out), "--seed", "1,2",
        ])
        assert rc == 0
        m1 = (out / "seed_1" / "metrics.csv").read_text()
        m2 = (out / "seed_2" / "metrics.csv").read_text()
        assert m1 != m2
        for seed_dir in (out / "seed_1", out / "seed_2"):
            for name in ("config.json", "recommender.frag", "selector.frag",
                         "matrix.frag", "worldmodel.ckpt", "metrics.csv"):
                assert (seed_dir / name).exists()

    def test_config_not_an_object_rejected(self, workspace, tmp_path, capsys):
        bad = write_json(tmp_path / "policy.json", [1, 2])
        rc = cli.main([
            "train-policy", "--config", bad, "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "expected a JSON object" in err[0]

    def test_undecodable_config_rejected(self, workspace, tmp_path, capsys):
        bad = tmp_path / "policy.json"
        bad.write_bytes(b'{"lr": "\xff"}')
        rc = cli.main([
            "train-policy", "--config", str(bad), "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: invalid JSON: ")

    def test_hash_mismatch_rejected(self, workspace, tmp_path, capsys):
        # another dataset gets the one line whatever its size: the hash is
        # compared before the members are built against the dataset
        for change in ({"seed": 77}, {"users": 14}, {"items": 18}):
            name = "-".join(f"{k}={v}" for k, v in change.items())
            other_data, out = tmp_path / name, tmp_path / f"out-{name}"
            spec = write_json(tmp_path / f"{name}.json", {**SPEC, **change})
            assert cli.main(["gen-data", "--spec", spec, "--out", str(other_data)]) == 0
            rc = cli.main([
                "train-policy", "--config", workspace["policy_cfg"], "--data", str(other_data),
                "--wm", workspace["wm"], "--out", str(out),
            ])
            assert rc == 2, change
            err = capsys.readouterr().err.strip().splitlines()
            assert err == ["error: world model was trained on a different dataset (hash mismatch)"]
            assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: json.dumps(m)[:-1], "invalid JSON: "),
        (lambda m: [2], "expected a JSON object, got list"),
        (lambda m: {**m, "K": "2"}, "'K' must be an integer, got '2'"),
        (lambda m: {**m, "hidden": 5}, "'hidden' must be a list of integers >= 1, got 5"),
        (lambda m: {**m, "K": 0}, "'K' must be an integer >= 1, got 0"),
        (lambda m: {k: v for k, v in m.items() if k != "K"}, "missing keys: K"),
        (lambda m: {**m, "r_min": 1.0, "r_max": 0.0}, "r_min 1.0 must be below r_max 0.0"),
    ], ids=["truncated", "list", "K='2'", "hidden=5", "K=0", "no-K", "r_min>r_max"])
    def test_malformed_world_model_manifest_names_the_file(self, workspace, tmp_path, capsys,
                                                           edit, message):
        wm = tmp_path / "wm.ckpt"
        (magic, line), records = read_checkpoint(workspace["wm"], header_lines=2)
        manifest = json_text(edit(json.loads(line[len(b"manifest "):])))
        write_checkpoint(wm, [magic, f"manifest {manifest}\n".encode()], records)
        out = tmp_path / "out"
        rc = cli.main(["train-policy", "--config", workspace["policy_cfg"], "--data",
                       workspace["data"], "--wm", str(wm), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {wm}: manifest: ") and message in err[0]
        assert not out.exists()

    def test_pool_smaller_than_k_sel_rejected_before_training(self, workspace, tmp_path, capsys):
        # the pool is min(users - 1, candidate_pool): 11 users on this 12-user set
        cfg = write_json(tmp_path / "policy.json", {**POLICY_CFG, "k_sel": 20, "candidate_pool": 100})
        out = tmp_path / "x"
        rc = cli.main(["train-policy", "--config", cfg, "--data", workspace["data"],
                       "--wm", workspace["wm"], "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: k_sel=20 exceeds the candidate pool of 11 users "
                       "(min(users - 1, candidate_pool))"]
        assert not out.exists()

    def test_oversized_model_ends_in_one_error_line(self, workspace, tmp_path, capsys):
        # the first d_model block is 33 x 10**12 floats, 240 TiB: past the
        # x86-64 address space, so numpy refuses it at once and touches nothing
        cfg = write_json(tmp_path / "policy.json", {**POLICY_CFG, "d_model": 10**12, "d_emb": 16})
        out = tmp_path / "x"
        rc = cli.main(["train-policy", "--config", cfg, "--data", workspace["data"],
                       "--wm", workspace["wm"], "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_one_dataset_hash_per_process(self, workspace, tmp_path, monkeypatch):
        # each bundle's dataset_hash is the world model's, hashed when it was loaded
        calls = []
        content_hash = ds.content_hash

        def counting_content_hash(d):
            calls.append(d)
            return content_hash(d)

        for module in (ds, wmod, engine):
            if getattr(module, "content_hash", None) is content_hash:
                monkeypatch.setattr(module, "content_hash", counting_content_hash)
        out = tmp_path / "runs"
        rc = cli.main([
            "train-policy", "--config", workspace["policy_cfg"], "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(out), "--seed", "1,2",
        ])
        assert rc == 0
        assert len(calls) == 1
        monkeypatch.undo()
        wm = wmod.load_world_model(workspace["wm"], ds.load_dataset(workspace["data"]))
        for seed in (1, 2):
            config = json.loads((out / f"seed_{seed}" / "config.json").read_text())
            assert config["dataset_hash"] == wm.manifest.dataset_hash


@pytest.fixture(scope="module")
def trained_bundle(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    rc = cli.main([
        "train-policy", "--config", workspace["policy_cfg"], "--data", workspace["data"],
        "--wm", workspace["wm"], "--out", str(out),
    ])
    assert rc == 0
    return str(out / "seed_1")


class TestEval:
    def test_prints_report_row(self, workspace, trained_bundle, capsys):
        rc = cli.main([
            "eval", "--bundle", trained_bundle, "--data", workspace["data"],
            "--episodes", "5", "--seed", "3",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "R_tra,R_tra_std,R_each,Length,MCD,reward_error"
        assert len(lines[1].split(",")) == 6

    def test_deterministic_per_bundle_and_seed(self, workspace, trained_bundle, capsys):
        args = ["eval", "--bundle", trained_bundle, "--data", workspace["data"],
                "--episodes", "5", "--seed", "3"]
        cli.main(args)
        first = capsys.readouterr().out
        cli.main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_reads_neither_selector_nor_world_model(self, workspace, trained_bundle, tmp_path,
                                                    capsys):
        bundle = tmp_path / "policy-only"
        shutil.copytree(trained_bundle, bundle)
        (bundle / "selector.frag").unlink()
        (bundle / "worldmodel.ckpt").unlink()
        args = ["--data", workspace["data"], "--episodes", "5", "--seed", "3"]
        assert cli.main(["eval", "--bundle", trained_bundle, *args]) == 0
        full = capsys.readouterr().out
        assert cli.main(["eval", "--bundle", str(bundle), *args]) == 0
        assert capsys.readouterr().out == full

    def test_other_dataset_exits_1(self, workspace, trained_bundle, tmp_path, capsys):
        # a bundle of another dataset fails in engine.load_policy, with exit
        # code 1; a world model of another dataset gets 2 (TestTrainPolicy)
        spec = write_json(tmp_path / "spec.json", {**SPEC, "seed": 77})
        assert cli.main(["gen-data", "--spec", spec, "--out", str(tmp_path / "other")]) == 0
        capsys.readouterr()
        rc = cli.main(["eval", "--bundle", trained_bundle, "--data", str(tmp_path / "other"),
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bundle was trained on a different dataset (hash mismatch)"
        ]

    def test_edited_config_rejected(self, workspace, trained_bundle, tmp_path, capsys):
        bundle = tmp_path / "edited"
        shutil.copytree(trained_bundle, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["settings"]["lr"] *= 2
        (bundle / "config.json").write_text(json.dumps(config))
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "config_hash" in err[0]

    def test_stale_settings_key_names_the_bundle_file(self, workspace, trained_bundle, tmp_path, capsys):
        # settings written before a key was removed (each at its last value
        # in use) fail the loader, which names the bundle's config.json
        # rather than the user's config
        for key, value in (("critic_mode", "v"), ("alpha_shape", 1.0), ("encoder_heads", 1)):
            bundle = tmp_path / f"stale-{key}"
            shutil.copytree(trained_bundle, bundle)
            config = json.loads((bundle / "config.json").read_text())
            config["settings"][key] = value
            (bundle / "config.json").write_text(json.dumps(config))
            rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                           "--episodes", "5", "--seed", "3"])
            assert rc == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: {bundle / 'config.json'}: unknown keys: {key}"]

    @pytest.mark.parametrize("edit, message", [
        (lambda c: [1], "expected a JSON object, got list"),
        (lambda c: {k: v for k, v in c.items() if k != "config_hash"}, "missing keys: config_hash"),
        (lambda c: {**c, "settings": 5}, "expected a JSON object, got int"),
        (lambda c: json.dumps(c)[:-1], "invalid JSON: "),
    ], ids=["list", "no-config_hash", "settings=5", "truncated"])
    def test_malformed_config_json_names_the_file(self, workspace, trained_bundle, tmp_path,
                                                  capsys, edit, message):
        bundle = tmp_path / "malformed"
        shutil.copytree(trained_bundle, bundle)
        config = json.loads((bundle / "config.json").read_text())
        (bundle / "config.json").write_text(json_text(edit(config)))
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bundle / 'config.json'}: ") and message in err[0]

    def test_text_fragment_rejected(self, workspace, trained_bundle, tmp_path, capsys):
        # a recommender.frag in the text layout written before .npy records
        bundle = tmp_path / "text"
        shutil.copytree(trained_bundle, bundle)
        (bundle / "recommender.frag").write_text("array rec/emb_item f 1 2\n0.5 0.25\n")
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "not a darlr checkpoint fragment" in err[0]

    @pytest.mark.parametrize("records, message", [
        ({"matrix:range": np.array([0.0, 1.0])}, "missing record matrix:current"),
        ({"matrix:current": np.zeros((3, 4)), "matrix:range": np.array([0.0, 1.0])},
         "matrix:current has shape (3, 4), expected (12, 15)"),
        ({"matrix:current": np.zeros((12, 15)), "matrix:range": np.array([0.0, 1.0, 2.0])},
         "matrix:range has shape (3,), expected (2,)"),
        ({"matrix:current": np.zeros((12, 15)), "matrix:range": np.array([1.0, 0.0])},
         "matrix:range [1.0, 0.0] has r_min >= r_max"),
        ({"matrix:current": np.zeros((12, 15)), "matrix:range": np.array([0.5, 0.5])},
         "matrix:range [0.5, 0.5] has r_min >= r_max"),
        ({"matrix:current": np.zeros((12, 15)), "matrix:range": np.array([0.0, NAN])},
         "matrix:range holds a value that is not finite"),
        ({"matrix:current": np.full((12, 15), NAN), "matrix:range": np.array([0.0, 1.0])},
         "matrix:current holds a value that is not finite"),
        ({"matrix:current": np.full((12, 15), "0.5"), "matrix:range": np.array([0.0, 1.0])},
         "matrix:current has dtype <U3, expected float"),
    ])
    def test_bad_matrix_records_rejected(self, workspace, trained_bundle, tmp_path, capsys,
                                         records, message):
        bundle = tmp_path / "bad-matrix"
        shutil.copytree(trained_bundle, bundle)
        with open(bundle / "matrix.frag", "wb") as fh:
            write_fragment(fh, records)
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bundle / 'matrix.frag'}: ") and message in err[0]

    @pytest.mark.parametrize("record", ["rec/emb_user:values", "rec/emb_user:step_count"])
    def test_missing_recommender_record_names_the_file(self, workspace, trained_bundle, tmp_path,
                                                       capsys, record):
        bundle = tmp_path / "missing"
        shutil.copytree(trained_bundle, bundle)
        frag = bundle / "recommender.frag"
        _, records = read_checkpoint(frag)
        del records[record]
        write_checkpoint(frag, [], records)
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {frag}: missing record {record}"]

    def test_step_counts_that_disagree_name_the_file(self, workspace, trained_bundle, tmp_path,
                                                     capsys):
        # an agent's blocks share one Adam step count; a record that says
        # otherwise is a damaged file, not a state to restore
        bundle = tmp_path / "steps"
        shutil.copytree(trained_bundle, bundle)
        frag = bundle / "recommender.frag"
        _, records = read_checkpoint(frag)
        steps = int(records["rec/emb_user:step_count"])
        records["rec/actor/L0/W:step_count"] = np.int64(steps + 4)
        write_checkpoint(frag, [], records)
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: {frag}: blocks of one set disagree on step_count: "
            f"rec/emb_user is at {steps}, rec/actor/L0/W at {steps + 4}"
        ]

    @pytest.mark.parametrize("record, value, message", [
        ("rec/actor/L0/W:values", NAN, "holds a value that is not finite"),
        ("rec/emb_user:adam_m", INF, "holds a value that is not finite"),
        ("rec/enc/pos:adam_v", "x", "has dtype <U1, expected float"),
        ("rec/proj/b:values", 1, "has dtype int64, expected float"),
    ])
    def test_bad_recommender_record_names_the_file(self, workspace, trained_bundle, tmp_path,
                                                   capsys, record, value, message):
        bundle = tmp_path / "bad-record"
        shutil.copytree(trained_bundle, bundle)
        frag = bundle / "recommender.frag"
        _, records = read_checkpoint(frag)
        if isinstance(value, float):
            records[record] = records[record].copy()
            records[record].flat[-1] = value
        else:
            records[record] = np.full(records[record].shape, value)
        write_checkpoint(frag, [], records)
        rc = cli.main(["eval", "--bundle", str(bundle), "--data", workspace["data"],
                       "--episodes", "5", "--seed", "3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"error: {frag}: {record} {message}"]

    def test_nan_world_model_record_names_the_file(self, workspace, tmp_path, capsys):
        wm = tmp_path / "wm.ckpt"
        header, records = read_checkpoint(workspace["wm"], header_lines=2)
        records["wm0/emb/item_id:values"] = np.full_like(records["wm0/emb/item_id:values"], NAN)
        write_checkpoint(wm, header, records)
        out = tmp_path / "out"
        rc = cli.main(["train-policy", "--config", workspace["policy_cfg"], "--data",
                       workspace["data"], "--wm", str(wm), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {wm}: wm0/emb/item_id:values holds a value that is not finite"]
        assert not out.exists()

    def test_missing_world_model_record_names_the_file(self, workspace, tmp_path, capsys):
        wm = tmp_path / "wm.ckpt"
        header, records = read_checkpoint(workspace["wm"], header_lines=2)
        del records["wm1/head/L0/W:adam_m"]
        write_checkpoint(wm, header, records)
        out = tmp_path / "out"
        rc = cli.main(["train-policy", "--config", workspace["policy_cfg"], "--data",
                       workspace["data"], "--wm", str(wm), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {wm}: missing record wm1/head/L0/W:adam_m"]
        assert not out.exists()


    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episode_count_below_one_rejected_before_loading(self, tmp_path, capsys, episodes):
        rc = cli.main(["eval", "--bundle", str(tmp_path / "no-bundle"), "--data",
                       str(tmp_path / "no-data"), "--episodes", episodes, "--seed", "3"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0] == f"error: --episodes must be >= 1, got {episodes}"


class TestAblate:
    def test_order_is_a_permutation_of_the_variants(self):
        assert sorted(cli.ABLATION_ORDER) == sorted(engine.VARIANTS)

    def test_six_variants_times_seeds(self, workspace, tmp_path, capsys):
        out = tmp_path / "ab"
        rc = cli.main([
            "ablate", "--config", workspace["policy_cfg"], "--data", workspace["data"],
            "--wm", workspace["wm"], "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert lines[0].startswith("variant,seed,R_tra")
        assert len(lines) - 1 == 6 * len(POLICY_CFG["seeds"])
        order = [line.split(",")[0] for line in lines[1:]]
        assert order == list(cli.ABLATION_ORDER)
        # no temporary file or directory is left beside the outputs
        assert not list(out.rglob(".*"))
        # comparison rows match the per-run metric files
        for line in lines[1:]:
            cells = line.split(",")
            variant, seed = cells[0], int(cells[1])
            with open(out / variant / f"seed_{seed}" / "metrics.csv", newline="") as fh:
                last = list(csv.DictReader(fh))[-1]
            assert float(cells[2]) == float(last["R_tra"])
            assert float(cells[7]) == float(last["reward_error"])


    @pytest.mark.parametrize("key", ["eval_every", "epochs"])
    def test_no_evaluation_row_rejected_before_loading(self, tmp_path, capsys, key):
        cfg = write_json(tmp_path / "policy.json", {**POLICY_CFG, key: 0})
        out = tmp_path / "ab"
        rc = cli.main(["ablate", "--config", cfg, "--data", str(tmp_path / "no-data"),
                       "--wm", str(tmp_path / "no-wm"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: config: ablate needs an evaluation row")
        assert not out.exists()


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["gen-data", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # `python -m darlr.cli` runs the CLI without an installed `darlr` script
    src = str(Path(darlr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "darlr.cli", "eval", "--bundle", str(tmp_path / "b"),
         "--data", str(tmp_path / "missing"), "--episodes", "1", "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")

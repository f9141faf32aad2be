"""Batch command-line entry points.

Subcommands: gen-data, train-wm, train-policy, eval, ablate. Config files
are JSON with exhaustive key validation; every output lands under the
directory given by --out. Errors are single machine-parsable lines on
stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataset as ds
from . import engine
from . import worldmodel as wmod
from .nncore import AdamConfig

ABLATION_ORDER = ("r_static", "pu_static", "rhat", "rhat_rs", "rhat_rd", "full")


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _load_json(path):
    p = Path(path)
    if not p.exists():
        raise CliError(f"no such file: {path}", code=2)
    try:
        with open(p) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}", code=2)
    if not isinstance(data, dict):
        raise CliError(f"{path}: expected a JSON object, got {type(data).__name__}", code=2)
    return data


def _check_keys(data, allowed, what):
    unknown = set(data) - set(allowed)
    if unknown:
        raise CliError(f"{what}: unknown keys: {', '.join(sorted(unknown))}", code=2)


_WM_KEYS = {"members": 2, "d_emb": 8, "hidden": [32], "epochs": 100, "batch": 128, "lr": 1e-3, "seed": 0}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _check_wm_types(cfg):
    def fail(key, want):
        raise CliError(f"world-model config: '{key}' must be {want}, got {cfg[key]!r}", code=2)

    for key in ("members", "epochs", "batch", "d_emb"):
        if not (_is_int(cfg[key]) and cfg[key] >= 1):
            fail(key, "an integer >= 1")
    if not _is_int(cfg["seed"]):
        fail("seed", "an integer")
    lr = cfg["lr"]
    if not (isinstance(lr, (int, float)) and not isinstance(lr, bool) and 0 < lr <= sys.float_info.max):
        fail("lr", "a finite number > 0")
    hidden = cfg["hidden"]
    if not (isinstance(hidden, list) and hidden and all(_is_int(h) and h >= 1 for h in hidden)):
        fail("hidden", "a non-empty list of integers >= 1")


def cmd_gen_data(args):
    data = _load_json(args.spec)
    fields = {f.name for f in dataclasses.fields(ds.SyntheticSpec)}
    _check_keys(data, fields, "synthetic spec")
    try:
        d = ds.generate_synthetic(ds.SyntheticSpec(**data))
    except (ds.DatasetError, TypeError) as exc:  # TypeError: a value of the wrong type
        raise CliError(f"synthetic spec: {exc}", code=2)
    ds.save_dataset(d, args.out)
    print(f"wrote dataset '{d.name}' ({d.n_users} users x {d.n_items} items, "
          f"{len(d.train_log)} interactions) to {args.out}")
    return 0


def cmd_train_wm(args):
    cfg = dict(_WM_KEYS)
    cfg.update(_load_json(args.config))
    _check_keys(cfg, _WM_KEYS, "world-model config")
    _check_wm_types(cfg)
    try:
        d = ds.load_dataset(args.data)
    except ds.DatasetError as exc:
        raise CliError(str(exc), code=2)
    wm = wmod.train_world_model(
        d, K=cfg["members"], epochs=cfg["epochs"], batch=cfg["batch"],
        cfg=AdamConfig(lr=cfg["lr"]), seed=cfg["seed"], d_emb=cfg["d_emb"],
        hidden=tuple(cfg["hidden"]),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    wmod.save_world_model(wm, out)
    loss_path = out.with_suffix(".loss.csv")
    with open(loss_path, "w") as fh:
        fh.write("member,epoch,nll\n")
        for k, history in enumerate(wm.nll_history):
            for e, v in enumerate(history):
                fh.write(f"{k},{e},{float(v)!r}\n")
    print(f"wrote world model ({wm.K} members) to {out}; losses in {loss_path}")
    return 0


def _policy_setup(args, need_variant_check=True):
    raw = _load_json(args.config)
    seeds = raw.pop("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise CliError("config: 'seeds' must be a non-empty list", code=2)
    if getattr(args, "seed", None):
        try:
            seeds = [int(s) for s in args.seed.split(",")]
        except ValueError:
            raise CliError(f"bad --seed list: {args.seed}", code=2)
    try:
        settings = engine.TrainSettings.from_dict(raw)
    except (ValueError, TypeError) as exc:
        raise CliError(f"config: {exc}", code=2)
    variant = getattr(args, "variant", None)
    if variant is not None:
        if variant not in engine.VARIANTS:
            raise CliError(
                f"unknown variant '{variant}'; valid: {', '.join(engine.VARIANTS)}", code=2
            )
        settings = dataclasses.replace(settings, variant=variant)
    try:
        d = ds.load_dataset(args.data)
    except ds.DatasetError as exc:
        raise CliError(str(exc), code=2)
    wm = wmod.load_world_model(args.wm, d)
    if wm.dataset_hash != ds.content_hash(d):
        raise CliError("world model was trained on a different dataset (hash mismatch)", code=2)
    return d, wm, settings, seeds


def _run_one(d, wm, settings, seed, run_dir):
    run_settings = dataclasses.replace(settings, seed=seed)
    result = engine.train(d, wm, run_settings)
    run_dir = Path(run_dir)
    engine.save_bundle(run_dir, result, wm)
    engine.write_metrics_csv(result.metrics_rows, run_dir / "metrics.csv")
    return result


def cmd_train_policy(args):
    d, wm, settings, seeds = _policy_setup(args)
    out = Path(args.out)
    for seed in seeds:
        result = _run_one(d, wm, settings, seed, out / f"seed_{seed}")
        last = result.metrics_rows[-1] if result.metrics_rows else None
        tail = (
            f"R_tra={last['R_tra']:.4f} err={last['reward_error']:.4f}" if last else "no eval rows"
        )
        print(f"seed {seed}: {result.steps_total} steps, {tail}")
    return 0


def cmd_eval(args):
    if args.episodes < 1:
        raise CliError(f"--episodes must be >= 1, got {args.episodes}", code=2)
    try:
        d = ds.load_dataset(args.data)
    except ds.DatasetError as exc:
        raise CliError(str(exc), code=2)
    bundle = engine.load_bundle(args.bundle, d)
    report = engine.evaluate(
        bundle["rec_agent"], d, bundle["matrix"], args.episodes, args.seed,
        greedy=bundle["settings"].eval_greedy,
    )
    print("R_tra,R_tra_std,R_each,Length,MCD,reward_error")
    print(
        f"{report.r_tra!r},{report.r_tra_std!r},{report.r_each!r},"
        f"{report.length!r},{report.mcd!r},{report.reward_error!r}"
    )
    return 0


def cmd_ablate(args):
    d, wm, settings, seeds = _policy_setup(args)
    out = Path(args.out)
    rows = []
    for variant in ABLATION_ORDER:
        v_settings = dataclasses.replace(settings, variant=variant)
        for seed in seeds:
            result = _run_one(d, wm, v_settings, seed, out / variant / f"seed_{seed}")
            last = result.metrics_rows[-1]
            rows.append({"variant": variant, "seed": seed, **{
                k: last[k] for k in ("R_tra", "R_tra_std", "R_each", "Length", "MCD", "reward_error")
            }})
            print(f"{variant} seed {seed}: R_tra={last['R_tra']:.4f}")
    with open(out / "ablation.csv", "w") as fh:
        cols = ["variant", "seed", "R_tra", "R_tra_std", "R_each", "Length", "MCD", "reward_error"]
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = [str(row["variant"]), str(row["seed"])]
            cells += [repr(float(row[c])) for c in cols[2:]]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {len(rows)} rows to {out / 'ablation.csv'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="darlr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-wm", help="train the reward-prediction ensemble")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_wm)

    p = sub.add_parser("train-policy", help="train the dual-agent policy")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--wm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", default=None)
    p.add_argument("--seed", default=None, help="comma-separated seed list override")
    p.set_defaults(fn=cmd_train_policy)

    p = sub.add_parser("eval", help="evaluate a checkpoint bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run every variant over the seed list")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--wm", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

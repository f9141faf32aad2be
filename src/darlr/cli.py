"""Batch command-line entry points.

Subcommands: gen-data, train-wm, train-policy, eval, ablate. Config files
are JSON objects read by one typed loader (`config.config_from_dict`),
which rejects unknown keys and values of the wrong type or range before
any data is read. Every output lands under the directory given by --out.
Errors are single machine-parsable lines on stderr. The exit code is 2
for a bad flag, a bad CLI config file or a bad dataset file, a world model
of another dataset included; it is 1 for any other error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import dataset as ds
from . import engine
from . import worldmodel as wmod
from .config import ConfigError, config_from_dict, read_json_object

ABLATION_ORDER = ("r_static", "pu_static", "rhat", "rhat_rs", "rhat_rd", "full")


class CliError(Exception):
    """A bad flag or CLI config file: exit code 2, as for a DatasetError."""


def _load_json(path):
    if not Path(path).exists():
        raise CliError(f"no such file: {path}")
    try:
        return read_json_object(path)
    except ConfigError as exc:
        raise CliError(str(exc))


def _config(cls, data, what):
    try:
        return config_from_dict(cls, data, what)
    except ConfigError as exc:
        raise CliError(str(exc))


def cmd_gen_data(args):
    spec = _config(ds.SyntheticSpec, _load_json(args.spec), "synthetic spec")
    d = ds.generate_synthetic(spec)
    ds.save_dataset(d, args.out)
    print(f"wrote dataset '{d.name}' ({d.n_users} users x {d.n_items} items, "
          f"{len(d.train_log)} interactions) to {args.out}")
    return 0


def cmd_train_wm(args):
    cfg = _config(wmod.WorldModelConfig, _load_json(args.config), "world-model config")
    d = ds.load_dataset(args.data)
    wm = wmod.train_world_model(d, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    wmod.save_world_model(wm, out)
    loss_path = out.with_suffix(".loss.csv")
    rows = [{"member": k, "epoch": e, "nll": v}
            for k, history in enumerate(wm.nll_history) for e, v in enumerate(history)]
    engine.write_metrics_csv(rows, loss_path, ["member", "epoch", "nll"])
    print(f"wrote world model ({wm.K} members) to {out}; losses in {loss_path}")
    return 0


def _seed_list(seeds, what):
    """A run directory per seed: seeds must be distinct integers, at least one."""
    if not (isinstance(seeds, list) and seeds and all(type(s) is int for s in seeds)
            and len(set(seeds)) == len(seeds)):
        raise CliError(f"{what} must be a non-empty list of distinct integers, got {seeds!r}")
    return seeds


def _policy_config(args):
    """Settings and seed list of train-policy and ablate; reads no data."""
    raw = _load_json(args.config)
    seeds = _seed_list(raw.pop("seeds", [0]), "config: 'seeds'")
    if getattr(args, "seed", None) is not None:
        try:
            seeds = [int(s) for s in args.seed.split(",")]
        except ValueError:
            raise CliError(f"bad --seed list: {args.seed}")
        _seed_list(seeds, "--seed")
    settings = _config(engine.TrainSettings, raw, "config")
    variant = getattr(args, "variant", None)
    if variant is not None:
        if variant not in engine.VARIANTS:
            raise CliError(f"unknown variant '{variant}'; valid: {', '.join(engine.VARIANTS)}")
        settings = dataclasses.replace(settings, variant=variant)
    return settings, seeds


def _policy_inputs(args):
    d = ds.load_dataset(args.data)
    return d, wmod.load_world_model(args.wm, d)


def _run_one(d, wm, settings, seed, run_dir):
    run_settings = dataclasses.replace(settings, seed=seed)
    run = engine.train(d, wm, run_settings)
    engine.save_bundle(run_dir, run, wm)
    return run


def cmd_train_policy(args):
    settings, seeds = _policy_config(args)
    d, wm = _policy_inputs(args)
    out = Path(args.out)
    for seed in seeds:
        run = _run_one(d, wm, settings, seed, out / f"seed_{seed}")
        last = run.metrics_rows[-1] if run.metrics_rows else None
        tail = (
            f"R_tra={last['R_tra']:.4f} err={last['reward_error']:.4f}" if last else "no eval rows"
        )
        print(f"seed {seed}: {run.steps_total} steps, {tail}")
    return 0


def cmd_eval(args):
    if args.episodes < 1:
        raise CliError(f"--episodes must be >= 1, got {args.episodes}")
    d = ds.load_dataset(args.data)
    bundle = engine.load_policy(args.bundle, d)
    row, _ = engine.evaluate(
        bundle["rec_agent"], d, bundle["matrix"], args.episodes, args.seed,
        greedy=bundle["settings"].eval_greedy,
    )
    print(",".join(row))
    print(",".join(map(repr, row.values())))
    return 0


ABLATION_COLUMNS = ["variant", "seed", *engine.EVAL_COLUMNS]


def cmd_ablate(args):
    settings, seeds = _policy_config(args)
    # each run's last evaluation row is its row of ablation.csv
    if settings.epochs < 1 or settings.eval_every < 1:
        raise CliError("config: ablate needs an evaluation row: 'epochs' and 'eval_every' "
                       "must be >= 1")
    d, wm = _policy_inputs(args)
    out = Path(args.out)
    rows = []
    for variant in ABLATION_ORDER:
        v_settings = dataclasses.replace(settings, variant=variant)
        for seed in seeds:
            run = _run_one(d, wm, v_settings, seed, out / variant / f"seed_{seed}")
            rows.append({**run.metrics_rows[-1], "variant": variant, "seed": seed})
            print(f"{variant} seed {seed}: R_tra={rows[-1]['R_tra']:.4f}")
    engine.write_metrics_csv(rows, out / "ablation.csv", ABLATION_COLUMNS)
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
    except (CliError, ds.DatasetError) as exc:  # a DatasetError is a ValueError: first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

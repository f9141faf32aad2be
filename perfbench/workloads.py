"""Workload definitions: the one-time prepared inputs and the timed stages.

Every input the program receives is written here as a JSON config or a
CLI argument. The prepared datasets, world models and the evaluation
bundle are pinned; the benchmark seed varies only the policy seed of a
training stage and the episode seed of an evaluation stage.
"""

from __future__ import annotations

# The pinned acceptance environment and policy (RQ_ENV / RQ_POLICY in
# tests/test_acceptance.py), and the world model its sweep trains.
RQ_ENV = {"users": 50, "items": 40, "categories": 5, "log_density": 0.05,
          "noise_sd": 0.05, "seed": 100}
RQ_POLICY = {
    "epochs": 18, "trajectories_per_epoch": 40, "eval_episodes": 60, "eval_every": 18,
    "k_sel": 5, "candidate_pool": 100, "eval_greedy": True,
    "lambda_s": 5.0, "lambda_d": 0.5, "lambda_u": 0.3, "lambda_e": 0.1, "lr": 3e-3,
}
RQ_WM = {"members": 2, "epochs": 50, "batch": 64, "lr": 3e-3, "seed": 0}

LARGE_ENV = {"users": 4000, "items": 1000, "categories": 20, "log_density": 0.05,
             "noise_sd": 0.05, "seed": 7}
EVAL_ENV = {"users": 1000, "items": 500, "categories": 20, "log_density": 0.05,
            "noise_sd": 0.05, "seed": 11}
# One pass over the log is enough: the stages time the matrix the model
# predicts, not how well it fits.
FAST_WM = {"members": 2, "epochs": 1, "batch": 256, "lr": 3e-3, "seed": 0}
EVAL_BUNDLE_POLICY = dict(
    RQ_POLICY, epochs=1, trajectories_per_epoch=60, eval_episodes=20, eval_every=1,
    eval_greedy=False, seeds=[0],
)


def _data_and_world_model(spec, wm):
    return [
        {"argv": ["gen-data", "--spec", "{c}", "--out", "{p}/data"], "config": spec},
        {"argv": ["train-wm", "--config", "{c}", "--data", "{p}/data", "--out", "{p}/wm.ckpt"],
         "config": wm},
    ]


# Inputs prepared once per source tree, untimed, each set in a directory of
# its own. Each step is one CLI call; "{p}" is that directory and "{c}" a
# config file written from the step's "config".
PREP = {
    "rq": _data_and_world_model(RQ_ENV, RQ_WM),
    "large": _data_and_world_model(LARGE_ENV, FAST_WM),
    "eval": _data_and_world_model(EVAL_ENV, FAST_WM) + [
        {"argv": ["train-policy", "--config", "{c}", "--data", "{p}/data", "--wm", "{p}/wm.ckpt",
                  "--out", "{p}/bundle"], "config": EVAL_BUNDLE_POLICY},
    ],
}

# kind: "train" runs train-policy, "eval" runs eval. min_reps: the fewest
# stages a measurement runs, even once --seconds have passed (set-up is
# reported as their median). A train_4000x1000 stage takes 35 to 76 s on a
# 2-CPU VM (one BLAS thread), most of it fixed set-up and bundle writing, so
# 60 trajectories keep a traced run (an untraced and a traced stage) within
# 180 s. It is left out of BENCHMARK.json: a run that holds one or two such
# stages cannot absorb a shared host's slow spells, and its run-to-run spread
# exceeds any allowed bound.
WORKLOADS = {
    "train_50x40": {
        "kind": "train",
        "why": "pinned acceptance environment; per-step encoder, MLP, replay and Adam work",
        "prep": "rq", "env": RQ_ENV,
        "policy": dict(RQ_POLICY, max_steps=600),
        "min_reps": 4,
    },
    "train_4000x1000": {
        "kind": "train",
        "why": "large catalog; dataset load, predict_matrix, candidate_pool and save_bundle",
        "prep": "large", "env": LARGE_ENV,
        "policy": dict(RQ_POLICY, epochs=1, trajectories_per_epoch=60, eval_every=1),
        "min_reps": 1,
    },
    "eval_1000x500": {
        "kind": "eval",
        "why": "inference only: bundle and truth loading, encoder and actor per episode",
        "prep": "eval", "env": EVAL_ENV,
        "episodes": 1000,
        "min_reps": 3,
    },
}


def stage_argv(name, prep_dir, config_path, out_dir, seed):
    """CLI arguments of one timed stage of workload `name`."""
    w = WORKLOADS[name]
    if w["kind"] == "train":
        return ["train-policy", "--config", str(config_path), "--data", f"{prep_dir}/data",
                "--wm", f"{prep_dir}/wm.ckpt", "--out", str(out_dir),
                "--variant", "full", "--seed", str(seed)]
    return ["eval", "--bundle", f"{prep_dir}/bundle/seed_0", "--data", f"{prep_dir}/data",
            "--episodes", str(w["episodes"]), "--seed", str(seed)]

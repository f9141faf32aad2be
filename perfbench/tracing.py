"""Span recording around darlr's public functions, installed from outside.

The benchmark never edits the program. A child process imports darlr,
then replaces each traced function with a wrapper in every darlr module
that holds a reference to it (``from .nncore import adam_step`` makes a
second binding in ``engine``), and each traced method on its class.
Spans (name, start, end, parent) are kept in memory and written out
when the stage ends; self times are computed afterwards from the file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer, module, qualified name) of every traced function; the layer is
# the module's short name, so metric names read "<layer>.<fn>.<stat>".
TARGETS = [
    ("dataset", "darlr.dataset", "load_dataset"),
    ("dataset", "darlr.dataset", "content_hash"),
    ("dataset", "darlr.dataset", "behavior_stats"),
    ("worldmodel", "darlr.worldmodel", "load_world_model"),
    ("worldmodel", "darlr.worldmodel", "predict_matrix"),
    ("worldmodel", "darlr.worldmodel", "WorldModelMember.forward"),
    ("worldmodel", "darlr.worldmodel", "EntropyTable.penalty"),
    ("selector", "darlr.selector", "candidate_pool"),
    ("selector", "darlr.selector", "run_selection"),
    ("selector", "darlr.selector", "advance_state"),
    ("selector", "darlr.selector", "episode_forward"),
    ("selector", "darlr.selector", "episode_backward"),
    ("recommender", "darlr.recommender", "init_episode"),
    ("recommender", "darlr.recommender", "track"),
    ("recommender", "darlr.recommender", "trajectory_forward"),
    ("recommender", "darlr.recommender", "trajectory_backward"),
    ("nncore", "darlr.nncore", "SeqEncoder.encode"),
    ("nncore", "darlr.nncore", "SeqEncoder.backward"),
    ("nncore", "darlr.nncore", "Linear.forward"),
    ("nncore", "darlr.nncore", "Mlp.forward"),
    ("nncore", "darlr.nncore", "Mlp.backward"),
    ("nncore", "darlr.nncore", "adam_step"),
    ("nncore", "darlr.nncore", "softmax_policy"),
    ("nncore", "darlr.nncore", "write_fragment"),
    ("nncore", "darlr.nncore", "read_fragment"),
    ("rewardmath", "darlr.rewardmath", "cosine"),
    ("rewardmath", "darlr.rewardmath", "similarity_gain"),
    ("rewardmath", "darlr.rewardmath", "diversity_gain"),
    ("rewardmath", "darlr.rewardmath", "dynamic_uncertainty"),
    ("engine", "darlr.engine", "rollout_trajectory"),
    ("engine", "darlr.engine", "update_recommender"),
    ("engine", "darlr.engine", "update_selector"),
    ("engine", "darlr.engine", "env_step"),
    ("engine", "darlr.engine", "evaluate"),
    ("engine", "darlr.engine", "save_bundle"),
    ("engine", "darlr.engine", "load_bundle"),
    ("engine", "darlr.engine", "ShapedRewardMatrix.write"),
    ("cli", "darlr.cli", "main"),
]


def span_name(layer, qualname):
    return f"{layer}.{qualname}"


def _lookup(module, qualname):
    """Return (owner, attribute, function) or None when it no longer exists."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


def patch(module_name, qualname, make_wrapper):
    """Replace a function everywhere darlr binds it; False if it is gone.

    Methods are replaced on their class. A module-level function is
    replaced in every loaded darlr module whose globals point at it.
    """
    found = _lookup(importlib.import_module(module_name), qualname)
    if found is None:
        return False
    owner, attr, fn = found
    wrapper = functools.wraps(fn)(make_wrapper(fn))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for name, mod in list(sys.modules.items()):
        if name == "darlr" or name.startswith("darlr."):
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    return True


class SpanRecorder:
    """In-memory spans plus the few counts that need call arguments."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent span index or -1]
        self.stack = [-1]
        self.missing = []
        self.counts = {"env_step.train": 0, "env_step.eval": 0, "sel_proj": 0, "picks": 0}

    def install(self):
        observers = {
            "engine.env_step": self._see_env_step,
            "nncore.Linear.forward": self._see_linear,
            "selector.run_selection": self._see_selection,
        }
        for layer, module_name, qualname in TARGETS:
            name = span_name(layer, qualname)
            self.names.append(name)
            make = self._wrapper_factory(len(self.names) - 1, observers.get(name))
            if not patch(module_name, qualname, make):
                self.missing.append(name)

    def _wrapper_factory(self, name_idx, observer):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx] = (name_idx, t0, t1, parent)
                if observer is not None:
                    observer(args, kwargs, out)
                return out

            return wrapper

        return make

    def _see_env_step(self, args, kwargs, out):
        mode = kwargs["mode"] if "mode" in kwargs else args[3]
        key = f"env_step.{mode}"
        self.counts[key] = self.counts.get(key, 0) + 1

    def _see_linear(self, args, kwargs, out):
        if args[0].w.name.startswith("sel/proj/"):
            self.counts["sel_proj"] += 1

    def _see_selection(self, args, kwargs, out):
        self.counts["picks"] += len(out.selected)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "missing": self.missing, "counts": self.counts,
                 "spans": self.spans},
                fh, separators=(",", ":"),
            )


def self_times(trace):
    """Per-span-name call count and self time (duration minus children).

    Spans nest within one thread, so the children of a span cover
    disjoint parts of its interval and their durations simply add up.
    """
    names, spans = trace["names"], trace["spans"]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for name_idx, t0, t1, parent in spans:
        dur = t1 - t0
        calls[name_idx] += 1
        self_s[name_idx] += dur
        if parent >= 0:
            self_s[spans[parent][0]] -= dur
    return {n: (calls[i], self_s[i]) for i, n in enumerate(names)}


class StageProbe:
    """The few timestamps the end-to-end metrics need, cheap enough to
    leave on in untraced stages: trajectory starts with their step
    counts, evaluation calls, and evaluation episodes with their lengths."""

    def __init__(self):
        self.trajectories = []  # [start, steps]
        self.evaluations = []  # [start, end]
        self.episodes = []  # [start, end, length]

    def install(self):
        clock = time.perf_counter

        def rollout(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                traj, episodes = fn(*args, **kwargs)
                self.trajectories.append([t0, len(traj)])
                return traj, episodes
            return wrapper

        def interval(log, length):
            def make(fn):
                def wrapper(*args, **kwargs):
                    t0 = clock()
                    out = fn(*args, **kwargs)
                    log.append([t0, clock()] + ([out["length"]] if length else []))
                    return out
                return wrapper
            return make

        # without _eval_episode the parent spreads evaluate() over its episodes
        patch("darlr.engine", "rollout_trajectory", rollout)
        patch("darlr.engine", "evaluate", interval(self.evaluations, False))
        patch("darlr.engine", "_eval_episode", interval(self.episodes, True))

    def to_dict(self):
        return {"trajectories": self.trajectories, "evaluations": self.evaluations,
                "episodes": self.episodes}

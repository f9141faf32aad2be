"""darlr benchmark: end-to-end CLI stages, with a per-layer trace on request.

Usage, from the root of a darlr source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or "all" to run every
workload untraced and traced and print every table. Each stage is a
fresh `python3 perfbench/child.py` process that calls darlr.cli.main;
the first run in a source tree also prepares the datasets, world models
and the evaluation bundle, untimed, under .perfbench_work/.

--trace 0 repeats the workload's stage until --seconds have passed (and
at least its min_reps times) and reports the end-to-end metrics.
--trace 1 runs the stage once untraced and once traced and reports the
per-layer metrics from the traced one. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the benchmark's directory as committed

import tracing  # noqa: E402
from workloads import PREP, WORKLOADS, stage_argv  # noqa: E402

WORK_DIR = ".perfbench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s once prepared
PREP_STEP_LIMIT_S = 600.0

# Thread counts are pinned so runs compare: one process, one BLAS thread.
PINNED_ENV = {
    "DARLR_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = [
    ("setup_s", "s"),
    ("stage_s", "s"),
    ("steps_per_s", "1/s"),
    ("episode_ms_p50", "ms"),
    ("episode_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

# Span names that run on every workload: their self times are per-layer
# metrics. The others are reported as call counts and in the printed table.
SELF_TIME_SPANS = [
    "cli.main",
    "dataset.load_dataset",
    "dataset.content_hash",
    "worldmodel.load_world_model",
    "nncore.read_fragment",
    "nncore.SeqEncoder.encode",
    "nncore.Linear.forward",
    "nncore.Mlp.forward",
    "nncore.softmax_policy",
    "recommender.init_episode",
    "recommender.track",
    "engine.env_step",
    "engine.evaluate",
]

COUNTERS = [
    ("nncore.encode_per_step", "calls/step"),
    ("selector.proj_per_pick", "calls/pick"),
    ("selector.pool_bytes_per_step", "B/step"),
    ("worldmodel.predict_forward_calls", "calls"),
    ("engine.adam_steps_per_traj", "calls/traj"),
    ("engine.matrix_writes_per_step", "calls/step"),
]

BUNDLE_FILES = ["config.json", "metrics.csv", "recommender.frag", "selector.frag",
                "matrix.frag", "worldmodel.ckpt"]
TRAIN_LINE = re.compile(r"^seed (\d+): (\d+) steps, R_tra=(\S+) err=(\S+)$")
EVAL_HEADER = "R_tra,R_tra_std,R_each,Length,MCD,reward_error"


class BenchError(Exception):
    pass


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"{tracing.span_name(layer, q)}.calls", "calls") for layer, _, q in tracing.TARGETS]
    out += [(f"{name}.self_s", "s") for name in SELF_TIME_SPANS]
    out += COUNTERS
    out += [("trace.stage_s", "s"), ("trace.overhead_s", "s")]
    return out


# --- environment and inputs ---------------------------------------------------

def source_hash(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(root, src_sha):
    import numpy

    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_mb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": src_sha,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_mb,
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
    }


def child_env(root):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root, job_dir, tag, argv, trace, timeout):
    """One fresh process running one CLI call.

    Returns (completed process or None on timeout, record, wall, spawn time).
    """
    job = {
        "src": str(root / "src"), "argv": argv, "trace": trace,
        "record": str(job_dir / f"{tag}.record.json"),
        "spans": str(job_dir / f"{tag}.spans.json"),
    }
    job_path = job_dir / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    Path(job["record"]).unlink(missing_ok=True)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)], cwd=root,
            env=child_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, None, time.perf_counter() - t_spawn, t_spawn
    wall = time.perf_counter() - t_spawn
    record = None
    if Path(job["record"]).exists():
        record = json.loads(Path(job["record"]).read_text())
    return proc, record, wall, t_spawn


def inputs_hash(src_sha, *definitions):
    """Source tree plus the benchmark's own input definitions."""
    blob = json.dumps([src_sha, *definitions], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def ensure_prep(root, work, src_sha, group):
    """Build one set of pinned inputs once per source tree; returns its directory."""
    prep = work / f"prep-{group}-{inputs_hash(src_sha, PREP[group])}"
    if (prep / "DONE").exists():
        return prep
    for old in work.glob(f"prep-{group}-*"):
        shutil.rmtree(old)
    tmp = work / f"prep-{group}-tmp"
    tmp.mkdir(parents=True)
    for k, step in enumerate(PREP[group]):
        cfg = tmp / f"prep{k}.json"
        cfg.write_text(json.dumps(step["config"]))
        argv = [a.format(p=tmp, c=cfg) for a in step["argv"]]
        proc, record, _, _ = run_child(root, tmp, f"prep{k}", argv, False, PREP_STEP_LIMIT_S)
        if proc is None or proc.returncode != 0:
            detail = "timed out" if proc is None else (proc.stderr.strip().splitlines() or ["?"])[-1]
            raise BenchError(f"preparation step {argv[0]} failed: {detail}")
    for job_file in tmp.glob("*.json"):  # configs, jobs and records of the steps
        job_file.unlink()
    tmp.rename(prep)
    (prep / "DONE").write_text("ok\n")
    return prep


# --- one stage -----------------------------------------------------------------

def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def _sha_files(paths, extra):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    h.update(extra.encode())
    return h.hexdigest()


def check_train(stage, out_dir, seed, record, stdout):
    fails = []
    steps = sum(n for _, n in record["probe"]["trajectories"])
    lines = [m for m in (TRAIN_LINE.match(x) for x in stdout.splitlines()) if m]
    if len(lines) != 1:
        return fails + ["no 'seed N: S steps' line"], None
    line = lines[0]
    if int(line.group(1)) != seed or int(line.group(2)) != steps:
        fails.append(f"printed steps {line.group(2)} != probed {steps}")
    bundle = out_dir / f"seed_{seed}"
    missing = [f for f in BUNDLE_FILES if not (bundle / f).is_file() or (bundle / f).stat().st_size == 0]
    if missing:
        return fails + [f"bundle missing {missing}"], None
    config = json.loads((bundle / "config.json").read_text())
    if config.get("steps_total") != steps:
        fails.append("config.json steps_total differs")
    rows = (bundle / "metrics.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    if len(rows) < 2:
        fails.append("metrics.csv has no rows")
    for row in rows[1:]:
        vals = dict(zip(header, row.split(",")))
        try:
            r_tra, err = float(vals["R_tra"]), float(vals["reward_error"])
            length, mcd = float(vals["Length"]), float(vals["MCD"])
        except (KeyError, ValueError):
            fails.append(f"metrics.csv row unreadable: {row}")
            continue
        if not (_finite(r_tra) and _finite(err)):
            fails.append("R_tra or reward_error not finite")
        if not 1.0 <= length <= 30.0:
            fails.append(f"Length {length} outside [1, 30]")
        if not 0.0 <= mcd <= 1.0:
            fails.append(f"MCD {mcd} outside [0, 1]")
    stage["steps"] = steps
    frags = sorted(bundle.glob("*.frag"))
    return fails, _sha_files([bundle / "metrics.csv"] + frags, line.group(0))


def check_eval(stage, episodes, record, stdout):
    fails = []
    lines = stdout.strip().splitlines()
    if len(lines) < 2 or lines[-2] != EVAL_HEADER:
        return ["no evaluation output line"], None
    try:
        vals = dict(zip(EVAL_HEADER.split(","), (float(v) for v in lines[-1].split(","))))
    except ValueError:
        return [f"unreadable evaluation line: {lines[-1]}"], None
    if not (_finite(vals["R_tra"]) and _finite(vals["reward_error"])):
        fails.append("R_tra or reward_error not finite")
    if not 1.0 <= vals["Length"] <= 30.0:
        fails.append(f"Length {vals['Length']} outside [1, 30]")
    if not 0.0 <= vals["MCD"] <= 1.0:
        fails.append(f"MCD {vals['MCD']} outside [0, 1]")
    eps = record["probe"]["episodes"]
    if eps:
        steps = sum(e[2] for e in eps)
        if len(eps) != episodes or abs(steps - vals["Length"] * episodes) > 1e-6 * steps:
            fails.append("probed episodes disagree with the printed Length")
    else:  # the probe point is gone: count steps from the printed mean
        steps = round(vals["Length"] * episodes)
    stage["steps"] = steps
    h = hashlib.sha256(lines[-1].encode()).hexdigest()
    return fails, h


def timings(stage, kind, record, t_spawn, episodes):
    """Set-up, loop time and per-episode durations from the probe."""
    probe = record["probe"]
    if kind == "train":
        starts = [t for t, _ in probe["trajectories"]]
        if not starts:
            raise BenchError("no trajectory was rolled out")
        ends = starts[1:]
        after = [s for s, _ in probe["evaluations"] if s > starts[-1]]
        ends.append(min(after) if after else record["ended"])
        durations = [e - s for s, e in zip(starts, ends)]
        first, last = starts[0], ends[-1]
    elif not probe["evaluations"]:
        raise BenchError("evaluate was not called")
    elif probe["episodes"]:
        durations = [e - s for s, e, _ in probe["episodes"]]
        first, last = probe["episodes"][0][0], probe["evaluations"][-1][1]
    else:  # no per-episode probe point: spread the evaluate call evenly
        first, last = probe["evaluations"][-1]
        durations = [(last - first) / episodes] * episodes
    stage["setup_s"] = first - t_spawn
    stage["loop_s"] = last - first
    stage["episode_s"] = durations


def run_stage(ctx, name, rep, seed, trace, timeout):
    """Run, time and check one stage; the bundle it writes is deleted after."""
    w = WORKLOADS[name]
    job_dir = ctx["work"] / "runs" / name
    out_dir = job_dir / f"out{rep}"
    shutil.rmtree(out_dir, ignore_errors=True)
    config = job_dir / "policy.json"
    if w["kind"] == "train":
        config.write_text(json.dumps(w["policy"]))
    argv = stage_argv(name, ctx["prep"], config, out_dir, seed)
    tag = f"stage{rep}"
    proc, record, wall, t_spawn = run_child(ctx["root"], job_dir, tag, argv, trace, timeout)
    stage = {"rep": rep, "seed": seed, "trace": trace, "stage_s": wall, "fails": [], "digest": None}
    try:
        if proc is None:
            stage["fails"].append(f"timed out after {timeout:.0f} s")
            return stage
        if record is None or record["rc"] != 0 or proc.returncode != 0:
            err = (record or {}).get("error") or proc.stderr.strip()
            stage["fails"].append(f"exit {proc.returncode}: {err[-300:]}")
            return stage
        stage["peak_rss_mb"] = record["peak_rss_mb"]
        if not record["darlr"].startswith(str(ctx["root"] / "src")):
            stage["fails"].append(f"imported darlr from {record['darlr']}")
        try:
            timings(stage, w["kind"], record, t_spawn, w.get("episodes"))
        except BenchError as exc:
            stage["fails"].append(str(exc))
            return stage
        if w["kind"] == "train":
            fails, digest = check_train(stage, out_dir, seed, record, proc.stdout)
        else:
            fails, digest = check_eval(stage, w["episodes"], record, proc.stdout)
        stage["fails"] += fails
        stage["digest"] = digest
        if trace:
            trace_checks(stage, name, w["kind"], job_dir / f"{tag}.spans.json")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return stage


def trace_checks(stage, name, kind, spans_path):
    trace = json.loads(spans_path.read_text())
    table = tracing.self_times(trace)
    counts = trace["counts"]
    mode = "train" if kind == "train" else "eval"
    if counts.get(f"env_step.{mode}", 0) != stage["steps"]:
        stage["fails"].append(
            f"traced env_step ({mode}) count {counts.get(f'env_step.{mode}', 0)} != steps {stage['steps']}"
        )
    self_sum = sum(s for _, s in table.values())
    if self_sum > stage["stage_s"]:
        stage["fails"].append(f"self times sum {self_sum:.3f} s > stage {stage['stage_s']:.3f} s")
    names, spans = trace["names"], trace["spans"]
    predict = names.index("worldmodel.predict_matrix")
    member = names.index("worldmodel.WorldModelMember.forward")
    predict_forward = sum(1 for s in spans if s[0] == member and s[3] >= 0 and spans[s[3]][0] == predict)
    stage["table"] = table
    stage["self_sum_s"] = self_sum
    stage["missing_spans"] = trace["missing"]
    stage["counters"] = counters(name, table, counts, stage["steps"], predict_forward)


def counters(name, table, counts, steps, predict_forward):
    users, items = WORKLOADS[name]["env"]["users"], WORKLOADS[name]["env"]["items"]

    def ratio(a, b):
        return a / b if b else 0.0

    calls = {n: c for n, (c, _) in table.items()}
    return {
        "nncore.encode_per_step": ratio(calls["nncore.SeqEncoder.encode"], steps),
        "selector.proj_per_pick": ratio(counts["sel_proj"], counts["picks"]),
        "selector.pool_bytes_per_step": ratio(calls["selector.candidate_pool"] * users * items * 8, steps),
        "worldmodel.predict_forward_calls": predict_forward,
        "engine.adam_steps_per_traj": ratio(calls["nncore.adam_step"], calls["engine.rollout_trajectory"]),
        "engine.matrix_writes_per_step": ratio(calls["engine.ShapedRewardMatrix.write"], steps),
    }


# --- determinism record ------------------------------------------------------------

def check_digests(ctx, name, stages):
    """Stages with the same inputs must write identical outputs: within a
    run (a traced stage repeats the untraced one) and across every earlier
    run of the same workload, stage seed and source tree in this checkout."""
    path = ctx["work"] / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    inputs = inputs_hash(ctx["src_sha"], PREP[WORKLOADS[name]["prep"]], WORKLOADS[name])
    for st in stages:
        if st["digest"] is None:
            continue
        ref = known.setdefault(f"{inputs}/{name}/{st['seed']}", st["digest"])
        if st["digest"] != ref:
            st["fails"].append(f"determinism: digest {st['digest'][:12]} != recorded {ref[:12]}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)


# --- metrics -----------------------------------------------------------------------

def end_to_end(stages):
    """The stages of a run share one seed, so trajectory or episode i is
    the same work in each. It is counted at its fastest repetition, which
    leaves out most of the spells in which a shared host runs this CPU
    slower; the rest of a stage (set-up, final evaluation, bundle writing,
    exit) is taken as its median over the stages."""
    ok = [s for s in stages if "episode_s" in s]
    if not ok:
        return {}
    n = len(ok[0]["episode_s"])
    if all(len(s["episode_s"]) == n and s["steps"] == ok[0]["steps"] for s in ok):
        best = [min(s["episode_s"][i] for s in ok) for i in range(n)]
        rest = statistics.median(s["stage_s"] - sum(s["episode_s"]) for s in ok)
        stage_s = rest + sum(best)
        steps_per_s = ok[0]["steps"] / sum(best)
    else:  # the stages did different work: pool them
        best = [d for s in ok for d in s["episode_s"]]
        stage_s = statistics.median(s["stage_s"] for s in ok)
        steps_per_s = statistics.median(s["steps"] / s["loop_s"] for s in ok)
    pct = statistics.quantiles([1000.0 * d for d in best], n=100, method="inclusive")
    return {
        "setup_s": statistics.median(s["setup_s"] for s in ok),
        "stage_s": stage_s,
        "steps_per_s": steps_per_s,
        "episode_ms_p50": pct[49],
        "episode_ms_p90": pct[89],
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
    }


def per_layer(untraced, traced):
    if "table" not in traced:
        return {}
    out = {f"{n}.calls": c for n, (c, _) in traced["table"].items()}
    out.update({f"{n}.self_s": traced["table"][n][1] for n in SELF_TIME_SPANS})
    out.update(traced["counters"])
    out["trace.stage_s"] = traced["stage_s"]
    out["trace.overhead_s"] = traced["stage_s"] - untraced["stage_s"]
    return out


def measure(ctx, name, trace):
    """The stages of one run of one workload; returns (stages, values, units)."""
    w = WORKLOADS[name]
    (ctx["work"] / "runs" / name).mkdir(parents=True, exist_ok=True)
    begin = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - ctx["started"])

    stages = []
    if trace:
        for rep, traced in enumerate((False, True)):
            stages.append(run_stage(ctx, name, rep, ctx["seed"], traced, remaining()))
    else:
        while len(stages) < w["min_reps"] or time.perf_counter() - begin < ctx["seconds"]:
            if stages and remaining() < 1.5 * max(s["stage_s"] for s in stages):
                break  # another stage would not end in time
            stages.append(run_stage(ctx, name, len(stages), ctx["seed"], False, remaining()))
    check_digests(ctx, name, stages)
    if trace:
        values, units = per_layer(stages[0], stages[1]), dict(per_layer_metrics())
    else:
        values, units = end_to_end(stages), dict(END_TO_END)
    return stages, values, units


# --- reporting -----------------------------------------------------------------------

def print_stages(name, stages):
    for s in stages:
        kind = "traced" if s["trace"] else "untraced"
        bits = [f"{name} stage {s['rep']} ({kind})", f"stage_s={s['stage_s']:.4f}"]
        if "setup_s" in s:
            bits += [f"setup_s={s['setup_s']:.4f}", f"steps={s['steps']}",
                     f"steps_per_s={s['steps'] / s['loop_s']:.2f}",
                     f"episodes={len(s['episode_s'])}", f"peak_rss_mb={s['peak_rss_mb']:.1f}"]
        bits.append(f"digest={(s['digest'] or '-')[:16]}")
        bits.append("ok" if not s["fails"] else "FAILED: " + "; ".join(s["fails"]))
        print("  ".join(bits))


def print_metrics(name, values, units):
    print(f"{name}: metrics")
    for metric, unit in units.items():
        v = values.get(metric)
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"  {metric:44s} {shown:>14s} {unit}")


def print_layer_table(name, traced):
    table = traced.get("table")
    if not table:
        return
    print(f"{name}: per-layer self time of the traced stage "
          f"(traced stage_s={traced['stage_s']:.4f}, self sum={traced['self_sum_s']:.4f})")
    print(f"  {'span':44s} {'calls':>9s} {'self_s':>10s} {'share':>7s} {'us/call':>9s}")
    for n, (c, s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        per = 1e6 * s / c if c else 0.0
        print(f"  {n:44s} {c:9d} {s:10.4f} {100 * s / traced['stage_s']:6.1f}% {per:9.1f}")
    if traced.get("missing_spans"):
        print(f"  not found in this source tree: {', '.join(traced['missing_spans'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "darlr" / "cli.py").is_file():
        print(f"error: no darlr source tree at {src}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    src_sha = source_hash(src / "darlr")
    env = environment(root, src_sha)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    ctx = {"root": root, "work": work, "src_sha": src_sha, "seed": args.seed,
           "seconds": args.seconds}
    if args.workload == "all":  # the 180 s limit then holds per workload run
        plan = [(n, t) for n in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]

    attempted = failed = 0
    complete = True
    metrics = {}
    record = {"env": env, "args": vars(args), "runs": []}
    for name, trace in plan:
        try:
            ctx["prep"] = ensure_prep(root, work, src_sha, WORKLOADS[name]["prep"])
            ctx["started"] = time.perf_counter()
            stages, values, units = measure(ctx, name, trace)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_stages(name, stages)
        print_metrics(name, values, units)
        if trace:
            print_layer_table(name, stages[-1])
        attempted += len(stages)
        failed += sum(1 for s in stages if s["fails"])
        complete &= all(metric in values for metric in units)
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric, unit in units.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        record["runs"].append({
            "workload": name, "trace": trace, "metrics": values,
            "stages": [{k: v for k, v in s.items() if k != "table"} for s in stages],
        })
    record["elapsed_s"] = time.perf_counter() - started
    (work / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

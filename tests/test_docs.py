import dataclasses
import importlib
import json
import re
from pathlib import Path

import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import worldmodel as wmod
from darlr.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def table_rows(title):
    """The cells of each body row of the table after the README line that
    starts with `title`."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    rows = []
    for line in lines[start + 1 :]:
        if line.startswith("|"):
            rows.append(line.split("|")[1:-1])
        elif rows:
            break
    return rows[2:]


def table_keys(title):
    """Backticked names in the first column of the table after the README
    line that starts with `title`."""
    keys = [key for row in table_rows(title) for key in re.findall(r"`(\w+)`", row[0])]
    assert len(keys) == len(set(keys)), f"a key is listed twice under {title!r}"
    return set(keys)


# README table title: the keys its config accepts
CONFIG_TABLES = {
    "Policy config": {f.name for f in dataclasses.fields(engine.TrainSettings)} | {"seeds"},
    "World-model config": {f.name for f in dataclasses.fields(wmod.WorldModelConfig)},
    "Synthetic spec": {f.name for f in dataclasses.fields(ds.SyntheticSpec)},
    "Dataset manifest": {f.name for f in dataclasses.fields(ds.DatasetManifest)},
}


@pytest.mark.parametrize("title", sorted(CONFIG_TABLES))
def test_readme_config_table_lists_exactly_the_config_keys(title):
    assert table_keys(title) == CONFIG_TABLES[title]


@pytest.mark.parametrize("with_truth", [True, False])
def test_readme_dataset_files_are_what_save_dataset_writes(tmp_path, with_truth):
    listed = {re.fullmatch(r" `([\w.]+)` ", row[0])[1]: row[1].lstrip().startswith("optional")
              for row in table_rows("Dataset directory")}
    d = ds.generate_synthetic(ds.SyntheticSpec(users=3, items=4, categories=2, seed=0))
    ds.save_dataset(d if with_truth else dataclasses.replace(d, truth_matrix=None), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        name for name, optional in listed.items() if with_truth or not optional
    )


# README walkthrough config file: the dataclass the CLI reads it into
WALKTHROUGH_CONFIGS = {
    "spec.json": ds.SyntheticSpec,
    "wm.json": wmod.WorldModelConfig,
    "policy.json": engine.TrainSettings,
}


def walkthrough_configs():
    """{file name: JSON object} of each `cat > NAME <<'EOF'` heredoc in README."""
    found = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", README.read_text(), re.S)
    return {name: json.loads(body) for name, body in found}


@pytest.mark.parametrize("name", sorted(WALKTHROUGH_CONFIGS))
def test_readme_walkthrough_config_loads(name):
    data = walkthrough_configs()[name]
    data.pop("seeds", None)  # train-policy takes the seed list out first
    config_from_dict(WALKTHROUGH_CONFIGS[name], data, name)


# darlr's modules, and the suffixes of the files README names: `selector.frag`
# is a file, `selector.candidate_pool` a code reference
DARLR_MODULES = {"cli", "config", "dataset", "engine", "nncore", "recommender", "rewardmath",
                 "selector", "worldmodel"}
FILE_SUFFIXES = {"csv", "ckpt", "frag", "json", "npy", "toml"}


def readme_code_references():
    """Each backticked `module.name` or `darlr.module` in README whose module
    is one of darlr's, as (module, attribute path)."""
    refs = set()
    for ref in re.findall(r"`(\w+(?:\.\w+)+)`", README.read_text()):
        head, *rest = ref.split(".")
        if head == "darlr":
            refs.add((ref, ()))
        elif head in DARLR_MODULES and rest[-1] not in FILE_SUFFIXES:
            refs.add((f"darlr.{head}", tuple(rest)))
    return sorted(refs)


def test_readme_code_references_resolve():
    refs = readme_code_references()
    # the scan finds what README names, a dataclass field too
    assert {("darlr.engine", ("load_bundle",)), ("darlr.engine", ("Trajectory", "steps"))} <= set(refs)
    stale = []
    for module, path in refs:
        try:
            obj = importlib.import_module(module)
        except ImportError:
            stale.append(module)
            continue
        for i, name in enumerate(path):
            # a dataclass field with no class default is no class attribute
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
            if not (hasattr(obj, name) or name in fields):
                stale.append(".".join([module[len("darlr.") :], *path[: i + 1]]))
                break
            obj = getattr(obj, name, None)
    assert stale == [], f"README names code that does not exist: {stale}"

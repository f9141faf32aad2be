import dataclasses
import json
import re
from pathlib import Path

import pytest

from darlr import dataset as ds
from darlr import engine
from darlr import worldmodel as wmod
from darlr.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def table_keys(title):
    """Backticked names in the first column of the table after the README
    line that starts with `title`."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    rows = []
    for line in lines[start + 1 :]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    keys = [key for row in rows[2:] for key in re.findall(r"`(\w+)`", row.split("|")[1])]
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

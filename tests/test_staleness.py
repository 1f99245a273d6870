"""Staleness, generated from config's provenance table and config.SCHEMA.

After a full run of the tier-1 config, each settable leaf that it holds is
changed alone, by its type, and two kind swaps change a block's kind. Each
command then runs under the changed config on the old artifacts. It must
exit 4 naming a changed leaf, if it names one, and a command that writes
a stale artifact (one a fresh run of the changed config writes otherwise),
or write only what a fresh run writes. A resumed train-control may succeed
only when the fresh checkpoint is the old one. train.* shapes no artifact
(--resume continues under a new schedule), so after a train change the
commands from --resume on keep the old field and are not run.
"""

import contextlib
import io
import json
import re

import pytest

from pdecontrol import cli, config

from conftest import settable_leaves
from test_config_cli import HEAT_CFG

# what each command writes, by _LAYOUT name (the per-anchor ones for anchor 0)
WRITES = {"fit-initial": ["anchors"], "sample-gram": ["gram_cache"], "gen-trajectories": ["traj_cache"],
          "train-control": ["checkpoint", "loss_history"], "solve": ["solution"], "reference": ["reference"],
          "eval": ["errors"], "verify": ["report"]}
COMMANDS = [*WRITES][:4] + ["train-control --resume"] + [*WRITES][4:]
KIND_SWAPS = {"theta_space": {"kind": "anchor_balls"},
              "rom_arch": {"kind": "resnet_zero_boundary", "width": 3, "depth": 2}}
# another problem kind needs a velocity or an epsilon and a ROM kind of its
# own, so changing problem.kind alone is a config error; the other kinds
# are swapped with their blocks
SKIPPED = {"problem.kind", *(f"{block}.kind" for block in KIND_SWAPS)}


def _changes():
    for leaf in settable_leaves(config.SCHEMA):
        doc = json.loads(json.dumps(HEAT_CFG))
        node, schema, (*path, key) = doc, config.SCHEMA, leaf.split(".")
        for part in path:  # a train.schedule leaf changes in the first stage
            node, schema = node[part], schema["properties"][part]
            node, schema = (node[0], schema["items"]) if isinstance(node, list) else (node, schema)
        if key in node and leaf not in SKIPPED:
            kind, low = schema["properties"][key]["type"], schema["properties"][key].get("minimum")
            # an int goes to its minimum, the edge a count change hits, or one above it; a number doubles
            node[key] = (low if node[key] != low else low + 1) if kind == "integer" else 2 * node[key]
            yield pytest.param(leaf, doc, id=leaf)
    for block, swap in KIND_SWAPS.items():
        yield pytest.param(block, dict(HEAT_CFG, **{block: swap}), id=f"{block}.kind={swap['kind']}")


def _run(cfg, out, command: str) -> tuple[int, str]:
    """The exit code and the stderr of one command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*command.split(), "--config", str(cfg), "--out", str(out)])
    return code, err.getvalue()


def _files(out, stamps=False) -> dict:
    """Each file's bytes, or its inode and mtime, which a rewrite changes even to the same bytes."""
    return {str(p.relative_to(out)): (p.stat().st_ino, p.stat().st_mtime_ns) if stamps else p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def _full_run(doc: dict, tmp) -> dict:
    """The files of every command run in order under doc, in tmp/out."""
    (tmp / "cfg.json").write_text(json.dumps(doc))
    assert [_run(tmp / "cfg.json", tmp / "out", command)[0] for command in WRITES][0] == 0
    return _files(tmp / "out")


@pytest.fixture(scope="module")
def old(tmp_path_factory):
    return _full_run(HEAT_CFG, tmp_path_factory.mktemp("old"))


@pytest.mark.parametrize("changed, doc", list(_changes()))
def test_a_command_on_stale_artifacts_exits_4_naming_them_or_writes_a_fresh_runs_bytes(changed, doc, old, tmp_path):
    fresh, work = _full_run(doc, tmp_path), tmp_path / "work"
    stale = {command for command, names in WRITES.items()
             if any(old.get(rel) != fresh.get(rel) for rel in (config._LAYOUT[name].format(0) for name in names))}
    for rel, data in old.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_bytes(data)
    for command in COMMANDS[:COMMANDS.index("train-control --resume") if changed.startswith("train.") else None]:
        before = _files(work, stamps=True)
        code, err = _run(tmp_path / "cfg.json", work, command)
        after = _files(work, stamps=True)
        wrote = {rel for rel in {*before, *after} if before.get(rel) != after.get(rel)}
        now = {rel: (work / rel).read_bytes() for rel in wrote if rel in after}
        if code == cli.EXIT_NUMERIC:
            leaf, named = re.search(r"mismatch on '([^']+)'", err), re.search(r"rerun ([a-z-]+)", err)
            assert not wrote and named and named[1] in stale, (command, err)
            assert leaf is None or leaf[1] == changed or leaf[1].startswith(f"{changed}."), (command, err)
        elif command.endswith("--resume"):
            assert "train-control" not in stale, (command, code, err)
        else:
            assert {rel: now.get(rel) for rel in wrote} == {rel: fresh.get(rel) for rel in wrote}, (command, code, err)
        for rel in wrote:  # back to the old artifacts
            (work / rel).write_bytes(old[rel]) if rel in old else (work / rel).unlink()


def test_the_provenance_table_and_the_schema_name_the_same_leaves():
    # a new config key cannot land without saying what it shapes
    leaves, quiet = settable_leaves(config.SCHEMA), set(config._SHAPES_NO_ARTIFACT)
    named = {leaf for row, _ in config._PROVENANCE.values() for leaf in row}
    assert named | quiet <= set(leaves) and not named & quiet
    assert [leaf for leaf in leaves if leaf not in named | quiet] == []
    assert all(up in config._PROVENANCE for _, reads in config._PROVENANCE.values() for up in reads)

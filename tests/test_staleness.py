"""Staleness and formats, generated from config's artifact table and config.SCHEMA.

After a full run of the tier-1 config, each settable leaf that it holds is
changed alone, by its type, and two kind swaps change a block's kind. Each
command then runs under the changed config on the old artifacts. It must
exit 4 naming a changed leaf, if it names one, and a command that writes
a stale artifact (one a fresh run of the changed config writes otherwise),
or write only what a fresh run writes. A resumed train-control may succeed
only when the fresh checkpoint is the old one. train.* shapes no artifact
(--resume continues under a new schedule), so after a train change the
commands from --resume on keep the old field and are not run.

Each binfile artifact, rewritten at its previous format version, is
rejected by a command that reads it, naming its kind, format and writer.
"""

import argparse
import contextlib
import io
import json
import re

import pytest

from pdecontrol import binfile, cli, config

from conftest import settable_leaves
from test_config_cli import HEAT_CFG, SHRUNK_AC

# what each command writes, by _ARTIFACTS name (the per-anchor ones for anchor 0), in the
# order the pipeline runs; export-slice needs a 2-D problem and the tier-1 config is 1-D
WRITES = {}
for _name, _row in config._ARTIFACTS.items():
    if _row.writer != "export-slice":
        WRITES.setdefault(_row.writer, []).append(_name)
BINFILES = [name for name, row in config._ARTIFACTS.items() if row.format_version is not None]
# a command that reads each binfile, after every artifact read before it
READERS = {"anchors": "solve", "gram_cache": "train-control", "traj_cache": "train-control", "checkpoint": "solve",
           "loss_history": "train-control --resume", "solution": "eval", "reference": "eval", "errors": "verify"}
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
    """The exit code and the stderr of one command under cfg, a config
    path or a list of config arguments."""
    err = io.StringIO()
    args = cfg if isinstance(cfg, list) else ["--config", str(cfg)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*command.split(), *args, "--out", str(out)])
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


@pytest.fixture(scope="module")
def allen_cahn(tmp_path_factory):
    """The files of a shrunk allen_cahn_2d run, the one kind with a reference file."""
    out = tmp_path_factory.mktemp("allen_cahn") / "out"
    for command in ("fit-initial", "sample-gram", "train-control", "solve", "reference --nx 16 --nt 16",
                    "eval --n-x 64"):
        assert _run(SHRUNK_AC, out, command)[0] == 0
    return _files(out)


def _restore(files: dict, work) -> None:
    for rel, data in files.items():
        (work / rel).parent.mkdir(parents=True, exist_ok=True)
        (work / rel).write_bytes(data)


@pytest.mark.parametrize("changed, doc", list(_changes()))
def test_a_command_on_stale_artifacts_exits_4_naming_them_or_writes_a_fresh_runs_bytes(changed, doc, old, tmp_path):
    fresh, work = _full_run(doc, tmp_path), tmp_path / "work"
    stale = {command for command, names in WRITES.items()
             if any(old.get(rel) != fresh.get(rel) for rel in (config._ARTIFACTS[n].path.format(0) for n in names))}
    _restore(old, work)
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
    named = {leaf for row in config._ARTIFACTS.values() for leaf in row.leaves}
    assert named | quiet <= set(leaves) and not named & quiet
    assert [leaf for leaf in leaves if leaf not in named | quiet] == []
    assert all(up in config._ARTIFACTS for row in config._ARTIFACTS.values() for up in row.reads)


def test_every_artifact_is_written_by_a_subcommand():
    [commands] = [action.choices for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert {row.writer for row in config._ARTIFACTS.values()} <= set(commands)
    assert sorted(READERS) == sorted(BINFILES)


def test_the_runs_write_the_files_of_the_table(old, allen_cahn):
    # together the two runs write every artifact but a slice, which needs --time
    assert {*old, *allen_cahn} == {row.path.format(0) for name, row in config._ARTIFACTS.items() if name != "slice"}


@pytest.mark.parametrize("name", BINFILES)
def test_a_file_of_the_previous_format_is_rejected_naming_its_writer(name, old, allen_cahn, tmp_path):
    # only allen_cahn writes a reference file; the tier-1 config's run holds every other binfile
    files, cfg = (allen_cahn, SHRUNK_AC) if name == "reference" else (old, tmp_path / "cfg.json")
    (tmp_path / "cfg.json").write_text(json.dumps(HEAT_CFG))
    work, row = tmp_path / "work", config._ARTIFACTS[name]
    _restore(files, work)
    path = work / row.path.format(0)
    line, data = path.read_bytes().split(b"\n", 1)
    assert json.loads(line)["kind"] == name
    path.write_bytes(binfile.encode_header(dict(json.loads(line), format_version=row.format_version - 1)) + data)
    code, err = _run(cfg, work, READERS[name])
    assert code == cli.EXIT_NUMERIC, err
    assert f"not a {name} in format version {row.format_version}" in err and f"rerun {row.writer}" in err

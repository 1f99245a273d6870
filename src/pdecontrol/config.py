"""Run configuration: JSON schema, loading, dotted-path overrides. load_config
builds the run objects the commands share (the operator, the ROM and
control-net architectures) once and checks them against each other; an
invalid or mismatched setting is a ConfigError (exit 2) that names the
setting where the schema rejects it. The problem kind picks its initial
family (transport draws its anchors from the box theta_space, heat fits
heat_combo, allen_cahn cheb_combo), the boundary condition of its ROM
(periodic for transport, zero-boundary otherwise) and the ROM's box: (0,1)
for heat, (-1,1)^2 for allen_cahn and, for transport, the unit cube of
dimension len(problem.velocity). In problem, rom_arch and theta_space a key
that the block's kind does not read (_KIND_KEYS) is a ConfigError naming
it. The horizon is read from RunConfig.raw. The settings' defaults are in
_DEFAULTS, a theta_space kind's size in _KIND_DEFAULTS, and their checks in
SCHEMA, so RunConfig.raw is the effective config; only rom_arch's optional
fields (rom.RomArch) default elsewhere. ADAM's moments are constants of
optim, not settings. train.schedule is the run's whole training: its
stages run in order in one train-control, each stage's batch_size
defaulting to the block's. One table, _ARTIFACTS, declares each artifact
once: its path under the out dir (README.md shows the layout), the command
that writes it, its binfile format version and what shaped it, the config
leaves its writer reads and the artifacts its writer reads. A binfile's
kind is the row's name. RunConfig.header builds from the row the header
that the writer writes and that every reader checks, whose flat record of
leaves the readers compare whole; _SHAPES_NO_ARTIFACT names the settable
leaves in no row.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import jsonschema

from . import binfile, pde_ops, rom
from .control_net import ControlArch
from .errors import ConfigError
from .sampling import AnchorBalls, Box

_LR = {"type": "number", "exclusiveMinimum": 0}
_MAX_STEPS = {"type": "integer", "minimum": 1}
_BATCH_SIZE = {"type": "integer", "minimum": 0}
# one lr stage of train.schedule; pairs_only trains on trajectory pairs alone
_STAGE = {
    "type": "object",
    "required": ["lr", "max_steps"],
    "properties": {"lr": _LR, "max_steps": _MAX_STEPS, "batch_size": _BATCH_SIZE, "pairs_only": {"type": "boolean"}},
    "additionalProperties": False,
}

# the keys each block's kind reads besides kind; _build rejects any other key
# of the block, and a theta_space kind's size defaults to _KIND_DEFAULTS
_KIND_KEYS = {
    "problem": {"transport": ("velocity", "horizon"), "heat": ("horizon",), "allen_cahn": ("epsilon", "horizon")},
    # a zero-boundary net is always tanh: RomArch refuses relu there
    "rom_arch": {rom.RESNET_PERIODIC: ("width", "depth", "activation"), rom.RESNET_ZERO_BOUNDARY: ("width", "depth"),
                 rom.LINEAR_BASIS: ("n_modes",)},
    "theta_space": {"box": ("half_width",), "anchor_balls": ("radius",)},
}
_KIND_DEFAULTS = {"box": {"half_width": 1.0}, "anchor_balls": {"radius": 3.0}}

SCHEMA = {
    "type": "object",
    "required": ["problem", "rom_arch", "seed"],
    "properties": {
        "problem": {
            "type": "object",
            "required": ["kind", "horizon"],
            "properties": {
                "kind": {"enum": [*_KIND_KEYS["problem"]]},
                "velocity": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
            "allOf": [{"if": {"properties": {"kind": {"const": kind}}}, "then": {"required": [key]}}
                      for kind, key in (("transport", "velocity"), ("allen_cahn", "epsilon"))],
            "additionalProperties": False,
        },
        "rom_arch": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": [*_KIND_KEYS["rom_arch"]]},
                "width": {"type": "integer", "minimum": 0},
                "depth": {"type": "integer", "minimum": 0},
                "activation": {"enum": ["tanh", "relu"]},
                "n_modes": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "control_arch": {
            "type": "object",
            "properties": {
                "width": {"type": "integer", "minimum": 1},
                "depth": {"type": "integer", "minimum": 2},
            },
            "additionalProperties": False,
        },
        "theta_space": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": [*_KIND_KEYS["theta_space"]]},
                "half_width": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "counts": {
            "type": "object",
            "properties": {
                "n_theta": {"type": "integer", "minimum": 1},
                "n_x": {"type": "integer", "minimum": 1},
                "n_traj": {"type": "integer", "minimum": 0},
                "n_t": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "train": {
            "type": "object",
            "properties": {
                "schedule": {"type": "array", "minItems": 1, "items": _STAGE},
                "zeta": {"type": "number", "minimum": 0},
                "batch_size": _BATCH_SIZE,
                "stop_loss": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "solve": {
            "type": "object",
            "properties": {
                "n_steps": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "initials": {
            "type": "object",
            "properties": {
                "count": {"type": "integer", "minimum": 0},
                "eps0_target": {"type": "number", "exclusiveMinimum": 0},
                "fit_n_x": {"type": "integer", "minimum": 1},
                # the keyword arguments of fit.fit_initials
                "fit": {
                    "type": "object",
                    "properties": {"lr": _LR, "max_steps": _MAX_STEPS},
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        # a Philox key word holds 64 bits; the cap leaves room for the fit seeds seed + 1000 + k
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1},
        # ignored: benchmark configs still carry it
        "threads": {"type": "integer", "minimum": 1},
        "notes": {"type": "string"},
    },
    "additionalProperties": False,
}

_DEFAULTS = {
    "counts": {"n_theta": 1000, "n_x": 256, "n_traj": 0, "n_t": 50},
    "solve": {"n_steps": 200},
    "theta_space": {"kind": "box"},
    "control_arch": {"width": 64, "depth": 3},
    # batch_size 0 is the full batch
    "train": {"schedule": [{"lr": 1e-3, "max_steps": 100_000}], "zeta": 0.1, "batch_size": 256, "stop_loss": 0.1},
    "initials": {
        "count": 8,
        "eps0_target": 1e-3,
        "fit_n_x": 512,
        "fit": {"lr": 1e-3, "max_steps": 5000},
    },
}

_ROM = ("rom_arch.kind", "rom_arch.width", "rom_arch.depth", "rom_arch.activation", "rom_arch.n_modes")
_THETA_SPACE = ("theta_space.kind", "theta_space.half_width", "theta_space.radius")
# what assembling a projection system at one theta reads: the operator and the ROM
_ASSEMBLY = ("problem.kind", "problem.velocity", "problem.epsilon", *_ROM, "counts.n_x", "seed")


class Artifact(NamedTuple):
    path: str  # under the out dir; a per-anchor path takes the anchor index, a slice (anchor index, time)
    writer: str  # the command that writes it
    format_version: int | None  # None for the two files that are not binfiles, never read back
    leaves: tuple = ()  # the config leaves its writer reads
    reads: tuple = ()  # the artifacts its writer reads


# every artifact, in the order the pipeline writes them; a binfile's kind is
# its name. Its header records, as one flat {"block.key": value} record, the
# row's leaves and those of every artifact upstream, each that the effective
# config holds (RunConfig.header); every reader compares the record whole.
# No row holds a train leaf, so --resume continues under a new schedule. A
# solution and a reference do not read the anchor store's record: the store
# is checked whole wherever it is read, a solution is tied to its anchor's
# row by the theta0 bit check and a reference by the spec its header holds.
_ARTIFACTS = {
    "anchors": Artifact("caches/anchors.bin", "fit-initial", 6, (
        "problem.kind", "problem.velocity", *_ROM, *_THETA_SPACE, "initials.count", "initials.eps0_target",
        "initials.fit_n_x", "initials.fit.lr", "initials.fit.max_steps", "seed")),
    "gram_cache": Artifact("caches/gram.bin", "sample-gram", 7, (*_ASSEMBLY, *_THETA_SPACE), ("anchors",)),
    "traj_cache": Artifact("caches/traj.bin", "gen-trajectories", 8, (
        *_ASSEMBLY, *_THETA_SPACE, "problem.horizon", "counts.n_traj", "counts.n_t"), ("anchors",)),
    "checkpoint": Artifact("checkpoints/control.bin", "train-control", 8, (
        "control_arch.width", "control_arch.depth", "counts.n_theta", "counts.n_traj", "seed"),
        ("gram_cache", "traj_cache")),
    "loss_history": Artifact("curves/loss_history.bin", "train-control", 2),
    "solution": Artifact("solutions/solution_{:03d}.bin", "solve", 7,
                         ("problem.horizon", "solve.n_steps", *_THETA_SPACE), ("checkpoint",)),
    "reference": Artifact("reference/ref_{:03d}.bin", "reference", 3, ("problem.epsilon", "problem.horizon")),
    "errors": Artifact("curves/errors_{:03d}.bin", "eval", 3, ("seed",), ("solution", "reference")),
    "slice": Artifact("slices/slice_{:03d}_t{:.4f}.csv", "export-slice", None),
    "report": Artifact("report.json", "verify", None),
}
# the settable leaves that shape no artifact: the training schedule, which a
# resumed run may change, and two keys nothing reads
_SHAPES_NO_ARTIFACT = ("train.schedule.lr", "train.schedule.max_steps", "train.schedule.batch_size",
                       "train.schedule.pairs_only", "train.zeta", "train.batch_size", "train.stop_loss", "threads",
                       "notes")
_ABSENT = object()


def _merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def parse_override(expr: str):
    """key.path=value with the value parsed as JSON, falling back to string."""
    if "=" not in expr:
        raise ConfigError(f"override {expr!r} is not of the form key=value")
    key, raw = expr.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def apply_override(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {part!r} in override {key!r}")
    node[parts[-1]] = value


def _build(doc: dict) -> tuple[pde_ops.PdeOperator, rom.RomArch, ControlArch]:
    """The operator, the ROM architecture on the problem kind's box and the
    control-net architecture the validated doc describes, whose theta_space
    it fills with its kind's default size; ValueError if a block holds a key
    its kind does not read, if a setting is invalid, if settings disagree,
    or if the problem's reference or initial family cannot serve it."""
    for block, kinds in _KIND_KEYS.items():
        kind = doc[block]["kind"]
        reads = kinds[kind]
        unread = [f"{block}.{key}" for key in doc[block] if key not in ("kind", *reads)]
        if unread:
            raise ValueError(f"{block}.kind {kind!r} does not read {', '.join(unread)} (it reads {', '.join(reads)})")
        for key, value in _KIND_DEFAULTS.get(kind, {}).items():
            doc[block].setdefault(key, value)
    p = doc["problem"]
    kind = p["kind"]
    theta_kind = doc["theta_space"]["kind"]
    # each reference and initial family lives on one box, the unit cube
    # (RomArch's default) but for allen_cahn; on it the period-1 transport
    # ROM and its shifted reference agree
    if kind == "transport":
        op, box = pde_ops.Transport(velocity=p["velocity"]), {"input_dim": len(p["velocity"])}
    elif kind == "heat":
        op, box = pde_ops.Heat(), {"input_dim": 1}
    else:
        op, box = pde_ops.AllenCahn(epsilon=p["epsilon"]), {"input_dim": 2, "lo": (-1.0, -1.0), "hi": (1.0, 1.0)}
    arch = rom.RomArch(**doc["rom_arch"], **box)
    # the transport reference is periodic and the heat and allen_cahn ones
    # are zero on the boundary; the ROM kind fixes its boundary condition
    if (arch.kind == rom.RESNET_PERIODIC) != (kind == "transport"):
        need = ("the periodic kind 'resnet_periodic'" if kind == "transport"
                else "a zero-boundary kind ('resnet_zero_boundary' or 'linear_basis')")
        raise ValueError(f"problem.kind {kind!r} needs {need}; rom_arch.kind is {arch.kind!r}")
    if kind == "transport" and theta_kind != "box":
        raise ValueError(f"transport draws its anchors from a box theta_space; theta_space.kind is {theta_kind!r}")
    if theta_kind == "anchor_balls" and doc["initials"]["count"] == 0:
        raise ValueError("theta_space.kind 'anchor_balls' samples around the anchors; initials.count is 0")
    return op, arch, ControlArch(input_dim=rom.param_count(arch), **doc["control_arch"])


@dataclass
class RunConfig:
    raw: dict
    out_dir: str
    operator: pde_ops.PdeOperator
    rom_arch: rom.RomArch
    control_arch: ControlArch

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    def theta_space(self):
        ts = self.raw["theta_space"]
        if ts["kind"] == "box":
            return Box(half_width=ts["half_width"], dim=rom.param_count(self.rom_arch))
        _, anchors = binfile.load(self.path("anchors"), self.header("anchors"))
        return AnchorBalls(anchors=anchors, radius=ts["radius"])

    def header(self, name: str) -> dict:
        """The header of binfile artifact name, as its writer writes it
        (with the data fields the file holds) and its readers check it:
        {"kind": name, "format_version", "writer": the command that writes
        it, "config": record}, the record holding the leaves of the
        artifact's _ARTIFACTS row and of every artifact upstream, upstream
        first, each that the effective config holds; rom_arch is read as
        RomArch holds it, so spelling out a default changes nothing."""
        row = _ARTIFACTS[name]
        return {"kind": name, "format_version": row.format_version, "writer": row.writer,
                "config": self._record(name)}

    def _record(self, name: str) -> dict:
        """The flat record of header. fit-initial reads the theta_space
        only for transport, whose anchors are drawn from it; of initials a
        transport draw reads only the count, a linear basis's least-squares
        fit the count and fit_n_x, and a net's fit the whole block.
        sample-gram and gen-trajectories read the anchors only to draw
        around them, and train-control reads the trajectory cache only when
        counts.n_traj > 0."""
        leaves, reads = _ARTIFACTS[name].leaves, _ARTIFACTS[name].reads
        transport = self.raw["problem"]["kind"] == "transport"
        skip = set()
        if self.raw["theta_space"]["kind"] == "box":
            skip |= {("gram_cache", "anchors"), ("traj_cache", "anchors")}
        if not self.raw["counts"]["n_traj"]:
            skip.add(("checkpoint", "traj_cache"))
        if name == "anchors":
            if transport:
                read = {"initials.count", *_THETA_SPACE}
            elif self.rom_arch.kind == rom.LINEAR_BASIS:
                read = {"initials.count", "initials.fit_n_x"}
            else:
                read = {leaf for leaf in leaves if leaf.startswith("initials.")}
            leaves = [leaf for leaf in leaves if leaf in read or not leaf.startswith(("initials.", "theta_space."))]
        arch = self.rom_arch
        doc = dict(self.raw, rom_arch={key: getattr(arch, key) for key in ("kind", *_KIND_KEYS["rom_arch"][arch.kind])})
        record = {}
        for upstream in reads:
            if (name, upstream) not in skip:
                record.update(self._record(upstream))
        for leaf in leaves:
            node = doc
            for key in leaf.split("."):
                node = node.get(key, _ABSENT) if isinstance(node, dict) else _ABSENT
            if node is not _ABSENT:
                record[leaf] = node
        return record

    def path(self, name: str, index=None) -> str:
        """The path of artifact name under the out dir (_ARTIFACTS); index
        is the anchor index of a per-anchor artifact, (anchor index, time)
        for a slice."""
        rel = _ARTIFACTS[name].path
        if index is not None:
            rel = rel.format(*(index if isinstance(index, tuple) else (index,)))
        return os.path.join(self.out_dir, rel)

    def ensure_layout(self) -> None:
        for sub in {os.path.dirname(row.path) for row in _ARTIFACTS.values()} - {""}:
            os.makedirs(os.path.join(self.out_dir, sub), exist_ok=True)


def _is_integer(checker, value) -> bool:
    """An int: jsonschema's own check also passes a float such as 1.0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(checker, value) -> bool:
    """A finite int or float: NaN would pass every bound, and no setting is infinite."""
    return _is_integer(checker, value) or (isinstance(value, float) and math.isfinite(value))


_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_number}),
)
# built once: jsonschema.validate would check SCHEMA against the meta-schema on
# every call (a tier-1 test checks it instead)
_CONFIG_VALIDATOR = _VALIDATOR(SCHEMA)
_STAGE_VALIDATOR = _VALIDATOR(_STAGE)


def _validate(doc, validator, prefix: tuple = ()) -> None:
    """ConfigError for the error jsonschema.validate would raise, naming the
    setting: prefix is the path of doc in the config."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        where = ".".join(map(str, (*prefix, *error.absolute_path)))
        at = f" at {where}" if where else ""
        raise ConfigError(f"config schema violation{at}: {error.message}")


def check_stage(stage: dict) -> None:
    """ConfigError unless stage, given outside the config, is a stage that
    train.schedule could hold."""
    _validate(stage, _STAGE_VALIDATOR, ("stage",))


def load_config(path, overrides=(), out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} not found")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config {path} is not a readable JSON file: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    for expr in overrides:
        key, value = parse_override(expr)
        apply_override(doc, key, value)
    if seed is not None:
        doc["seed"] = seed
    # defaults last, so an override that replaces a whole block is filled too;
    # a deep copy, so no run shares a nested dict with _DEFAULTS
    doc = _merge(copy.deepcopy(_DEFAULTS), doc)
    _validate(doc, _CONFIG_VALIDATOR)
    try:
        operator, rom_arch, control_arch = _build(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(raw=doc, out_dir=out_dir or "out", operator=operator, rom_arch=rom_arch, control_arch=control_arch)

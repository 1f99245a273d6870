"""Run configuration: JSON schema, loading, dotted-path overrides. load_config
builds the run objects the commands share (the operator, the ROM and
control-net architectures) once and checks them against each other; an
invalid or mismatched setting is a ConfigError (exit 2) that names the
setting where the schema rejects it. The problem kind picks its initial
family (transport random_theta, heat heat_combo, allen_cahn cheb_combo),
and each kind has one load rule for the setting its reference and family
need. The ROM architecture takes its dimension and its box from
problem.domain; the horizon is read from RunConfig.raw. The settings'
defaults are in _DEFAULTS and their checks in SCHEMA, so RunConfig.raw is
the effective config; only rom_arch's optional fields (rom.RomArch), the
transport velocity (1 per dimension) and the paths (the layout below)
default elsewhere. ADAM's moments are constants of optim, not settings.
train.schedule is the run's whole training: its stages run in order in one
train-control, each stage's batch_size defaulting to the block's.

Artifacts live under a fixed out_dir layout:
    out/caches/      gram + trajectory caches, anchor store (binfiles)
    out/checkpoints/ control-field checkpoint (binfile)
    out/curves/      loss history and error curves (binfiles)
    out/slices/      pointwise comparison slices (CSV)
    out/solutions/   solved parameter trajectories (binfiles)
    out/reference/   IMEX reference grids (binfiles)
    out/report.json  verify report on the run's artifacts
Relative paths in the config resolve against out_dir.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass

import jsonschema
import numpy as np

from . import fit, pde_ops, rom
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

SCHEMA = {
    "type": "object",
    "required": ["problem", "rom_arch", "seed"],
    "properties": {
        "problem": {
            "type": "object",
            "required": ["kind", "domain", "horizon"],
            "properties": {
                "kind": {"enum": ["transport", "heat", "allen_cahn"]},
                "velocity": {"type": "array", "items": {"type": "number"}},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "domain": {
                    "type": "object",
                    "required": ["lo", "hi"],
                    "properties": {
                        "lo": {"type": "array", "items": {"type": "number"}},
                        "hi": {"type": "array", "items": {"type": "number"}},
                    },
                },
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
            "if": {"properties": {"kind": {"const": "allen_cahn"}}},
            "then": {"required": ["epsilon"]},
            "additionalProperties": False,
        },
        "rom_arch": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {
                    "enum": ["resnet_zero_boundary", "resnet_periodic", "linear_basis"]
                },
                "width": {"type": "integer", "minimum": 0},
                "depth": {"type": "integer", "minimum": 0},
                "activation": {"enum": ["tanh", "relu"]},
                "basis_spec": {"type": "array"},
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
                "kind": {"enum": ["box", "anchor_balls"]},
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
                # the keyword arguments of fit.fit_initial
                "fit": {
                    "type": "object",
                    "properties": {"lr": _LR, "max_steps": _MAX_STEPS},
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "paths": {
            "type": "object",
            "properties": {
                "gram_cache": {"type": "string"},
                "traj_cache": {"type": "string"},
                "anchors": {"type": "string"},
                "checkpoints": {"type": "string"},
                "out_dir": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
        # ignored: benchmark configs still carry it
        "threads": {"type": "integer", "minimum": 1},
        "notes": {"type": "string"},
    },
    "additionalProperties": False,
}

_DEFAULTS = {
    "counts": {"n_theta": 1000, "n_x": 256, "n_traj": 0, "n_t": 50},
    "solve": {"n_steps": 200},
    "theta_space": {"kind": "box", "half_width": 1.0, "radius": 3.0},
    "control_arch": {"width": 64, "depth": 3},
    # batch_size 0 is the full batch
    "train": {"schedule": [{"lr": 1e-3, "max_steps": 100_000}], "zeta": 0.1, "batch_size": 256, "stop_loss": 0.1},
    "initials": {
        "count": 8,
        "eps0_target": 1e-3,
        "fit_n_x": 512,
        "fit": {"lr": 1e-3, "max_steps": 5000},
    },
    "paths": {},
}


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
    """The operator, the ROM architecture on the problem's box and the
    control-net architecture the validated doc describes; ValueError if one
    is invalid, if settings disagree, or if the problem's reference or
    initial family cannot serve it."""
    p = doc["problem"]
    lo = np.array(p["domain"]["lo"], dtype=np.float64)
    hi = np.array(p["domain"]["hi"], dtype=np.float64)
    kind = p["kind"]
    theta_kind = doc["theta_space"]["kind"]
    arch = rom.RomArch(**doc["rom_arch"], input_dim=lo.size, lo=lo, hi=hi)
    box = f"the domain is {lo.tolist()} to {hi.tolist()}"
    if kind == "transport":
        velocity = np.array(p.get("velocity", [1.0] * len(lo)), dtype=np.float64)
        if velocity.shape != lo.shape:
            raise ValueError(f"problem.velocity has {velocity.size} components for a {lo.size}-D domain")
        if theta_kind != "box":
            raise ValueError(f"transport draws its random_theta anchors from a box theta_space; "
                             f"theta_space.kind is {theta_kind!r}")
        op = pde_ops.Transport(velocity=velocity)
    elif kind == "heat":
        if not (np.array_equal(lo, [0.0]) and np.array_equal(hi, [1.0])):
            raise ValueError(f"heat needs the domain (0,1), where its sine-series reference and heat_combo "
                             f"initials are defined; {box}")
        op = pde_ops.Heat()
    else:
        if not (np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [1.0, 1.0])):
            raise ValueError(f"allen_cahn needs the domain (-1,1)^2, where its cheb_combo initials vanish on "
                             f"the boundary; {box}")
        op = pde_ops.AllenCahn(epsilon=p["epsilon"])
    if theta_kind == "anchor_balls" and doc["initials"]["count"] == 0:
        raise ValueError("theta_space.kind 'anchor_balls' samples around the anchors; initials.count is 0")
    # the transport shift wraps x - vt into the box, so a period-1 ROM needs
    # whole-number sides (up to the rounding of hi - lo)
    sides = np.round(hi - lo)
    whole = np.all(sides >= 1) and np.allclose(hi - lo, sides, rtol=0.0, atol=1e-9)
    if arch.kind == rom.RESNET_PERIODIC and not whole:
        raise ValueError(f"rom_arch.kind 'resnet_periodic' has period 1 in each coordinate, so the box sides "
                         f"must be whole numbers; {box}")
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
        _, anchors = fit.load_anchors(self.path("anchors"), self.anchor_header())
        return AnchorBalls(anchors=anchors, radius=ts["radius"])

    def anchor_header(self) -> dict:
        """Every input of fit-initial, as the anchor store header records it
        (arch_hash covers the box); transport draws its anchors from the
        theta_space."""
        transport = self.raw["problem"]["kind"] == "transport"
        return {
            "arch_hash": rom.arch_hash(self.rom_arch),
            "m": rom.param_count(self.rom_arch),
            "seed": self.seed,
            "initials": self.raw["initials"],
            "theta_space": self.raw["theta_space"] if transport else None,
        }

    # -- paths ---------------------------------------------------------------

    def path(self, name: str) -> str:
        defaults = {
            "gram_cache": "caches/gram.bin",
            "traj_cache": "caches/traj.bin",
            "anchors": "caches/anchors.bin",
            "checkpoints": "checkpoints",
        }
        rel = self.raw["paths"].get(name, defaults[name])
        if os.path.isabs(rel):
            return rel
        return os.path.join(self.out_dir, rel)

    def ensure_layout(self) -> None:
        for sub in ("caches", "checkpoints", "curves", "slices", "solutions", "reference"):
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
    resolved_out = out_dir or doc.get("paths", {}).get("out_dir") or "out"
    return RunConfig(raw=doc, out_dir=resolved_out, operator=operator, rom_arch=rom_arch, control_arch=control_arch)

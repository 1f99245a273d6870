"""Run configuration: JSON schema, loading, dotted-path overrides. load_config
builds the run objects the commands share (problem, ROM and control-net
architectures) once and checks them against each other; an invalid or
mismatched setting is a ConfigError (exit 2), as is a problem no reference
serves with its initial family. The ROM architecture takes its dimension
and its box from problem.domain. The settings' defaults are in _DEFAULTS and
their checks in SCHEMA, so RunConfig.raw is the effective config; only
rom_arch's optional fields (rom.RomArch), the transport velocity (1 per
dimension) and the paths (the layout below) default elsewhere. ADAM's
moments and the plateau window are constants of optim, not settings.

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
                "lr": _LR,
                "zeta": {"type": "number", "minimum": 0},
                "batch_size": {"type": "integer", "minimum": 0},
                "stop_loss": {"type": "number"},
                "stop_plateau_pct": {"type": ["number", "null"]},
                "max_steps": _MAX_STEPS,
            },
            "additionalProperties": False,
        },
        "solve": {
            "type": "object",
            "properties": {
                "scheme": {"enum": ["euler", "rk4"]},
                "n_steps": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "initials": {
            "type": "object",
            "properties": {
                "family": {"enum": ["random_theta", "heat_combo", "cheb_combo"]},
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
    "solve": {"scheme": "rk4", "n_steps": 200},
    "theta_space": {"kind": "box", "half_width": 1.0, "radius": 3.0},
    "control_arch": {"width": 64, "depth": 3},
    # batch_size 0 is the full batch; stop_plateau_pct null turns the plateau stop off
    "train": {"lr": 1e-3, "zeta": 0.1, "batch_size": 256, "stop_loss": 0.1, "stop_plateau_pct": 0.1,
              "max_steps": 100_000},
    "initials": {
        "family": "random_theta",
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


def _build(doc: dict) -> tuple[pde_ops.Problem, rom.RomArch, ControlArch]:
    """The problem, the ROM architecture on the problem's box and the
    control-net architecture the validated doc describes; ValueError if one
    is invalid, if settings disagree, or if no reference serves the problem
    with its initial family."""
    p = doc["problem"]
    lo = np.array(p["domain"]["lo"], dtype=np.float64)
    hi = np.array(p["domain"]["hi"], dtype=np.float64)
    kind = p["kind"]
    if kind == "transport":
        velocity = np.array(p.get("velocity", [1.0] * len(lo)), dtype=np.float64)
        if velocity.shape != lo.shape:
            raise ValueError(f"problem.velocity has {velocity.size} components for a {lo.size}-D domain")
        op = pde_ops.Transport(velocity=velocity)
    elif kind == "heat":
        op = pde_ops.Heat()
    else:
        op = pde_ops.AllenCahn(epsilon=p["epsilon"])
    problem = pde_ops.Problem(operator=op, lo=lo, hi=hi, horizon=p["horizon"])
    arch = rom.RomArch(**doc["rom_arch"], input_dim=problem.dim, lo=problem.lo, hi=problem.hi)
    box = f"the domain is {lo.tolist()} to {hi.tolist()}"
    family = doc["initials"]["family"]
    if doc["theta_space"]["kind"] == "anchor_balls" and doc["initials"]["count"] == 0:
        raise ValueError("theta_space.kind 'anchor_balls' samples around the anchors; initials.count is 0")
    # which reference serves which problem: the heat series sums 1-D heat_combo
    # modes, the IMEX grid uses one set of nodes for both axes, and the
    # transport shift wraps x - vt into the box, so a period-1 ROM needs
    # whole-number sides (up to the rounding of hi - lo)
    sides = np.round(hi - lo)
    whole = np.all(sides >= 1) and np.allclose(hi - lo, sides, rtol=0.0, atol=1e-9)
    if arch.kind == rom.RESNET_PERIODIC and not whole:
        raise ValueError(f"rom_arch.kind 'resnet_periodic' has period 1 in each coordinate, so the box sides "
                         f"must be whole numbers; {box}")
    if kind == "heat" and (family != "heat_combo" or problem.dim != 1):
        raise ValueError(f"the closed-form heat reference needs heat_combo initials on a 1-D domain; "
                         f"initials.family is {family!r} and {box}")
    if kind == "allen_cahn" and not (problem.dim == 2 and lo[0] == lo[1] and hi[0] == hi[1]):
        raise ValueError(f"the Allen-Cahn IMEX grid needs a 2-D domain with the same interval on both axes; {box}")
    if family == "random_theta" and (kind != "transport" or doc["theta_space"]["kind"] != "box"):
        raise ValueError("initials.family 'random_theta' draws its anchors from a box theta_space for a "
                         f"transport reference; the problem is {kind} and theta_space.kind is "
                         f"{doc['theta_space']['kind']!r}")
    if family == "cheb_combo" and not (np.array_equal(lo, [-1.0, -1.0]) and np.array_equal(hi, [1.0, 1.0])):
        raise ValueError(f"initials.family 'cheb_combo' vanishes on the boundary of (-1,1)^2; {box}")
    return problem, arch, ControlArch(input_dim=rom.param_count(arch), **doc["control_arch"])


@dataclass
class RunConfig:
    raw: dict
    out_dir: str
    problem: pde_ops.Problem
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
        (arch_hash covers the box)."""
        ini = self.raw["initials"]
        return {
            "arch_hash": rom.arch_hash(self.rom_arch),
            "m": rom.param_count(self.rom_arch),
            "seed": self.seed,
            "initials": ini,
            "theta_space": self.raw["theta_space"] if ini["family"] == "random_theta" else None,
        }

    def train_config(self, **overrides) -> dict:
        """The train block with overrides (a script's lr stages) merged in,
        checked as load_config checks the config's own block."""
        merged = {**self.raw["train"], **overrides}
        _validate(merged, SCHEMA["properties"]["train"])
        return merged

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


def _validate(doc, schema: dict) -> None:
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc


def load_config(path, overrides=(), out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} not found")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    for expr in overrides:
        key, value = parse_override(expr)
        apply_override(doc, key, value)
    if seed is not None:
        doc["seed"] = seed
    # defaults last, so an override that replaces a whole block is filled too;
    # a deep copy, so no run shares a nested dict with _DEFAULTS
    doc = _merge(copy.deepcopy(_DEFAULTS), doc)
    _validate(doc, SCHEMA)
    try:
        problem, rom_arch, control_arch = _build(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    resolved_out = out_dir or doc.get("paths", {}).get("out_dir") or "out"
    return RunConfig(raw=doc, out_dir=resolved_out, problem=problem, rom_arch=rom_arch, control_arch=control_arch)

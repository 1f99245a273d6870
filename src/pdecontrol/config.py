"""Run configuration: JSON schema, loading, dotted-path overrides, and
construction of the problem/architecture objects the commands share.

Artifacts live under a fixed out_dir layout:
    out/caches/      gram + trajectory caches, anchor store
    out/checkpoints/ control-field checkpoint
    out/curves/      loss history and error curves (CSV)
    out/slices/      pointwise comparison slices (CSV)
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
from .control_net import ControlArch, TrainConfig
from .errors import ConfigError, MissingArtifact
from .sampling import AnchorBalls, Box

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "lr": {"type": "number", "exclusiveMinimum": 0},
        "beta1": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "beta2": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "adam_eps": {"type": "number", "exclusiveMinimum": 0},
        "zeta": {"type": "number", "minimum": 0},
        "batch_size": {"type": "integer", "minimum": 0},
        "stop_loss": {"type": "number"},
        "stop_plateau_pct": {"type": ["number", "null"]},
        "plateau_window": {"type": "integer", "minimum": 1},
        "max_steps": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}
# the train keys fit.fit_initial reads
_FIT_KEYS = ("lr", "beta1", "beta2", "adam_eps", "max_steps")

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
            "required": ["kind", "input_dim"],
            "properties": {
                "kind": {
                    "enum": ["resnet_zero_boundary", "resnet_periodic", "linear_basis"]
                },
                "input_dim": {"type": "integer", "minimum": 1},
                "width": {"type": "integer", "minimum": 0},
                "depth": {"type": "integer", "minimum": 0},
                "activation": {"enum": ["tanh", "relu"]},
                "wrapper_spec": {"type": "object"},
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
        "quadrature": {"enum": ["mc", "gauss"]},
        "train": _TRAIN_SCHEMA,
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
                "degree_max": {"type": "integer", "minimum": 0, "maximum": 6},
                "max_terms": {"type": "integer", "minimum": 1, "maximum": 36},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "fit": {**_TRAIN_SCHEMA, "properties": {k: _TRAIN_SCHEMA["properties"][k] for k in _FIT_KEYS}},
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
    "quadrature": "mc",
    "solve": {"scheme": "rk4", "n_steps": 200},
    "theta_space": {"kind": "box", "half_width": 1.0},
    "control_arch": {"width": 64, "depth": 3},
    "train": {},
    "initials": {
        "family": "random_theta",
        "count": 8,
        "eps0_target": 1e-3,
        "fit_n_x": 512,
        "degree_max": 3,
        "max_terms": 6,
        "amplitude": 0.9,
        "fit": {},
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


@dataclass
class RunConfig:
    raw: dict
    out_dir: str

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    # -- constructed objects ------------------------------------------------

    def problem(self) -> pde_ops.Problem:
        p = self.raw["problem"]
        lo = np.array(p["domain"]["lo"], dtype=np.float64)
        hi = np.array(p["domain"]["hi"], dtype=np.float64)
        kind = p["kind"]
        if kind == "transport":
            op = pde_ops.Transport(velocity=np.array(p.get("velocity", [1.0] * len(lo))))
        elif kind == "heat":
            op = pde_ops.Heat()
        else:
            op = pde_ops.AllenCahn(epsilon=p["epsilon"])
        try:
            return pde_ops.Problem(operator=op, lo=lo, hi=hi, horizon=p["horizon"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def rom_arch(self) -> rom.RomArch:
        try:
            return rom.arch_from_dict(self.raw["rom_arch"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def control_arch(self) -> ControlArch:
        c = self.raw["control_arch"]
        m = rom.param_count(self.rom_arch())
        try:
            return ControlArch(input_dim=m, width=c["width"], depth=c["depth"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def theta_space(self, anchors: np.ndarray | None = None):
        ts = self.raw["theta_space"]
        if ts["kind"] == "box":
            return Box(half_width=ts.get("half_width", 1.0), dim=rom.param_count(self.rom_arch()))
        if anchors is None:
            anchors = self.load_anchor_thetas()
        return AnchorBalls(anchors=anchors, radius=ts.get("radius", 3.0))

    def load_anchor_thetas(self) -> np.ndarray:
        path = self.path("anchors")
        if not os.path.exists(path):
            raise MissingArtifact(f"anchor store {path} not found; run fit-initial first")
        thetas, _ = fit.load_anchors(path)
        return thetas

    def train_config(self, **overrides) -> TrainConfig:
        merged = dict(self.raw["train"])
        merged.update(overrides)
        merged.setdefault("seed", self.seed)
        try:
            return TrainConfig(**merged)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def fit_config(self) -> TrainConfig:
        return TrainConfig(**{"max_steps": 5000, **self.raw["initials"].get("fit", {})})

    # -- paths ---------------------------------------------------------------

    def path(self, name: str) -> str:
        defaults = {
            "gram_cache": "caches/gram.bin",
            "traj_cache": "caches/traj.jsonl",
            "anchors": "caches/anchors.jsonl",
            "checkpoints": "checkpoints",
        }
        rel = self.raw["paths"].get(name, defaults[name])
        if os.path.isabs(rel):
            return rel
        return os.path.join(self.out_dir, rel)

    def ensure_layout(self) -> None:
        for sub in ("caches", "checkpoints", "curves", "slices", "solutions", "reference"):
            os.makedirs(os.path.join(self.out_dir, sub), exist_ok=True)


def load_config(path, overrides=(), out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file {path} not found")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # a deep copy: overrides below write into nested dicts of the result
    doc = _merge(copy.deepcopy(_DEFAULTS), doc)
    for expr in overrides:
        key, value = parse_override(expr)
        apply_override(doc, key, value)
    if seed is not None:
        doc["seed"] = seed
    try:
        jsonschema.validate(doc, SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    resolved_out = out_dir or doc.get("paths", {}).get("out_dir") or "out"
    cfg = RunConfig(raw=doc, out_dir=resolved_out)
    cfg.rom_arch()
    cfg.problem()
    return cfg

"""Run configuration as a flat JSON object with dotted keys.

A config file is a single JSON object mapping dotted keys to scalars (or a
list of ints for net.hidden). Unknown keys are rejected by name, values are
type-checked, and anything not given falls back to its default: the data.*
defaults are listed below, every other key takes its default and type from
the SearchConfig, Constraints or default_mix() field it sets. The
normalized table is what gets snapshotted into a run manifest, so a manifest
alone is enough to replay a run bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any

from .data import Dataset, load_csv, make_blobs, two_spirals
from .errors import BadConfig, MissingFile
from .morphisms import Constraints, default_mix
from .search import MODES, SearchConfig

# The data.* keys feed build_dataset, not a dataclass, so they are listed
# here as key -> (type tag, default); None means "no default, must be
# supplied when a command needs it".
_DATA_SCHEMA: dict[str, tuple[str, Any]] = {
    "data.kind": ("str", None),
    "data.n": ("int", 2000),
    "data.noise": ("float", 0.1),
    "data.spread": ("float", 0.6),
    "data.d": ("int", 2),
    "data.classes": ("int", 4),
    "data.path": ("str", None),
    "data.label_column": ("int", -1),
    "data.has_header": ("bool", False),
    "data.seed": ("opt_int", None),
    "data.standardize": ("bool", False),
}

# SearchConfig fields whose key is not "search.<field>". Constraints fields
# are "constraints.<field>", the mix entries "morphisms.p_<kind>", and
# strict is a command-line flag with no key.
_RENAMED = {
    **{name: f"dynamics.{name}" for name in (
        "kappa", "beta", "rate_mode", "damping", "pure_gradient", "val_decay",
    )},
    "hidden": "net.hidden",
    "pretrain_epochs": "pretrain.epochs",
    "pretrain_lam_start": "pretrain.lam_start",
    "pretrain_lam_final": "pretrain.lam_final",
    "final_budget": "final.budget",
    "plateau_cycles": "final.plateau_cycles",
    "plateau_tol": "final.plateau_tol",
}
_TAGS = {
    "bool": "bool", "int": "int", "float": "float", "str": "str",
    "float | None": "opt_float", "tuple[int, ...]": "int_list",
}


def _search_keys() -> dict[str, tuple[str, Any, str, str | None]]:
    """key -> (type tag, default, SearchConfig field, entry within that
    field or None), read off the dataclasses."""
    keys = {}
    for f in fields(SearchConfig):
        if f.name == "constraints":
            for c in fields(Constraints):
                keys[f"constraints.{c.name}"] = (_TAGS[c.type], c.default, f.name, c.name)
        elif f.name == "mix":
            for kind, p in default_mix().items():
                keys[f"morphisms.p_{kind}"] = ("float", p, f.name, kind)
        elif f.name != "strict":
            default = list(f.default) if _TAGS[f.type] == "int_list" else f.default
            key = _RENAMED.get(f.name, f"search.{f.name}")
            keys[key] = (_TAGS[f.type], default, f.name, None)
    return keys


_SEARCH_KEYS = _search_keys()
SCHEMA: dict[str, tuple[str, Any]] = {
    **_DATA_SCHEMA,
    **{key: (tag, default) for key, (tag, default, _f, _e) in _SEARCH_KEYS.items()},
}


def default_config() -> dict[str, Any]:
    return {key: default for key, (_tag, default) in SCHEMA.items()}


def _coerce(key: str, tag: str, value: Any) -> Any:
    if value is None and tag in ("opt_int", "opt_float", "str"):
        return None
    if tag == "bool":
        if isinstance(value, bool):
            return value
    elif tag in ("int", "opt_int"):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
    elif tag in ("float", "opt_float"):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                raise BadConfig(
                    f"config key {key} wants a number in the float range, got {value!r}"
                ) from None
    elif tag == "str":
        if isinstance(value, str):
            return value
    elif tag == "int_list":
        if isinstance(value, list) and value and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return list(value)
    return _reject(key, tag, value)


def _reject(key: str, tag: str, value: Any):
    wanted = {
        "bool": "a boolean",
        "int": "an integer",
        "opt_int": "an integer",
        "float": "a number",
        "opt_float": "a number",
        "str": "a string",
        "int_list": "a nonempty list of integers",
    }[tag]
    raise BadConfig(f"config key {key} wants {wanted}, got {value!r}")


def normalize(overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Apply defaults, reject unknown keys, coerce and type-check values."""
    table = default_config()
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise BadConfig(f"unknown config key: {key}")
        table[key] = _coerce(key, SCHEMA[key][0], value)
    return table


def load_config(path: str) -> dict[str, Any]:
    """Read a config file; a run manifest (with its config snapshot under
    "config") is accepted in place of a plain config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise MissingFile(f"no config file at {path}") from exc
    except ValueError as exc:  # also an integer too long for int(), or bad UTF-8
        raise BadConfig(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise BadConfig(f"config file {path} must hold a JSON object")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    return raw


def require(cfg: dict[str, Any], key: str) -> Any:
    value = cfg.get(key)
    if value is None:
        raise BadConfig(f"missing config key: {key}")
    return value


def build_dataset(cfg: dict[str, Any]) -> Dataset:
    kind = require(cfg, "data.kind")
    seed = cfg["data.seed"]
    if seed is None:
        seed = cfg["search.seed"]
    if kind == "blobs":
        data = make_blobs(
            cfg["data.n"], cfg["data.d"], cfg["data.classes"],
            cfg["data.spread"], seed,
        )
    elif kind == "spirals":
        data = two_spirals(cfg["data.n"], cfg["data.noise"], seed)
    elif kind == "csv":
        data = load_csv(
            require(cfg, "data.path"), cfg["data.label_column"],
            cfg["data.has_header"], split_seed=seed,
        )
    else:
        raise BadConfig(
            f"config key data.kind wants blobs, spirals, or csv, got {kind!r}"
        )
    if cfg["data.standardize"]:
        data = data.standardized()
    return data


def build_search_config(cfg: dict[str, Any]) -> SearchConfig:
    mode = cfg["search.mode"]
    if mode not in MODES:
        raise BadConfig(
            f"config key search.mode wants one of {'/'.join(MODES)}, got {mode!r}"
        )
    kwargs: dict[str, Any] = {"constraints": {}, "mix": {}}
    for key, (_tag, _default, name, entry) in _SEARCH_KEYS.items():
        if entry is None:
            kwargs[name] = cfg[key]
        else:
            kwargs[name][entry] = cfg[key]
    try:
        kwargs["constraints"] = Constraints(**kwargs["constraints"])
        return SearchConfig(**kwargs)
    except ValueError as exc:
        raise BadConfig(str(exc)) from exc

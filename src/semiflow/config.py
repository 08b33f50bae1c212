"""Run configuration as a flat JSON object with dotted keys.

A config file is a single JSON object mapping dotted keys to scalars (or a
list of ints for net.hidden). Unknown keys are rejected by name, values are
type-checked, and anything not given falls back to its default: every key
takes its default, type and any interval from the DataConfig, SearchConfig,
Constraints or default_mix() field it sets. normalize judges every key,
whichever command reads it, and the builders judge none again. The
normalized table is what gets snapshotted into a run manifest, so a
manifest alone is enough to replay a run bit for bit.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .data import DataConfig, Dataset, load_csv, make_blobs, two_spirals
from .errors import BadConfig
from .knobs import check
from .morphisms import Constraints, default_mix
from .recording import read_json
from .search import MODES, SearchConfig

# SearchConfig fields whose key is not "search.<field>". DataConfig fields
# are "data.<field>", Constraints fields "constraints.<field>", the mix
# entries "morphisms.p_<kind>", and strict is a command-line flag with no key.
_RENAMED = {
    **{name: f"dynamics.{name}" for name in (
        "kappa", "beta", "rate_mode", "damping", "val_decay",
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
    "bool": "bool", "int": "int", "float": "float", "str": "str", "str | None": "str",
    "int | None": "opt_int", "float | None": "opt_float", "tuple[int, ...]": "int_list",
}


def _schema() -> dict[str, tuple[str, Any, str | None, str | None, str | None]]:
    """key -> (type tag, default, SearchConfig field or None, entry within
    that field or None, interval or None), read off the dataclasses."""
    keys = {}
    for f in fields(DataConfig):
        keys[f"data.{f.name}"] = (_TAGS[f.type], f.default, None, None,
                                  f.metadata.get("interval"))
    for f in fields(SearchConfig):
        if f.name == "constraints":
            for c in fields(Constraints):
                keys[f"constraints.{c.name}"] = (_TAGS[c.type], c.default, f.name,
                                                 c.name, c.metadata["interval"])
        elif f.name == "mix":
            for kind, p in default_mix().items():
                keys[f"morphisms.p_{kind}"] = ("float", p, f.name, kind, None)
        elif f.name != "strict":
            default = list(f.default) if _TAGS[f.type] == "int_list" else f.default
            key = _RENAMED.get(f.name, f"search.{f.name}")
            keys[key] = (_TAGS[f.type], default, f.name, None, f.metadata.get("interval"))
    return keys


SCHEMA = _schema()
_GENERATORS = {
    "blobs": (make_blobs, ("data.n", "data.d", "data.classes", "data.spread")),
    "spirals": (two_spirals, ("data.n", "data.noise")),
    "csv": (load_csv, ("data.path", "data.label_column", "data.has_header")),
}


def default_config() -> dict[str, Any]:
    return {key: default for key, (_tag, default, *_) in SCHEMA.items()}


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


def normalize(overrides: dict[str, Any] | None = None,
              flags: dict[str, Any] | None = None) -> dict[str, Any]:
    """The one judge of a table: defaults, then overrides, then flags (the
    command line's keys, which replace the file's), each key refused by name
    when unknown and coerced to its type. Then a search.mode or data.kind
    that names nothing is refused, and after it any value outside its key's
    interval, in key order. Every builder takes the table this returns."""
    table = default_config()
    for key, value in [*(overrides or {}).items(), *(flags or {}).items()]:
        if key not in SCHEMA:
            raise BadConfig(f"unknown config key: {key}")
        table[key] = _coerce(key, SCHEMA[key][0], value)
    for key, names in (("search.mode", MODES), ("data.kind", (*_GENERATORS, None))):
        if table[key] not in names:
            wanted = "/".join(name for name in names if name)
            raise BadConfig(f"config key {key} wants one of {wanted}, got {table[key]!r}")
    for key, (*_, interval) in SCHEMA.items():
        if interval is not None and table[key] is not None:
            check(f"config key {key}", table[key], interval, BadConfig)
    return table


def load_config(path: str) -> dict[str, Any]:
    """Read a config file; a run manifest (with its config snapshot under
    "config") is accepted in place of a plain config."""
    raw = read_json(path, "config file")
    if not isinstance(raw, dict):
        raise BadConfig(f"config file {path} must hold a JSON object")
    if "config" in raw and isinstance(raw["config"], dict):
        raw = raw["config"]
    return raw


def require(cfg: dict[str, Any], key: str) -> Any:
    """cfg[key], refused when it is None by an error naming the key."""
    if cfg[key] is None:
        raise BadConfig(f"missing config key: {key}")
    return cfg[key]


def build_dataset(cfg: dict[str, Any]) -> Dataset:
    """The dataset of data.kind in a normalized table: its generator takes
    the keys _GENERATORS lists, then data.seed, else search.seed."""
    make, keys = _GENERATORS[require(cfg, "data.kind")]
    seed_key = "search.seed" if cfg["data.seed"] is None else "data.seed"
    data = make(*(require(cfg, key) for key in (*keys, seed_key)))
    return data.standardized() if cfg["data.standardize"] else data


def build_search_config(cfg: dict[str, Any]) -> SearchConfig:
    """The SearchConfig of a normalized table."""
    kwargs: dict[str, Any] = {"constraints": {}, "mix": {}}
    for key, (_tag, _default, name, entry, _interval) in SCHEMA.items():
        if entry is not None:
            kwargs[name][entry] = cfg[key]
        elif name is not None:
            kwargs[name] = cfg[key]
    try:
        kwargs["constraints"] = Constraints(**kwargs["constraints"])
        return SearchConfig(**kwargs)
    except ValueError as exc:
        raise BadConfig(str(exc)) from exc

import dataclasses
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow.data import DataConfig
from semiflow.errors import BadConfig, MissingFile
from semiflow.search import MODES


# The normalized table a manifest snapshots when no key is overridden.
DEFAULT_TABLE = {
    "data.kind": None,
    "data.n": 2000,
    "data.noise": 0.1,
    "data.spread": 0.6,
    "data.d": 2,
    "data.classes": 4,
    "data.path": None,
    "data.label_column": -1,
    "data.has_header": False,
    "data.seed": None,
    "data.standardize": False,
    "search.mode": "nasgd",
    "search.seed": 0,
    "search.n_particles": 100,
    "search.n_neigh": 8,
    "search.epochs_neigh": 18,
    "search.n_steps": None,
    "search.lam_start": 0.05,
    "search.lam_final": 1e-7,
    "search.s_x": 64,
    "search.s_y": 32,
    "search.size_threshold": 20000,
    "search.topology": "star",
    "search.round_timeout_factor": 5.0,
    "search.grad_clip": 1.0,
    "dynamics.kappa": 3.0,
    "dynamics.beta": 2.0,
    "dynamics.rate_mode": "sampled",
    "dynamics.damping": 1.0,
    "dynamics.val_decay": 0.9,
    "net.hidden": [16, 16],
    "morphisms.p_deepen": 0.25,
    "morphisms.p_widen": 0.25,
    "morphisms.p_add_skip": 0.2,
    "morphisms.p_narrow": 0.1,
    "morphisms.p_remove_layer": 0.1,
    "morphisms.p_remove_skip": 0.1,
    "constraints.max_layers": 8,
    "constraints.max_width": 64,
    "constraints.max_incoming": 3,
    "constraints.max_params": 20000,
    "pretrain.epochs": 20,
    "pretrain.lam_start": 0.5,
    "pretrain.lam_final": 1e-7,
    "final.budget": 300,
    "final.plateau_cycles": 3,
    "final.plateau_tol": 1e-4,
}

# key -> (a valid non-default value, the SearchConfig field it must set;
# "constraints.<f>" and "mix.<kind>" name entries of those fields).
SEARCH_KEYS = {
    "search.mode": ("nasagd", "mode"),
    "search.seed": (7, "seed"),
    "search.n_particles": (33, "n_particles"),
    "search.n_neigh": (5, "n_neigh"),
    "search.epochs_neigh": (9, "epochs_neigh"),
    "search.n_steps": (1.5, "n_steps"),
    "search.lam_start": (0.07, "lam_start"),
    "search.lam_final": (1e-5, "lam_final"),
    "search.s_x": (48, "s_x"),
    "search.s_y": (24, "s_y"),
    "search.size_threshold": (12345, "size_threshold"),
    "search.topology": ("complete", "topology"),
    "search.round_timeout_factor": (2.5, "round_timeout_factor"),
    "search.grad_clip": (0.5, "grad_clip"),
    "dynamics.kappa": (1.5, "kappa"),
    "dynamics.beta": (1.25, "beta"),
    "dynamics.rate_mode": ("expected", "rate_mode"),
    "dynamics.damping": (0.5, "damping"),
    "dynamics.val_decay": (0.75, "val_decay"),
    "net.hidden": ([4, 6], "hidden"),
    "morphisms.p_deepen": (0.3, "mix.deepen"),
    "morphisms.p_widen": (0.3, "mix.widen"),
    "morphisms.p_add_skip": (0.3, "mix.add_skip"),
    "morphisms.p_narrow": (0.3, "mix.narrow"),
    "morphisms.p_remove_layer": (0.3, "mix.remove_layer"),
    "morphisms.p_remove_skip": (0.3, "mix.remove_skip"),
    "constraints.max_layers": (5, "constraints.max_layers"),
    "constraints.max_width": (32, "constraints.max_width"),
    "constraints.max_incoming": (2, "constraints.max_incoming"),
    "constraints.max_params": (5000, "constraints.max_params"),
    "pretrain.epochs": (3, "pretrain_epochs"),
    "pretrain.lam_start": (0.25, "pretrain_lam_start"),
    "pretrain.lam_final": (1e-6, "pretrain_lam_final"),
    "final.budget": (40, "final_budget"),
    "final.plateau_cycles": (2, "plateau_cycles"),
    "final.plateau_tol": (1e-3, "plateau_tol"),
}


def test_defaults_table():
    cfg = sf.default_config()
    assert len(cfg) == 47
    assert cfg == DEFAULT_TABLE
    assert {k: type(v) for k, v in cfg.items()} == {
        k: type(v) for k, v in DEFAULT_TABLE.items()
    }
    assert {k for k in cfg if not k.startswith("data.")} == set(SEARCH_KEYS)


def _search_fields(sc):
    flat = {f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)}
    for name, value in dataclasses.asdict(flat.pop("constraints")).items():
        flat[f"constraints.{name}"] = value
    for kind, p in flat.pop("mix").items():
        flat[f"mix.{kind}"] = p
    return flat


@pytest.mark.parametrize("key", list(SEARCH_KEYS))
def test_key_sets_only_its_field(key):
    value, target = SEARCH_KEYS[key]
    # pin n_steps so that changing the mode does not also change it
    base = {"search.n_steps": 1.0}
    before = _search_fields(sf.build_search_config(sf.normalize(base)))
    after = _search_fields(sf.build_search_config(sf.normalize({**base, key: value})))
    assert {name for name in before if before[name] != after[name]} == {target}
    assert after[target] == (tuple(value) if isinstance(value, list) else value)


def test_unknown_key_named_in_error():
    with pytest.raises(BadConfig) as err:
        sf.normalize({"search.n_niegh": 4})
    assert "search.n_niegh" in str(err.value)


# Keys of dynamics variants that no longer exist, each with the value that
# once selected its variant.
REMOVED_DYNAMICS_KEYS = {
    "dynamics.gamma": 0.3,
    "dynamics.friction_potential": True,
    "dynamics.speed_penalty": True,
    "dynamics.restart_literal": True,
    "dynamics.flow": "toward_low_phi",
    "dynamics.entropy": "log",
    "dynamics.pure_gradient": True,
}


@pytest.mark.parametrize("key", list(REMOVED_DYNAMICS_KEYS))
def test_removed_dynamics_key_named_in_error(key):
    with pytest.raises(BadConfig) as err:
        sf.normalize({key: REMOVED_DYNAMICS_KEYS[key]})
    assert str(err.value) == f"unknown config key: {key}"


def test_values_are_type_checked():
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_neigh": "eight"})
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_neigh": "4"})
    with pytest.raises(BadConfig):
        sf.normalize({"dynamics.kappa": True})
    with pytest.raises(BadConfig):
        sf.normalize({"net.hidden": []})


def test_numeric_coercions():
    cfg = sf.normalize({"dynamics.kappa": 2, "search.n_particles": 50.0})
    assert cfg["dynamics.kappa"] == 2.0
    assert isinstance(cfg["dynamics.kappa"], float)
    assert cfg["search.n_particles"] == 50
    assert isinstance(cfg["search.n_particles"], int)
    with pytest.raises(BadConfig):
        sf.normalize({"search.n_particles": 50.5})


def test_build_search_config_maps_fields():
    cfg = sf.normalize({"search.mode": "nasagd", "dynamics.beta": 1.5,
                        "net.hidden": [4, 4]})
    sc = sf.build_search_config(cfg)
    assert sc.mode == "nasagd"
    assert sc.n_steps == 2.54
    assert sc.beta == 1.5
    assert sc.hidden == (4, 4)


# A valid value for every DynamicsParams field but mode, different from the
# SearchConfig default and from the DynamicsParams default.
DYNAMICS_OVERRIDES = {"kappa": 7.0, "beta": 3.5, "rate_mode": sf.EXPECTED}


def test_search_config_dynamics_carries_every_field():
    fields = {f.name for f in dataclasses.fields(sf.DynamicsParams)}
    assert set(DYNAMICS_OVERRIDES) == fields - {"mode"}
    defaults = sf.SearchConfig()
    for name, value in DYNAMICS_OVERRIDES.items():
        assert getattr(defaults, name) != value
        assert getattr(sf.DynamicsParams(), name) != value
        dyn = sf.SearchConfig(**{name: value}).dynamics()
        assert getattr(dyn, name) == value
    assert sf.SearchConfig(mode="nasagd").dynamics().mode == sf.SECOND_ORDER
    assert sf.SearchConfig(mode="nasgd").dynamics().mode == sf.FIRST_ORDER
    assert sf.SearchConfig(mode="hillclimb").dynamics().mode == sf.FIRST_ORDER


def test_build_search_config_rejects_bad_values():
    with pytest.raises(BadConfig):
        sf.build_search_config(sf.normalize({"search.n_particles": 0}))
    with pytest.raises(BadConfig):
        sf.build_search_config(sf.normalize({"search.mode": "warp"}))


# Every dataclass whose numeric fields take a stated interval, and the
# annotations of the fields that are not numeric.
INTERVAL_OWNERS = (sf.SearchConfig, sf.DynamicsParams, sf.Constraints, sf.ValTracker,
                   DataConfig)
NUMERIC_TYPES = {"int", "float", "float | None", "int | None"}
OTHER_TYPES = {"str", "str | None", "bool", "Constraints", "tuple[int, ...]",
               "dict[str, float]", "dict[int, float]"}
NUMERIC_FIELDS = [(owner, f) for owner in INTERVAL_OWNERS
                  for f in dataclasses.fields(owner) if f.type in NUMERIC_TYPES]


def bounds(interval):
    """(lo, hi, lo closed, hi closed) of an interval written "[0, inf)"."""
    assert interval[0] in "[(" and interval[-1] in "])", interval
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    assert lo < hi, interval
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def test_every_numeric_field_states_its_interval():
    # A new knob cannot skip the range rule: every int or float field of
    # the five dataclasses declares an interval holding its default.
    for owner in INTERVAL_OWNERS:
        for f in dataclasses.fields(owner):
            assert f.type in NUMERIC_TYPES | OTHER_TYPES, (owner.__name__, f.name)
        owner()  # the defaults are inside their intervals
    assert len(NUMERIC_FIELDS) == 22 + 2 + 4 + 1 + 7
    for owner, f in NUMERIC_FIELDS:
        assert "interval" in f.metadata, (owner.__name__, f.name)
        bounds(f.metadata["interval"])


def build(owner, name, value):
    """A SearchConfig, or the owner itself for DynamicsParams, ValTracker and
    DataConfig, with one field set to value. The other end of a lam schedule
    is set so that lam_start > lam_final holds whenever value is inside its
    interval."""
    kwargs = {name: value}
    if name.endswith("lam_start"):
        kwargs[name.replace("start", "final")] = 0.0
    elif name.endswith("lam_final"):
        above = math.nextafter(value, math.inf) if 0 <= value < math.inf else 1.0
        kwargs[name.replace("final", "start")] = above
    if owner is sf.Constraints:
        return sf.SearchConfig(constraints=sf.Constraints(**kwargs))
    return owner(**kwargs)


def inside(owner_field):
    """Values inside the field's interval, its closed finite ends included."""
    _owner, f = owner_field
    lo, hi, lo_closed, hi_closed = bounds(f.metadata["interval"])
    ends = [end for end, closed in ((lo, lo_closed), (hi, hi_closed))
            if closed and math.isfinite(end)]
    if f.type.startswith("int"):
        return st.integers(
            None if math.isinf(lo) else int(lo) + (not lo_closed),
            None if math.isinf(hi) else int(hi) - (not hi_closed),
        )
    values = st.floats(
        None if math.isinf(lo) else lo, None if math.isinf(hi) else hi,
        allow_nan=False,
        allow_infinity=(math.isinf(lo) and lo_closed) or (math.isinf(hi) and hi_closed),
        exclude_min=not lo_closed and math.isfinite(lo),
        exclude_max=not hi_closed and math.isfinite(hi),
    )
    return st.one_of(st.sampled_from(ends), values) if ends else values


def outside(owner_field):
    """NaN, each infinity the interval leaves out, and the first value past
    each finite end (the end itself where it is open)."""
    _owner, f = owner_field
    lo, hi, lo_closed, hi_closed = bounds(f.metadata["interval"])
    values = [math.nan]
    values += [end for end, ok in ((-math.inf, lo == -math.inf and lo_closed),
                                   (math.inf, hi == math.inf and hi_closed)) if not ok]
    for end, closed, way in ((lo, lo_closed, -1), (hi, hi_closed, 1)):
        if math.isfinite(end):
            if not closed:
                values.append(int(end) if f.type.startswith("int") else end)
            values.append(int(end) + way if f.type.startswith("int")
                          else math.nextafter(end, way * math.inf))
    return values


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_each_knob_takes_its_interval_and_nothing_else(data):
    owner, f = owner_field = data.draw(st.sampled_from(NUMERIC_FIELDS))
    value = data.draw(inside(owner_field))
    # The largest float leaves no lam_start above it.
    assume(not (f.name.endswith("lam_final") and value == 1.7976931348623157e308))
    build(owner, f.name, value)
    for bad in outside(owner_field):
        with pytest.raises(ValueError, match=rf"^{f.name} must be in "):
            build(owner, f.name, bad)


def test_data_seed_falls_back_to_run_seed():
    cfg = sf.normalize({"search.seed": 11, "data.kind": "blobs", "data.n": 40})
    ds1 = sf.build_dataset(cfg)
    ds2 = sf.build_dataset(sf.normalize({"search.seed": 11, "data.kind": "blobs",
                                         "data.n": 40, "data.seed": 11}))
    import numpy as np
    assert np.array_equal(ds1.features, ds2.features)


def test_missing_data_kind():
    with pytest.raises(BadConfig) as err:
        sf.build_dataset(sf.normalize({}))
    assert "data.kind" in str(err.value)


def test_load_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"search.mode": "nasgd", "dynamics.kappa": 1.5}))
    raw = sf.load_config(str(p))
    assert raw == {"search.mode": "nasgd", "dynamics.kappa": 1.5}


def test_load_config_missing(tmp_path):
    with pytest.raises(MissingFile):
        sf.load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(BadConfig):
        sf.load_config(str(p))


def test_load_config_integer_past_the_digit_limit(tmp_path):
    # json.load raises a plain ValueError, not JSONDecodeError, for it.
    p = tmp_path / "c.json"
    p.write_text('{"dynamics.kappa": 1' + "0" * 5000 + "}")
    with pytest.raises(BadConfig, match="not valid JSON"):
        sf.load_config(str(p))


def test_manifest_accepted_as_config(tmp_path):
    # a run manifest wraps the original config under "config"
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps({"config": {"search.mode": "nasagd"},
                             "seed": 3, "version": "x"}))
    raw = sf.load_config(str(p))
    assert raw == {"search.mode": "nasagd"}


# Every value normalize accepts for a key of each type tag, in the JSON types
# a config file can hold: integral floats for integer keys, integers for
# float keys, NaN, infinities, signed zeros and None where allowed.
_ints = st.one_of(st.integers(), st.integers(-2**53, 2**53).map(float))
_floats = st.one_of(st.floats(), st.integers(-2**63, 2**63))
TAG_VALUES = {
    "bool": st.booleans(),
    "int": _ints,
    "opt_int": st.one_of(st.none(), _ints),
    "float": _floats,
    "opt_float": st.one_of(st.none(), _floats),
    "str": st.one_of(st.none(), st.text()),
    "int_list": st.lists(st.integers(), min_size=1, max_size=4),
}


@st.composite
def overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(sf.SCHEMA)), unique=True))
    return {key: draw(TAG_VALUES[sf.SCHEMA[key][0]]) for key in keys}


def typed(table):
    """Each value with its type and repr, so that 0.0 and -0.0, 1 and 1.0,
    and NaN and NaN compare as a replay would see them."""
    return {key: (type(value), repr(value)) for key, value in table.items()}


# The order normalize reports bad keys in: the names, then key order.
JUDGE_ORDER = ["search.mode", "data.kind", *sf.SCHEMA]


def refused(key, value):
    """Whether normalize must refuse value for key: a mode or data kind that
    does not exist, or a number outside the key's interval."""
    if key == "search.mode":
        return value not in MODES
    if key == "data.kind":
        return value not in ("blobs", "spirals", "csv", None)
    interval = sf.SCHEMA[key][4]
    if interval is None or value is None:
        return False
    lo, hi, lo_closed, hi_closed = bounds(interval)
    return not ((lo <= value if lo_closed else lo < value)
                and (value <= hi if hi_closed else value < hi))


@settings(max_examples=200, deadline=None)
@given(overrides())
def test_manifest_replays_the_normalized_table(tmp_path_factory, raw):
    # Every drawn value is kept. normalize refuses a table that draws a
    # value outside its key's interval or a mode or data kind that does not
    # exist, naming the first bad key in JUDGE_ORDER; any table it accepts
    # replays from its manifest to the same table.
    bad = [key for key, value in raw.items() if refused(key, value)]
    try:
        table = sf.normalize(raw)
    except BadConfig as err:
        assert bad and str(err).split()[2] == min(bad, key=JUDGE_ORDER.index), str(err)
        return
    assert not bad
    path = str(tmp_path_factory.mktemp("manifest") / "manifest.json")
    sf.write_manifest(path, table, seed=0, version="0.1.0", outputs=[],
                      started="2020-01-01T00:00:00Z")
    replayed = sf.normalize(sf.load_config(path))
    assert list(replayed) == list(table)
    assert typed(replayed) == typed(table)

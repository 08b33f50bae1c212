"""The names the benchmark's tracer and phase marks wrap must keep resolving.

bench/layers.py replaces functions on semiflow.search and semiflow.cli and
methods on a few classes; bench/probe.py wraps search.pretrain and
search.final_train. A rename or removal there would break `--trace 1` or
the phase split without failing anything else, so this imports the tracer
as the bench does (bench/ on the path, nothing installed) and looks each
name up.
"""

from pathlib import Path

import pytest

import semiflow.cli as cli
import semiflow.morphisms as morphisms
import semiflow.search as search
from semiflow.data import BatchStream, make_blobs
from semiflow.search import SearchConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


def test_search_spans_resolve(layers):
    for attr in layers.SEARCH_SPANS:
        assert callable(getattr(search, attr)), attr


def test_cli_names_resolve(layers):
    for attr in (*layers.CONFIG_NAMES, "run_search"):
        assert callable(getattr(cli, attr)), attr


def test_class_spans_resolve(layers):
    for cls, attr, _name in layers.CLASS_SPANS:
        assert callable(getattr(cls, attr)), (cls.__name__, attr)


def test_patched_hooks_resolve():
    assert callable(morphisms.draw_morphism)
    assert callable(BatchStream.__post_init__)
    assert callable(search.GlobalClock.advance)


def test_phase_marks_reach_the_search(monkeypatch):
    # probe.py marks the phases by replacing the module attributes, so a
    # search must call pretrain and final_train through them.
    calls = []
    for attr in ("pretrain", "final_train"):
        fn = getattr(search, attr)

        def marked(*args, _fn=fn, _attr=attr, **kwargs):
            calls.append(_attr)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(search, attr, marked)
    config = SearchConfig(size_threshold=1, pretrain_epochs=0, final_budget=0)
    search.run_search(config, make_blobs(200, seed=0))
    assert calls == ["pretrain", "final_train"]

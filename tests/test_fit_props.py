"""The bound, in-place training loop against the per-step loop it replaced.

search._fit binds a network once and then updates its parameters in place
each step. The reference below is the loop as it was before: every step the
public loss_and_grad, a clip that returns a new vector (np.linalg.norm), and
a functional update that returns new x and v. On random architectures with
skips, momentum or pure gradient, any damping in [0, 2] and clipping off or
tight enough to fire, both must give the same x and v bit for bit after
every epoch, or fail the same way, and neither may write into the arrays its
caller passed. A stack of networks of one spec trains in one _fit, each row
bit for bit as its own 1-D _fit on its own seed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiflow as sf
from semiflow import search
from semiflow.errors import BadLabel, Divergence, NonFiniteGradient
from semiflow.search import GlobalClock, _fit
from test_nn_layout import same_bits, specs

# -- reference --------------------------------------------------------------


def reference_fit(spec, x, v, stream, clock, epochs, grad_clip, what,
                  gamma=1.0, momentum=True):
    """The per-step loop: public kernel, new clipped copy, new x and v.
    Returns (x, v) after each epoch; the parameters are checked after each."""
    after = []
    for _ in range(epochs):
        for _ in range(stream.batches_per_epoch):
            inputs, labels = stream.next_batch()
            loss, grad_vec = sf.loss_and_grad(spec, x, inputs, labels)
            if not math.isfinite(loss):
                raise Divergence(f"{what} loss became {loss}")
            if grad_clip > 0:
                norm = float(np.linalg.norm(grad_vec))
                if norm > grad_clip:
                    grad_vec = grad_vec * (grad_clip / norm)
            tau = clock.tau()
            if momentum:
                x, v = x + tau * v, v - tau * (gamma * v + grad_vec)
            else:
                x = x - tau * grad_vec
            clock.advance()
        if not np.all(np.isfinite(x)):
            raise Divergence(f"{what} produced non-finite parameters")
        after.append((x, v))
    return after


# -- rig --------------------------------------------------------------------


def fit_problem(spec, seed, rows, batch):
    """Start parameters, a velocity, and a split of rows for spec."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, rng.choice([0.3, 1.0]), sf.param_count(spec))
    v = rng.normal(0.0, 0.1, x.size) * rng.choice([0.0, 1.0])
    features = rng.normal(size=(rows, spec.input_dim))
    labels = rng.integers(0, spec.output_dim, rows)
    return x, v, features, labels


def run_both(spec, x, v, features, labels, batch, seed, epochs, lam, grad_clip,
             gamma, momentum):
    """(reference outcome, _fit outcome): (x, v) after each epoch, or the
    error."""
    outcomes = []
    for fit in ("reference", "bound"):
        stream = sf.BatchStream(features, labels, batch, seed)
        clock = GlobalClock(stream.batches_per_epoch, 2, lam, lam / 100)
        try:
            if fit == "reference":
                out = reference_fit(spec, x, v, stream, clock, epochs, grad_clip,
                                    "fit", gamma=gamma, momentum=momentum)
            else:
                out = []
                config = sf.SearchConfig(grad_clip=grad_clip, damping=gamma,
                                         pure_gradient=not momentum)
                for state in _fit(spec, sf.NodeState(x, v), stream, clock, epochs,
                                  config, "fit"):
                    assert not np.shares_memory(state.x, x)
                    assert not np.shares_memory(state.v, v)
                    out.append((state.x.copy(), state.v.copy()))
        except Divergence as exc:
            out = ("diverged", str(exc))
        outcomes.append((out, clock.k))
    return outcomes


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    specs(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.integers(0, 8),
    st.booleans(),
    st.floats(0.0, 2.0),
    st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    st.sampled_from([1e-3, 0.05, 0.5]),
)
def test_fit_matches_per_step_loop_bit_for_bit(spec, seed, batch, epochs, momentum,
                                               damping, grad_clip, lam):
    x, v, features, labels = fit_problem(spec, seed, 3 * batch + seed % 5, batch)
    x0, v0 = x.copy(), v.copy()
    (ref, ref_k), (got, got_k) = run_both(
        spec, x, v, features, labels, batch, seed, epochs, lam, grad_clip,
        damping, momentum,
    )
    assert got_k == ref_k
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert len(got) == len(ref) == epochs
        for (got_x, got_v), (ref_x, ref_v) in zip(got, ref):
            assert same_bits(got_x, ref_x) and same_bits(got_v, ref_v)
    assert same_bits(x, x0) and same_bits(v, v0)


@settings(max_examples=10, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1))
def test_pretrain_and_final_train_leave_caller_arrays(spec, seed):
    data = sf.make_blobs(120, d=spec.input_dim, n_classes=spec.output_dim,
                         seed=seed % 1000)
    x, v, _, _ = fit_problem(spec, seed, 1, 1)
    x0, v0 = x.copy(), v.copy()
    config = sf.SearchConfig(pretrain_epochs=2, final_budget=3, epochs_neigh=1,
                             s_x=16, grad_clip=0.05)
    trained = sf.pretrain(spec, data, config, x)
    best, _ = sf.final_train(spec, x, data, config, velocity=v)
    assert same_bits(x, x0) and same_bits(v, v0)
    assert not np.shares_memory(trained, x) and not np.shares_memory(best, x)


# -- the config's step in every phase ----------------------------------------

KNOBS = [pytest.param({"pure_gradient": True}, id="pure_gradient"),
         pytest.param({"damping": 0.5}, id="damping")]


def reference_steps(spec, x, stream, clock, epochs, config):
    """epochs passes of the public loss_and_grad, clip_gradient and
    train_step with the config's damping and pure_gradient, from zero
    velocity; returns the last x."""
    state = sf.NodeState(np.array(x, dtype=float), np.zeros(np.size(x)))
    for _ in range(epochs * stream.batches_per_epoch):
        _, grad = sf.loss_and_grad(spec, state.x, *stream.next_batch())
        sf.train_step(state, sf.clip_gradient(grad, config.grad_clip), clock.tau(),
                      gamma=config.damping, momentum=not config.pure_gradient)
        clock.advance()
    return state.x


@pytest.mark.parametrize("knob", KNOBS)
def test_pretrain_takes_the_configs_step(knob):
    spec = sf.NetSpec(2, 4, (8, 8), ((1, 2),))
    data = sf.make_blobs(200, seed=1)
    config = sf.SearchConfig(pretrain_epochs=3, s_x=16, grad_clip=0.5, **knob)
    x = sf.init_params(spec, np.random.default_rng(0))
    stream = sf.BatchStream(*data.split("train"), config.s_x,
                            search._stream_seed(config.seed, 5, 0, 0, 0))
    clock = GlobalClock(stream.batches_per_epoch, config.pretrain_epochs,
                        config.pretrain_lam_start, config.pretrain_lam_final)
    want = reference_steps(spec, x, stream, clock, config.pretrain_epochs, config)
    assert same_bits(sf.pretrain(spec, data, config, x), want)


# -- the label check on entry -------------------------------------------------


@pytest.mark.parametrize("epochs", [0, 3])
def test_fit_checks_the_whole_split_before_any_step(monkeypatch, epochs):
    # One row of the split has the label output_dim. _fit checks every
    # label once, on entry, so it refuses before its first step, whether
    # or not the first batches hold that row.
    spec = sf.NetSpec(2, 3, (4,))
    x, v, features, labels = fit_problem(spec, 0, 40, 8)
    labels[-1] = spec.output_dim
    steps = []
    monkeypatch.setattr(search, "train_step",
                        lambda *args, **kw: steps.append(1))
    stream = sf.BatchStream(features, labels, 8, 0)
    clock = GlobalClock(stream.batches_per_epoch, 2, 0.05, 1e-7)
    with pytest.raises(BadLabel, match=r"labels must lie in \[0, 3\)"):
        list(_fit(spec, sf.NodeState(x, v), stream, clock, epochs,
                  sf.SearchConfig(grad_clip=1.0), "fit"))
    assert steps == [] and clock.k == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 3),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_clip_scales_in_place_by_the_linalg_norm(seed, size, step, max_norm):
    # Every row of a stack, and a strided view, is scaled in place by the
    # arithmetic of the old clip: vec * (max_norm / np.linalg.norm(vec)).
    rng = np.random.default_rng(seed)
    stack = rng.normal(0.0, rng.choice([1e-3, 1.0, 1e3]), (3, size * step))
    want = []
    for row in stack[:, ::step]:
        norm = float(np.linalg.norm(row))
        want.append(row * (max_norm / norm) if norm > max_norm else row.copy())
    views = stack[:, ::step]
    if step == 1:
        assert sf.clip_gradient(views, max_norm) is views
    else:
        for row in views:
            assert sf.clip_gradient(row, max_norm) is row
    assert same_bits(stack[:, ::step], np.array(want))


# -- stacks -------------------------------------------------------------------


def fit_rows(spec, xs, vs, features, labels, batch, seeds, epochs, lam,
             grad_clip, gamma, momentum):
    """One _fit on the stack of xs and vs over a stream of seeds: (rows of
    x and v after each epoch, whether it failed, the clock's k)."""
    stream = sf.BatchStream(features, labels, batch, seeds)
    clock = GlobalClock(stream.batches_per_epoch, 2, lam, lam / 100)
    config = sf.SearchConfig(grad_clip=grad_clip, damping=gamma,
                             pure_gradient=not momentum)
    after, failed = [], False
    try:
        for state in _fit(spec, sf.NodeState(xs, vs), stream, clock, epochs,
                          config, "fit"):
            after.append((state.x.copy(), state.v.copy()))
    except (Divergence, NonFiniteGradient):
        failed = True
    return after, failed, clock.k


@settings(max_examples=60, deadline=None)
@given(
    specs(),
    st.integers(0, 2**32 - 1),
    st.integers(2, 4),
    st.integers(1, 12),
    st.integers(0, 6),
    st.booleans(),
    st.floats(0.0, 2.0),
    st.sampled_from([0.0, 1e-3, 0.05, 0.5]),
    st.sampled_from([1e-3, 0.05, 0.5]),
)
def test_stacked_fit_rows_match_their_own_fits(spec, seed, n, batch, epochs, momentum,
                                               damping, grad_clip, lam):
    # Each row of a stacked _fit trains as its own 1-D _fit on its own seed
    # and clock: the same x and v after every epoch, and the stack stops
    # (Divergence) at the first step at which any row's own fit stops.
    _, _, features, labels = fit_problem(spec, seed, 3 * batch + seed % 5, batch)
    problems = [fit_problem(spec, seed + 1 + r, 1, 1) for r in range(n)]
    xs = np.array([p[0] for p in problems])
    vs = np.array([p[1] for p in problems])
    x0, v0 = xs.copy(), vs.copy()
    seeds = tuple(int(s) for s in np.random.default_rng(seed).integers(0, 2**32, n))
    args = (features, labels, batch)
    knobs = (epochs, lam, grad_clip, damping, momentum)
    rows = [fit_rows(spec, xs[r], vs[r], *args, seeds[r], *knobs) for r in range(n)]
    got, failed, k = fit_rows(spec, xs, vs, *args, seeds, *knobs)
    assert k == min(row_k for _, _, row_k in rows)
    assert failed == any(row_failed for _, row_failed, _ in rows)
    assert len(got) == min(len(after) for after, _, _ in rows)
    if not failed:
        assert len(got) == epochs
    for e, (got_x, got_v) in enumerate(got):
        for r, (after, _, _) in enumerate(rows):
            assert same_bits(got_x[r], after[e][0]) and same_bits(got_v[r], after[e][1])
    assert same_bits(xs, x0) and same_bits(vs, v0)


@settings(max_examples=20, deadline=None)
@given(specs(), st.integers(0, 2**32 - 1), st.integers(2, 4), st.data())
def test_stacked_fit_raises_on_any_rows_nonfinite_loss(spec, seed, n, data):
    row = data.draw(st.integers(0, n - 1))
    _, _, features, labels = fit_problem(spec, seed, 24, 8)
    xs = np.array([fit_problem(spec, seed + 1 + r, 1, 1)[0] for r in range(n)])
    xs[row] = np.nan
    stream = sf.BatchStream(features, labels, 8, tuple(range(n)))
    clock = GlobalClock(stream.batches_per_epoch, 2, 0.05, 1e-7)
    with pytest.raises(Divergence, match="fit loss became"):
        list(_fit(spec, sf.NodeState(xs, np.zeros_like(xs)), stream, clock, 2,
                  sf.SearchConfig(grad_clip=1.0), "fit"))
    assert clock.k == 0

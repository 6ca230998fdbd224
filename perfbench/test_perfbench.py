"""Tests of the benchmark's own code: the percentile rule, the span
arithmetic, and that every correctness check rejects a wrong output.

    python3 -m pytest perfbench
"""

import os
import sys
import threading
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from tacforce import dataset, sensor  # noqa: E402
from tacforce.indenters import INDENTER_IDS  # noqa: E402
from tacforce.profiles import PROFILE_IDS, get_profile  # noqa: E402


# -- percentile rule ----------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert stats.min_samples(90) == 100
    assert stats.reportable(100, 90) and not stats.reportable(99, 90)
    assert stats.min_samples(99) == 1000
    assert stats.reportable(50, 80) and not stats.reportable(49, 80)


def test_median_alone_below_forty_samples():
    assert stats.min_samples(75) == 40
    assert not stats.reportable(39, 75) and stats.reportable(40, 75)
    assert stats.reportable(1, 50)
    assert stats.median([3.0]) == 3.0
    with pytest.raises(ValueError):
        stats.percentile(range(99), 90)


def test_percentile_interpolates_like_numpy():
    values = np.random.default_rng(0).normal(size=137)
    for q in (50, 90):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-12)


# -- spans ----------------------------------------------------------------------

def _span(id_, parent, thread, start, end):
    s = tracing.Span(id_, f"s{id_}", thread, parent, start)
    s.end = end
    return s


def test_self_time_of_nested_spans_across_two_threads():
    spans = [
        _span(1, None, "main", 0.0, 10.0),
        # two workers' children overlap each other: together they cover [1, 6]
        _span(2, 1, "w1", 1.0, 4.0),
        _span(3, 1, "w2", 3.0, 6.0),
        # a child sticking out of its parent counts only inside it
        _span(4, 1, "w1", 9.0, 12.0),
        _span(5, 2, "w1", 1.5, 2.0),
        _span(6, 2, "w1", 2.5, 3.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)
    summary = tracing.summary(spans)
    assert summary["s1"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(4.0)}


def test_worker_span_takes_the_waiting_spans_parent():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")

    def work():
        span = tracer.open("job")
        nested = tracer.open("step")
        tracer.close(nested)
        tracer.close(span)

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer.close(inner)
    tracer.close(outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["job"].parent == inner.id
    assert by_name["step"].parent == by_name["job"].id
    assert by_name["job"].thread != by_name["inner"].thread
    assert outer.parent is None


def test_coverage_counts_root_spans_inside_the_windows():
    spans = [_span(1, None, "main", 0.0, 4.0), _span(2, None, "main", 5.0, 9.0),
             _span(3, 1, "main", 0.0, 4.0)]
    assert tracing.coverage(spans, [(0.0, 10.0)]) == pytest.approx(0.8)
    assert tracing.coverage(spans, [(1.0, 3.0), (8.0, 10.0)]) == pytest.approx(0.75)


def test_patcher_wraps_every_binding_and_restores_them():
    mod = types.ModuleType("pkgx.mod")
    other = types.ModuleType("pkgx.other")

    def f(x):
        return x + 1

    mod.f = other.g = f
    sys.modules["pkgx.mod"], sys.modules["pkgx.other"] = mod, other
    try:
        tracer = tracing.Tracer()
        p = tracing.Patcher("pkgx")
        p.function(mod, "f", tracing.spanned(tracer, "mod.f", lambda a, k, r: {"x": a[0]}))
        assert mod.f(1) == 2 and other.g(2) == 3
        assert [(s.name, s.attrs) for s in tracer.spans] == [("mod.f", {"x": 1}), ("mod.f", {"x": 2})]
        p.restore()
        assert mod.f is f and other.g is f
    finally:
        del sys.modules["pkgx.mod"], sys.modules["pkgx.other"]


# -- checks reject wrong outputs -------------------------------------------------------

def _samples():
    """One small-sphere trajectory on sensor1-gel1."""
    return dataset.generate_dataset(("small_sphere",), ("sensor1-gel1",), 1, seed=0)


def _constants(name):
    p = get_profile(name)
    return {PROFILE_IDS[name]: (p.normal_stiffness, p.force_quantum, p.width_mm / 2.0,
                                p.height_mm / 2.0, p.pixel_pitch)}


def _cap_sample(profile, radius, depth, shift=0.0):
    fz = sensor.quantize(checks.cap_load(profile.normal_stiffness, radius, depth)) + shift
    return dataset.TactileSample(
        image=np.zeros((4, 4, 3), np.uint8), depth=np.zeros((4, 4)),
        force=np.array([0.0, 0.0, fz]), pose=np.array([0.0, 0.0, -depth, 0.0, 0.0, 0.0]),
        indenter_id=INDENTER_IDS["big_sphere"], profile_id=PROFILE_IDS[profile.name])


def test_sphere_check_passes_the_simulator_and_rejects_one_quantum():
    name = "sensor1-gel1"
    spheres = {INDENTER_IDS["big_sphere"]: 8.0, INDENTER_IDS["small_sphere"]: 3.0}
    real = dataset.generate_dataset(("big_sphere", "small_sphere"), (name,), 2, seed=3)
    problems, gaps = checks.sphere_loads(real, spheres, _constants(name))
    assert problems == [] and len(gaps) > 20

    profile = get_profile(name)
    exact = _cap_sample(profile, 8.0, 0.7)
    assert checks.sphere_loads([exact], spheres, _constants(name))[0] == []
    for shift in (profile.force_quantum, -profile.force_quantum):
        wrong = _cap_sample(profile, 8.0, 0.7, shift)
        assert checks.sphere_loads([wrong], spheres, _constants(name))[0]


def test_cap_near_the_pad_edge_is_not_compared():
    name = "sensor1-gel1"
    p = get_profile(name)
    inside = np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0])
    edge = np.array([0.0, 6.0, -1.0, 0.0, 0.0, 0.0])
    assert checks.cap_inside_pad(inside, 8.0, p.width_mm / 2, p.height_mm / 2, p.pixel_pitch)
    assert not checks.cap_inside_pad(edge, 8.0, p.width_mm / 2, p.height_mm / 2, p.pixel_pitch)


def test_roundtrip_rejects_a_flipped_faf1_byte(tmp_path):
    samples = _samples()
    path = tmp_path / "x.faf1"
    dataset.store(samples, path)
    assert checks.roundtrip(samples, dataset.load(path)) == []
    blob = bytearray(path.read_bytes())
    blob[10 + 4 + 100] ^= 0x01  # a pixel of the first record's image
    path.write_bytes(bytes(blob))
    assert checks.roundtrip(samples, dataset.load(path))
    assert checks.roundtrip(samples, samples[:-1])


def test_balance_check_rejects_reorder_drop_and_overfull_bin():
    raw = dataset.generate_dataset(("small_sphere", "cube"), ("sensor1-gel1",), 3, seed=1)
    kept = dataset.balance(raw, seed=1)
    assert len(kept) < len(raw)
    assert checks.balanced_subset(raw, kept, dataset.DEFAULT_BIN_WIDTH_N) == []
    assert checks.balanced_subset(raw, kept[::-1], dataset.DEFAULT_BIN_WIDTH_N)
    assert checks.balanced_subset(raw, kept[1:], dataset.DEFAULT_BIN_WIDTH_N)
    assert checks.balanced_subset(raw, raw, dataset.DEFAULT_BIN_WIDTH_N)


def test_arrays_check_rejects_range_rows_and_forces():
    samples = _samples()
    arrays = {"images": np.zeros((len(samples), 2, 2, 3)),
              "depths": np.full((len(samples), 2, 2), 0.5),
              "forces": np.stack([s.force for s in samples]).astype(np.float64)}
    assert checks.training_arrays(arrays, samples) == []
    for key, value in (("images", 1.01), ("depths", -0.01)):
        bad = dict(arrays, **{key: arrays[key].copy()})
        bad[key][0, 0, 0] = value
        assert checks.training_arrays(bad, samples)
    assert checks.training_arrays(dict(arrays, images=arrays["images"][1:]), samples)
    forces = arrays["forces"].copy()
    forces[0, 2] += 0.04
    assert checks.training_arrays(dict(arrays, forces=forces), samples)


def test_gradient_check_rejects_a_scaled_gradient():
    assert checks.directional_agreement(0.731, 0.731 * (1 + 1e-7))[1]
    assert not checks.directional_agreement(0.731 * 1.01, 0.731)[1]
    assert not checks.directional_agreement(-0.731, 0.731)[1]


def test_constant_predictor_bounds():
    forces = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 4.0]])
    assert checks.constant_force_loss(forces) == pytest.approx(1.0)
    cells = {"a": {"forces": forces}}
    err = checks.constant_force_error(forces, cells, np.array([4.0, 4.0, 15.0]))
    assert err == pytest.approx((1.0 / 15.0) / 3.0)
    assert checks.beats_constant(0.9, 1.0, 0.02, 0.03) == []
    assert len(checks.beats_constant(1.0, 1.0, 0.03, 0.03)) == 2
    assert checks.finite_losses(np.array([[0.0, 1.0]])) == []
    assert checks.finite_losses(np.array([[0.0, np.nan]]))


def test_identical_and_finetune_scope_reject_changes():
    a = np.arange(6.0).reshape(2, 3)
    assert checks.identical(a, a.copy(), "x") == []
    assert checks.identical(a, a + 1e-15 * (a == 5), "x")

    report = types.SimpleNamespace(pre_fit_error=0.06, post_fit_error=0.05)
    ref = {"encoder.w": np.ones(3), "regressor.out.w": np.ones(2)}
    tuned = {"encoder.w": np.ones(3), "regressor.out.w": np.array([1.0, 0.9])}

    def scope(n):
        return n.startswith("regressor.")

    assert checks.finetune_scope(ref, tuned, scope, report) == []
    moved = dict(tuned, **{"encoder.w": np.array([1.0, 1.0, 1.0 + 1e-12])})
    assert checks.finetune_scope(ref, moved, scope, report)
    assert checks.finetune_scope(ref, ref, scope, report)
    worse = types.SimpleNamespace(pre_fit_error=0.05, post_fit_error=0.05)
    assert checks.finetune_scope(ref, tuned, scope, worse)


def test_weighing_and_grasp_checks_reject_wrong_outcomes():
    assert checks.weighed(1.09, 1.0, 0.10, "net") == []
    assert checks.weighed(1.11, 1.0, 0.10, "net")

    readings = [0.0, 1.2, 2.1]
    ok = types.SimpleNamespace(steps=2, estimated_force=2.1, true_force=2.0)
    assert checks.grasp_stop(readings, 2.0, ok) == []
    # the controller should have stopped at the first reading over the target
    assert checks.grasp_stop([0.0, 2.05, 2.1], 2.0, ok)
    assert checks.grasp_stop(readings, 2.0, types.SimpleNamespace(steps=1, estimated_force=2.1))
    assert checks.grasp_stop(readings, 2.0, types.SimpleNamespace(steps=2, estimated_force=2.14))
    assert checks.grasp_stop([0.0, 1.2], 2.0, ok)

    assert checks.overshoot(types.SimpleNamespace(true_force=2.0), 1.74, 0.4) == []
    assert checks.overshoot(types.SimpleNamespace(true_force=2.4), 1.74, 0.4)
    assert checks.overshoot(types.SimpleNamespace(true_force=1.6), 1.74, 0.4)


def test_per_layer_counts_only_ops_inside_training_steps():
    import layers

    def span(id_, name, start, end, attrs=None):
        s = _span(id_, None, "main", start, end)
        s.name, s.attrs = name, attrs
        return s

    spans = [span(1, "training.train_step", 0.0, 1.0), span(2, "training.train_step", 2.0, 3.0),
             span(3, "autodiff.matmul", 0.1, 0.2, {"tape": True}),
             span(4, "autodiff.matmul", 2.1, 2.5, {"tape": True}),
             span(5, "autodiff.sub", 2.6, 2.7, {"tape": False}),
             span(6, "autodiff.matmul", 1.5, 1.6, {"tape": True})]  # between steps
    out = layers.derive(spans, rounds=1, workers=2)
    assert set(out) == {name for name, _, _ in layers.METRICS}
    assert out["autodiff.matmul.calls_per_step"] == 1.0
    assert out["autodiff.matmul.fwd_ms_per_step"] == pytest.approx(250.0)
    assert out["autodiff.tape_nodes_per_step"] == 1.0
    assert out["training.train_step.ms"] == pytest.approx(1000.0)
    assert out["sensor.compute_contact.ms"] == 0.0

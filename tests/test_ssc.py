import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import ssc
from scenediff.grids import VoxelGrid
from scenediff.schedule import UniformTransition, make_schedule
from scenediff.toydata import ToySceneParams, generate_toy_dataset, toy_class_table

PARAMS = ToySceneParams(dims=(8, 8, 4), num_classes=4, num_buildings=1,
                        num_vehicles=0, num_poles=0)


def small_config(k=4):
    return dn.DenoiserConfig(num_classes=k, in_channels=k + 1, hidden=(4, 6),
                             time_dim=8, time_hidden=10, num_steps=5)


def test_build_tasks_condition_is_occupied_subset():
    data = generate_toy_dataset(PARAMS, 5, 0)
    tasks = ssc.build_tasks(data, 0.25, 3)
    assert len(tasks) == 5
    for task, scene in zip(tasks, data):
        assert task.target == scene
        kept = task.condition.labels != 0
        # the condition is binary and only marks voxels occupied in the target
        assert set(np.unique(task.condition.labels)) <= {0, 1}
        assert np.all(scene.labels[kept] != 0)
        n_occ = np.count_nonzero(scene.labels)
        assert np.count_nonzero(kept) == int(np.ceil(0.25 * n_occ))
    # deterministic in the seed, distinct across seeds
    again = ssc.build_tasks(data, 0.25, 3)
    assert all(a.condition == b.condition for a, b in zip(tasks, again))
    other = ssc.build_tasks(data, 0.25, 4)
    assert any(a.condition != b.condition for a, b in zip(tasks, other))


def test_task_rejects_dim_mismatch():
    a = VoxelGrid(np.zeros((2, 2, 2), dtype=int))
    b = VoxelGrid(np.zeros((2, 2, 1), dtype=int))
    with pytest.raises(ValueError):
        ssc.CompletionTask(a, b, 0.1)


def test_majority_class_predictor():
    labels = np.zeros((4, 4, 2), dtype=int)
    labels[0, :, 0] = 1
    labels[0, 0, 1] = 2
    predict = ssc.majority_class_predictor([VoxelGrid(labels)])
    task = ssc.CompletionTask(VoxelGrid(np.zeros((3, 3, 1), dtype=int)),
                              VoxelGrid(np.zeros((3, 3, 1), dtype=int)), 0.1)
    out = predict(task)
    assert out.dims == (3, 3, 1)
    assert np.all(out.labels == 0)  # free is still the most frequent label
    predict = ssc.majority_class_predictor([VoxelGrid(np.ones((2, 2, 2), dtype=int))])
    assert np.all(predict(task).labels == 1)


def test_baseline_training_and_determinism():
    data = generate_toy_dataset(PARAMS, 8, 1)
    tasks = ssc.build_tasks(data, 0.3, 0)
    config = small_config()
    p1, h1 = ssc.train_baseline(tasks, config, seed=2, epochs=3, lr=3e-3)
    p2, h2 = ssc.train_baseline(tasks, config, seed=2, epochs=3, lr=3e-3)
    assert h1 == h2
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert h1[-1] < h1[0]
    pred = ssc.baseline_predict(p1, config, tasks[0].condition)
    assert pred.dims == tasks[0].target.dims
    assert pred == ssc.baseline_predict(p1, config, tasks[0].condition)


def test_training_rejects_unconditioned_config():
    data = generate_toy_dataset(PARAMS, 2, 0)
    tasks = ssc.build_tasks(data, 0.3, 0)
    bad = dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(4, 6),
                            time_dim=8, time_hidden=10, num_steps=5)
    trans = UniformTransition(4, make_schedule("cosine", 5))
    with pytest.raises(ValueError):
        ssc.train_conditional(tasks, bad, trans, seed=0, epochs=1)
    with pytest.raises(ValueError):
        ssc.train_baseline(tasks, bad, seed=0, epochs=1)


def test_conditional_training_and_completion_smoke():
    data = generate_toy_dataset(PARAMS, 6, 3)
    tasks = ssc.build_tasks(data, 0.3, 0)
    config = small_config()
    trans = UniformTransition(4, make_schedule("cosine", 5))
    params, history = ssc.train_conditional(tasks, config, trans, seed=0,
                                            epochs=2, lr=3e-3)
    assert len(history) == 2 and all(np.isfinite(h) for h in history)
    out = ssc.complete(params, config, trans, tasks[0].condition,
                       np.random.default_rng(0))
    assert out.dims == tasks[0].target.dims
    assert out.labels.max() < 4
    again = ssc.complete(params, config, trans, tasks[0].condition,
                         np.random.default_rng(0))
    assert out == again


def test_evaluate_identity_oracle_scores_perfectly():
    data = generate_toy_dataset(PARAMS, 4, 4)
    tasks = ssc.build_tasks(data, 0.2, 1)
    table = toy_class_table(4)
    res = ssc.evaluate({"oracle": lambda task, rng: task.target}, tasks, table)
    rep = res.reports["oracle"]
    assert rep.miou == pytest.approx(1.0)
    assert rep.completion_iou == pytest.approx(1.0)
    assert all(np.isnan(v) or v == 1.0 for v in rep.per_class_iou)


def test_evaluate_all_free_prediction():
    data = generate_toy_dataset(PARAMS, 3, 5)
    tasks = ssc.build_tasks(data, 0.2, 1)
    table = toy_class_table(4)
    free = lambda task, rng: VoxelGrid(np.zeros(task.target.dims, dtype=int))
    rep = ssc.evaluate({"free": free}, tasks, table).reports["free"]
    assert rep.completion_iou == 0.0
    # the free class is the only one with nonzero IoU
    assert rep.per_class_iou[0] > 0
    assert all(v == 0.0 for v in rep.per_class_iou[1:] if not np.isnan(v))


def test_evaluate_is_order_invariant_for_stochastic_methods():
    data = generate_toy_dataset(PARAMS, 4, 6)
    tasks = ssc.build_tasks(data, 0.2, 1)
    table = toy_class_table(4)

    def noisy(task, rng):
        return VoxelGrid(rng.integers(0, 4, size=task.target.dims))

    a = ssc.evaluate({"noisy": noisy, "oracle": lambda t, r: t.target},
                     tasks, table, seed=9)
    b = ssc.evaluate({"oracle": lambda t, r: t.target, "noisy": noisy},
                     tasks, table, seed=9)
    assert np.allclose(a.reports["noisy"].per_class_iou,
                       b.reports["noisy"].per_class_iou, equal_nan=True)
    with pytest.raises(ValueError):
        ssc.evaluate({}, tasks, table)
    with pytest.raises(ValueError):
        ssc.evaluate({"noisy": noisy}, [], table)


def test_evaluation_result_text_and_csv(tmp_path):
    data = generate_toy_dataset(PARAMS, 2, 7)
    tasks = ssc.build_tasks(data, 0.2, 1)
    table = toy_class_table(4)
    res = ssc.evaluate({"oracle": lambda t, r: t.target}, tasks, table)
    text = res.as_text()
    assert "oracle" in text and "mIoU" in text
    path = tmp_path / "eval.csv"
    res.write_csv(path)
    rows = [r.split(",") for r in path.read_text().strip().splitlines()]
    assert rows[0] == ["method", "class", "iou"]
    miou_row = next(r for r in rows if r[1] == "__miou__")
    assert float(miou_row[2]) == pytest.approx(res.reports["oracle"].miou)

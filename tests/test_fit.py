"""The shared training loop: every public trainer goes through `nn.fit`."""

from pathlib import Path

import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import latent as lat
from scenediff import nn
from scenediff import ssc
from scenediff import vqvae as vq
from scenediff.errors import TrainingDiverged
from scenediff.schedule import UniformTransition, make_schedule
from scenediff.toydata import ToySceneParams, generate_toy_dataset

DATA = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4, num_buildings=1,
                                           num_vehicles=0, num_poles=0), 3, 1)
TRANS = UniformTransition(4, make_schedule("cosine", 5))
VQ_CONFIG = vq.VQVAEConfig(num_classes=4, num_codes=6, code_dim=3, hidden=5)


def _config(in_channels):
    return dn.DenoiserConfig(num_classes=4, in_channels=in_channels, hidden=(3, 4),
                             time_dim=8, time_hidden=6, num_steps=5)


def _vq_result():
    return vq.VQVAETrainResult(vq.init_params(VQ_CONFIG, 0), VQ_CONFIG, np.ones(4))


# name -> (module whose init_params the trainer calls, the training call)
TRAINERS = {
    "diffusion": (dn, lambda: dn.train_diffusion(DATA, _config(4), TRANS, 0, epochs=1)),
    "latent": (dn, lambda: lat.train_latent_denoiser(
        DATA, _vq_result(), UniformTransition(6, make_schedule("cosine", 5)), 0,
        epochs=1, hidden=(3, 4))),
    "conditional": (dn, lambda: ssc.train_conditional(
        ssc.build_tasks(DATA, 0.2, 0), _config(5), TRANS, 0, epochs=1)),
    "baseline": (dn, lambda: ssc.train_baseline(
        ssc.build_tasks(DATA, 0.2, 0), _config(5), 0, epochs=1)),
    "vqvae": (vq, lambda: vq.train_vqvae(DATA, VQ_CONFIG, 0, epochs=1)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(TRAINERS))
def test_every_trainer_raises_divergence_from_the_shared_check(name, monkeypatch):
    module, train = TRAINERS[name]
    init = module.init_params

    def poisoned(config, seed):
        params = init(config, seed)
        params["enc1_b"] = params["enc1_b"] + np.nan
        return params

    monkeypatch.setattr(module, "init_params", poisoned)
    with pytest.raises(TrainingDiverged) as excinfo:
        train()
    raised_in = excinfo.traceback[-1]
    assert Path(raised_in.path).name == "nn.py" and raised_in.name == "batch_step"


def test_batch_step_averages_records_and_gradients_in_batch_order():
    params = {"w": np.zeros(2)}

    def loss_and_grads(p, example):
        return {"loss": example, "extra": 2 * example}, {"w": np.array([example, 1.0])}

    state = nn.AdamState()
    out, record = nn.batch_step(params, state, [1.0, 2.0, 6.0], loss_and_grads, lr=0.0)
    assert record == {"loss": 3.0, "extra": 6.0}
    assert np.array_equal(out["w"], params["w"])
    assert np.allclose(state.m["w"], 0.1 * np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        nn.batch_step(params, state, [], loss_and_grads, lr=0.0)


@pytest.mark.parametrize("epochs,batch_size,lr", [(0, 8, 1e-3), (-1, 8, 1e-3), (1, 0, 1e-3),
                                                  (1, 8, float("nan")), (1, 8, float("inf")),
                                                  (1, 8, -1e-3)])
def test_fit_rejects_bad_loop_settings(epochs, batch_size, lr):
    with pytest.raises(ValueError, match="batch_size >= 1"):
        nn.fit({}, None, [1.0], np.random.default_rng(0), epochs, batch_size, lr)

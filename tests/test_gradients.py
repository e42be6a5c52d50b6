"""Hand-written backward pass vs central finite differences.

The full variant x sharing x ablation sweep runs in the acceptance suite;
here a representative subset guards day-to-day changes.
"""
import numpy as np
import pytest

from contextnet.data import EncodedDataset
from contextnet.model import ModelConfig, init_params, loss_and_grads
from contextnet.ops import Rng
from dense_grads import densify
from synth import integers

FD_STEP = 1e-5
REL_TOL = 1e-4


def randomized_model(config, cards, seed):
    """Parameters with O(0.3) magnitudes so every gradient path carries signal.

    A field of cardinality 1 is numerical: its one row is scaled by values
    drawn from N(0, 1.5^2), as encode_dataset scales it by the standardized
    number. Every other field is categorical.
    """
    rng = Rng(seed)
    params = init_params(config, cards, seed)
    for tensor in params.values():
        tensor[...] = rng.normal(tensor.shape, scale=0.4)
    idx = np.stack([integers(rng, 0, c, (6,)) for c in cards], axis=1)
    labels = (rng.random((6,)) < 0.5).astype(float)
    numerical = tuple(i for i, c in enumerate(cards) if c == 1)
    values = rng.normal((6, len(numerical)), scale=1.5)
    return params, EncodedDataset(labels, idx, values, numerical)


def max_rel_error(config, cards, seed=0):
    params, batch = randomized_model(config, cards, seed)
    grads = densify(loss_and_grads(batch, params, config)[1], params, batch)
    worst = 0.0
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = loss_and_grads(batch, params, config)[0]
            flat[i] = orig - FD_STEP
            down = loss_and_grads(batch, params, config)[0]
            flat[i] = orig
            fd = (up - down) / (2 * FD_STEP)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
    return worst


CARDS = [5, 4, 3]


@pytest.mark.parametrize("variant", ["pffn", "sffn"])
def test_default_sharing_gradients(variant):
    config = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant=variant
    )
    assert max_rel_error(config, CARDS) < REL_TOL


@pytest.mark.parametrize("variant", ["pffn", "sffn"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_scaled_embedding_gradients(variant, seed):
    """The numerical-field path: table[0] * value forward, d * value into
    the scatter."""
    config = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant=variant
    )
    assert max_rel_error(config, [5, 1, 3], seed) < REL_TOL


def test_shared_aggregation_gradients_accumulate():
    config = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant="pffn", sharing="agg"
    )
    assert max_rel_error(config, CARDS) < REL_TOL


def test_l0_gradients():
    config = ModelConfig(n_fields=3, embed_dim=4, n_blocks=0)
    assert max_rel_error(config, CARDS) < REL_TOL


def test_no_tensor_is_detached():
    """Every allocated tensor receives a nonzero gradient on random data."""
    config = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant="pffn"
    )
    params, batch = randomized_model(config, CARDS, seed=3)
    _, grads = loss_and_grads(batch, params, config)
    for name, grad in grads.items():
        if name.startswith("embed"):
            continue  # rows for unseen tokens legitimately stay zero
        assert np.abs(grad).max() > 0.0, f"{name} received no gradient"


def test_l2_adds_two_lambda_theta():
    base = ModelConfig(n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant="pffn")
    with_l2 = ModelConfig(
        n_fields=3, embed_dim=4, agg_width=5, n_blocks=2, variant="pffn", l2=0.03
    )
    params, batch = randomized_model(base, CARDS, seed=4)
    _, g0 = loss_and_grads(batch, params, base)
    _, g1 = loss_and_grads(batch, params, with_l2)
    for i in range(3):  # (rows, sums) at l2 = 0; dense, as 2 * l2 * w needs, above
        assert isinstance(g0[f"embed.{i}"], tuple)
        assert g1[f"embed.{i}"].shape == params[f"embed.{i}"].shape
    g0, g1 = densify(g0, params, batch), densify(g1, params, batch)
    regularized = {"embed", "agg_w", "proj_w", "ffn_w1", "ffn_w2", "head_w"}
    for name, w in params.items():
        diff = g1[name] - g0[name]
        if name.split(".")[0] in regularized:
            assert np.allclose(diff, 2 * 0.03 * w, atol=1e-13), name
        else:
            assert np.allclose(diff, 0.0, atol=1e-13), name

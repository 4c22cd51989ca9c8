import numpy as np
import pytest

from ranopt.ai.mlp import Mlp

from naive_oracle import (flatten_params, gradient_check, loss,
                          loss_and_grads, set_flat_params)


class TestGradients:
    @pytest.mark.parametrize("out_dim", [1, 3],
                             ids=lambda n: f"linear-{n}")
    def test_matches_central_differences(self, out_dim):
        rng = np.random.default_rng(11 + out_dim)
        for trial in range(5):
            sizes = [3, 6, 5, out_dim]
            model = Mlp(sizes, seed=trial)
            X = rng.normal(size=(7, 3))
            Y = rng.normal(size=(7, out_dim))
            assert gradient_check(model, X, Y) < 1e-4

    def test_one_output_target_shapes_agree(self):
        # a 1-D target of a one-output net is a column, in the loss that
        # gradient_check differentiates as in the loss that grads_at gives
        model = Mlp([2, 4, 1], seed=0)
        X = np.random.default_rng(0).normal(size=(5, 2))
        y = np.arange(5.0)
        assert loss(model, X, y) == loss(model, X, y[:, None]) \
            == loss_and_grads(model, X, y)[0]


class TestTraining:
    def test_deterministic_forward(self):
        model = Mlp([3, 5, 2], seed=2)
        X = np.random.default_rng(1).normal(size=(10, 3))
        assert np.array_equal(model.predict(X), model.predict(X))


class TestSerialization:
    def test_flat_param_roundtrip(self):
        model = Mlp([3, 4, 2], seed=5)
        flat = flatten_params(model)
        set_flat_params(model, flat * 2.0)
        assert np.allclose(flatten_params(model), flat * 2.0)

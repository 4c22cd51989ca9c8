import numpy as np
import pytest

from ranopt.ai.mlp import (Mlp, TrainConfig, flatten_params, gradient_check,
                           numerical_gradient, set_flat_params)
from ranopt.errors import NumericalFailure


def analytic_flat_grad(model, X, Y):
    _, gw, gb = model.loss_and_grads(X, Y)
    return np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])


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
        # fit returns and gradient_check differentiates as in training
        model = Mlp([2, 4, 1], seed=0)
        X = np.random.default_rng(0).normal(size=(5, 2))
        y = np.arange(5.0)
        assert model.loss(X, y) == model.loss(X, y[:, None]) \
            == model.loss_and_grads(X, y)[0]


class TestTraining:
    def test_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        Y = np.array([[0.0], [1.0], [1.0], [0.0]])
        model = Mlp([2, 8, 1], seed=1)
        loss = model.fit(X, Y, TrainConfig(learning_rate=0.05, epochs=5000,
                                           batch_size=4, seed=1))
        assert loss < 0.05

    def test_zero_epochs_identity(self):
        model = Mlp([3, 5, 1], seed=9)
        before = flatten_params(model).copy()
        model.fit(np.zeros((4, 3)), np.zeros((4, 1)),
                  TrainConfig(epochs=0, seed=9))
        assert np.array_equal(flatten_params(model), before)

    def test_deterministic_forward(self):
        model = Mlp([3, 5, 2], seed=2)
        X = np.random.default_rng(1).normal(size=(10, 3))
        assert np.array_equal(model.predict(X), model.predict(X))

    def test_nonfinite_aborts(self):
        model = Mlp([2, 4, 1], seed=0)
        X = np.array([[1e150, 1e150]])
        Y = np.array([[0.0]])
        with pytest.raises(NumericalFailure):
            model.fit(X, Y, TrainConfig(learning_rate=1e10, epochs=50, seed=0))


class TestSerialization:
    def test_roundtrip(self):
        model = Mlp([3, 6, 2], seed=7)
        clone = Mlp.from_dict(model.to_dict())
        X = np.random.default_rng(2).normal(size=(5, 3))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_flat_param_roundtrip(self):
        model = Mlp([3, 4, 2], seed=5)
        flat = flatten_params(model)
        set_flat_params(model, flat * 2.0)
        assert np.allclose(flatten_params(model), flat * 2.0)

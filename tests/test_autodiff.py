import math
import warnings

import numpy as np
import pytest

from histner.errors import GraphError, NonFiniteError, ShapeError

import reference_ops as ad
from reference_ops import concat, embedding_lookup, sum_


def leaf(values):
    return ad.Node(np.asarray(values, dtype=np.float64))


class TestForwardOps:
    def test_uniform_logits_cross_entropy_is_log_k(self):
        logits = leaf(np.zeros((1, 11)))
        loss = ad.softmax_cross_entropy(logits, [4])
        assert float(loss.value[0]) == pytest.approx(math.log(11), abs=1e-12)

    def test_matmul_identity(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        eye = leaf(np.eye(2))
        out = ad.matmul(eye, x)
        assert np.array_equal(out.value, x.value)

    def test_matmul_shape_error_names_op(self):
        with pytest.raises(ShapeError) as err:
            ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))
        assert "matmul" in str(err.value)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteError):
            leaf([np.inf])

    def test_nonfinite_error_names_op(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="op 'mul'"):
            ad.mul(leaf([1e200, 1.0]), 1e200)

    def test_embedding_lookup_bounds(self):
        table = leaf(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            embedding_lookup(table, np.array([4]))

    def test_concat_roundtrip(self):
        a, b = leaf(np.ones((2, 2))), leaf(np.zeros((2, 3)))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        ad.backward(sum_(out))
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)


def _arrays_with_one_value(value):
    """Arrays of several shapes and layouts, each holding ``value`` once."""
    rng = np.random.default_rng(0)
    for shape in [(1,), (7,), (5, 3), (64, 33)]:
        for at in (0, -1, int(np.prod(shape)) // 2):
            arr = rng.normal(size=shape)
            arr.flat[at] = value
            yield arr
    arr = rng.normal(size=(6, 8))
    arr[2, 4] = value
    yield arr[:, ::2]  # not contiguous
    yield np.asarray(value)


class TestAllFinite:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_element_is_found(self, value):
        for arr in _arrays_with_one_value(value):
            assert ad.all_finite(arr) is False

    @pytest.mark.parametrize("value", [0.0, -3.5, 1e200, -1e308, 5e-324])
    def test_finite_arrays_pass_without_warning(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arr in _arrays_with_one_value(value):
                assert ad.all_finite(arr) is True
            assert ad.all_finite(np.full((9, 4), value)) is True

    def test_empty_array_is_finite(self):
        assert ad.all_finite(np.zeros((0, 3))) is True

    def test_nan_and_infinity_together(self):
        assert ad.all_finite(np.array([np.inf, 1.0, np.nan, -np.inf])) is False


class TestBackward:
    def test_sum_of_squares(self):
        x = leaf([3.0])
        loss = sum_(ad.mul(x, x))
        ad.backward(loss)
        assert list(x.grad) == [6.0]

    def test_softmax_ce_gradient_identity(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, 7))
        logits = leaf(z)
        loss = sum_(ad.softmax_cross_entropy(logits, [2]))
        ad.backward(loss)
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        onehot = np.eye(7)[[2]]
        assert np.allclose(logits.grad, probs - onehot, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.backward(x)

    def test_repeated_backward_rejected(self):
        x = leaf([1.0])
        loss = sum_(x)
        ad.backward(loss)
        with pytest.raises(GraphError):
            ad.backward(loss)

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        w1 = rng.normal(size=(4, 5)) * 0.5
        b1 = rng.normal(size=5) * 0.1
        w2 = rng.normal(size=(5, 3)) * 0.5
        x = rng.normal(size=(2, 4))

        def f(params):
            p_w1, p_b1, p_w2 = params
            h = ad.tanh(ad.add(ad.matmul(ad.Node(x), p_w1), p_b1))
            out = ad.matmul(h, p_w2)
            return ad.mean(ad.mul(out, out))

        err = ad.finite_difference_check(f, [w1, b1, w2], eps=1e-5)
        assert err < 1e-4

    def test_linear_function_error_at_machine_precision(self):
        w = np.array([[2.0, -1.0], [0.5, 3.0]])

        def f(params):
            return sum_(ad.matmul(ad.Node(np.ones((1, 2))), params[0]))

        assert ad.finite_difference_check(f, [w], eps=1e-5) < 1e-9

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 6))

        def run():
            node = leaf(w)
            h = ad.tanh(ad.matmul(node, node))
            loss = ad.mean(ad.mul(h, h))
            ad.backward(loss)
            return node.grad.copy()

        assert np.array_equal(run(), run())

    def test_gradient_linearity(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 3))

        def grad_of(builder):
            node = leaf(w)
            ad.backward(builder(node))
            return node.grad.copy()

        def f(node):
            return ad.mean(ad.mul(node, node))

        def g(node):
            return sum_(ad.tanh(node))

        combined = grad_of(lambda n: ad.add(f(n), g(n)))
        assert np.allclose(combined, grad_of(f) + grad_of(g), rtol=1e-12, atol=1e-14)


class TestFirstContribution:
    """A gradient is its first contribution; later ones add out of place."""

    def test_shared_gradient_unchanged_by_a_later_contribution(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        # add(a, b) runs its backward first and hands a and b one array;
        # mul then gives a its second contribution
        ad.backward(sum_(ad.add(ad.mul(a, 2.0), ad.add(a, b))))
        assert np.array_equal(b.grad, [1.0, 1.0])
        assert np.array_equal(a.grad, [3.0, 3.0])

    def test_lookup_scatters_into_its_own_array(self):
        table, other = leaf(np.ones((3, 2))), leaf(np.ones((3, 2)))
        # the add's backward runs first and shares its gradient with ``other``
        looked_up = sum_(embedding_lookup(table, [0, 0, 2]))
        ad.backward(ad.add(looked_up, sum_(ad.add(table, other))))
        assert np.array_equal(other.grad, np.ones((3, 2)))
        assert np.array_equal(table.grad, [[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]])

    def test_node_used_twice(self):
        x = leaf([1.5, -2.0])
        ad.backward(sum_(ad.mul(x, x)))
        assert np.array_equal(x.grad, [3.0, -4.0])
        x = leaf([1.5, -2.0])
        ad.backward(sum_(ad.add(x, x)))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_every_reachable_node_has_a_gradient(self):
        rng = np.random.default_rng(2)
        x, w, b, unused = (leaf(rng.normal(size=s)) for s in [(3, 4), (4, 2), (2,), (4, 2)])
        h = ad.tanh(ad.add(ad.matmul(x, w), b))
        off_graph = ad.add(w, unused)
        loss = ad.mean(ad.softmax_cross_entropy(ad.scale_gradient(h, -0.5), [0, 1, 1]))
        ad.backward(loss)
        nodes = ad._topo_order(loss)
        assert len(nodes) == 9
        for node in nodes:
            assert node.grad is not None and node.grad.shape == node.shape, node
        assert unused.grad is None and off_graph.grad is None

    def test_second_graph_starts_from_no_gradient(self):
        w = leaf([1.0, 2.0])
        ad.backward(sum_(ad.mul(w, 3.0)))
        ad.backward(sum_(ad.mul(w, 5.0)))
        assert np.array_equal(w.grad, [5.0, 5.0])


class TestScaleGradient:
    def test_identity_forward(self):
        x = leaf([[1.0, -2.0]])
        y = ad.scale_gradient(x, -0.1)
        assert np.array_equal(y.value, x.value)

    def test_factor_one_matches_passthrough(self):
        x1, x2 = leaf([2.0, 3.0]), leaf([2.0, 3.0])
        ad.backward(sum_(ad.mul(ad.scale_gradient(x1, 1.0), x1)))
        ad.backward(sum_(ad.mul(x2, x2)))
        assert np.array_equal(x1.grad, x2.grad)

    def test_factor_zero_blocks_gradient(self):
        x = leaf([2.0, 3.0])
        ad.backward(sum_(ad.scale_gradient(x, 0.0)))
        assert np.array_equal(x.grad, np.zeros(2))

    def test_scaled_square_gradient(self):
        x = leaf([3.0])
        y = ad.scale_gradient(x, -0.1)
        ad.backward(sum_(ad.mul(y, y)))
        # d/dx of x^2 through a -0.1 gradient scale: 6 * -0.1
        assert x.grad[0] == pytest.approx(-0.6, abs=1e-15)

    def test_composition_multiplies_factors(self):
        x = leaf([1.0, -1.0])
        y = ad.scale_gradient(ad.scale_gradient(x, 0.5), -3.0)
        assert np.array_equal(y.value, x.value)
        ad.backward(sum_(y))
        assert np.allclose(x.grad, np.full(2, 0.5 * -3.0), rtol=1e-15)


class TestFiniteDifferenceCheck:
    def test_coordinate_subset(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(10, 10))

        def f(params):
            return ad.mean(ad.mul(params[0], params[0]))

        err = ad.finite_difference_check(f, [w], coords=[(0, 3), (0, 77)])
        assert err < 1e-8

    def test_nonfinite_function_rejected(self):
        def f(params):
            return sum_(ad.mul(params[0], 1e308))

        with pytest.raises(NonFiniteError):
            ad.finite_difference_check(f, [np.array([1e308])])

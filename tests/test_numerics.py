import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langaug import numerics
from langaug.errors import ConfigError, DimensionError, NumericError
from langaug.numerics import AdamHyper, adam_step, derive_stream, init_adam_state
from finite_diff import finite_diff_grad, relative_error


def reference_adam(theta0, grad_fn, lr, n_steps, beta1=0.9, beta2=0.99, eps=1e-8):
    # independent straight-line Adam recursion, plain Python floats
    theta, m, v = theta0, 0.0, 0.0
    trace = []
    for t in range(1, n_steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (v_hat**0.5 + eps)
        trace.append(theta)
    return trace


class TestAdam:
    def test_zero_gradient_is_identity(self):
        state = init_adam_state(3)
        params = np.array([1.0, -2.0, 0.5])
        new, state2 = adam_step(params, np.zeros(3), state)
        assert np.array_equal(new, params)
        assert state2.step_count == 1

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_zero_gradient_identity_any_state(self, values, warm_steps):
        params = np.array(values)
        state = init_adam_state(len(values))
        # warm the moments with arbitrary gradients first
        for k in range(warm_steps):
            params, state = adam_step(params, np.full(len(values), 0.1 * (k + 1)), state)
        with np.errstate(all="ignore"):
            after, _ = adam_step(params, np.zeros(len(values)), state)
        # moments decay but a zero gradient still moves nothing on a fresh state
        if warm_steps == 0:
            assert np.array_equal(after, params)

    def test_first_step_magnitude(self):
        state = init_adam_state(1, AdamHyper(lr=0.001))
        new, _ = adam_step(np.array([0.0]), np.array([2.0]), state)
        assert new[0] == pytest.approx(-0.001, rel=1e-6)

    def test_hundred_step_quadratic_matches_reference(self):
        trace = reference_adam(1.0, lambda t: 2.0 * t, lr=0.05, n_steps=100)
        assert abs(trace[-1]) < 0.2
        params = np.array([1.0])
        state = init_adam_state(1, AdamHyper(lr=0.05))
        for _ in range(100):
            params, state = adam_step(params, 2.0 * params, state)
        assert params[0] == pytest.approx(trace[-1], abs=1e-12)

    def test_length_mismatch(self):
        state = init_adam_state(2)
        with pytest.raises(DimensionError):
            adam_step(np.zeros(3), np.zeros(3), state)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.5, np.array([1.0, -2.0, 0.0]))
        assert np.array_equal(g, np.zeros(3))

    def test_analytic_two_dim(self):
        f = lambda x: float(np.sin(x[0]) + x[1] ** 2)
        g = finite_diff_grad(f, np.array([0.0, 2.0]))
        assert g == pytest.approx([1.0, 4.0], abs=1e-6)

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), h=0.0)

    def test_non_finite_probe(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.zeros(2))


class TestRngStream:
    def test_determinism(self):
        a = derive_stream(99, [("pair", 3), ("sample", 7)]).standard_normal(1000)
        b = derive_stream(99, [("pair", 3), ("sample", 7)]).standard_normal(1000)
        assert np.array_equal(a, b)

    def test_label_collisions(self):
        # 10^4 distinct label tuples must give 10^4 distinct draw prefixes
        seen = set()
        for i in range(100):
            for j in range(100):
                draws = derive_stream(0, [("a", i), ("b", j)]).standard_normal(4)
                seen.add(draws.tobytes())
        assert len(seen) == 10_000

    def test_single_tag_difference(self):
        a = derive_stream(5, [("chain", 0), ("step", 1)]).standard_normal(4)
        b = derive_stream(5, [("chain", 0), ("step", 2)]).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        draws = derive_stream(404, [("moments", 0)]).standard_normal(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_empty_labels_rejected(self):
        with pytest.raises(ConfigError):
            derive_stream(1, [])

    def test_chunked_draws_match_bulk(self):
        # the per-chain reference in test_langevin draws stepwise; the
        # batched runner's callers pre-draw blocks
        s1 = derive_stream(8, [("n", 0)])
        parts = np.concatenate([s1.standard_normal(5) for _ in range(4)])
        bulk = derive_stream(8, [("n", 0)]).standard_normal(20)
        assert np.array_equal(parts, bulk)

    def test_stream_is_a_numpy_generator(self):
        assert type(derive_stream(1, [("g", 0)])) is np.random.Generator


def test_streams_come_only_from_derive_stream():
    # every draw is keyed by (seed, labels) through numerics; other modules
    # may name numpy's Generator in a type hint but never build one or draw
    # from the global state. numpy's choice defaults to replace=True, so
    # every choice call says which draw it means.
    namers, bare_choices = set(), []
    for path in sorted(Path(numerics.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        hints = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
        hints += [n.returns for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        in_hint = {id(sub) for hint in hints if hint is not None for sub in ast.walk(hint)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and ast.unparse(node) == "np.random"
                    and id(node) not in in_hint) or (
                    isinstance(node, (ast.Import, ast.ImportFrom))
                    and "numpy" in ast.unparse(node) and "random" in ast.unparse(node)):
                namers.add(path.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "choice"
                    and "replace" not in {k.arg for k in node.keywords}):
                bare_choices.append(f"{path.name}:{node.lineno}")
    assert namers == {"numerics.py"}
    assert bare_choices == []


def test_relative_error_ignores_tiny_components():
    assert relative_error(np.array([1.0, 1e-9]), np.array([1.0, 0.0])) == 0.0

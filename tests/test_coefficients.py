import numpy as np
import pytest

from twoscale.coefficients import (
    ConstantCoefficient,
    LayeredCoefficient,
    RosselandCoefficient,
    SeparatedCoefficient,
    SmoothPeriodicCoefficient,
    SourceModel,
    coefficient_from_config,
    source_from_config,
)
from twoscale.errors import PropertyViolationError


def all_models():
    return [
        ConstantCoefficient(1, matrix=[[2.0]]),
        ConstantCoefficient(2, matrix=[[2.0, 0.3], [0.3, 1.5]]),
        SmoothPeriodicCoefficient(1),
        SmoothPeriodicCoefficient(2),
        LayeredCoefficient(1, low=1.0, high=4.0, width=0.1),
        LayeredCoefficient(2, low=1.0, high=4.0, width=0.0),
        RosselandCoefficient(1, b=0.1),
        RosselandCoefficient(2, b=0.1),
        SeparatedCoefficient(1),
        SeparatedCoefficient(2, mu_x=0.5),
    ]


def test_constant_identity():
    model = ConstantCoefficient(2, matrix=np.eye(2))
    a = model.eval_a(0.3, [0.1, 0.2], [0.7, 0.9])
    assert a.shape == (1, 2, 2) and np.allclose(a[0], np.eye(2))


def test_rosseland_paper_formula():
    # conduction-radiation coefficient k + 4 u^3 b at k = I, b = I, u = 1
    model = RosselandCoefficient(
        1, k_base=1.0, k_amplitude=0.0, b=1.0, u_range=(0.0, 2.0)
    )
    a = model.eval_a(1.0, [0.0], [0.0])
    assert a[0, 0] == pytest.approx(5.0, abs=1e-14)


def test_smooth_periodic_point_value():
    model = SmoothPeriodicCoefficient(1, base=2.0, amplitude=1.0)
    assert model.eval_a(0.0, [0.0], [0.25])[0, 0, 0] == pytest.approx(3.0, abs=1e-14)


def test_da_du_closed_forms():
    ros = RosselandCoefficient(1, k_base=1.0, k_amplitude=0.0, b=1.0, u_range=(0.0, 2.0))
    assert ros.eval_da_du(1.0, [0.0], [0.0])[0, 0, 0] == pytest.approx(12.0, abs=1e-12)
    const = ConstantCoefficient(1, matrix=[[2.0]])
    assert np.all(const.eval_da_du(0.5, [0.0], [0.0]) == 0.0)
    sep = SeparatedCoefficient(1, mu0=1.0, mu_u=0.0, mu_u2=1.0)
    u, y = 0.37, 0.21
    g = sep.g_scalar(np.array([[y]]))[0]
    assert sep.eval_da_du(u, [0.0], [y])[0, 0, 0] == pytest.approx(2.0 * u * g, abs=1e-12)


def test_da_du_matches_finite_difference():
    rng = np.random.default_rng(5)
    for model in all_models():
        n = model.dim
        for _ in range(10):
            u = rng.uniform(model.u_lo + 0.05, model.u_hi - 0.05)
            x = rng.random(n)
            y = rng.random(n)
            h = 1e-6 * (model.u_hi - model.u_lo)
            fd = (model.eval_a(u + h, x, y) - model.eval_a(u - h, x, y)) / (2 * h)
            an = model.eval_da_du(u, x, y)
            scale = max(1.0, np.abs(fd).max())
            assert np.max(np.abs(an - fd)) <= 1e-5 * scale


def test_da_dx_matches_finite_difference():
    rng = np.random.default_rng(11)
    for model in all_models():
        n = model.dim
        for _ in range(10):
            u = rng.uniform(model.u_lo, model.u_hi)
            x = rng.uniform(0.1, 0.9, n)
            y = rng.random(n)
            an = model.eval_da_dx(u, x, y)
            assert an.shape == (1, n, n, n)
            for d in range(n):
                step = 1e-6 * np.eye(n)[d]
                fd = (model.eval_a(u, x + step, y) - model.eval_a(u, x - step, y)) / 2e-6
                assert np.max(np.abs(an[:, d] - fd)) <= 1e-8 * max(1.0, np.abs(fd).max())
    sep = SeparatedCoefficient(2, mu_x=0.5)
    assert np.abs(sep.eval_da_dx(0.3, [0.2, 0.7], [0.1, 0.4])).max() > 0.1  # not vacuous


def test_x_dependent_family_must_define_its_x_derivative():
    class Drifting(SmoothPeriodicCoefficient):
        x_dependent = True

    with pytest.raises(NotImplementedError, match="_matrix_dx"):
        Drifting(1).eval_da_dx(0.5, [0.5], [0.5])


def test_u_dependent_family_must_define_its_u_derivative():
    class Heating(SmoothPeriodicCoefficient):
        u_dependent = True

    with pytest.raises(NotImplementedError, match="_matrix_du"):
        Heating(1).eval_da_du(0.5, [0.5], [0.5])
    assert np.all(SmoothPeriodicCoefficient(2).eval_da_du(0.5, [0.5, 0.5], [0.1, 0.2]) == 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_one_point_batch_keeps_its_batch_axis(dim):
    # a point passed as a single vector or as a (1, dim) array is a batch of
    # one: every evaluator returns its batch axis
    model = RosselandCoefficient(dim, b=1.0)
    vec, row = [0.3] * dim, [[0.3] * dim]
    for u, x, y in [(0.7, vec, row), (0.7, row, vec), ([0.7], row, row), (0.7, vec, vec),
                    ([0.7], vec, vec)]:
        assert model.eval_a(u, x, y).shape == (1, dim, dim)
        assert model.eval_da_du(u, x, y).shape == (1, dim, dim)
        assert model.eval_da_dx(u, x, y).shape == (1, dim, dim, dim)
        assert model.eval_f(u, x, y).shape == model.eval_df_du(u, x, y).shape == (1,)
        assert np.array_equal(model.eval_a(u, x, y), model.eval_a(0.7, row, row))


def test_symmetry_and_periodicity_properties():
    rng = np.random.default_rng(17)
    for model in all_models():
        n = model.dim
        u = rng.uniform(model.u_lo, model.u_hi, size=100)
        x = rng.random((100, n))
        y = rng.random((100, n))
        a = model.eval_a(u, x, y)
        assert np.max(np.abs(a - np.swapaxes(a, 1, 2))) == 0.0
        for k in range(n):
            shift = np.zeros(n)
            shift[k] = 1.0
            a_shift = model.eval_a(u, x, y + shift)
            assert np.max(np.abs(a_shift - a)) < 1e-12


def test_ellipticity_sampled_bounds():
    for model in all_models():
        assert model.ellipticity_lower > 0.0
        assert model.ellipticity_upper >= model.ellipticity_lower


def test_non_elliptic_model_rejected():
    with pytest.raises(PropertyViolationError):
        ConstantCoefficient(1, matrix=[[-1.0]])
    with pytest.raises(PropertyViolationError):
        SmoothPeriodicCoefficient(1, base=0.5, amplitude=1.0)  # dips negative


def test_u_clamped_to_admissible_range():
    model = RosselandCoefficient(1, b=1.0, u_range=(0.0, 1.0))
    assert np.allclose(model.eval_a(-5.0, [0.0], [0.3]), model.eval_a(0.0, [0.0], [0.3]))
    assert np.allclose(model.eval_a(7.0, [0.0], [0.3]), model.eval_a(1.0, [0.0], [0.3]))


@pytest.mark.parametrize("u", [-0.5, 0.4, 1.6])
def test_u_derivatives_are_those_of_the_clamped_evaluators(u):
    # below, inside and above u_range: central differences of what eval_a and
    # eval_f return against eval_da_du and eval_df_du (zero outside)
    model = RosselandCoefficient(
        1, b=1.0, u_range=(0.0, 1.0), source=SourceModel(base=1.0, u_coeff=0.5)
    )
    x, y, h = [0.2], [0.3], 1e-6
    fd_a = (model.eval_a(u + h, x, y) - model.eval_a(u - h, x, y)) / (2 * h)
    fd_f = (model.eval_f(u + h, x, y) - model.eval_f(u - h, x, y)) / (2 * h)
    assert np.allclose(model.eval_da_du(u, x, y), fd_a, rtol=1e-6, atol=1e-9)
    assert model.eval_df_du(u, x, y)[0] == pytest.approx(fd_f[0], rel=1e-6, abs=1e-9)
    inside = 0.0 <= u <= 1.0
    assert (model.eval_da_du(u, x, y)[0, 0, 0] != 0.0) == inside
    assert (model.eval_df_du(u, x, y)[0] != 0.0) == inside


def test_u_derivatives_keep_their_one_sided_value_at_the_range_ends():
    model = RosselandCoefficient(
        1, b=1.0, u_range=(0.0, 2.0), source=SourceModel(base=1.0, u_coeff=0.5)
    )
    u = np.array([-1e-9, 0.0, 2.0, 2.0 + 1e-9])
    x = np.zeros((4, 1))
    y = np.full((4, 1), 0.3)
    assert np.array_equal(model.eval_da_du(u, x, y)[:, 0, 0], [0.0, 0.0, 48.0, 0.0])
    assert np.array_equal(model.eval_df_du(u, x, y), [0.0, 0.5, 0.5, 0.0])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("u", [-0.5, 0.2, 0.4, 0.7, 1.0, 1.6])
def test_mu_gradient_is_the_log_derivative_of_the_evaluators(dim, u):
    # below, at both ends of, inside and above u_range = (0.2, 1.0)
    model = SeparatedCoefficient(dim, mu0=1.0, mu_u=0.5, mu_u2=1.0, mu_x=0.5,
                                 u_range=(0.2, 1.0))
    x, y = np.linspace(0.1, 0.7, dim), np.full(dim, 0.3)
    a = model.eval_a(u, x, y)[0, 0, 0]
    want = np.array([model.eval_da_du(u, x, y)[0, 0, 0] / a]
                    + [model.eval_da_dx(u, x, y)[0, d, 0, 0] / a for d in range(dim)])
    got = model.mu_gradient(u, x) / model.mu(u, x)
    assert got.shape == (1 + dim,)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert (got[0] != 0.0) == (0.2 <= u <= 1.0)  # exactly 0 outside, as eval_da_du


def test_non_finite_inputs_rejected():
    model = SmoothPeriodicCoefficient(1)
    with pytest.raises(ValueError):
        model.eval_a(np.nan, [0.0], [0.1])
    with pytest.raises(ValueError):
        model.eval_a(0.1, [np.inf], [0.1])


def test_layered_profile_sharp_and_smooth():
    sharp = LayeredCoefficient(1, low=1.0, high=4.0, width=0.0)
    assert sharp.eval_a(0.0, [0.0], [0.25])[0, 0, 0] == 1.0
    assert sharp.eval_a(0.0, [0.0], [0.75])[0, 0, 0] == 4.0
    smooth = LayeredCoefficient(1, low=1.0, high=4.0, width=0.1)
    # transition midpoints hit the average, plateaus keep the layer values
    assert smooth.eval_a(0.0, [0.0], [0.5])[0, 0, 0] == pytest.approx(2.5, abs=1e-12)
    assert smooth.eval_a(0.0, [0.0], [0.25])[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert smooth.eval_a(0.0, [0.0], [0.8])[0, 0, 0] == pytest.approx(4.0, abs=1e-12)


def test_layered_smooth_profile_is_c1_at_patch_joints():
    smooth = LayeredCoefficient(1, low=1.0, high=4.0, width=0.1)
    for edge in (0.45, 0.55, 0.95, 0.05):
        h = 1e-7
        left = smooth.eval_a(0.0, [0.0], [edge - h])[0, 0, 0]
        right = smooth.eval_a(0.0, [0.0], [edge + h])[0, 0, 0]
        assert abs(left - right) < 1e-6  # continuous with bounded slope


def test_source_models():
    const = source_from_config({"family": "CONSTANT", "value": 1.0})
    assert const.eval(0.0, [0.0], [0.3], 1)[0] == pytest.approx(1.0)

    osc = SourceModel(amplitude=1.0, frequency=1)
    assert osc.eval(0.0, [0.0], [0.5], 1)[0] == pytest.approx(0.0, abs=1e-15)

    mixed = SourceModel(u_coeff=1.0, amplitude=1.0, frequency=1, phase=np.pi / 2)
    # f(u, x, y) = u + cos(2 pi y) at u = 2, y = 0
    assert mixed.eval(2.0, [0.0], [0.0], 1)[0] == pytest.approx(3.0, abs=1e-14)
    assert mixed.eval_du(2.0, [0.0], [0.0], 1)[0] == pytest.approx(1.0)


def test_config_factory_round_trip():
    model = coefficient_from_config(
        1,
        {"family": "ROSSELAND", "k_base": 2.0, "k_amplitude": 1.0, "b": 0.1},
        u_range=(0.0, 1.0),
        source=source_from_config({"family": "CONSTANT", "value": 1.0}),
    )
    assert isinstance(model, RosselandCoefficient)
    assert model.u_dependent
    with pytest.raises(ValueError, match="family"):
        coefficient_from_config(1, {"family": "NOPE"})
    with pytest.raises(TypeError):
        coefficient_from_config(1, {"family": "CONSTANT", "bogus": 1})


def test_source_derivative_normalizes_its_arguments_once(monkeypatch):
    # the source normalizes and checks the points; the model only clamps u
    import twoscale.coefficients as coefficients

    normalize, calls = coefficients._normalize_args, []
    monkeypatch.setattr(coefficients, "_normalize_args",
                        lambda *args: calls.append(1) or normalize(*args))
    model = RosselandCoefficient(2, b=0.1, u_range=(0.0, 1.0), source=SourceModel(u_coeff=-2.0))
    u = np.array([-0.5, 0.0, 0.5, 1.0, 1.5])
    x = np.full((len(u), 2), 0.25)
    df = model.eval_df_du(u, x, x)
    assert len(calls) == 1
    assert np.array_equal(df, [0.0, -2.0, -2.0, -2.0, 0.0])
    assert np.array_equal(model.eval_df_du(0.5, [0.25, 0.25], x), np.full(len(u), -2.0))
    with pytest.raises(ValueError, match="non-finite"):
        model.eval_df_du(np.nan, x, x)

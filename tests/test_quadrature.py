"""Integral driver: sampling, Simpson panels, kernel exactness."""

from __future__ import annotations

import math

import pytest

from gtransform.quadrature import (
    GTransformResult,
    QuadratureConfig,
    g_transform,
    make_spec,
    sample_F,
    simpson_panel,
)
from gtransform.tables import ArgumentError, InitializationError

ANALYTIC = QuadratureConfig(analytic_F=True)


class TestSampleF:
    def test_exp_decay_closed_form(self):
        spec = make_spec("exp_decay")
        vals = sample_F(spec, 1.0, 1.0, 1, ANALYTIC)
        assert vals[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert vals[0] == pytest.approx(0.632120558829, abs=1e-12)

    def test_quadrature_agrees_with_closed_form(self):
        spec = make_spec("exp_decay")
        cfg = QuadratureConfig(subdivisions_per_panel=128)
        vals = sample_F(spec, 1.0, 1.0, 1, cfg)
        assert vals[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_starts_at_zero_when_x_equals_a(self):
        for spec_id in ("exp_decay", "t_exp", "sinc"):
            spec = make_spec(spec_id)
            vals = sample_F(spec, 0.0, 0.5, 3, QuadratureConfig())
            assert vals[0] == 0.0

    def test_t_exp_closed_form(self):
        spec = make_spec("t_exp")
        vals = sample_F(spec, 2.0, 1.0, 1, ANALYTIC)
        assert vals[0] == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-15)

    def test_cumulative_panels_telescope(self):
        """Each sample extends the previous one by exactly one panel
        integral; no panel is ever integrated twice."""
        spec = make_spec("exp_decay")
        cfg = QuadratureConfig(subdivisions_per_panel=16)
        x, h = 0.5, 0.75
        vals = sample_F(spec, x, h, 5, cfg)
        for i in range(1, 5):
            panel = simpson_panel(spec.f, x + (i - 1) * h, x + i * h, 16)
            assert vals[i] == vals[i - 1] + panel  # bit-exact accumulation

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_non_positive_h_rejected(self, h):
        with pytest.raises(ArgumentError, match="h must be positive"):
            sample_F(make_spec("exp_decay"), 1.0, h, 2, QuadratureConfig())

    def test_x_below_a_rejected(self):
        spec = make_spec("exp_decay", a=1.0)
        with pytest.raises(ArgumentError):
            sample_F(spec, 0.5, 1.0, 2, QuadratureConfig())


class TestSimpsonPanel:
    def test_exact_on_cubics(self):
        # Simpson integrates cubics exactly; x^3 on [0,2] = 4
        val = simpson_panel(lambda t: t**3, 0.0, 2.0, 2)
        assert val == pytest.approx(4.0, rel=1e-15)

    def test_error_shrinks_by_order_four(self):
        spec = make_spec("exp_decay")
        truth = 1.0 - math.exp(-1.0)
        errors = []
        for sub in (4, 8, 16, 32):
            approx = simpson_panel(spec.f, 0.0, 1.0, sub)
            errors.append(abs(approx - truth))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 8.0

    def test_config_rejects_odd_subdivisions(self):
        with pytest.raises(ArgumentError):
            QuadratureConfig(subdivisions_per_panel=3)
        with pytest.raises(ArgumentError):
            QuadratureConfig(subdivisions_per_panel=0)


class TestKernelExactness:
    def test_exp_decay_all_orders(self):
        spec = make_spec("exp_decay")
        result = g_transform(spec, x=0.5, h=1.0, n_max=3, cfg=ANALYTIC)
        for (j, n), e in result.table.items():
            if n >= 1 and e.valid:
                err = abs(float(e.value) - spec.reference)
                assert err <= 1e-12, f"({j},{n}) err {err}"
        for n, err in enumerate(result.errors):
            if n >= 1:
                assert err <= 1e-12, f"(0,{n}) err {err}"

    def test_exp_decay_grid(self):
        """A single decaying exponential is inside the order-1 kernel, so
        every order must hit the exact integral at every grid point."""
        spec = make_spec("exp_decay")
        for x in (0.0, 0.5, 1.0):
            for h in (0.5, 1.0, 2.0):
                result = g_transform(spec, x=x, h=h, n_max=3, cfg=ANALYTIC)
                diag = result.diagonal_values()
                for n in range(1, 4):
                    assert diag[n] == pytest.approx(1.0, abs=1e-12), (x, h, n)

    def test_t_exp_exact_from_order_two(self):
        # t e^{-t} needs order 2: one exponential with a degree-1
        # polynomial factor
        spec = make_spec("t_exp")
        result = g_transform(spec, x=1.0, h=0.7, n_max=4, cfg=ANALYTIC)
        diag = result.diagonal_values()
        for n in (2, 3, 4):
            assert abs(diag[n] - 1.0) <= 1e-10
        assert abs(diag[1] - 1.0) >= 1e-3

    def test_sinc_converges_with_depth(self):
        spec = make_spec("sinc")
        result = g_transform(spec, x=1.0, h=1.0, n_max=10)
        ref = math.pi / 2
        e1 = abs(result.diagonal_values()[1] - ref)
        e10 = abs(result.diagonal_values()[10] - ref)
        assert e10 <= 0.01 * e1


class TestEngineChoices:
    def test_fsqd_and_rs_agree(self):
        for spec_id in ("exp_decay", "t_exp"):
            spec = make_spec(spec_id)
            r1 = g_transform(spec, x=1.0, h=0.9, n_max=5, engine="fsqd")
            r2 = g_transform(spec, x=1.0, h=0.9, n_max=5, engine="rs")
            for (key, e1) in r1.table.items():
                e2 = r2.table.get(*key)
                if e1.valid and e2.valid:
                    denom = max(abs(e1.value), abs(e2.value), 1e-30)
                    assert abs(e1.value - e2.value) / denom <= 1e-8

    def test_eps_runs_on_f_samples_at_half_depth(self):
        spec = make_spec("exp_decay")
        result = g_transform(spec, x=0.5, h=1.0, n_max=4, engine="eps",
                             cfg=ANALYTIC)
        assert result.table.method == "eps"
        assert result.table.limit == 2

    def test_unknown_engine_rejected(self):
        spec = make_spec("exp_decay")
        with pytest.raises(ArgumentError):
            g_transform(spec, x=1.0, h=1.0, n_max=2, engine="romberg")

    def test_zero_integrand_sample_names_the_node(self):
        # t e^{-t} vanishes at t = 0, the first node of this sampling
        spec = make_spec("t_exp")
        with pytest.raises(InitializationError) as exc_info:
            g_transform(spec, x=0.0, h=1.0, n_max=2)
        assert "0" in str(exc_info.value)


class TestResultShape:
    def test_reference_errors_on_diagonal(self):
        spec = make_spec("exp_decay")
        result = g_transform(spec, x=0.5, h=1.0, n_max=2, cfg=ANALYTIC)
        assert isinstance(result, GTransformResult)
        assert spec.reference == pytest.approx(1.0)
        assert len(result.errors) == result.table.limit + 1
        assert result.errors[0] is not None
        assert result.diagonal_deltas is None

    def test_no_reference_gives_diagonal_deltas(self):
        # sinc from a shifted lower limit has no stored reference
        spec = make_spec("sinc", a=0.5)
        result = g_transform(spec, x=1.0, h=1.0, n_max=3)
        assert spec.reference is None
        assert result.errors is None
        assert result.diagonal_deltas is not None
        assert len(result.diagonal_deltas) == 3

    def test_catalog_rejects_unknown_id(self):
        with pytest.raises(ArgumentError) as exc_info:
            make_spec("nosuch")
        msg = str(exc_info.value)
        for known in ("exp_decay", "t_exp", "sinc"):
            assert known in msg

    def test_n_max_must_be_positive(self):
        spec = make_spec("exp_decay")
        with pytest.raises(ArgumentError):
            g_transform(spec, x=1.0, h=1.0, n_max=0)


@pytest.mark.parametrize("engine", ["fsqd", "rs", "eps"])
@pytest.mark.parametrize("integrand", ["exp_decay", "sinc"])
def test_errors_are_read_from_the_table_in_items_order(engine, integrand):
    # exp_decay's samples are all but geometric, so rs and eps break down
    # past their first orders; errors hold None at those diagonal entries.
    spec = make_spec(integrand)
    result = g_transform(spec, x=1.0, h=1.0, n_max=8, engine=engine)
    want = {(j, n): abs(float(e.value) - spec.reference)
            for (j, n), e in result.table.items() if e.valid}
    assert result.errors == [want.get((0, n))
                             for n in range(result.table.limit + 1)]
    if integrand == "exp_decay" and engine != "fsqd":
        assert len(want) < len(result.table)

"""Tests for the user-facing DSL objects."""

import numpy as np
import pytest
from fractions import Fraction

from repro import (Constant, Eq, Function, Grid, TimeFunction,
                   SparseTimeFunction, TensorTimeFunction,
                   VectorTimeFunction, div, grad, tr)
from repro.dsl.dimensions import SteppingDimension, TimeDimension
from repro.symbolics import Derivative, indexeds, preorder


class TestGrid:
    def test_dimensions_named(self):
        grid = Grid(shape=(4, 5, 6))
        assert [d.name for d in grid.dimensions] == ['x', 'y', 'z']

    def test_spacing_values(self):
        grid = Grid(shape=(5, 5), extent=(2.0, 4.0))
        assert grid.spacing == (0.5, 1.0)

    def test_spacing_map_keys(self):
        grid = Grid(shape=(4, 4))
        names = {s.name for s in grid.spacing_map}
        assert names == {'h_x', 'h_y'}

    def test_default_extent_unit_spacing(self):
        grid = Grid(shape=(11, 11))
        assert grid.spacing == (1.0, 1.0)

    def test_time_dimensions(self):
        grid = Grid(shape=(4, 4))
        assert isinstance(grid.time_dim, TimeDimension)
        assert isinstance(grid.stepping_dim, SteppingDimension)
        assert grid.stepping_dim.parent is grid.time_dim
        assert grid.time_dim.spacing.name == 'dt'

    def test_dim_limits(self):
        with pytest.raises(ValueError):
            Grid(shape=(4,) * 4)

    def test_serial_topology(self):
        grid = Grid(shape=(8, 8))
        assert grid.topology == (1, 1)
        assert not grid.is_distributed

    def test_origin_local_serial(self):
        grid = Grid(shape=(5, 5), extent=(4.0, 4.0), origin=(10.0, 20.0))
        assert grid.origin_local == (10.0, 20.0)


class TestFunctions:
    @pytest.fixture
    def grid(self):
        return Grid(shape=(8, 8))

    def test_halo_equals_space_order(self, grid):
        """The paper: 'an SDO of 2 [...] halo of size 2'."""
        u = Function(name='u', grid=grid, space_order=2)
        assert u.halo == ((2, 2), (2, 2))

    def test_data_shapes(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2, time_order=2)
        assert u.data.shape_global == (3, 8, 8)
        assert u.data_with_halo.shape == (3, 12, 12)

    def test_lazy_allocation(self, grid):
        u = Function(name='u', grid=grid, space_order=2)
        assert not u.is_allocated
        u.data
        assert u.is_allocated

    def test_data_zero_initialized(self, grid):
        u = Function(name='u', grid=grid, space_order=2)
        assert (u.data_with_halo == 0).all()

    def test_nbuffers(self, grid):
        assert TimeFunction(name='a', grid=grid, time_order=1).nbuffers == 2
        assert TimeFunction(name='b', grid=grid, time_order=2).nbuffers == 3

    def test_forward_backward_indices(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        t = grid.stepping_dim
        assert str(u.forward.indices[0]) == '1 + t'
        assert str(u.backward.indices[0]) == '-1 + t'

    def test_derivative_sugar(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=4)
        x, y = grid.dimensions
        assert isinstance(u.dx, Derivative)
        assert u.dx.derivs == ((x, 1),)
        assert u.dy2.derivs == ((y, 2),)
        assert u.dx.fd_order == 4

    def test_unknown_attribute_raises(self, grid):
        u = TimeFunction(name='u', grid=grid)
        with pytest.raises(AttributeError):
            u.dq
        with pytest.raises(AttributeError):
            u.nonexistent

    def test_laplace_is_sum_of_second_derivatives(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=2)
        lap = u.laplace
        derivs = [n for n in preorder(lap) if n.is_Derivative]
        orders = sorted(d.derivs[0][1] for d in derivs)
        assert orders == [2, 2]

    def test_dt2_requires_time_order_2(self, grid):
        u = TimeFunction(name='u', grid=grid, time_order=1)
        with pytest.raises(ValueError):
            u.dt2

    def test_staggering_map(self, grid):
        x, y = grid.dimensions
        v = TimeFunction(name='v', grid=grid, staggered=(x,))
        assert v.stagger_map == {x: Fraction(1, 2)}

    def test_constant(self):
        c = Constant('c0', value=2.5)
        assert c.name == 'c0' and c.value == 2.5

    def test_functions_usable_in_arithmetic(self, grid):
        u = Function(name='u', grid=grid)
        m = Function(name='m', grid=grid)
        e = 2 * u + m
        assert u in preorder(e) and m in preorder(e)

    def test_invalid_space_order(self, grid):
        with pytest.raises(ValueError):
            Function(name='u', grid=grid, space_order=-1)


class TestTensorAlgebra:
    @pytest.fixture
    def grid(self):
        return Grid(shape=(8, 8))

    def test_vector_components_staggered(self, grid):
        v = VectorTimeFunction(name='v', grid=grid, space_order=4)
        x, y = grid.dimensions
        assert v[0].staggered == (x,)
        assert v[1].staggered == (y,)
        assert v[0].name == 'v_x'

    def test_tensor_components(self, grid):
        tau = TensorTimeFunction(name='tau', grid=grid, space_order=4)
        x, y = grid.dimensions
        assert tau[0, 0].staggered == ()
        assert set(tau[0, 1].staggered) == {x, y}
        assert tau[1, 0] is tau[0, 1]  # symmetric storage

    def test_tensor_3d_unique_components(self):
        grid = Grid(shape=(4, 4, 4))
        tau = TensorTimeFunction(name='tau', grid=grid)
        assert len(tau.functions) == 6

    def test_vector_arithmetic(self, grid):
        v = VectorTimeFunction(name='v', grid=grid)
        w = v + v
        assert len(w) == 2
        assert w[0] == 2 * v[0]

    def test_div_of_vector_is_scalar(self, grid):
        v = VectorTimeFunction(name='v', grid=grid, space_order=4)
        e = div(v)
        derivs = [n for n in preorder(e) if n.is_Derivative]
        assert len(derivs) == 2

    def test_div_of_tensor_is_vector(self, grid):
        tau = TensorTimeFunction(name='tau', grid=grid, space_order=4)
        dv = div(tau)
        assert len(dv) == 2

    def test_grad_of_scalar(self, grid):
        u = TimeFunction(name='u', grid=grid, space_order=4)
        g = grad(u)
        assert len(g) == 2

    def test_trace(self, grid):
        tau = TensorTimeFunction(name='tau', grid=grid)
        t = tr(tau)
        assert tau[0, 0] in preorder(t) and tau[1, 1] in preorder(t)

    def test_vector_eq_flattens(self, grid):
        v = VectorTimeFunction(name='v', grid=grid)
        eqs = Eq(v.forward, v + 1)
        assert isinstance(eqs, list) and len(eqs) == 2

    def test_tensor_eq_flattens(self, grid):
        tau = TensorTimeFunction(name='tau', grid=grid)
        eqs = Eq(tau.forward, tau * 2)
        assert isinstance(eqs, list) and len(eqs) == 3

    def test_vector_scalar_multiplication(self, grid):
        v = VectorTimeFunction(name='v', grid=grid)
        m = Function(name='m', grid=grid)
        w = m * v
        assert w[0] == m * v[0]

    def test_vector_tensor_product_rejected(self, grid):
        v = VectorTimeFunction(name='v', grid=grid)
        tau = TensorTimeFunction(name='tau', grid=grid)
        with pytest.raises(TypeError):
            v * tau


class TestSparseFunctions:
    def test_coordinates_validation(self):
        grid = Grid(shape=(8, 8))
        with pytest.raises(ValueError):
            SparseTimeFunction('s', grid, npoint=2, nt=10,
                               coordinates=np.zeros((3, 2)))

    def test_data_shape(self):
        grid = Grid(shape=(8, 8))
        s = SparseTimeFunction('s', grid, npoint=3, nt=10,
                               coordinates=np.ones((3, 2)))
        assert s.data.shape == (10, 3)

    def test_inject_interpolate_records(self):
        grid = Grid(shape=(8, 8))
        u = TimeFunction(name='u', grid=grid)
        s = SparseTimeFunction('s', grid, npoint=1, nt=5,
                               coordinates=np.array([[3.5, 3.5]]))
        inj = s.inject(field=u.forward, expr=s * 2)
        interp = s.interpolate(expr=u)
        assert inj.sparse is s and interp.sparse is s


class TestEquations:
    def test_eq_repr(self):
        grid = Grid(shape=(4, 4))
        u = TimeFunction(name='u', grid=grid)
        eq = Eq(u.forward, u + 1)
        assert 'u' in repr(eq)

    def test_target_function(self):
        grid = Grid(shape=(4, 4))
        u = TimeFunction(name='u', grid=grid)
        assert Eq(u.forward, 0).target_function() is u
        assert Eq(u, 0).target_function() is u

    def test_lower_produces_indexed(self):
        grid = Grid(shape=(4, 4))
        u = TimeFunction(name='u', grid=grid, space_order=2)
        lhs, rhs = Eq(u.forward, u.laplace).lower()
        assert lhs.is_Indexed
        assert not any(n.is_Derivative for n in preorder(rhs))
        assert all(a.is_Indexed for a in indexeds(rhs))

    def test_mismatched_vector_eq_rejected(self):
        grid = Grid(shape=(4, 4))
        v = VectorTimeFunction(name='v', grid=grid)
        u = TimeFunction(name='u', grid=grid)
        with pytest.raises(TypeError):
            Eq(v.forward, u)

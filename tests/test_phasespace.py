import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from cavitycluster.phasespace import (
    PhasePath,
    closed_path_phase,
    compose_displacements,
    displacement_matrix,
    path_phase,
    verify_displacement_law,
)

finite_complex = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def square_path(scale=1.0, ccw=True):
    pts = [0, scale, scale + 1j * scale, 1j * scale, 0]
    if not ccw:
        pts = pts[::-1]
    return PhasePath(points=tuple(complex(p) for p in pts), closed=True)


class TestCompose:
    def test_orthogonal(self):
        net, phase = compose_displacements(1.0, 1j)
        assert net == 1 + 1j
        assert phase == pytest.approx(-1.0)

    def test_identity_second(self):
        net, phase = compose_displacements(0.7 - 0.2j, 0.0)
        assert net == 0.7 - 0.2j
        assert phase == 0.0

    def test_collinear(self):
        net, phase = compose_displacements(2.0, 3.0)
        assert net == 5.0
        assert phase == 0.0

    @given(a=finite_complex, b=finite_complex)
    def test_swap_flips_phase(self, a, b):
        _, p1 = compose_displacements(a, b)
        _, p2 = compose_displacements(b, a)
        assert p1 == pytest.approx(-p2, abs=1e-12)


class TestPathPhase:
    def test_degenerate_loop(self):
        path = PhasePath(points=(0j, 1 + 0j, 0j), closed=True)
        net, gamma = path_phase(path)
        assert abs(net) < 1e-14
        assert abs(gamma) < 1e-14

    def test_unit_square(self):
        net, gamma = path_phase(square_path())
        assert abs(net) < 1e-14
        assert gamma == pytest.approx(2.0, abs=1e-12)

    def test_circle_converges_to_area_integral(self):
        r = 1.3
        n = 10**4
        pts = tuple(r * cmath.exp(2j * math.pi * k / n) - r for k in range(n)) + (0j,)
        path = PhasePath(points=pts, closed=True)
        _, gamma = path_phase(path)
        assert gamma == pytest.approx(2 * math.pi * r * r, abs=1e-4)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            PhasePath(points=(0j,), closed=False)

    def test_closed_mismatch(self):
        with pytest.raises(ValueError):
            PhasePath(points=(0j, 1 + 0j), closed=True)


class TestClosedPathPhase:
    def test_square_ccw(self):
        assert closed_path_phase(square_path(ccw=True)) == pytest.approx(2.0, abs=1e-12)

    def test_square_cw(self):
        assert closed_path_phase(square_path(ccw=False)) == pytest.approx(-2.0, abs=1e-12)

    def test_forward_then_backward_cancels(self):
        pts = (0j, 1 + 0.5j, 2 + 0j, 1 + 0.5j, 0j)
        assert closed_path_phase(PhasePath(points=pts, closed=True)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_open_path_rejected(self):
        path = PhasePath(points=(0j, 1 + 1j), closed=False)
        with pytest.raises(ValueError):
            closed_path_phase(path)

    @given(
        verts=st.lists(finite_complex, min_size=3, max_size=8),
        offset=finite_complex,
    )
    @settings(max_examples=60)
    def test_shoelace_and_translation_invariance(self, verts, offset):
        # closed polygon phase = 2 x signed shoelace area, regardless of
        # where the polygon sits (the formula uses increments only)
        pts = tuple(verts) + (verts[0],)
        gamma = closed_path_phase(PhasePath(points=pts, closed=True))
        area = 0.5 * math.fsum(
            (pts[i].real * pts[i + 1].imag - pts[i + 1].real * pts[i].imag)
            for i in range(len(pts) - 1)
        )
        assert gamma == pytest.approx(2 * area, abs=1e-10)
        shifted = tuple(p + offset for p in pts)
        gamma_shifted = closed_path_phase(PhasePath(points=shifted, closed=True))
        assert gamma_shifted == pytest.approx(gamma, abs=1e-10)

    @given(a=finite_complex, b=finite_complex, c=finite_complex)
    @settings(max_examples=60)
    def test_concatenation_additivity(self, a, b, c):
        # phase of a 3-segment path = sum of the pairwise composition
        # cross-phases accumulated left to right
        path = PhasePath(points=(0j, a, a + b, a + b + c), closed=False)
        net, gamma = path_phase(path)
        assert net == pytest.approx(a + b + c, abs=1e-12)
        expected = compose_displacements(b, a)[1] + compose_displacements(c, a + b)[1]
        assert gamma == pytest.approx(expected, abs=1e-10)


class TestDisplacementMatrix:
    @pytest.mark.parametrize("alpha", [0.5 + 0.3j, -1.5j, 2.0 + 2.0j, 2.5])
    @pytest.mark.parametrize("n_max", [0, 1, 20, 60])
    def test_matches_expm(self, alpha, n_max):
        # the eigenbasis exponential against scipy's Pade expm of the generator
        a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1)
        want = expm(alpha * a.T - np.conj(alpha) * a)
        assert np.max(np.abs(displacement_matrix(alpha, n_max) - want)) <= 1e-13


class TestDisplacementLaw:
    def test_small_amplitudes(self):
        assert verify_displacement_law(0.5, 0.3j, 60) <= 1e-8

    def test_alpha_zero_exact(self):
        assert verify_displacement_law(0.0, 0.8 - 0.2j, 40) <= 1e-12

    def test_real_pair_unit_phase(self):
        assert verify_displacement_law(1.0, 1.0, 60) <= 1e-8

    def test_amplitude_two(self):
        assert verify_displacement_law(2.0, 2.0j, 60) <= 1e-8

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            verify_displacement_law(4.0, 0.1, 60)

    def test_minimum_dimension_guard(self):
        with pytest.raises(ValueError):
            verify_displacement_law(0.5, 0.5, 10)

    @given(
        a=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_law_holds_generically(self, a, b):
        assert verify_displacement_law(a, b, 48) <= 1e-7

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycluster.lattice import (
    LatticeConfig,
    enumerate_modes,
    min_abs_frequency,
    mode_frequency,
    mode_grid,
)

dims = st.integers(min_value=1, max_value=12)
couplings = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
detunings = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestLatticeConfig:
    def test_valid(self):
        cfg = LatticeConfig(M=3, N=4, J=0.1, delta=1.0)
        assert cfg.n_sites == 12

    @pytest.mark.parametrize("m,n", [(0, 2), (2, 0), (-1, 3)])
    def test_bad_dims(self, m, n):
        with pytest.raises(ValueError):
            LatticeConfig(M=m, N=n, J=0.1)

    def test_non_integer_dims(self):
        with pytest.raises(ValueError):
            LatticeConfig(M=2.5, N=2, J=0.1)

    def test_negative_tunneling(self):
        with pytest.raises(ValueError):
            LatticeConfig(M=2, N=2, J=-0.1)

    def test_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            LatticeConfig(M=2, N=2, J=0.1, g=0.0)


class TestModeFrequency:
    def test_formula(self):
        cfg = LatticeConfig(M=4, N=6, J=0.3, delta=1.5)
        assert mode_frequency(cfg, 1, 2) == pytest.approx(
            1.5 + 0.6 * (math.cos(2 * math.pi / 4) + math.cos(4 * math.pi / 6))
        )

    def test_out_of_range(self):
        cfg = LatticeConfig(M=2, N=2, J=0.1)
        with pytest.raises(ValueError):
            mode_frequency(cfg, 2, 0)

    def test_zero_mode_2x2(self):
        # l=1,k=0 gives cos(pi) + cos(0) = 0
        cfg = LatticeConfig(M=2, N=2, J=0.1, delta=0.0)
        assert min_abs_frequency(cfg) == pytest.approx(0.0, abs=1e-15)

    def test_odd_lattice_gapped(self):
        cfg = LatticeConfig(M=19, N=19, J=0.1, delta=0.0)
        assert min_abs_frequency(cfg) > 0.0

    def test_decoupled_cavities(self):
        cfg = LatticeConfig(M=3, N=3, J=0.0, delta=3.0)
        assert min_abs_frequency(cfg) == pytest.approx(3.0)


class TestEnumerateModes:
    def test_count_and_order(self):
        cfg = LatticeConfig(M=3, N=2, J=0.2, delta=0.5)
        modes = enumerate_modes(cfg)
        assert len(modes) == 6
        assert [(m.l, m.k) for m in modes] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        ]
        for m in modes:
            assert m.omega == pytest.approx(mode_frequency(cfg, m.l, m.k))

    @given(M=dims, N=dims, J=couplings, delta=detunings)
    def test_spectrum_reflection_symmetry(self, M, N, J, delta):
        cfg = LatticeConfig(M=M, N=N, J=J, delta=delta)
        freq = {(m.l, m.k): m.omega for m in enumerate_modes(cfg)}
        for (l, k), w in freq.items():
            assert freq[((M - l) % M, (N - k) % N)] == pytest.approx(w, abs=1e-12)

    @given(M=st.integers(2, 12), N=st.integers(2, 12), J=couplings, delta=detunings)
    def test_trace_identity(self, M, N, J, delta):
        # sum over modes of (omega - delta) vanishes: sum of cos(2 pi l / M) = 0
        cfg = LatticeConfig(M=M, N=N, J=J, delta=delta)
        total = math.fsum(m.omega - delta for m in enumerate_modes(cfg))
        assert abs(total) < 1e-10 * max(1.0, J * M * N)

    @given(M=dims, N=dims, J=st.floats(min_value=0.01, max_value=5.0))
    def test_even_dimension_zero_mode(self, M, N, J):
        cfg = LatticeConfig(M=M, N=N, J=J, delta=0.0)
        if M % 2 == 0 or N % 2 == 0:
            assert min_abs_frequency(cfg) < 1e-12


class TestModeGrid:
    @pytest.mark.parametrize("M,N", [(19, 19), (4, 6), (1, 5), (5, 1)])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_modes_read_the_grid_bitwise(self, M, N, delta):
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        L, K, omega = mode_grid(cfg)
        modes = enumerate_modes(cfg)
        assert np.array([m.omega for m in modes]).tobytes() == omega.tobytes()
        assert np.array([m.L for m in modes]).tobytes() == L.tobytes()
        assert np.array([m.K for m in modes]).tobytes() == K.tobytes()
        freqs = [mode_frequency(cfg, m.l, m.k) for m in modes]
        assert np.array(freqs).tobytes() == omega.tobytes()
        assert min_abs_frequency(cfg) == np.min(np.abs(omega))
        for m in modes:
            assert (m.L, m.K) == (2 * math.pi * m.l / M, 2 * math.pi * m.k / N)
            assert m.omega == pytest.approx(
                delta + 0.2 * (math.cos(m.L) + math.cos(m.K)), abs=1e-15
            )

    def test_cached_grid_is_read_only(self):
        # every caller shares the cached arrays
        omega = mode_grid(LatticeConfig(M=3, N=3, J=0.1))[2]
        with pytest.raises(ValueError):
            omega[0] = 1.0

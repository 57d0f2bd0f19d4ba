import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavitycluster.lattice import MAX_FREQUENCY_OVER_G, LatticeConfig, mode_angles, mode_grid

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

    @pytest.mark.parametrize("m,n", [(True, 2), (2, True), (np.bool_(True), 2)])
    def test_boolean_dims(self, m, n):
        with pytest.raises(ValueError, match="lattice dimensions must be integers"):
            LatticeConfig(M=m, N=n, J=0.1)

    def test_numpy_integer_dims_stored_as_int(self):
        cfg = LatticeConfig(M=np.int64(2), N=np.uint8(3), J=0.1)
        assert type(cfg.M) is int and type(cfg.N) is int
        assert repr(cfg) == repr(LatticeConfig(M=2, N=3, J=0.1))

    def test_negative_tunneling(self):
        with pytest.raises(ValueError):
            LatticeConfig(M=2, N=2, J=-0.1)

    @pytest.mark.parametrize("field", ["J", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates(self, field, value):
        # NaN passes J < 0, and max() then drops it from the gate-time search
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value!r}$"):
            LatticeConfig(M=2, N=2, **{"J": 0.1, field: value})

    def test_no_coupling_field(self):
        # frequencies are in units of g, so the config has no g to set
        with pytest.raises(TypeError):
            LatticeConfig(M=2, N=2, J=0.1, g=1.0)

    @pytest.mark.parametrize("name,sign", [("J", 1.0), ("delta", 1.0), ("delta", -1.0)])
    def test_frequency_bound(self, name, sign):
        # at the bound every mode frequency is at most 5e150
        edge = sign * MAX_FREQUENCY_OVER_G
        assert getattr(LatticeConfig(M=2, N=2, **{"J": 0.0, name: edge}), name) == edge
        past = {"J": 0.0, name: math.nextafter(edge, sign * math.inf)}
        with pytest.raises(ValueError, match=rf"\|{name}\| must be at most 1e\+150 g"):
            LatticeConfig(M=2, N=2, **past)


def frequencies(cfg):
    """The mode frequencies as an M x N array indexed by (l, k)."""
    return mode_grid(cfg).reshape(cfg.M, cfg.N)


class TestModeFrequency:
    def test_formula(self):
        cfg = LatticeConfig(M=4, N=6, J=0.3, delta=1.5)
        assert frequencies(cfg)[1, 2] == pytest.approx(
            1.5 + 0.6 * (math.cos(2 * math.pi / 4) + math.cos(4 * math.pi / 6))
        )

    def test_zero_mode_2x2(self):
        # l=1,k=0 gives cos(pi) + cos(0) = 0
        cfg = LatticeConfig(M=2, N=2, J=0.1, delta=0.0)
        assert np.min(np.abs(frequencies(cfg))) == pytest.approx(0.0, abs=1e-15)

    def test_odd_lattice_gapped(self):
        cfg = LatticeConfig(M=19, N=19, J=0.1, delta=0.0)
        assert np.min(np.abs(frequencies(cfg))) > 0.0

    def test_decoupled_cavities(self):
        cfg = LatticeConfig(M=3, N=3, J=0.0, delta=3.0)
        assert np.min(np.abs(frequencies(cfg))) == pytest.approx(3.0)


class TestModeGrid:
    def test_count_and_order(self):
        # flat in row-major (l, k) order: (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)
        cfg = LatticeConfig(M=3, N=2, J=0.2, delta=0.5)
        omega = mode_grid(cfg)
        L, K = np.repeat(mode_angles(3), 2), np.tile(mode_angles(2), 3)
        assert omega.shape == (6,)
        assert np.allclose(omega, 0.5 + 0.4 * (np.cos(L) + np.cos(K)))

    @given(M=dims, N=dims, J=couplings, delta=detunings)
    def test_spectrum_reflection_symmetry(self, M, N, J, delta):
        w = frequencies(LatticeConfig(M=M, N=N, J=J, delta=delta))
        reflected = w[np.ix_(-np.arange(M) % M, -np.arange(N) % N)]
        assert np.allclose(reflected, w, rtol=0.0, atol=1e-12)

    @given(M=st.integers(2, 12), N=st.integers(2, 12), J=couplings, delta=detunings)
    def test_trace_identity(self, M, N, J, delta):
        # sum over modes of (omega - delta) vanishes: sum of cos(2 pi l / M) = 0
        cfg = LatticeConfig(M=M, N=N, J=J, delta=delta)
        total = math.fsum(mode_grid(cfg) - delta)
        assert abs(total) < 1e-10 * max(1.0, J * M * N)

    @given(M=dims, N=dims, J=st.floats(min_value=0.01, max_value=5.0))
    def test_even_dimension_zero_mode(self, M, N, J):
        cfg = LatticeConfig(M=M, N=N, J=J, delta=0.0)
        if M % 2 == 0 or N % 2 == 0:
            assert np.min(np.abs(frequencies(cfg))) < 1e-12

    @pytest.mark.parametrize("M,N", [(19, 19), (4, 6), (1, 5), (5, 1)])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_grid_holds_the_mode_angles(self, M, N, delta):
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        L, K = mode_angles(M).tolist(), mode_angles(N).tolist()
        assert (L, K) == ([2 * math.pi * l / M for l in range(M)], [2 * math.pi * k / N for k in range(N)])
        for i, w in enumerate(mode_grid(cfg).tolist()):
            a, b = L[i // N], K[i % N]
            assert w == pytest.approx(delta + 0.2 * (math.cos(a) + math.cos(b)), abs=1e-15)

    def test_each_call_builds_its_own_grid(self):
        # no caller shares the arrays, so writing to one leaves the next intact
        cfg = LatticeConfig(M=3, N=3, J=0.1)
        mode_grid(cfg)[0] = 1.0
        assert mode_grid(cfg)[0] == pytest.approx(0.4)

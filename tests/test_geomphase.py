import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavitycluster import geomphase
from cavitycluster.lattice import MAX_FREQUENCY_OVER_G, LatticeConfig, mode_grid
from cavitycluster.geomphase import (
    MAX_G_TAU,
    GateTimeNotFoundError,
    HardwarePreset,
    PRESETS,
    _gamma_bracket,
    _modes,
    build_phase_table,
    feasibility_report,
    gamma_mode,
    nn_separation,
    pairwise_phase,
    solve_gate_time,
    sweep_delta,
    sweep_tau,
)

REF = LatticeConfig(M=19, N=19, J=0.1, delta=0.0)
# smallest interaction time with Gamma_nn = pi/4 on the 19x19 reference
# lattice; derived once by scan + bisection and pinned
GATE_TIME_PIN = 2.2933987105637783


def omega_at(cfg, l, k):
    """Frequency of mode (l, k)."""
    return mode_grid(cfg)[2][l * cfg.N + k]


def two_branch_bracket(w, tau):
    """(1/w) [tau - sin(w tau)/w]: the series and the direct form on every entry, one picked."""
    w = np.asarray(w, dtype=float)
    x = w * tau
    small = np.abs(x) < 0.05
    x2 = x * x
    series = w * tau**3 * (1.0 / 6.0 - x2 / 120.0 + x2 * x2 / 5040.0 - x2 * x2 * x2 / 362880.0)
    w_safe = np.where(small, 1.0, w)
    direct = (tau - np.sin(x) / w_safe) / w_safe
    return np.where(small, series, direct)


@lru_cache(maxsize=16)
def full_grid_terms(cfg, dm, dn):
    """Every mode's frequency and weight 4 cos(L dm + K dn), read-only."""
    L, K, W = mode_grid(cfg)
    weights = 4.0 * np.cos(L * dm + K * dn)
    W.flags.writeable = weights.flags.writeable = False
    return W, weights


def full_grid_phase(cfg, tau, dm, dn):
    """Gamma(dm, dn) as one float64 dot over all M*N modes with 4 cos(L dm + K dn).

    Shares neither the quarter-zone fold nor the one-branch bracket with
    pairwise_phase.
    """
    W, weights = full_grid_terms(cfg, dm, dn)
    gam = cfg.g**2 / cfg.n_sites * two_branch_bracket(W, tau)
    return float(gam @ weights)


def naive_gate_time(
    cfg, target=math.pi / 4, window=20.0, grid_step=0.01, phase=full_grid_phase
):
    """Reference solve: one ``phase`` sum (by default over the full grid) per grid point.

    Walks the g*tau grid point by point to the first point with
    Gamma_nn >= target (returned if it is a zero), then bisects as
    solve_gate_time does; with no root it raises with the largest
    |Gamma_nn| over the whole window.
    """
    sep = (1, 0) if cfg.M > 1 else (0, 1)

    def f(tau):
        return phase(cfg, tau, *sep) - target

    taus = (np.arange(grid_step, window + grid_step / 2, grid_step) / cfg.g).tolist()
    vals = []
    for i, tau in enumerate(taus):
        vals.append(f(tau))
        if vals[i] == 0.0:
            return tau
        if vals[i] > 0.0:
            lo, hi = taus[i - 1] if i else 0.0, tau
            break
    else:
        raise GateTimeNotFoundError(target, max(abs(v + target) for v in vals))
    while (hi - lo) > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def walk_bound(cfg):
    """c in |d Gamma_nn / d tau| <= c tau^2: (g^2 / 2MN) sum |w omega| over the quarter zone."""
    omega, (weights,) = _modes(cfg, nn_separation(cfg))
    return cfg.g**2 / (2 * cfg.n_sites) * float(np.sum(np.abs(weights * omega)))


def count_gamma_calls(monkeypatch):
    """Counts gamma_mode calls, one per Gamma_nn evaluation of the solve."""
    calls = []
    inner = geomphase.gamma_mode

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(geomphase, "gamma_mode", counted)
    return calls


class TestGammaMode:
    def test_zero_frequency_limit(self):
        cfg = LatticeConfig(M=2, N=2, J=0.1, delta=0.0)
        w = omega_at(cfg, 1, 0)
        assert gamma_mode(cfg, w, 3.0) == pytest.approx(0.0, abs=1e-14)

    def test_full_period_sine_vanishes(self):
        cfg = LatticeConfig(M=1, N=1, J=0.25, delta=1.0)  # omega = 2
        w = omega_at(cfg, 0, 0)
        tau = 2 * math.pi / w  # omega tau = 2 pi
        expected = cfg.g**2 * tau / (cfg.n_sites * w)
        assert gamma_mode(cfg, w, tau) == pytest.approx(expected, rel=1e-12)

    def test_reference_mode_pin(self):
        assert gamma_mode(REF, omega_at(REF, 1, 0), 3.0) == pytest.approx(
            0.0045309881369641385, rel=1e-12
        )

    def test_odd_in_omega(self):
        for w in (0.3, 1.7, 0.04, 0.004):
            cp = LatticeConfig(M=1, N=1, J=0.0, delta=w)
            cm = LatticeConfig(M=1, N=1, J=0.0, delta=-w)
            gp = gamma_mode(cp, omega_at(cp, 0, 0), 3.0)
            gm = gamma_mode(cm, omega_at(cm, 0, 0), 3.0)
            assert gp == pytest.approx(-gm, rel=1e-12)

    def test_series_matches_direct_at_crossover(self):
        # the small-argument series and direct evaluation must agree on
        # both sides of the switchover threshold; the direct formula is
        # still good to ~1e-10 relative at omega*tau = 0.05
        tau = 3.0
        for w in (0.049 / tau, 0.051 / tau):
            cfg = LatticeConfig(M=1, N=1, J=0.0, delta=w)
            got = gamma_mode(cfg, omega_at(cfg, 0, 0), tau)
            direct = cfg.g**2 / w * (tau - math.sin(w * tau) / w)
            assert got == pytest.approx(direct, rel=1e-9)

    def test_array_of_modes(self):
        # one call over the mode grid gives each mode's own phase
        omega = mode_grid(REF)[2]
        table = gamma_mode(REF, omega, 3.0)
        assert table.shape == omega.shape
        each = [gamma_mode(REF, w, 3.0) for w in omega[:40]]
        assert np.allclose(table[:40], each, rtol=1e-14, atol=0.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            gamma_mode(REF, mode_grid(REF)[2], -1.0)

    @pytest.mark.parametrize("tau", [math.nextafter(MAX_G_TAU, math.inf), 1e120, 1e300])
    def test_g_tau_past_bound_rejected(self, tau):
        # tau**3 of the series branch raised a bare OverflowError from 5.7e102 on
        with pytest.raises(ValueError, match=r"g\*tau = .* is past the bound 100"):
            gamma_mode(REF, mode_grid(REF)[2], tau)

    def test_largest_g_tau_at_smallest_g(self):
        # tau**3 = 1e306 here, and the 2x2 modes (1, 0) and (0, 1), at omega = 0,
        # take the series branch that computes it
        g = 1e-100
        cfg = LatticeConfig(M=2, N=2, J=0.1 * g, g=g)
        tau = MAX_G_TAU / g
        assert g * tau == MAX_G_TAU and 0.0 in mode_grid(cfg)[2]
        edge = MAX_FREQUENCY_OVER_G * g
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gam = gamma_mode(cfg, mode_grid(cfg)[2], tau)
            rows = sweep_tau(cfg, [tau], [(1, 0), (1, 1)]) + sweep_delta(cfg, tau, [-edge, edge])
        # the same dimensionless lattice at g = 1
        unit = LatticeConfig(M=2, N=2, J=0.1)
        assert gam == pytest.approx(gamma_mode(unit, mode_grid(unit)[2], MAX_G_TAU), rel=1e-12)
        assert rows[0][1] == pytest.approx(sweep_tau(unit, [MAX_G_TAU], [(1, 0), (1, 1)])[0][1])
        assert all(math.isfinite(gamma) for _, gamma in rows[1:])

    @pytest.mark.parametrize("tau", [0.0, 1.0, 3.0, GATE_TIME_PIN])
    def test_one_branch_bracket_bitwise(self, tau):
        # each entry takes only its own branch, and keeps the bits of the
        # two-branch form: zero and signed-zero frequencies, |omega tau| just
        # below, at and just above the switchover, negative omega
        edge = 0.05 / tau if tau else 0.05
        near = [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
        mixed = np.array([0.0, -0.0, 1e-300, 0.3, -1.7, *near, *(-v for v in near), 0.05, -0.05])
        small = np.array([0.0, -0.0, 1e-3, -2e-3, 1e-300])
        large = np.array([0.3, -0.4, 1.7, -25.0, 1e3])
        for w in (mixed, small, large, mode_grid(REF)[2], small[:0]):
            got, want = _gamma_bracket(w, tau), two_branch_bracket(w, tau)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if tau:
            # the arrays hold entries of both branches, of one only, and of none
            assert 0 < np.sum(np.abs(mixed * tau) < 0.05) < mixed.size
            assert np.all(np.abs(small * tau) < 0.05)
            assert not np.any(np.abs(large * tau) < 0.05)


class TestPairwisePhase:
    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            pairwise_phase(REF, 3.0, 0, 0)

    def test_periodic_alias_rejected(self):
        with pytest.raises(ValueError):
            pairwise_phase(REF, 3.0, 19, 0)

    def test_degenerate_modes_collapse(self):
        # with J=0 all modes share one frequency and the cosine sum
        # vanishes for any nonzero separation
        cfg = LatticeConfig(M=19, N=19, J=0.0, delta=5.0)
        assert abs(pairwise_phase(cfg, 3.0, 1, 0)) < 1e-14

    def test_detuning_suppression(self):
        g0 = pairwise_phase(REF, 3.0, 1, 0)
        g20 = pairwise_phase(replace(REF, delta=20.0), 3.0, 1, 0)
        assert abs(g20) <= 0.02 * abs(g0)

    def test_even_parity_separations_vanish_at_zero_detuning(self):
        # at delta=0 the summand is odd under omega -> -omega while the
        # cosine factor is even for dm+dn even, so those pairs cancel exactly
        for dm, dn in [(1, 1), (2, 0), (0, 2), (3, 1), (2, 2)]:
            assert abs(pairwise_phase(REF, 3.0, dm, dn)) < 1e-12

    def test_nn_dominates_even_parity_neighbors(self):
        nn = abs(pairwise_phase(REF, 3.0, 1, 0))
        for dm, dn in [(1, 1), (2, 0)]:
            assert nn >= 100 * abs(pairwise_phase(REF, 3.0, dm, dn))

    def test_reference_pin(self):
        assert pairwise_phase(REF, 3.0, 1, 0) == pytest.approx(
            1.7288094158124032, rel=1e-12
        )

    @pytest.mark.parametrize("size", [19, 61])
    @pytest.mark.parametrize("sep", [(1, 0), (2, 1), (3, 0)])
    @pytest.mark.parametrize("tau", [0.5, GATE_TIME_PIN, 3.0])
    def test_matches_exact_mode_sum(self, size, sep, tau):
        # the float64 dot against the correctly rounded sum of the same terms
        cfg = LatticeConfig(M=size, N=size, J=0.1)
        L, K, W = mode_grid(cfg)
        terms = 4.0 * gamma_mode(cfg, W, tau) * np.cos(L * sep[0] + K * sep[1])
        assert abs(pairwise_phase(cfg, tau, *sep) - math.fsum(terms)) <= 1e-15

    @pytest.mark.parametrize(
        "M,N", [(5, 7), (4, 6), (6, 5), (1, 6), (1, 5), (6, 1), (7, 1), (2, 2), (19, 19),
                (61, 61), (100, 101)]
    )
    @pytest.mark.parametrize("delta", [0.0, 0.7, -3.3])
    def test_quarter_zone_frequencies_bitwise(self, M, N, delta):
        # _modes builds only the quarter zone; its omega is the corner
        # l <= M/2, k <= N/2 of the full grid's, bit for bit
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        omega, _ = _modes(cfg, nn_separation(cfg))
        corner = mode_grid(cfg)[2].reshape(M, N)[: M // 2 + 1, : N // 2 + 1]
        assert omega.tobytes() == corner.tobytes()

    @pytest.mark.parametrize(
        "M,N", [(5, 7), (4, 6), (1, 6), (1, 5), (6, 1), (7, 1), (2, 2), (19, 19)]
    )
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_quarter_zone_fold_matches_full_grid(self, M, N, delta):
        # the folded quarter-zone sum against the unfolded full-grid one, over
        # negative separations, separations of a lattice length or more and
        # the zone corner (M/2, N/2)
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        seps = [(1, 0), (0, 1), (-1, 2), (2, -3), (-M, 1), (M + 1, 0), (0, N + 2),
                (3 * M - 1, -2 * N - 1), (M // 2, N // 2), (-(M // 2), N // 2 + 1)]
        seps = [(dm, dn) for dm, dn in seps if dm % M or dn % N]
        for tau in (0.5, GATE_TIME_PIN, 3.0):
            for dm, dn in seps:
                want = full_grid_phase(cfg, tau, dm, dn)
                assert abs(pairwise_phase(cfg, tau, dm, dn) - want) < 1e-14, (tau, dm, dn)

    @pytest.mark.parametrize("delta", [0.0, 20.0])
    def test_matches_realspace_sum(self, delta, realspace_gamma):
        # the Fourier mode sum against the real-space integral
        # 4 g^2 int_0^tau (tau - u) Im[exp(i h u)]_ab du; (2,1) and (3,0)
        # carry the odd-parity coupling that survives beyond nearest neighbour
        cfg = replace(REF, delta=delta)
        table = build_phase_table(cfg, 3.0)
        for dm, dn in [(1, 0), (2, 1), (3, 0), (2, 0), (1, 1)]:
            expected = realspace_gamma(cfg, 3.0, dm, dn)
            assert abs(pairwise_phase(cfg, 3.0, dm, dn) - expected) < 1e-12
            assert abs(table.gamma(dm, dn) - expected) < 1e-12


class TestPhaseTable:
    def test_symmetries(self):
        table = build_phase_table(REF, 3.0)
        for dm in range(REF.M):
            for dn in range(REF.N):
                if dm or dn:
                    v = table.grid[dm, dn]
                    assert table.gamma(-dm, -dn) == pytest.approx(v, abs=1e-12)
                    assert table.gamma(dn, dm) == pytest.approx(v, abs=1e-12)  # M == N

    def test_canonical_reduction(self):
        # a separation reads the table cell it is congruent to
        table = build_phase_table(REF, 3.0)
        assert table.gamma(18, 0) == table.gamma(-1, 0) == table.gamma(1, 0)
        assert table.gamma(-10, 21) == table.gamma(9, 2) == table.grid[9, 2]

    def test_maximum_at_nearest_neighbor(self):
        table = build_phase_table(REF, 3.0)
        beyond = np.abs(table.grid)
        beyond[0, 0] = 0.0  # the self term is not a pair
        peak = np.unravel_index(np.argmax(beyond), beyond.shape)
        assert peak in [(1, 0), (18, 0), (0, 1), (0, 18)]

    def test_zero_separation_rejected(self):
        table = build_phase_table(REF, 3.0)
        with pytest.raises(ValueError):
            table.gamma(0, 0)

    @pytest.mark.parametrize("M,N", [(19, 19), (4, 6), (5, 4), (1, 5), (6, 1)])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_fft_matches_pairwise_sums(self, M, N, delta):
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=delta)
        table = build_phase_table(cfg, 3.0)
        assert table.grid.shape == (M, N) and not table.grid.flags.writeable
        beyond = 0.0
        for dm in range(M):
            for dn in range(N):
                if dm or dn:
                    v = table.grid[dm, dn]
                    assert abs(v - pairwise_phase(cfg, 3.0, dm, dn)) < 1e-12
                    if min(dm, M - dm) + min(dn, N - dn) >= 2:
                        beyond = max(beyond, abs(v))
        assert table.max_beyond_nearest_neighbor() == beyond

    @pytest.mark.parametrize("M,N", [(1, 2), (1, 3), (2, 1), (3, 1)])
    def test_no_separation_beyond_nn(self, M, N):
        # every separation is a nearest neighbour, so nothing beyond it couples
        table = build_phase_table(LatticeConfig(M=M, N=N, J=0.1), 3.0)
        assert table.max_beyond_nearest_neighbor() == 0.0

    def test_size_independence(self):
        big = LatticeConfig(M=29, N=29, J=0.1, delta=0.0)
        tau = solve_gate_time(REF)
        g19 = pairwise_phase(REF, tau, 1, 0)
        g29 = pairwise_phase(big, tau, 1, 0)
        assert abs(g29 - g19) / abs(g19) < 0.01


class TestSolveGateTime:
    def test_reference_pin(self):
        tau = solve_gate_time(REF)
        assert 0 < tau <= 10
        assert tau == pytest.approx(GATE_TIME_PIN, abs=1e-8)
        assert pairwise_phase(REF, tau, 1, 0) == pytest.approx(math.pi / 4, abs=1e-9)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError):
            solve_gate_time(REF, target=0.0)

    def test_large_detuning_not_found(self):
        cfg = replace(REF, delta=50.0)
        with pytest.raises(GateTimeNotFoundError, match=r"no g\*tau in \(0, 20\]") as exc:
            solve_gate_time(cfg)
        assert exc.value.achieved_max < math.pi / 4

    @pytest.mark.parametrize(
        "cfg",
        [
            REF,
            LatticeConfig(M=61, N=61, J=0.1),
            LatticeConfig(M=1, N=7, J=0.1),
            replace(REF, delta=0.7),
            replace(REF, J=0.003),
            LatticeConfig(M=4, N=5, J=0.1),
            LatticeConfig(M=4, N=4, J=0.1),
            LatticeConfig(M=3, N=2, J=0.1),
            LatticeConfig(M=2, N=2, J=0.1),
            LatticeConfig(M=1, N=5, J=0.1),
            LatticeConfig(M=6, N=1, J=0.1),
        ],
        ids=["ref19", "61x61", "1x7", "delta0.7", "J0.003", "4x5", "4x4", "3x2", "2x2", "1x5",
             "6x1"],
    )
    def test_matches_per_point_scan_bitwise(self, cfg):
        assert solve_gate_time(cfg) == naive_gate_time(cfg)

    def test_root_below_first_grid_point(self):
        # Gamma_nn = 2 J tau^3 / 3 reaches 1e-8 near tau = 0.005, inside the
        # walk's first step from tau = 0
        tau = solve_gate_time(REF, target=1e-8)
        assert 0 < tau < 0.01
        assert pairwise_phase(REF, tau, 1, 0) == pytest.approx(1e-8, rel=1e-12)

    @pytest.mark.parametrize(
        "cfg", [replace(REF, delta=50.0), LatticeConfig(M=1, N=7, J=0.1, delta=50.0)]
    )
    def test_not_found_achieved_matches_per_point_scan(self, cfg):
        with pytest.raises(GateTimeNotFoundError) as got:
            solve_gate_time(cfg)
        with pytest.raises(GateTimeNotFoundError) as want:
            naive_gate_time(cfg)
        assert abs(got.value.achieved_max - want.value.achieved_max) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda s: s != (1, 1)),
        j=st.floats(0.0, 3.0),
        delta=st.floats(-5.0, 5.0),
        g=st.sampled_from([0.5, 1.0, 2.5]),
    )
    # Gamma_nn oscillates below zero before its root at g tau = 17.46; it
    # swings to -7.2 and -1.3 without ever reaching pi/4; it rises steeply
    @example(shape=(4, 5), j=3.0, delta=-3.0, g=1.0)
    @example(shape=(4, 5), j=3.0, delta=5.0, g=1.0)
    @example(shape=(1, 7), j=0.3, delta=-5.0, g=2.5)
    @example(shape=(6, 6), j=2.0, delta=0.0, g=0.5)
    def test_skipping_walk_matches_per_point_walk(self, shape, j, delta, g):
        # bitwise against a point-by-point walk of the same Gamma_nn; the
        # full-grid walk sums the modes in another order, and in about one
        # lattice of 400 a bisection midpoint where the folded Gamma_nn is
        # exactly pi/4 and its own is not sends it a few 1e-13 away
        cfg = LatticeConfig(M=shape[0], N=shape[1], J=j * g, delta=delta * g, g=g)
        # pairwise_phase's sum, with the modes built once instead of per point
        omega, (w,) = _modes(cfg, nn_separation(cfg))

        def same_sum(c, tau, dm, dn):
            return float(gamma_mode(c, omega, tau) @ w)

        outcomes = []
        for solve in (solve_gate_time, lambda c: naive_gate_time(c, phase=same_sum),
                      naive_gate_time):
            try:
                outcomes.append(solve(cfg))
            except GateTimeNotFoundError as exc:
                outcomes.append(exc)
        got, same_sum, full_grid = outcomes
        if isinstance(got, float):
            assert got == same_sum
            assert abs(got - full_grid) <= 1e-12 * got
        else:
            assert str(got) == str(same_sum)
            assert got.achieved_max == same_sum.achieved_max
            assert abs(got.achieved_max - full_grid.achieved_max) < 1e-12

    @pytest.mark.parametrize(
        "cfg,root", [(REF, 0.028), (LatticeConfig(M=4, N=5, J=0.1), 0.026)], ids=["ref19", "4x5"]
    )
    def test_jump_onto_the_root_step(self, cfg, root):
        # the first jump from tau = 0 passes 0.01 and 0.02 and lands on 0.03,
        # past the root, so the bisection starts from 0.02, not the walked 0
        target = pairwise_phase(cfg, root, 1, 0)
        tau = solve_gate_time(cfg, target)
        assert 0.02 < tau < 0.03
        assert tau == naive_gate_time(cfg, target=target, phase=pairwise_phase)

    @pytest.mark.parametrize(
        "cfg", [REF, LatticeConfig(M=61, N=61, J=0.1), LatticeConfig(M=4, N=5, J=0.1)],
        ids=["ref19", "61x61", "4x5"],
    )
    def test_walk_skips_most_grid_points(self, cfg, monkeypatch):
        # the point-by-point walk took about 230 points and 36 bisection steps
        calls = count_gamma_calls(monkeypatch)
        solve_gate_time(cfg)
        assert len(calls) <= 60

    @pytest.mark.parametrize(
        "cfg",
        [
            REF,
            LatticeConfig(M=4, N=5, J=3.0, delta=5.0),
            LatticeConfig(M=1, N=7, J=0.75, delta=-12.5, g=2.5),
            LatticeConfig(M=2, N=2, J=0.1),
            LatticeConfig(M=6, N=1, J=1.0, delta=0.3),
        ],
        ids=["ref19", "4x5-oscillating", "1x7-g2.5", "2x2", "6x1"],
    )
    def test_derivative_bound(self, cfg):
        # |Gamma_nn(t) - Gamma_nn(s)| <= c (t^3 - s^3) / 3, the bound that
        # the walk's skips rest on
        c = walk_bound(cfg)
        rng = np.random.default_rng(7)
        s, t = np.sort(rng.uniform(0.0, 20.0 / cfg.g, size=(2, 200)), axis=0)
        sep = nn_separation(cfg)
        for a, b in zip(s.tolist(), t.tolist()):
            rise = pairwise_phase(cfg, b, *sep) - pairwise_phase(cfg, a, *sep)
            assert abs(rise) <= c * (b**3 - a**3) / 3 + 1e-13

    def test_constant_phase_not_found(self, monkeypatch):
        # J = 0 and delta = 0: every mode sits at omega = 0, so c = 0 and
        # Gamma_nn stays 0; the error still reads every grid point
        cfg = LatticeConfig(M=3, N=4, J=0.0)
        assert walk_bound(cfg) == 0.0
        calls = count_gamma_calls(monkeypatch)
        with pytest.raises(GateTimeNotFoundError) as exc:
            solve_gate_time(cfg)
        assert exc.value.achieved_max == 0.0
        assert len(calls) == 2000

    def test_scan_memory_bounded(self):
        # the walk evaluates one tau at a time: no window-sized matrix
        # (2000 x 10201 doubles = 163 MB here), root found or not
        big = LatticeConfig(M=101, N=101, J=0.1)
        for cfg in (big, replace(big, delta=50.0)):
            tracemalloc.start()
            try:
                try:
                    solve_gate_time(cfg)
                except GateTimeNotFoundError:
                    assert cfg.delta == 50.0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8_000_000


class TestSweeps:
    def test_delta_sweep_consistency(self):
        rows = sweep_delta(REF, 3.0, [0.0, 20.0])
        assert rows[0][1] == pytest.approx(pairwise_phase(REF, 3.0, 1, 0))
        assert abs(rows[1][1]) <= 0.02 * abs(rows[0][1])

    def test_delta_sweep_rows_bitwise(self):
        # -4J puts mode (0, 0) exactly at zero frequency
        deltas = [0.0, 0.7, -4 * REF.J, -3.3, 20.0]
        assert mode_grid(replace(REF, delta=-4 * REF.J))[2][0] == 0.0
        rows = sweep_delta(REF, 3.0, deltas)
        assert rows == [(d, pairwise_phase(replace(REF, delta=d), 3.0, 1, 0)) for d in deltas]

    def test_tau_sweep_rows_bitwise(self):
        taus = [0.0, 0.5, GATE_TIME_PIN, 7.0]
        seps = [(1, 0), (2, 1), (0, -3), (1, 1)]
        rows = sweep_tau(REF, taus, seps)
        assert rows == [(t, {s: pairwise_phase(REF, t, *s) for s in seps}) for t in taus]

    def test_delta_grid_past_bound_rejected(self):
        edge = MAX_FREQUENCY_OVER_G * REF.g
        assert len(sweep_delta(REF, 3.0, [-edge, edge])) == 2
        with pytest.raises(ValueError, match=r"past \|delta\|/g = 1e\+150"):
            sweep_delta(REF, 3.0, [0.0, -math.nextafter(edge, math.inf)])

    def test_delta_sweep_single_point(self):
        assert len(sweep_delta(REF, 3.0, [1.0])) == 1

    def test_delta_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_delta(REF, 3.0, [])

    def test_tau_sweep_zero_row(self):
        rows = sweep_tau(REF, [0.0, 0.5], [(1, 0), (1, 1)])
        assert all(v == 0.0 for v in rows[0][1].values())

    def test_tau_sweep_nn_grows_from_zero(self):
        taus = [0.1 * k for k in range(1, 11)]
        rows = sweep_tau(REF, taus, [(1, 0)])
        vals = [abs(r[1][(1, 0)]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("M,N,sep", [(3, 3, (3, 0)), (3, 3, (-3, 6)), (1, 5, (1, 0))])
    def test_tau_sweep_rejects_zero_separation(self, M, N, sep):
        # a separation that is zero on the lattice would read the self term
        cfg = LatticeConfig(M=M, N=N, J=0.1)
        with pytest.raises(ValueError, match=rf"separation \({sep[0]}, {sep[1]}\) is zero"):
            sweep_tau(cfg, [0.1], [(0, 1), sep])
        with pytest.raises(ValueError, match=rf"separation \({sep[0]}, {sep[1]}\) is zero"):
            pairwise_phase(cfg, 0.1, *sep)

    def test_delta_sweep_single_row(self):
        # on 1xN the nearest neighbour is (0, 1), as for the gate time
        cfg = LatticeConfig(M=1, N=5, J=0.1)
        rows = sweep_delta(cfg, 3.0, [0.0, 0.7])
        assert rows == [(d, pairwise_phase(replace(cfg, delta=d), 3.0, 0, 1)) for d in (0.0, 0.7)]
        assert nn_separation(cfg) == (0, 1) and nn_separation(REF) == (1, 0)

    def test_no_pair_on_1x1(self):
        cfg = LatticeConfig(M=1, N=1, J=0.1)
        for call in (lambda: sweep_delta(cfg, 3.0, [0.0]), lambda: solve_gate_time(cfg)):
            with pytest.raises(ValueError, match="1x1 lattice has no pairs"):
                call()

    def test_tau_sweep_empty_rejected(self):
        with pytest.raises(ValueError):
            sweep_tau(REF, [], [(1, 0)])
        with pytest.raises(ValueError):
            sweep_tau(REF, [1.0], [])


class TestFeasibility:
    @pytest.mark.parametrize(
        "values,message",
        [
            ((0.0, 1e-6, 1e-6), "coupling must be positive"),
            ((-1.0, 1e-6, 1e-6), "coupling must be positive"),
            ((1e8, 0.0, 1e-6), "coherence times must be positive"),
            ((1e8, 1e-6, -1e-6), "coherence times must be positive"),
        ],
    )
    def test_preset_refuses_non_positive(self, values, message):
        g_phys, T_cavity, T_qubit = values
        with pytest.raises(ValueError, match=message):
            HardwarePreset(name="x", g_phys=g_phys, T_cavity=T_cavity, T_qubit=T_qubit)

    def test_cpb(self):
        rep = feasibility_report(PRESETS["cpb"], REF, solve_gate_time(REF))
        assert 5e-9 <= rep.gate_time_seconds <= 5e-8  # order 0.01 us
        assert rep.ratio_cavity <= 1e-3
        assert rep.ratio_qubit < 0.05

    def test_qdot(self):
        rep = feasibility_report(PRESETS["qdot"], REF, solve_gate_time(REF))
        assert 1e-9 <= rep.gate_time_seconds <= 1e-8  # order 5 ns
        assert rep.gate_time_seconds < PRESETS["qdot"].T_cavity / 1e3

    def test_toroid(self):
        rep = feasibility_report(PRESETS["toroid"], REF, solve_gate_time(REF))
        # order 1e-8..1e-7 s; comfortably below the photon lifetime
        assert 1e-8 <= rep.gate_time_seconds <= 1e-7
        assert rep.ratio_cavity < 1e-2

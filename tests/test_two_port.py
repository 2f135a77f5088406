import math

import numpy as np
import pytest

from cvpbt.fock import Cutoff, chi, mean_photon_number, pure_density, coherent_ket, thermal_state, trace_norm
from cvpbt.two_port import (
    ChannelParams,
    Regime,
    apply_coherent,
    apply_number_element,
    apply_state,
    max_output_energy,
    omega,
    output_energy,
    regime,
)


def direct_omega(lx, ly, terms=10_000):
    m = np.arange(terms)
    chi_x = (1 - lx**2) * lx ** (2 * m)
    chi_y = (1 - ly**2) * ly ** (2 * m)
    return float(np.sum(chi_x / np.sqrt(1 - chi_y**2)))


class TestParams:
    def test_rejects_zero_measurement_squeezing(self):
        with pytest.raises(ValueError):
            ChannelParams(0.5, 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.5)

    @pytest.mark.parametrize("ports", [2.5, 3.0, True, "3", None])
    def test_rejects_non_integer_port_counts(self, ports):
        with pytest.raises(ValueError, match="ports must be an integer"):
            ChannelParams(0.3, 0.3, ports=ports)

    @pytest.mark.parametrize("ly", [1e-9, 2.0**-27, [0.5, 1e-12]])
    def test_rejects_lambda_y_whose_square_rounds_away(self, ly):
        # 1 - lambda_y^2 == 1 makes chi_{y,0} = 1 and the m = 0 term of omega 1/0
        with pytest.raises(ValueError, match=r"lambda_y must exceed 2\^-27"):
            ChannelParams.grid([0.5], ly) if isinstance(ly, list) else ChannelParams(0.5, ly)

    def test_smallest_lambda_y_admitted_has_a_finite_omega(self):
        ly = np.nextafter(2.0**-27, 1)
        assert 1 - ly**2 < 1
        value, tail = omega(ChannelParams(0.5, ly))
        assert math.isfinite(value) and math.isfinite(tail)

    def test_numpy_integer_port_counts_become_ints(self):
        params = ChannelParams(0.3, 0.3, ports=np.int64(3))
        assert type(params.ports) is int and params == ChannelParams(0.3, 0.3, ports=3)

    def test_scalars(self):
        p = ChannelParams(0.5, 0.5)
        assert p.tau == pytest.approx(0.0625)
        assert p.g == pytest.approx(0.5625)


class TestOmega:
    def test_zero_resource(self):
        p = ChannelParams(0.0, 0.5)
        val, tail = omega(p)
        assert tail == 0.0
        assert val == pytest.approx(1 / math.sqrt(1 - chi(0.5, 0) ** 2), abs=1e-15)

    def test_rejects_bad_tolerance(self):
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(ValueError, match="tolerance"):
                omega(ChannelParams(0.5, 0.5), tol)

    def test_strong_measurement_limit(self):
        val, _ = omega(ChannelParams(0.5, 0.999999))
        assert val == pytest.approx(1.0, abs=1e-4)

    def test_against_direct_summation(self):
        val, tail = omega(ChannelParams(0.5, 0.5))
        assert val == pytest.approx(direct_omega(0.5, 0.5), abs=1e-11)
        assert tail < 1e-11

    def test_tail_bound_is_honest(self):
        for lx, ly in [(0.3, 0.6), (0.8, 0.2), (0.6, 0.9)]:
            val, tail = omega(ChannelParams(lx, ly), tol=1e-6)
            assert abs(direct_omega(lx, ly) - val) <= tail + 1e-14


class TestRegime:
    def test_strong_measurement_always_positive(self):
        assert regime(ChannelParams(0.9, 0.95)) is Regime.POSITIVE

    def test_half_half_positive(self):
        # (1 - 0.25)^-2 - 1 = 7/9 >= (0.75)^2
        assert regime(ChannelParams(0.5, 0.5)) is Regime.POSITIVE

    def test_weak_measurement_negative(self):
        assert regime(ChannelParams(0.0, 0.2)) is Regime.NEGATIVE


class TestNumberElement:
    def test_offdiagonal_coefficient(self):
        p = ChannelParams(0.5, 0.4)
        out = apply_number_element(1, 3, p, Cutoff(10)).matrix
        om, _ = omega(p)
        expected = p.g * om * (0.5 * 0.4) ** 4
        assert out[1, 3] == pytest.approx(expected, abs=1e-14)
        out[1, 3] = 0
        assert np.abs(out).max() == 0

    def test_offdiagonal_symmetric_in_ab(self):
        p = ChannelParams(0.7, 0.3)
        hi = apply_number_element(5, 1, p, Cutoff(8)).matrix[5, 1]
        lo = apply_number_element(1, 5, p, Cutoff(8)).matrix[1, 5]
        assert hi == pytest.approx(lo.real, abs=1e-15)
        assert hi.imag == 0

    def test_diagonal_trace_one(self):
        p = ChannelParams(0.5, 0.5)
        for a in range(5):
            el = apply_number_element(a, a, p, Cutoff(30))
            assert abs(el.matrix.trace().real - 1) <= el.meta["tail_bound"] + 1e-10

    def test_zero_resource_sends_everything_to_vacuum(self):
        p = ChannelParams(0.0, 0.5)
        for a in (0, 2):
            out = apply_number_element(a, a, p, Cutoff(6)).matrix
            expected = np.zeros((6, 6), complex)
            expected[0, 0] = 1.0
            assert np.abs(out - expected).max() < 1e-14

    def test_out_of_cutoff(self):
        with pytest.raises(ValueError):
            apply_number_element(7, 0, ChannelParams(0.5, 0.5), Cutoff(6))

    @pytest.mark.parametrize("lx", [0.1, 0.4, 0.7])
    @pytest.mark.parametrize("ly", [0.1, 0.4, 0.7])
    def test_trace_and_positivity_grid(self, lx, ly):
        p = ChannelParams(lx, ly)
        d = 40
        for a in (0, 3, 6):
            el = apply_number_element(a, a, p, Cutoff(d))
            assert abs(el.matrix.trace().real - 1) <= el.meta["tail_bound"] + 1e-10
            assert np.linalg.eigvalsh(el.matrix).min() >= -1e-10

    def test_positivity_inequality_by_level(self):
        # chi_{x,m} (1 - g lx^{2a} ly^{2a} (1-chi_{y,m}^2)^{-1/2}) >= 0 for m != a
        for lx, ly in [(0.3, 0.3), (0.6, 0.2), (0.2, 0.8)]:
            g = (1 - lx**2) * (1 - ly**2)
            for a in range(5):
                for m in range(12):
                    if m == a:
                        continue
                    cy = chi(ly, m)
                    val = chi(lx, m) * (1 - g * (lx * ly) ** (2 * a) / math.sqrt(1 - cy**2))
                    assert val >= -1e-15


class TestCoherent:
    def test_overflowing_amplitude_is_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            apply_coherent(1e200, ChannelParams(0.5, 0.5), Cutoff(5))

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan"), complex(1, float("inf")), complex(float("nan"), 0)])
    def test_non_finite_amplitude_is_refused(self, alpha):
        with pytest.raises(ValueError, match="not finite"):
            apply_coherent(alpha, ChannelParams(0.5, 0.5), Cutoff(5))

    def test_alpha_zero_structure(self):
        p = ChannelParams(0.5, 0.5)
        st = apply_coherent(0, p, Cutoff(25))
        om, _ = omega(p)
        m = np.arange(25)
        chi_x = (1 - 0.25) * 0.25**m
        chi_y = chi_x
        expected = chi_x * (1 - p.g / np.sqrt(1 - chi_y**2))
        expected[0] += p.g * om
        assert np.abs(np.diag(st.matrix).real - expected).max() < 1e-13
        off = st.matrix - np.diag(np.diag(st.matrix))
        assert np.abs(off).max() == 0

    def test_trace_one(self):
        p = ChannelParams(0.6, 0.4)
        st = apply_coherent(1.2 + 0.7j, p, Cutoff(40))
        assert abs(st.trace() - 1) <= st.trace_deficit + 1e-10

    def test_vacuum_distance_regression(self):
        # protocol-verified value at lambda_x = lambda_y = 0.5 (brute force at
        # D = 14 gives the same number to 4e-9)
        p = ChannelParams(0.5, 0.5)
        st = apply_coherent(0, p, Cutoff(40))
        vac = np.zeros((40, 40), complex)
        vac[0, 0] = 1
        assert trace_norm(st.matrix - vac) == pytest.approx(0.2148824414228, abs=1e-9)

    def test_phase_covariance(self):
        p = ChannelParams(0.5, 0.5)
        alpha, theta = 0.9, 0.7
        d = 30
        out_rot = apply_coherent(alpha * np.exp(1j * theta), p, Cutoff(d)).matrix
        out = apply_coherent(alpha, p, Cutoff(d)).matrix
        phases = np.exp(1j * theta * np.arange(d))
        rotated = (phases[:, None] * out) * phases.conj()[None, :]
        assert np.abs(out_rot - rotated).max() < 1e-10

    def test_positive_regime_positivity(self):
        p = ChannelParams(0.5, 0.5)
        st = apply_coherent(1.0, p, Cutoff(30))
        assert np.linalg.eigvalsh(st.matrix).min() >= -1e-10

    def test_negative_regime_output_is_still_a_state(self):
        # the truncated output is a compression of a valid state, so it stays
        # PSD even where the diagonal correction coefficients turn negative
        p = ChannelParams(0.1, 0.1)
        assert regime(p) is Regime.NEGATIVE
        for alpha in (0.0, 0.7):
            st = apply_coherent(alpha, p, Cutoff(30))
            assert np.linalg.eigvalsh(st.matrix).min() >= -1e-10
            assert abs(st.trace() - 1) <= st.trace_deficit + 1e-10

    def test_matches_number_basis_linearity(self):
        p = ChannelParams(0.5, 0.5)
        d = 35
        alpha = 0.8
        rho_in = pure_density(coherent_ket(alpha, Cutoff(d)))
        via_elements = apply_state(rho_in, p)
        closed = apply_coherent(alpha, p, Cutoff(d))
        assert np.abs(via_elements.matrix - closed.matrix).max() < 1e-10


class TestApplyState:
    def test_thermal_stays_diagonal(self):
        p = ChannelParams(0.5, 0.5)
        out = apply_state(thermal_state(0.4, Cutoff(25)), p)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.abs(off).max() == 0

    def test_offdiagonal_support_preserved(self):
        p = ChannelParams(0.5, 0.5)
        d = 8
        m = np.zeros((d, d), complex)
        m[0, 0] = m[1, 1] = 0.5
        m[0, 1] = m[1, 0] = 0.3
        from cvpbt.fock import DensityOperator, FockOperator

        out = apply_state(DensityOperator(FockOperator(m, 1, Cutoff(d))), p).matrix
        mask = np.ones((d, d), bool)
        mask[np.diag_indices(d)] = False
        mask[0, 1] = mask[1, 0] = False
        assert np.abs(out[mask]).max() == 0
        assert out[0, 1] != 0

    def test_rejects_non_hermitian(self):
        from cvpbt.fock import DensityOperator, FockOperator

        m = np.zeros((4, 4), complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityOperator(FockOperator(m, 1, Cutoff(4)))

    def test_offdiagonal_damping_ratio_is_exact(self):
        # output coefficient / input coefficient = g Omega (lx ly)^(a+b)
        p = ChannelParams(0.45, 0.6)
        d = 9
        om, _ = omega(p)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m @ m.conj().T
        m /= np.trace(m).real
        from cvpbt.fock import DensityOperator, FockOperator

        out = apply_state(DensityOperator(FockOperator(m, 1, Cutoff(d))), p).matrix
        for a in range(d):
            for b in range(d):
                if a == b:
                    continue
                ratio = out[a, b] / m[a, b]
                assert ratio == pytest.approx(p.g * om * (0.45 * 0.6) ** (a + b), abs=1e-15)

    def test_enlarged_output_cutoff(self):
        p = ChannelParams(0.5, 0.5)
        small = apply_state(thermal_state(0.4, Cutoff(8)), p, cutoff=Cutoff(8))
        big = apply_state(thermal_state(0.4, Cutoff(8)), p, cutoff=Cutoff(24))
        assert np.abs(big.matrix[:8, :8] - small.matrix).max() < 1e-15
        assert big.trace() > small.trace()  # extended diagonal picks up tail mass


class TestEnergy:
    def test_zero_resource(self):
        p = ChannelParams(0.0, 0.5)
        for u in (0.0, 1.0, 17.0):
            assert output_energy(u, p) == 0.0
        assert max_output_energy(p) == 0.0

    @pytest.mark.parametrize("lam_x", [1e-170, 1e-200])
    def test_underflowing_tau_gives_the_thermal_term(self, lam_x):
        # lambda_x^2 lambda_y^2 rounds to 0: the coherent peak's division by tau went to a ZeroDivisionError
        points = [ChannelParams(lam_x, ly) for ly in (0.1, 0.5, 0.9)]
        assert all(p.tau == 0 for p in points)
        assert [max_output_energy(p) for p in points] == [lam_x**2 / (1 - lam_x**2)] * 3 == [0.0] * 3
        grid = ChannelParams.grid([0.0, lam_x, 0.3], [0.1, 0.5, 0.9])
        energies = max_output_energy(grid).tolist()
        assert energies == [max_output_energy(p) for p in grid.points()]
        assert energies[:6] == [0.0] * 6 and min(energies[6:]) > 0

    def test_matches_constructed_output(self):
        p = ChannelParams(0.5, 0.5)
        for u in (0.0, 0.5, 2.0):
            st = apply_coherent(math.sqrt(u), p, Cutoff(45))
            assert output_energy(u, p) == pytest.approx(mean_photon_number(st), abs=1e-8)

    def test_large_input_saturates_to_thermal(self):
        p = ChannelParams(0.5, 0.5)
        assert output_energy(1e6, p) == pytest.approx(0.25 / 0.75, abs=1e-12)

    def test_number_state_exceeds_the_coherent_cap(self):
        # the cap is a maximum over coherent inputs only: |1> goes above it
        p = ChannelParams(0.5, 0.5)
        out = apply_number_element(1, 1, p, Cutoff(200)).matrix
        energy = float(np.arange(200) @ np.diag(out).real)
        assert energy == pytest.approx(0.370265, abs=1e-6)
        assert max_output_energy(p) == pytest.approx(0.333835, abs=1e-6)
        assert energy > max_output_energy(p) + 0.03

    def test_array_of_inputs_matches_scalar_calls_bitwise(self):
        for lx, ly in [(0.0, 0.5), (0.3, 0.5), (0.7, 0.2)]:
            p = ChannelParams(lx, ly)
            us = np.concatenate([np.linspace(0, 80, 801), [1e6]])
            got = output_energy(us, p)
            assert got.shape == us.shape
            assert got.tobytes() == np.array([output_energy(u, p) for u in us]).tobytes()
        with pytest.raises(ValueError, match="nonnegative"):
            output_energy(np.array([1.0, -0.5]), ChannelParams(0.5, 0.5))

    @pytest.mark.parametrize("u", [math.nan, math.inf, np.array([1.0, math.nan])])
    def test_non_finite_input_energy_is_refused(self, u):
        with pytest.raises(ValueError, match="input energy must be finite and nonnegative"):
            output_energy(u, ChannelParams(0.5, 0.5))

    def test_max_against_grid_and_golden_section(self):
        for lx, ly in [(0.3, 0.5), (0.5, 0.5), (0.7, 0.2)]:
            p = ChannelParams(lx, ly)
            # coarse grid then golden-section refinement, independent of the closed form
            us = np.linspace(0, 60, 4001)
            vals = [output_energy(u, p) for u in us]
            k = int(np.argmax(vals))
            lo, hi = us[max(0, k - 1)], us[min(len(us) - 1, k + 1)]
            invphi = (math.sqrt(5) - 1) / 2
            a, b = lo, hi
            c, d = b - invphi * (b - a), a + invphi * (b - a)
            for _ in range(200):
                if output_energy(c, p) > output_energy(d, p):
                    b, d = d, c
                    c = b - invphi * (b - a)
                else:
                    a, c = c, d
                    d = a + invphi * (b - a)
            u_star = (a + b) / 2
            assert max_output_energy(p) == pytest.approx(output_energy(u_star, p), abs=1e-8)

    def test_monotone_in_resource_squeezing(self):
        ly = 0.5
        values = [max_output_energy(ChannelParams(lx, ly)) for lx in np.linspace(0.05, 0.8, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_energy_cap_holds_for_sampled_inputs(self):
        p = ChannelParams(0.5, 0.5)
        cap = max_output_energy(p)
        d = 45
        rng = np.random.default_rng(2)
        from cvpbt.fock import DensityOperator, FockOperator

        inputs = [
            pure_density(coherent_ket(1.1, Cutoff(d))),
            thermal_state(0.6, Cutoff(d)),
        ]
        diag = rng.random(d)
        diag /= diag.sum()
        inputs.append(DensityOperator(FockOperator(np.diag(diag).astype(complex), 1, Cutoff(d))))
        for rho in inputs:
            out = apply_state(rho, p)
            assert mean_photon_number(out) <= cap + 1e-8


def test_state_and_coherent_entry_points_refuse_a_grid():
    # the coherent closed form and the state maps, two-port and N-port,
    # refuse a grid with the documented message, not a numpy error
    from cvpbt.nport import apply_state_nport

    grid = ChannelParams(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    state = thermal_state(0.5, Cutoff(4))
    calls = [lambda: apply_coherent(0.5, grid, 6), lambda: apply_state(state, grid),
             lambda: apply_state_nport(state, grid)]
    for call in calls:
        with pytest.raises(ValueError, match="one parameter point"):
            call()


def test_single_point_entry_points_refuse_a_grid():
    # a grid's stacked T would hand back one grid point's profiles as a
    # single answer; the entry points that evaluate one point refuse it
    from cvpbt.nport import NPortChannel, make_channel
    from cvpbt.oracle import TruncatedProtocol

    grid = ChannelParams(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    three = ChannelParams.grid([0.1, 0.2], [0.3], 3)
    channel = make_channel(grid)
    calls = [lambda: apply_number_element(1, 1, grid, 6), lambda: channel.number_element(0, 1, 6),
             lambda: channel.diagonal_profile(1, 6), lambda: TruncatedProtocol(grid, Cutoff(4)),
             lambda: NPortChannel(three), lambda: NPortChannel(three, 2)]
    for call in calls:
        with pytest.raises(ValueError, match="one parameter point"):
            call()
    for point, (c, t) in zip(grid.points(), zip(*channel.arrays(6))):  # the grid's arrays stay per point
        single = make_channel(point)
        assert single.number_element(1, 1, 6).matrix.diagonal().real.tolist() == t[1].tolist()
        assert single.number_element(0, 1, 6).matrix[0, 1] == c[0, 1]

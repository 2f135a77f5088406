"""Grid evaluation of the two-port tables against one-point references.

The references below are the one-point algorithms written out here: the
level sum one term at a time, and the negative-regime bound rebuilt on a
grid that includes the requested energy.  The grid paths must give the
same bits, and each CLI table must sum Omega at most once and build at
most one hull.
"""
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cvpbt import bounds, cli, nport, two_port
from cvpbt.fock import chi
from cvpbt.two_port import ChannelParams, Regime, _inv_root, regime


def reference_sum(lx, ly, tol, first_moment):
    """The level sum one term at a time, stopping at the first term below tol."""
    total = 0.0
    m = 0
    chi_m = 1 - lx**2
    while True:
        term = (m if first_moment else 1) * chi_m * _inv_root(ly, m)
        total += term
        if m >= 1 and term < tol:
            break
        if lx == 0:
            break
        m += 1
        chi_m *= lx**2
    if lx == 0:
        return total, 0.0
    r = lx**2
    if first_moment:
        geo = r ** (m + 1) * ((m + 1) - m * r) / (1 - r)
    else:
        geo = r ** (m + 1)
    return total, geo * _inv_root(ly, m + 1)


def reference_upper_hull(xs, ys):
    hull = []
    for i in range(len(xs)):
        while len(hull) >= 2:
            x1, y1 = xs[hull[-2]], ys[hull[-2]]
            x2, y2 = xs[hull[-1]], ys[hull[-1]]
            x3, y3 = xs[i], ys[i]
            if (y2 - y1) * (x3 - x2) <= (y3 - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(i)
    return xs[hull], ys[hull]


def asymptote_floor(params):
    """The grid end shared by every energy at or below it."""
    om, _ = two_port.omega(params)
    chi0, inv0 = chi(params.lambda_x, 0), _inv_root(params.lambda_y, 0)
    amp = 2 * params.g * (abs(om - chi0 * inv0) + chi0 * inv0)
    return max(1.0, math.log(max(amp, 1e-12) / 1e-9) / (1 - params.tau))


def reference_negative_bound(energy, params, grid_points=4096):
    """Running maximum of the envelope, rebuilt on a grid that includes energy."""
    u_max = max(asymptote_floor(params), energy)
    grid = np.unique(np.concatenate(([0.0], np.geomspace(u_max * 1e-8, u_max, grid_points), [energy])))
    hx, hy = reference_upper_hull(grid, bounds.negative_regime_t_bound(grid, params))
    at_energy = float(np.interp(energy, hx, hy))
    return max(at_energy, float(hy[hx <= energy].max()))


class TestLevelSumGrid:
    @pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-6, 0.3])
    def test_grid_equals_one_term_loop_bitwise(self, tol):
        rng = np.random.default_rng(int(-math.log10(tol) * 10))
        lxs = np.concatenate([[0.0, 1e-200], rng.uniform(0, 0.95, 12), [0.95]])
        lys = np.concatenate([rng.uniform(1e-3, 0.999, 8), [1 - 1e-9, 0.5]])
        grid = ChannelParams.grid(lxs, lys)
        for first_moment in (False, True):
            value, tail = two_port._adaptive_sum(grid, tol, first_moment)
            assert value.shape == tail.shape == grid.lambda_x.shape
            for k, p in enumerate(grid.points()):
                want = reference_sum(float(p.lambda_x), float(p.lambda_y), tol, first_moment)
                assert (value[k], tail[k]) == want, (p, first_moment)

    def test_one_point_is_a_float_pair(self):
        value, tail = two_port.omega(ChannelParams(0.5, 0.5))
        assert type(value) is float and type(tail) is float
        assert (value, tail) == reference_sum(0.5, 0.5, two_port.SUM_TOL, False)

    def test_max_output_energy_grid_equals_points(self):
        grid = ChannelParams.grid(np.linspace(0, 0.9, 7), np.linspace(0.05, 0.99, 6))
        energies = two_port.max_output_energy(grid)
        assert energies.tolist() == [two_port.max_output_energy(p) for p in grid.points()]
        assert energies[:6].tolist() == [0.0] * 6  # lambda_x = 0

    def test_grid_validation_names_the_bad_value(self):
        with pytest.raises(ValueError, match="lambda_x must lie in .* got 1.0"):
            ChannelParams.grid([0.5, 1.0], [0.5])
        with pytest.raises(ValueError, match="lambda_y must lie in .* got 0.0"):
            ChannelParams.grid([0.5], [0.0, 0.5])


negative_params = st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)).map(lambda t: ChannelParams(*t))


class TestNegativeEnvelopeInsertion:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(
        params=negative_params,
        scale=st.sampled_from([0.5, 1.0, 5.0, 30.0]),
        fractions=st.lists(st.floats(0, 1), min_size=1, max_size=4),
        grid_picks=st.lists(st.integers(0, 4095), min_size=1, max_size=3),
        vertex_picks=st.lists(st.floats(0, 1), min_size=1, max_size=3),
        beyond=st.lists(st.floats(1.0, 4.0), min_size=1, max_size=2),
        far=st.lists(st.floats(10.0, 100.0), min_size=1, max_size=2),
    )
    def test_hull_identity_equals_full_rebuild_bitwise(
        self, params, scale, fractions, grid_picks, vertex_picks, beyond, far
    ):
        assume(regime(params) is Regime.NEGATIVE)
        floor = asymptote_floor(params)
        grid = np.geomspace(floor * 1e-8, floor, 4096)
        hx, _ = reference_upper_hull(grid, bounds.negative_regime_t_bound(grid, params))
        vertices = [float(hx[int(f * (len(hx) - 1))]) for f in vertex_picks]
        energies = (
            [scale * f for f in fractions]
            + [float(grid[i]) for i in grid_picks]  # energies that equal a grid point
            + [e for v in vertices for e in (math.nextafter(v, 0), v, math.nextafter(v, math.inf))]
            + [floor * b for b in beyond + far]  # energies whose grid ends at themselves
            + [0.0, floor]
        )
        got = bounds.lossy_diamond_bound_negative(np.array(energies), params)
        want = [reference_negative_bound(e, params) for e in energies]
        assert got.tolist() == want
        assert bounds.lossy_diamond_bound_negative(energies[0], params) == want[0]

    def test_positive_grid_equals_points(self):
        p = ChannelParams(0.6, 0.6)
        energies = np.linspace(0, 5, 11)
        got = bounds.lossy_diamond_bound_positive(energies, p)
        assert got.tolist() == [bounds.lossy_diamond_bound_positive(e, p) for e in energies]
        assert bounds.lossy_diamond_bound_positive(energies.tolist(), p).tolist() == got.tolist()

    def test_both_bounds_take_a_list_of_energies(self):
        energies = [0.0, 0.5, 2.0]
        for bound, p in ((bounds.lossy_diamond_bound_positive, ChannelParams(0.6, 0.6)),
                         (bounds.lossy_diamond_bound_negative, ChannelParams(0.3, 0.2))):
            got = bound(energies, p)
            assert isinstance(got, np.ndarray) and got.tolist() == [bound(e, p) for e in energies]


def run_table(tmp_path, argv):
    out = tmp_path / "table.csv"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_OK
    return cli.read_table(str(out))


class TestTwoPortSweepRows:
    @pytest.mark.parametrize(
        "kind, cutoff", [("bell2", None), ("bell3", None), ("tmsv", 2), ("tmsv", 5), ("tmsv", 12), ("tmsv", 20)]
    )
    def test_rows_equal_per_point_fidelity_bitwise(self, tmp_path, kind, cutoff):
        argv = ["fidelity-sweep", "--input", kind, "--ports", "2",
                "--lambda-x-range", "0:0.75:12", "--lambda-y-range", "0.17:0.72:12"]
        if kind == "tmsv":
            argv += ["--lambda-in", str(1 / 3), "--cutoff", str(cutoff)]
        table = run_table(tmp_path, argv)
        assert len(table.rows) == 144
        for lx, ly, fid, cap in table.rows:
            want, meta = nport.input_output_fidelity(kind, ChannelParams(lx, ly), lambda_in=1 / 3, levels=cutoff)
            assert fid == want and cap is None and meta["cap"] is None

    def test_grid_slices_give_the_same_bits(self, monkeypatch, sum_calls):
        grid = ChannelParams.grid(np.linspace(0, 0.75, 9), np.linspace(0.17, 0.72, 7))
        whole, _ = nport.input_output_fidelity("tmsv", grid, lambda_in=1 / 3, levels=5)
        monkeypatch.setattr(nport, "_BLOCK_ELEMS", 4 * 25)  # slices of 4 points, the last one short
        sliced, _ = nport.input_output_fidelity("tmsv", grid, lambda_in=1 / 3, levels=5)
        assert sliced.tolist() == whole.tolist()
        assert sum_calls["omega"] == 2  # one per call, shared by every slice

    def test_large_cutoff_grid_memory_stays_bounded(self):
        # unsliced, the stacked level x level arrays of this grid would hold
        # several 26 MB stacks at once; sliced, the peak is about 2 MiB
        grid = ChannelParams.grid(np.linspace(0.1, 0.8, 12), np.linspace(0.2, 0.9, 12))
        tracemalloc.start()
        try:
            fids, _ = nport.input_output_fidelity("tmsv", grid, lambda_in=0.5, levels=150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fids.shape == (144,) and peak < 24 * 2**20

    def test_three_port_grid_is_refused(self):
        grid = ChannelParams.grid([0.3, 0.4], [0.5], ports=3)
        with pytest.raises(ValueError, match="two-port closed form"):
            nport.input_output_fidelity("bell2", grid)


@pytest.fixture
def sum_calls(monkeypatch):
    """Count calls to the two level sums through every binding in the package."""
    calls = {"omega": 0, "energy_weighted_omega": 0}
    for name in calls:
        original = getattr(two_port, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key == "cvpbt" or key.startswith("cvpbt.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("spec", ["0:1000:101", "0:10:101", "500:1000:7"])
def test_negative_lossy_table_builds_at_most_one_hull(tmp_path, monkeypatch, spec):
    calls = []
    original = bounds._upper_concave_envelope

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(bounds, "_upper_concave_envelope", counted)
    table = run_table(tmp_path, ["bounds", "--kind", "lossy", "--lambda-x", "0.3", "--lambda-y", "0.2",
                                 "--energy-range", spec])
    assert table.metadata["variant"] == "negative-envelope"
    assert len(calls) <= 1


class TestOneSumPerTable:
    def test_energy_table(self, tmp_path, sum_calls):
        run_table(tmp_path, ["energy", "--lambda-x-range", "0.1:0.8:50", "--lambda-y-range", "0.1:0.8:50"])
        assert sum_calls == {"omega": 1, "energy_weighted_omega": 1}

    @pytest.mark.parametrize("kind", ["bell2", "bell3", "tmsv"])
    def test_two_port_sweep(self, tmp_path, sum_calls, kind):
        run_table(tmp_path, ["fidelity-sweep", "--input", kind, "--ports", "2", "--lambda-in", "0.3",
                             "--lambda-x-range", "0.15:0.75:24", "--lambda-y-range", "0.15:0.75:24"])
        assert sum_calls["omega"] <= 1 and sum_calls["energy_weighted_omega"] == 0

    @pytest.mark.parametrize("lam", ["0.6", "0.3"])  # positive and negative regime
    def test_lossy_table(self, tmp_path, sum_calls, lam):
        table = run_table(tmp_path, ["bounds", "--kind", "lossy", "--lambda-x", lam, "--lambda-y", lam,
                                     "--energy-range", "0:5:101"])
        assert len(table.rows) == 101
        assert sum_calls["omega"] <= 1 and sum_calls["energy_weighted_omega"] == 0

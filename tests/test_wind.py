"""Wind parsing, daily aggregation, interpolation, and clamping."""

import io
import pickle
from pathlib import Path

import numpy as np
import pytest

from scipy.interpolate import Akima1DInterpolator

from bloomsim.wind import (
    MPS_TO_MPD,
    SPEED_CAP_MPS,
    SyntheticWind,
    WindSeries,
    aggregate_daily,
    as_wind,
    parse_wind_records,
)


def csv_stream(rows, header="timestamp,u_mps,v_mps"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


class TestParse:
    def test_two_numeric_rows(self):
        series = parse_wind_records(csv_stream(["0,1,0", "1,0,1"]))
        assert len(series) == 2
        assert series.times[0] == 0.0 and series.times[1] == 1.0

    def test_unsorted_input_is_sorted(self):
        series = parse_wind_records(csv_stream(["2,5,0", "0,1,0", "1,3,0"]))
        assert np.all(series.times == [0.0, 1.0, 2.0])
        assert np.all(series.u == [1.0, 3.0, 5.0])

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_wind_records(csv_stream(["0,1,0", "0,2,0", "1,0,0"]))

    def test_malformed_row_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_wind_records(csv_stream(["0,1,0", "1,oops,0"]))

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_wind_records(csv_stream(["0,1,0"]))

    @pytest.mark.parametrize("source", ["configs/wind_sample.csv",
                                        Path("configs/wind_sample.csv")])
    def test_path_is_a_type_error(self, source):
        with pytest.raises(TypeError, match="open text stream"):
            parse_wind_records(source)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_wind_records(io.StringIO("0,1,0\n1,2,0\n"))

    def test_iso_timestamps_rebased_to_first_day(self):
        series = parse_wind_records(
            csv_stream(
                [
                    "2023-06-01T00:00:00,1,0",
                    "2023-06-01T12:00:00,2,0",
                    "2023-06-02T00:00:00,3,0",
                ]
            )
        )
        assert np.allclose(series.times, [0.0, 0.5, 1.0])


class TestSeriesInvariants:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            WindSeries(np.array([0.0, 0.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_finite_enforced(self):
        with pytest.raises(ValueError):
            WindSeries(np.array([0.0, 1.0]), np.array([np.inf, 0.0]), np.zeros(2))


class TestAggregateDaily:
    def test_constant_day_collapses_to_single_record(self):
        hours = np.arange(24) / 24.0
        series = WindSeries(hours, np.full(24, 3.0), np.full(24, -1.0))
        daily = aggregate_daily(series)
        assert len(daily) == 1
        assert daily.u[0] == 3.0 and daily.v[0] == -1.0
        u, v = daily.at(0.5)
        assert (u, v) == (3.0 * MPS_TO_MPD, -1.0 * MPS_TO_MPD)

    def test_alternating_components_average_to_zero(self):
        hours = np.arange(48) / 24.0
        u = np.where(np.arange(48) % 2 == 0, 1.0, -1.0)
        daily = aggregate_daily(WindSeries(hours, u, np.zeros(48)))
        assert len(daily) == 2
        assert np.allclose(daily.u, 0.0)

    def test_two_days_two_records(self):
        hours = np.arange(48) / 24.0
        daily = aggregate_daily(WindSeries(hours, np.arange(48.0), np.zeros(48)))
        assert len(daily) == 2
        assert daily.times[0] == 0.5 and daily.times[1] == 1.5
        assert daily.u[0] == pytest.approx(np.arange(24).mean())

    def test_empty_day_carried_forward_with_warning(self):
        times = np.concatenate([np.arange(24) / 24.0, 2.0 + np.arange(24) / 24.0])
        u = np.concatenate([np.full(24, 2.0), np.full(24, 6.0)])
        with pytest.warns(UserWarning, match="carrying previous"):
            daily = aggregate_daily(WindSeries(times, u, np.zeros(48)))
        assert len(daily) == 3
        assert daily.u[1] == 2.0  # the gap day inherits day 0

    def test_day_centers_reproduce_daily_means(self):
        hours = np.arange(96) / 24.0
        u = np.sin(hours * 5.0)
        daily = aggregate_daily(WindSeries(hours, u, np.zeros(96)))
        for t, mean_u in zip(daily.times, daily.u):
            got_u, _ = daily.at(t)
            assert got_u == pytest.approx(mean_u * MPS_TO_MPD, rel=1e-12, abs=1e-9)


class TestWindAt:
    def test_knot_values_reproduced(self):
        series = WindSeries(
            np.array([0.0, 1.0, 2.0, 3.0]),
            np.array([1.0, 2.0, 0.5, 1.5]),
            np.array([0.0, -1.0, 0.5, 0.0]),
        )
        for i in range(4):
            u, v = series.at(series.times[i])
            assert u == pytest.approx(series.u[i] * MPS_TO_MPD)
            assert v == pytest.approx(series.v[i] * MPS_TO_MPD)

    def test_linear_series_exact_at_midpoints(self):
        t = np.arange(6.0)
        series = WindSeries(t, 0.3 * t + 1.0, -0.2 * t + 2.0)
        mid = t[:-1] + 0.5
        u, v = series.at(mid)
        assert np.allclose(u, (0.3 * mid + 1.0) * MPS_TO_MPD, rtol=1e-12)
        assert np.allclose(v, (-0.2 * mid + 2.0) * MPS_TO_MPD, rtol=1e-12)

    def test_speed_cap_preserves_direction(self):
        series = WindSeries(
            np.array([0.0, 1.0, 2.0]),
            np.array([0.0, 12.0 * 0.6, 0.0]),
            np.array([0.0, 12.0 * 0.8, 0.0]),
        )
        u, v = series.at(1.0)  # knot speed 12 m/s
        speed = np.hypot(u, v)
        assert speed == pytest.approx(SPEED_CAP_MPS * MPS_TO_MPD)
        assert v / u == pytest.approx(0.8 / 0.6)

    def test_speed_cap_holds_everywhere(self):
        rng = np.random.default_rng(7)
        series = WindSeries(np.arange(20.0), rng.normal(0, 6, 20), rng.normal(0, 6, 20))
        t = np.linspace(0.0, 19.0, 4001)
        u, v = series.at(t)
        assert np.max(np.hypot(u, v)) <= SPEED_CAP_MPS * MPS_TO_MPD * (1 + 1e-12)

    def test_continuity(self):
        rng = np.random.default_rng(11)
        series = WindSeries(np.arange(10.0), rng.normal(0, 2, 10), rng.normal(0, 2, 10))
        t = np.linspace(0.0, 9.0, 20001)
        u, _ = series.at(t)
        jumps = np.abs(np.diff(u))
        assert jumps.max() < 0.05 * MPS_TO_MPD  # no discontinuities at this resolution

    def test_clamped_to_span_outside(self):
        series = WindSeries(np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2))
        assert series.at(-5.0) == series.at(1.0)
        assert series.at(99.0) == series.at(2.0)

    def test_matches_per_component_akima_with_where_cap(self):
        # reference: one Akima spline per component and the two-np.where cap
        # that the single two-column spline replaced, bitwise
        series = WindSeries(
            np.arange(8.0),
            np.array([1.0, 3.0, -6.0, 0.5, 2.0, 9.0, -1.0, 0.0]),
            np.array([2.0, 4.0, 8.0, -0.5, 1.0, 12.0, 1.5, 0.0]),
        )
        t = np.concatenate([series.times, np.linspace(-1.0, 8.0, 2001)])
        clamped = np.clip(t, *series.span)
        u = Akima1DInterpolator(series.times, series.u)(clamped)
        v = Akima1DInterpolator(series.times, series.v)(clamped)
        speed = np.hypot(u, v)
        assert (speed < SPEED_CAP_MPS).any() and (speed > SPEED_CAP_MPS).any()
        assert (speed == SPEED_CAP_MPS).any()  # the (3, 4) knot
        factor = np.where(speed > SPEED_CAP_MPS,
                          SPEED_CAP_MPS / np.where(speed > 0, speed, 1.0), 1.0)
        got_u, got_v = series.at(t)
        assert np.array_equal(got_u, u * factor * MPS_TO_MPD)
        assert np.array_equal(got_v, v * factor * MPS_TO_MPD)
        assert series.at(t[1]) == (got_u[1], got_v[1])

    def test_two_records_are_the_straight_line(self):
        series = WindSeries(np.array([1.0, 3.0]), np.array([1.0, -2.0]), np.array([0.5, 2.0]))
        t = np.linspace(1.0, 3.0, 101)
        u, v = series.at(t)
        assert np.array_equal(u, np.interp(t, series.times, series.u) * MPS_TO_MPD)
        assert np.array_equal(v, np.interp(t, series.times, series.v) * MPS_TO_MPD)

    @pytest.mark.parametrize("n", [1, 2, 745])
    def test_pickle_round_trip_evaluates_bitwise(self, n):
        # the Sobol worker pool ships the wind to each process by pickle
        rng = np.random.default_rng(n)
        series = WindSeries(np.arange(n) / 24.0, rng.normal(0, 4, n), rng.normal(0, 4, n))
        clone = pickle.loads(pickle.dumps(series))
        t = np.linspace(-1.0, n / 24.0 + 1.0, 997)
        for got, expected in zip(clone.at(t), series.at(t)):
            assert np.array_equal(got, expected)
        assert clone.at(0.3) == series.at(0.3)


class TestSyntheticWind:
    def test_phase_zero_starts_northward(self):
        w = SyntheticWind(3.0, 10.0)
        assert w.at(0.0) == (0.0, 3.0)

    def test_zero_mean_over_period(self):
        w = SyntheticWind(2.0, 7.0, phase=0.3)
        t = np.linspace(0.0, 7.0, 10001)[:-1]
        u, v = w.at(t)
        assert abs(u.mean()) < 1e-3 and abs(v.mean()) < 1e-3

    def test_constant_magnitude(self):
        w = SyntheticWind(2.5, 3.0, phase=1.0)
        t = np.linspace(0.0, 9.0, 101)
        u, v = w.at(t)
        assert np.allclose(np.hypot(u, v), 2.5)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            SyntheticWind(1.0, 0.0)


class TestAsWind:
    def test_none_is_still_water(self):
        assert as_wind(None)(12.3) == (0.0, 0.0)

    def test_callable_passthrough(self):
        fn = as_wind(lambda t: (t, -t))
        assert fn(2.0) == (2.0, -2.0)

    def test_series_adapter(self):
        series = WindSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.zeros(2))
        u, v = as_wind(series)(0.5)
        assert u == pytest.approx(MPS_TO_MPD)

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            as_wind(42)

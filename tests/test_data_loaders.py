"""Tests for the real-corpus CSV loaders, using tiny synthetic fixtures."""

import csv
import json

import numpy as np
import pytest

from repro.data.loaders import (
    Projection,
    fit_grid,
    load_didi_orders,
    load_gowalla_checkins,
    load_porto_csv,
)

PORTO_LAT, PORTO_LON = 41.15, -8.61


def write_porto_fixture(path, n_taxis=2, n_days=2, points_per_trip=5):
    """A miniature Kaggle-format trips CSV."""
    rng = np.random.default_rng(0)
    rows = []
    trip_id = 0
    for taxi in range(n_taxis):
        for day in range(n_days):
            # 2013-10-20 + day, 09:00 UTC
            epoch = 1382259600 + day * 86400 + taxi * 600
            polyline = [
                [PORTO_LON + 0.01 * taxi + 0.001 * k, PORTO_LAT + 0.002 * k + 0.01 * rng.uniform()]
                for k in range(points_per_trip)
            ]
            rows.append({
                "TRIP_ID": str(trip_id),
                "TAXI_ID": f"2000{taxi}",
                "TIMESTAMP": str(epoch),
                "POLYLINE": json.dumps(polyline),
            })
            trip_id += 1
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=["TRIP_ID", "TAXI_ID", "TIMESTAMP", "POLYLINE"])
        writer.writeheader()
        writer.writerows(rows)


class TestProjection:
    def test_anchor_is_zero(self):
        proj = Projection(lat0=41.0, lon0=-8.0)
        assert proj.to_xy(41.0, -8.0) == (0.0, 0.0)

    def test_one_degree_latitude_about_111km(self):
        proj = Projection(lat0=41.0, lon0=-8.0)
        _, y = proj.to_xy(42.0, -8.0)
        assert y == pytest.approx(111.2, rel=0.01)

    def test_around_centroid(self):
        proj = Projection.around(np.array([[40.0, -8.0], [42.0, -8.0]]))
        assert proj.lat0 == 41.0

    def test_around_empty_raises(self):
        with pytest.raises(ValueError):
            Projection.around(np.zeros((0, 2)))


class TestFitGrid:
    def test_covers_points(self):
        pts = np.array([[0.0, 0.0], [10.0, 4.0]])
        grid, shifted = fit_grid(pts)
        for p in shifted:
            assert 0 <= p[0] <= grid.width_km
            assert 0 <= p[1] <= grid.height_km

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fit_grid(np.zeros((0, 2)))


class TestPortoLoader:
    def test_loads_workers_with_history(self, tmp_path):
        fixture = tmp_path / "porto.csv"
        write_porto_fixture(fixture, n_taxis=2, n_days=3)
        grid, workers, proj = load_porto_csv(fixture)
        assert len(workers) == 2
        for w in workers:
            assert len(w.history) == 2  # last day is the routine
            assert len(w.routine) >= 2
            for p in w.routine:
                assert grid.contains(p.location)

    def test_max_trips_cap(self, tmp_path):
        fixture = tmp_path / "porto.csv"
        write_porto_fixture(fixture, n_taxis=3, n_days=2)
        _, workers, _ = load_porto_csv(fixture, max_trips=2)
        assert len(workers) == 1  # only the first taxi's trips read

    def test_rejects_missing_columns(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2\n")
        with pytest.raises(ValueError):
            load_porto_csv(bad)

    def test_rejects_empty(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("TRIP_ID,TAXI_ID,TIMESTAMP,POLYLINE\n")
        with pytest.raises(ValueError):
            load_porto_csv(empty)

    def test_malformed_polyline_raises(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text('TRIP_ID,TAXI_ID,TIMESTAMP,POLYLINE\n1,2,1382259600,"not json"\n')
        with pytest.raises(ValueError):
            load_porto_csv(bad)

    def test_non_finite_coordinate_names_file_line_and_field(self, tmp_path):
        bad = tmp_path / "bad.csv"
        write_porto_fixture(bad)
        rows = bad.read_text().splitlines()
        rows[3] = '3,20001,1382346000,"[[-8.61, 41.15], [-8.609, NaN]]"'
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: POLYLINE point 1 latitude must be finite"):
            load_porto_csv(bad)


class TestGowallaLoader:
    def write_fixture(self, path, n_users=2, n_days=2, checkins_per_day=4):
        lines = []
        for user in range(n_users):
            for day in range(n_days):
                for k in range(checkins_per_day):
                    stamp = f"2010-10-{19 + day:02d}T{9 + 2 * k:02d}:00:00Z"
                    lat = 30.27 + 0.01 * user + 0.002 * k
                    lon = -97.74 + 0.003 * k
                    lines.append(f"{user}\t{stamp}\t{lat}\t{lon}\t{1000 + k}")
        path.write_text("\n".join(lines) + "\n")

    def test_loads_users(self, tmp_path):
        fixture = tmp_path / "gowalla.txt"
        self.write_fixture(fixture)
        grid, workers, _ = load_gowalla_checkins(fixture)
        assert len(workers) == 2
        for w in workers:
            assert len(w.history) == 1
            assert len(w.routine) == 4

    def test_skips_short_lines(self, tmp_path):
        fixture = tmp_path / "gowalla.txt"
        self.write_fixture(fixture)
        with fixture.open("a") as handle:
            handle.write("garbage line\n")
        _, workers, _ = load_gowalla_checkins(fixture)
        assert len(workers) == 2

    def test_empty_raises(self, tmp_path):
        empty = tmp_path / "gowalla.txt"
        empty.write_text("")
        with pytest.raises(ValueError):
            load_gowalla_checkins(empty)

    def test_non_finite_coordinate_names_file_line_and_field(self, tmp_path):
        """One nan latitude used to shift the projection's anchor, and
        every trajectory then failed at its sample 0."""
        fixture = tmp_path / "gowalla.txt"
        self.write_fixture(fixture, n_users=1, n_days=1, checkins_per_day=4)
        with fixture.open("a") as handle:
            handle.write("0\t2010-10-19T20:00:00Z\tnan\t-97.7\t1005\n")
        with pytest.raises(ValueError, match=r"gowalla\.txt:5: latitude must be finite, got 'nan'"):
            load_gowalla_checkins(fixture)


class TestDidiLoader:
    def test_loads_tasks_on_worker_grid(self, tmp_path):
        porto = tmp_path / "porto.csv"
        write_porto_fixture(porto)
        grid, workers, proj = load_porto_csv(porto)

        orders = tmp_path / "orders.csv"
        with orders.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["order_id", "start_epoch", "pickup_lon", "pickup_lat"])
            for i in range(5):
                writer.writerow([i, 1382259600 + 300 * i, PORTO_LON + 0.001 * i, PORTO_LAT])
        tasks = load_didi_orders(orders, grid, proj, valid_time_minutes=(30.0, 40.0))
        assert len(tasks) == 5
        releases = [t.release_time for t in tasks]
        assert releases == sorted(releases)
        for t in tasks:
            assert grid.contains(t.location)
            assert 30.0 <= t.valid_minutes <= 40.0

    def test_non_finite_time_names_file_line_and_field(self, tmp_path):
        orders = tmp_path / "orders.csv"
        orders.write_text(
            "order_id,start_epoch,pickup_lon,pickup_lat\n"
            f"0,1382259600,{PORTO_LON},{PORTO_LAT}\n"
            f"1,inf,{PORTO_LON},{PORTO_LAT}\n"
        )
        grid, proj = fit_grid(np.array([[0.0, 0.0], [1.0, 1.0]]))[0], Projection(PORTO_LAT, PORTO_LON)
        with pytest.raises(ValueError, match=r"orders\.csv:3: start_epoch must be finite, got 'inf'"):
            load_didi_orders(orders, grid, proj)

    def test_validates_interval(self, tmp_path):
        orders = tmp_path / "orders.csv"
        orders.write_text("")
        grid, proj = fit_grid(np.array([[0.0, 0.0], [1.0, 1.0]]))[0], Projection(41.0, -8.0)
        with pytest.raises(ValueError):
            load_didi_orders(orders, grid, proj, valid_time_minutes=(0.0, 1.0))

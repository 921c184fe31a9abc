"""Grid and interpolation tests against a brute-force reference."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpkit import grids


def oracle_interpolate(axis_nodes, values_nd, point):
    """Reference multilinear interpolation: bisect cells, enumerate corners.

    Independent of the library path: locates each axis cell by linear
    search over the node array and accumulates the 2^dim corner products
    explicitly.  Returns (value, cell corner values).
    """
    dim = len(axis_nodes)
    cells = []
    fracs = []
    for d in range(dim):
        nodes = axis_nodes[d]
        q = min(max(point[d], nodes[0]), nodes[-1])
        if nodes.size == 1:
            cells.append(0)
            fracs.append(0.0)
            continue
        i = nodes.size - 2
        for j in range(nodes.size - 1):
            if q < nodes[j + 1]:
                i = j
                break
        cells.append(i)
        fracs.append((q - nodes[i]) / (nodes[i + 1] - nodes[i]))
    total = 0.0
    corners = []
    for bits in itertools.product((0, 1), repeat=dim):
        weight = 1.0
        index = []
        for d, b in enumerate(bits):
            weight *= fracs[d] if b else 1.0 - fracs[d]
            index.append(min(cells[d] + b, axis_nodes[d].size - 1))
        corner = float(values_nd[tuple(index)])
        corners.append(corner)
        total += weight * corner
    return total, corners


def random_grid(rng, dim, max_nodes=7):
    specs = []
    for _ in range(dim):
        lo = rng.uniform(-10, 5)
        hi = lo + rng.uniform(0.5, 12)
        specs.append((lo, hi, int(rng.integers(2, max_nodes + 1))))
    return grids.build_grid(specs)


class TestBuildGrid:
    def test_two_axis_example(self):
        g = grids.build_grid([(0.0, 2.5, 100), (-15.0, 15.0, 100)])
        assert g.shape == (100, 100)
        assert g.size == 10_000
        for ax in g.axes:
            step = (ax.hi - ax.lo) / (ax.n - 1)
            expected = ax.lo + np.arange(ax.n) * step
            assert np.allclose(ax.nodes, expected, rtol=1e-15, atol=0.0)
            assert ax.nodes[0] == ax.lo
            assert ax.nodes[-1] == ax.hi

    def test_degenerate_axis(self):
        g = grids.build_grid([(0.0, 1.0, 1)])
        assert g.size == 1
        assert g.axes[0].nodes.tolist() == [0.0]

    def test_dim_limits(self):
        grids.build_grid([(0, 1, 2)] * 4)
        with pytest.raises(ValueError):
            grids.build_grid([(0, 1, 2)] * 5)
        with pytest.raises(ValueError):
            grids.RectGrid(())

    @pytest.mark.parametrize("spec", [
        (0.0, np.inf, 3),
        (np.nan, 1.0, 3),
        (0.0, 1.0, 0),
        (2.0, 1.0, 3),
        (1.0, 1.0, 2),
    ])
    def test_invalid_axes(self, spec):
        with pytest.raises(ValueError):
            grids.build_grid([spec])

    def test_node_coordinates_row_major(self):
        g = grids.build_grid([(0, 1, 2), (0, 1, 2)])
        assert grids.node_coordinates(g, 0) == (0.0, 0.0)
        assert grids.node_coordinates(g, 1) == (0.0, 1.0)  # last axis fastest
        assert grids.node_coordinates(g, 2) == (1.0, 0.0)
        assert grids.node_coordinates(g, 3) == (1.0, 1.0)
        with pytest.raises(IndexError):
            grids.node_coordinates(g, 4)
        with pytest.raises(IndexError):
            grids.node_coordinates(g, -1)

    def test_all_nodes_matches_node_coordinates(self):
        g = random_grid(np.random.default_rng(0), 3)
        for flat in range(g.size):
            assert tuple(g.all_nodes[flat]) == grids.node_coordinates(g, flat)


class TestGridFunction:
    def test_value_count_must_match(self):
        g = grids.build_grid([(0, 1, 3)])
        with pytest.raises(ValueError):
            grids.GridFunction(g, [1.0, 2.0])

    def test_values_must_be_finite(self):
        g = grids.build_grid([(0, 1, 3)])
        with pytest.raises(ValueError):
            grids.GridFunction(g, [1.0, np.nan, 2.0])

    def test_values_are_frozen(self):
        g = grids.build_grid([(0, 1, 3)])
        gf = grids.GridFunction(g, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            gf.values[0] = 9.0


class TestInterpolate:
    def test_unit_cell_center(self):
        g = grids.build_grid([(0, 1, 2), (0, 1, 2)])
        gf = grids.GridFunction(g, [0.0, 1.0, 1.0, 2.0])
        assert grids.interpolate(gf, [0.5, 0.5]) == 1.0

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_node_reproduction_exact(self, dim):
        rng = np.random.default_rng(100 + dim)
        g = random_grid(rng, dim)
        gf = grids.GridFunction(g, rng.normal(size=g.size) * 1e6)
        out = grids.interpolate(gf, g.all_nodes)
        assert np.array_equal(out, gf.values)

    def test_node_reproduction_exact_awkward_bounds(self):
        g = grids.build_grid([(0.37, 9.13, 7), (-1.1e6, 3.3e6, 5)])
        rng = np.random.default_rng(3)
        gf = grids.GridFunction(g, rng.normal(size=g.size))
        assert np.array_equal(grids.interpolate(gf, g.all_nodes), gf.values)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_affine_precision(self, dim):
        rng = np.random.default_rng(200 + dim)
        g = random_grid(rng, dim)
        coeffs = rng.uniform(-1, 1, size=dim)
        const = rng.uniform(-1, 1)
        gf = grids.GridFunction(g, const + g.all_nodes @ coeffs)
        pts = rng.uniform(g.lower, g.upper, size=(1000, dim))
        exact = const + pts @ coeffs
        assert np.max(np.abs(grids.interpolate(gf, pts) - exact)) <= 1e-12

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2, 3, 4):
            g = random_grid(rng, dim)
            vals = rng.normal(size=g.size)
            gf = grids.GridFunction(g, vals)
            nd = vals.reshape(g.shape)
            axis_nodes = [ax.nodes for ax in g.axes]
            span = g.upper - g.lower
            pts = rng.uniform(g.lower - 0.3 * span, g.upper + 0.3 * span, size=(200, dim))
            out = grids.interpolate(gf, pts)
            for i in range(pts.shape[0]):
                expected, corners = oracle_interpolate(axis_nodes, nd, pts[i])
                assert out[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)
                assert min(corners) <= out[i] <= max(corners)

    def test_clamping_matches_boundary_query(self):
        g = grids.build_grid([(0, 1, 2), (0, 1, 2)])
        gf = grids.GridFunction(g, [0.0, 1.0, 1.0, 2.0])
        assert grids.interpolate(gf, [-1.0, 0.5]) == grids.interpolate(gf, [0.0, 0.5])
        assert grids.interpolate(gf, [5.0, 7.0]) == gf.values[3]

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        g = random_grid(rng, 3)
        gf = grids.GridFunction(g, rng.normal(size=g.size))
        pts = rng.uniform(g.lower, g.upper, size=(50, 3))
        batch = grids.interpolate(gf, pts)
        singles = np.array([grids.interpolate(gf, p) for p in pts])
        assert np.array_equal(batch, singles)

    def test_degenerate_axis_is_ignored(self):
        g = grids.build_grid([(0.0, 1.0, 1), (0.0, 1.0, 2)])
        gf = grids.GridFunction(g, [3.0, 5.0])
        assert grids.interpolate(gf, [0.7, 0.5]) == 4.0

    def test_query_errors(self):
        g = grids.build_grid([(0, 1, 2), (0, 1, 2)])
        gf = grids.GridFunction(g, [0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            grids.interpolate(gf, [0.5])
        with pytest.raises(ValueError):
            grids.interpolate(gf, [[0.5, 0.5, 0.5]])
        with pytest.raises(ValueError):
            grids.interpolate(gf, [np.nan, 0.5])

    @pytest.mark.parametrize("spec", [
        (0.0, 1.0, 2), (0.0, 10e6, 15), (-0.37, 0.91, 60), (1e-3, 1e-3 + 7e-9, 9),
    ])
    def test_axis_locator_matches_the_batch_locate(self, spec):
        rng = np.random.default_rng(17)
        g = grids.build_grid([spec])
        ax = g.axes[0]
        width = ax.hi - ax.lo
        pts = np.concatenate([
            rng.uniform(ax.lo - 0.2 * width, ax.hi + 0.2 * width, 400),
            ax.nodes,
            np.nextafter(ax.nodes, -np.inf),
            np.nextafter(ax.nodes, np.inf),
        ])
        idx, frac = grids._locate(g, pts[:, None])
        locate = grids.axis_locator(ax)
        got = [locate(float(q)) for q in pts]
        assert [i for i, _ in got] == idx[:, 0].tolist()
        assert [f for _, f in got] == frac[:, 0].tolist()

    def test_axis_locator_needs_two_nodes(self):
        with pytest.raises(ValueError):
            grids.axis_locator(grids.Axis(0.0, 1.0, 1))

    def test_stencil_weights_are_convex(self):
        rng = np.random.default_rng(13)
        g = random_grid(rng, 3)
        pts = rng.uniform(g.lower - 1, g.upper + 1, size=(300, 3))
        flat, weights = grids.interpolation_stencil(g, pts)
        assert np.all(weights >= 0.0)
        assert np.allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert flat.min() >= 0 and flat.max() < g.size

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=2))
    def test_hull_bound_property(self, point):
        g = grids.build_grid([(-3.0, 4.0, 5), (0.0, 10.0, 4)])
        rng = np.random.default_rng(42)
        vals = rng.normal(size=g.size)
        gf = grids.GridFunction(g, vals)
        out = grids.interpolate(gf, point)
        _, corners = oracle_interpolate([ax.nodes for ax in g.axes],
                                        vals.reshape(g.shape), point)
        assert min(corners) <= out <= max(corners)


class TestPersistence:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_roundtrip_bit_exact(self, tmp_path, dim):
        rng = np.random.default_rng(300 + dim)
        g = random_grid(rng, dim)
        gf = grids.GridFunction(g, rng.normal(size=g.size) * 1e9)
        path = tmp_path / "fn.gridfn"
        grids.save_grid_function(gf, path)
        back = grids.load_grid_function(path)
        assert back.grid == g
        assert np.array_equal(back.values, gf.values)
        assert back.values.tobytes() == gf.values.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        g = grids.build_grid([(0, 1, 3)])
        gf = grids.GridFunction(g, [1.0, 2.5, -3.25])
        first = tmp_path / "one"
        second = tmp_path / "two"
        first.mkdir()
        second.mkdir()
        grids.save_grid_function(gf, first / "fn.gridfn")
        grids.save_grid_function(gf, second / "fn.gridfn")
        assert (first / "fn.gridfn").read_text() == (second / "fn.gridfn").read_text()
        assert (first / "fn.gridfn.bin").read_bytes() == (second / "fn.gridfn.bin").read_bytes()

    def test_load_rejects_wrong_count(self, tmp_path):
        g = grids.build_grid([(0, 1, 4)])
        gf = grids.GridFunction(g, [0.0, 1.0, 2.0, 3.0])
        path = tmp_path / "fn.gridfn"
        grids.save_grid_function(gf, path)
        (tmp_path / "fn.gridfn.bin").write_bytes(b"\x00" * 8 * 3)
        with pytest.raises(ValueError, match="3 values"):
            grids.load_grid_function(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "fn.gridfn"
        path.write_text("not json at all {")
        with pytest.raises(ValueError, match="corrupt"):
            grids.load_grid_function(path)
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a grid function"):
            grids.load_grid_function(path)

    @pytest.mark.parametrize("field", ["axes", "payload", "value_count"])
    def test_load_rejects_missing_field(self, tmp_path, field):
        path = tmp_path / "fn.gridfn"
        grids.save_grid_function(grids.GridFunction(grids.build_grid([(0, 1, 2)]), [0.0, 1.0]), path)
        meta = json.loads(path.read_text())
        del meta[field]
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=field):
            grids.load_grid_function(path)

    @pytest.mark.parametrize("payload", ["absolute", "../fn.gridfn.bin", "sub/fn.gridfn.bin", "..", ""])
    def test_load_rejects_payload_outside_its_directory(self, tmp_path, payload):
        # a valid payload sits one level up; "absolute" names it by its absolute path
        outside = tmp_path / "fn.gridfn.bin"
        if payload == "absolute":
            payload = str(outside)
        inner = tmp_path / "sub"
        inner.mkdir()
        path = inner / "fn.gridfn"
        grids.save_grid_function(grids.GridFunction(grids.build_grid([(0, 1, 2)]), [0.0, 1.0]), path)
        outside.write_bytes((inner / "fn.gridfn.bin").read_bytes())
        meta = json.loads(path.read_text())
        meta["payload"] = payload
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="plain file name"):
            grids.load_grid_function(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            grids.load_grid_function(tmp_path / "absent.gridfn")

    @pytest.mark.parametrize("meta, message", [
        ([], "not a JSON object"),
        ("gridfn-v1", "not a JSON object"),
        ({"axes": {"lo": 0, "hi": 1, "n": 2}}, "list of objects"),
        ({"axes": [[0, 1, 2]]}, "list of objects"),
        ({"axes": [{"hi": 1, "n": 2}]}, "lacks the field"),
        ({"axes": [{"lo": 0, "n": 2}]}, "hi"),
        ({"axes": [{"lo": 0, "hi": 1}]}, "lacks the field"),
        ({"axes": [{"lo": 0, "hi": 1, "n": 2.5}]}, "not an integer"),
        ({"axes": [{"lo": 0, "hi": 1, "n": "2"}]}, "not an integer"),
        ({"axes": [{"lo": 0, "hi": 1, "n": True}]}, "not an integer"),
        ({"axes": [{"lo": None, "hi": 1, "n": 2}]}, "not numbers"),
    ], ids=["list", "string", "axes-object", "axis-list", "no-lo", "no-hi", "no-n",
            "float-n", "string-n", "bool-n", "null-lo"])
    def test_load_rejects_malformed_metadata(self, tmp_path, meta, message):
        path = tmp_path / "fn.gridfn"
        grids.save_grid_function(grids.GridFunction(grids.build_grid([(0, 1, 2)]), [0.0, 1.0]), path)
        if isinstance(meta, dict):
            meta = {**json.loads(path.read_text()), **meta}
        path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=message):
            grids.load_grid_function(path)


class TestAtomicWrites:
    def _fail_on_call(self, monkeypatch, target, number):
        """Make the ``number``-th call of ``os.<target>`` raise, after the real temp write."""
        real = getattr(grids.os, target)
        calls = {"n": 0}

        def failing(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == number:
                raise OSError("simulated crash mid-write")
            return real(*args, **kwargs)

        monkeypatch.setattr(grids.os, target, failing)

    @pytest.mark.parametrize("target", ["fsync", "replace"])
    def test_failed_save_keeps_the_previous_artifact(self, tmp_path, monkeypatch, target):
        g = grids.build_grid([(0, 1, 4)])
        path = tmp_path / "fn.gridfn"
        grids.save_grid_function(grids.GridFunction(g, [0.0, 1.0, 2.0, 3.0]), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        self._fail_on_call(monkeypatch, target, 1)  # the payload, written first
        with pytest.raises(OSError, match="simulated"):
            grids.save_grid_function(grids.GridFunction(g, [9.0, 9.0, 9.0, 9.0]), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert np.array_equal(grids.load_grid_function(path).values, [0.0, 1.0, 2.0, 3.0])

    def test_payload_is_written_before_the_metadata(self, tmp_path, monkeypatch):
        order = []
        real = grids.os.replace
        monkeypatch.setattr(grids.os, "replace", lambda src, dst: (order.append(Path(dst).name), real(src, dst)))
        grids.save_grid_function(grids.GridFunction(grids.build_grid([(0, 1, 2)]), [0.0, 1.0]),
                                 tmp_path / "fn.gridfn")
        assert order == ["fn.gridfn.bin", "fn.gridfn"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fn.gridfn", "fn.gridfn.bin"]

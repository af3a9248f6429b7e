from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tiledflow.decode import export_ply
from tiledflow.errors import ParseError, TiledFlowError
from tiledflow.fixtures import build_demo_scene
from tiledflow.flowcore import ImageConditioner
from tiledflow.lattice import Dims, OccupancyGrid
from tiledflow.patchwork import make_patch_grid
from tiledflow.priors import (
    ConditionEmbedding,
    NormalizationBox,
    ScenePrior,
    image_patchify,
    load_scene_prior,
    parse_ply_points,
    toy_condition,
    voxelize,
    write_scene_prior,
)


def tiny_prior(h=2, w=2, valid_all=True):
    rng = np.random.default_rng(0)
    image = rng.random((h, w, 3)).astype(np.float32)
    points = rng.standard_normal((h, w, 3)).astype(np.float32)
    valid = np.full((h, w), valid_all, dtype=bool)
    camera = np.eye(3, 4, dtype=np.float32)
    return ScenePrior(image=image, point_map=points, valid=valid, camera=camera)


class TestScenePrior:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ScenePrior(
                image=np.zeros((2, 2, 3), dtype=np.float32),
                point_map=np.zeros((3, 2, 3), dtype=np.float32),
                valid=np.ones((2, 2), dtype=bool),
                camera=np.zeros((3, 4), dtype=np.float32),
            )

    def test_image_range_checked(self):
        bad = tiny_prior()
        image = bad.image.copy()
        image[0, 0, 0] = 1.5
        with pytest.raises(ValueError):
            ScenePrior(image=image, point_map=bad.point_map, valid=bad.valid, camera=bad.camera)


    def test_non_finite_image_rejected(self):
        bad = tiny_prior()
        image = bad.image.copy()
        image[1, 0, 2] = np.nan
        with pytest.raises(ValueError):
            ScenePrior(image=image, point_map=bad.point_map, valid=bad.valid, camera=bad.camera)


class TestSprFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        prior = tiny_prior()
        path = tmp_path / "p.spr"
        write_scene_prior(path, prior)
        back = load_scene_prior(path)
        assert np.array_equal(back.image.view(np.uint32), prior.image.view(np.uint32))
        assert np.array_equal(back.point_map.view(np.uint32), prior.point_map.view(np.uint32))
        assert np.array_equal(back.valid, prior.valid)
        assert np.array_equal(back.camera.view(np.uint32), prior.camera.view(np.uint32))
        # the file itself must round-trip byte-for-byte too
        path2 = tmp_path / "p2.spr"
        write_scene_prior(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload_is_parse_error(self, tmp_path):
        prior = tiny_prior()
        path = tmp_path / "p.spr"
        write_scene_prior(path, prior)
        data = path.read_bytes()
        (tmp_path / "cut.spr").write_bytes(data[:-7])
        with pytest.raises(ParseError) as err:
            load_scene_prior(tmp_path / "cut.spr")
        assert err.value.offset >= 0

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.spr").write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ParseError) as err:
            load_scene_prior(tmp_path / "bad.spr")
        assert err.value.offset == 0


    def test_nan_image_is_parse_error(self, tmp_path):
        path = tmp_path / "p.spr"
        write_scene_prior(path, tiny_prior())
        data = bytearray(path.read_bytes())
        data[12:16] = np.array([np.nan], dtype="<f4").tobytes()  # first image value
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_scene_prior(path)

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_any_bytes_give_prior_or_parse_error(self, tmp_path, data):
        path = tmp_path / "fuzz.spr"
        write_scene_prior(path, tiny_prior(h=2, w=3))
        blob = data.draw(_mutated(path.read_bytes()))
        path.write_bytes(blob)
        try:
            prior = load_scene_prior(path)
        except TiledFlowError:
            return
        assert prior.image.shape[:2] == prior.shape


def _mutated(valid: bytes):
    """Random bytes, or `valid` with a few bytes overwritten, inserted or cut."""

    @st.composite
    def edit(draw):
        blob = bytearray(valid)
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(blob)))
            chunk = draw(st.binary(min_size=1, max_size=8))
            kind = draw(st.sampled_from(["overwrite", "insert", "cut"]))
            if kind == "overwrite":
                blob[at : at + len(chunk)] = chunk
            elif kind == "insert":
                blob[at:at] = chunk
            else:
                del blob[at : at + len(chunk)]
        return bytes(blob)

    return st.one_of(st.binary(max_size=200), edit())


class TestVoxelize:
    dims = Dims(2, 2, 4, 8)
    box = NormalizationBox(np.zeros(3), np.array([16.0, 16.0, 8.0]))

    def test_point_at_box_minimum(self):
        grid = voxelize(np.array([[0.0, 0.0, 0.0]]), self.box, self.dims)
        assert grid.occupied[0, 0, 0]
        assert grid.count() == 1

    def test_point_at_box_maximum_clamped(self):
        grid = voxelize(np.array([[16.0, 16.0, 8.0]]), self.box, self.dims)
        assert grid.occupied[15, 15, 7]

    def test_clamped_points_are_counted(self, caplog):
        # inside, on the upper faces (index 16 or 8 before the clamp), outside
        pts = np.array(
            [[1.0, 1.0, 1.0], [16.0, 3.0, 3.0], [3.0, 3.0, 8.0], [-0.1, 3.0, 3.0], [20.0, -5.0, 99.0]]
        )
        with caplog.at_level("INFO", logger="tiledflow.priors"):
            grid = voxelize(pts, self.box, self.dims)
        assert caplog.messages == ["voxelize: clamped 4 of 5 points into the box"]
        cells = self.box.to_voxels(pts, self.dims)
        assert np.array_equal(grid.occupied, OccupancyGrid.from_coords(self.dims, cells).occupied)
        caplog.clear()
        with caplog.at_level("INFO", logger="tiledflow.priors"):
            voxelize(pts[:1], self.box, self.dims)
        assert caplog.messages == []

    def test_distinct_cells(self):
        pts = np.array([[x + 0.5, x + 0.5, (x % 8) + 0.5] for x in range(8)], dtype=float)
        grid = voxelize(pts, self.box, self.dims)
        assert grid.count() == 8

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        pts = rng.random((50, 3)) * [16, 16, 8]
        a = voxelize(pts, self.box, self.dims)
        b = voxelize(pts[::-1], self.box, self.dims)
        assert np.array_equal(a.occupied, b.occupied)

    def test_no_valid_points_empty_grid(self):
        prior = tiny_prior(valid_all=False)
        assert len(prior.valid_points()) == 0
        grid = voxelize(prior.valid_points(), self.box, self.dims)
        assert grid.count() == 0

    def test_box_from_points_margin(self):
        pts = np.array([[0.0, 0.0, 0.0], [10.0, 4.0, 2.0]])
        box = NormalizationBox.from_points(pts, margin=0.02)
        assert np.allclose(box.lo, [-0.2, -0.08, -0.04])
        assert np.allclose(box.hi, [10.2, 4.08, 2.04])


class TestImagePatchify:
    def _prior_with_split(self):
        # 4x4 image: left half maps into window (0,0), right half into (1,0)
        image = np.zeros((4, 4, 3), dtype=np.float32)
        image[:, :2] = [0.8, 0.2, 0.1]
        image[:, 2:] = [0.1, 0.9, 0.3]
        points = np.zeros((4, 4, 3), dtype=np.float32)
        for r in range(4):
            for c in range(4):
                x = 1.0 if c < 2 else 5.0
                points[r, c] = (x, r, 1.0)
        prior = ScenePrior(
            image=image,
            point_map=points,
            valid=np.ones((4, 4), dtype=bool),
            camera=np.zeros((3, 4), dtype=np.float32),
        )
        dims = Dims(2, 1, 4, 4)
        box = NormalizationBox(np.zeros(3), np.array([8.0, 4.0, 4.0]))
        grid = make_patch_grid(dims, d=1, K=4)
        return prior, grid, box

    def test_single_window_keeps_valid_image(self):
        prior = tiny_prior(4, 4)
        dims = Dims(1, 1, 4, 4)
        grid = make_patch_grid(dims, d=1, K=4)
        box = NormalizationBox.from_points(prior.valid_points())
        patch = image_patchify(prior, grid.window(0, 0), grid, box)
        assert not patch.empty
        assert patch.pixels.shape == (4, 4, 3)
        assert np.array_equal(patch.pixels, prior.image)

    def test_hand_traced_split_crop_and_pad(self):
        prior, grid, box = self._prior_with_split()
        patch = image_patchify(prior, grid.window(0, 0), grid, box)
        assert patch.pixels.shape == (4, 4, 3)  # cropped to 4x2 then padded square
        assert np.allclose(patch.pixels[:, :2], prior.image[:, :2])
        assert np.all(patch.pixels[:, 2:] == 0)

    def test_mask_property_no_foreign_pixels(self):
        prior, grid, box = self._prior_with_split()
        patch = image_patchify(prior, grid.window(1, 0), grid, box)
        # the right half's color only; left-half color must not appear
        kept = patch.pixels.reshape(-1, 3)
        assert not any(np.allclose(px, [0.8, 0.2, 0.1]) for px in kept if px.any())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_invalid_pixels_are_not_voxelized(self):
        # a prior may hold NaN at invalid pixels: the window conditions are
        # those of the same prior with finite points there, with no warning
        scene = build_demo_scene(Dims(2, 2, 4, 8))
        valid = scene.prior.valid.copy()
        valid[::3, 1::2] = False
        finite = replace(scene.prior, valid=valid)
        nan = replace(finite, point_map=np.where(valid[..., None], finite.point_map, np.nan))
        grid = make_patch_grid(scene.dims, 2, scene.dims.N)
        box = NormalizationBox.from_points(finite.valid_points())
        want = ImageConditioner(finite, grid, box).window_conditions(grid)
        assert ImageConditioner(nan, grid, box).window_conditions(grid) == want
        for window, condition in zip(grid.windows(), want):
            patch = image_patchify(nan, window, grid, box)
            assert patch.empty or toy_condition(patch) == condition

    def test_all_invalid_flags_empty(self):
        prior = tiny_prior(4, 4, valid_all=False)
        dims = Dims(1, 1, 4, 4)
        grid = make_patch_grid(dims, d=1, K=4)
        box = NormalizationBox(np.zeros(3), np.ones(3))
        patch = image_patchify(prior, grid.window(0, 0), grid, box)
        assert patch.empty
        assert patch.pixels.shape == (1, 1, 3)
        assert np.all(patch.pixels == 0)


class TestToyCondition:
    def test_all_black(self):
        cond = toy_condition(np.zeros((5, 5, 3), dtype=np.float32))
        values = np.frombuffer(cond.data, dtype="<f4")
        assert len(cond.data) == 44
        assert np.allclose(values[:3], 0)
        assert values[3] == 1.0  # all luminance mass in bin 0
        assert np.all(values[4:] == 0)

    def test_all_white(self):
        cond = toy_condition(np.ones((3, 3, 3), dtype=np.float32))
        values = np.frombuffer(cond.data, dtype="<f4")
        assert np.allclose(values[:3], 1)
        assert values[10] == 1.0  # mass in bin 7

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(3)
        patch = rng.random((6, 6, 3)).astype(np.float32)
        assert toy_condition(patch).data == toy_condition(patch).data

    def test_length_fixed(self):
        assert len(ConditionEmbedding(b"abc").data) == 3


class TestPlyParsing:
    def test_round_trip_with_exporter(self):
        dims = Dims(1, 1, 8, 32)
        coords = np.array([[0, 0, 0], [31, 31, 31], [5, 17, 9]])
        grid = OccupancyGrid.from_coords(dims, coords)
        blob = export_ply(grid)
        points, colors = parse_ply_points(blob)
        assert colors is None
        assert len(points) == 3
        back = NormalizationBox(np.zeros(3), np.ones(3)).to_voxels(points, dims)
        assert np.array_equal(np.sort(back, axis=0), np.sort(coords, axis=0))

    def test_vertex_center_formula(self):
        dims = Dims(1, 1, 8, 32)
        grid = OccupancyGrid.from_coords(dims, np.array([[0, 0, 0]]))
        points, _ = parse_ply_points(export_ply(grid))
        assert np.allclose(points[0], 0.015625)

    def test_rejects_binary_format(self):
        blob = b"ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n"
        with pytest.raises(ParseError):
            parse_ply_points(blob)

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_ply_points(b"not a ply file")

    def test_short_body(self):
        blob = (
            b"ply\nformat ascii 1.0\nelement vertex 2\n"
            b"property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
        )
        with pytest.raises(ParseError):
            parse_ply_points(blob)

    _HEADER = b"ply\nformat ascii 1.0\n"
    _XYZ = b"property float x\nproperty float y\nproperty float z\n"

    @pytest.mark.parametrize(
        "element",
        [b"element vertex\n", b"element\n", b"element vertex x\n", b"element vertex -2\n"],
    )
    def test_bad_element_line(self, element):
        with pytest.raises(ParseError):
            parse_ply_points(self._HEADER + element + self._XYZ + b"end_header\n0 0 0\n")

    @pytest.mark.parametrize("row", [b"a b c", b"nan 0 0", b"0 inf 0", b"0 0 -1e999"])
    def test_bad_vertex_row(self, row):
        blob = self._HEADER + b"element vertex 1\n" + self._XYZ + b"end_header\n" + row + b"\n"
        with pytest.raises(ParseError):
            parse_ply_points(blob)

    def test_color_above_255(self):
        blob = (
            self._HEADER + b"element vertex 1\n" + self._XYZ
            + b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
            + b"end_header\n0 0 0 256 0 0\n"
        )
        with pytest.raises(ParseError):
            parse_ply_points(blob)

    @settings(max_examples=300)
    @given(st.data())
    def test_any_bytes_give_points_or_parse_error(self, data):
        valid = (
            self._HEADER + b"element vertex 2\n" + self._XYZ
            + b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
            + b"end_header\n0.5 1 -2 0 128 255\n3 4 5 1 2 3\n"
        )
        tokens = valid.split(b" ")
        vocab = [
            b"", b"x", b"-1", b"256", b"1e999", b"nan", b"element", b"vertex", b"\n", b"9" * 5000
        ]
        token_edit = st.lists(
            st.tuples(st.integers(0, len(tokens) - 1), st.sampled_from(vocab)),
            min_size=1, max_size=3,
        ).map(lambda edits: b" ".join(_replace_tokens(tokens, edits)))
        blob = data.draw(st.one_of(_mutated(valid), token_edit))
        try:
            points, colors = parse_ply_points(blob)
        except TiledFlowError:
            return
        assert points.shape[1] == 3 and np.isfinite(points).all()
        assert colors is None or colors.shape == points.shape


def _replace_tokens(tokens, edits):
    tokens = list(tokens)
    for at, token in edits:
        tokens[at] = token
    return tokens

import base64
import json
import os
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twoview.epipolar import Pose, label_inliers, symmetric_epipolar_distances
from twoview.synthdata import (
    MalformedRecord,
    SceneConfig,
    _draw_pose,
    generate_dataset,
    generate_pair,
    pair_from_line,
    pair_to_line,
    read_dataset,
    write_dataset,
)


def encode(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def decode(field):
    return np.frombuffer(base64.b64decode(field, validate=True), "<f8").copy()


def assert_rejected(tmp_path, record, *words):
    """read_dataset raises MalformedRecord naming line 1 and each of words."""
    path = tmp_path / "data.txt"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(MalformedRecord) as exc:
        read_dataset(path)
    for word in ("line 1", *words):
        assert word in str(exc.value)


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n=7)
        with pytest.raises(ValueError):
            SceneConfig(outlier_ratio=1.0)
        with pytest.raises(ValueError):
            SceneConfig(depth_min=5, depth_max=4)


def drawn_pose(seed, cfg):
    """The generator's pose draw from a fresh generator, as a validated Pose."""
    return Pose(*_draw_pose(np.random.default_rng(seed), cfg, cfg.intrinsics()))


class TestRandomPose:
    def test_zero_rotation_gives_identity(self):
        cfg = SceneConfig(max_rotation_deg=0.0, seed=0)
        pose = drawn_pose(0, cfg)
        assert np.array_equal(pose.rotation, np.eye(3))

    def test_unit_translation(self):
        cfg = SceneConfig(seed=0)
        for seed in range(10):
            pose = drawn_pose(seed, cfg)
            assert abs(np.linalg.norm(pose.translation) - 1.0) < 1e-9

    def test_deterministic(self):
        cfg = SceneConfig(seed=0)
        a = drawn_pose(42, cfg)
        b = drawn_pose(42, cfg)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_rotation_bounded(self):
        cfg = SceneConfig(max_rotation_deg=10.0, seed=0)
        for seed in range(10):
            pose = drawn_pose(seed, cfg)
            angle = np.degrees(np.arccos(np.clip((np.trace(pose.rotation) - 1) / 2, -1, 1)))
            assert angle <= 10.0 + 1e-9

    def test_retry_exhausted_when_views_cannot_overlap(self):
        from twoview.synthdata import RetryExhausted

        # a 0.7-degree field of view cannot keep a unit baseline in frame
        cfg = SceneConfig(focal=50000.0, seed=0)
        with pytest.raises(RetryExhausted):
            drawn_pose(0, cfg)


class TestGeneratePair:
    def test_noise_free_all_inliers(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.0, pixel_noise=0.0, seed=1))
        assert pair.labels.all()
        d = symmetric_epipolar_distances(pair.essential, pair.correspondences)
        assert d.max() < 1e-10

    def test_label_mean_band_100_seeds(self):
        # 50% injected outliers; a few random ones land near the epipolar line
        means = [generate_pair(SceneConfig(n=128, outlier_ratio=0.5, pixel_noise=0.0,
                                           seed=s)).labels.mean()
                 for s in range(100)]
        assert 0.45 <= float(np.mean(means)) <= 0.55

    def test_labels_match_geometry_after_shuffle(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.4, pixel_noise=1.0, seed=2))
        assert np.array_equal(pair.labels, label_inliers(pair.essential, pair.correspondences))

    def test_deterministic(self):
        cfg = SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=3)
        a, b = generate_pair(cfg), generate_pair(cfg)
        assert np.array_equal(a.correspondences, b.correspondences)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.essential, b.essential)

    def test_pair_seeds_differ(self):
        pairs = generate_dataset(SceneConfig(n=32, seed=0), 3, base_seed=100)
        assert pairs[0].seed == 100 and pairs[2].seed == 102
        assert not np.array_equal(pairs[0].correspondences, pairs[1].correspondences)

    def test_essential_matches_pose(self):
        from twoview.epipolar import essential_from_pose

        pair = generate_pair(SceneConfig(n=32, seed=4))
        assert np.array_equal(pair.essential,
                              essential_from_pose(pair.rotation, pair.translation))


class TestDatasetRoundTrip:
    def test_bit_exact(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=32, outlier_ratio=0.3, pixel_noise=0.7, seed=0),
                                 10, base_seed=50)
        path = tmp_path / "data.txt"
        write_dataset(pairs, path)
        loaded = read_dataset(path)
        assert len(loaded) == 10
        for a, b in zip(pairs, loaded):
            assert np.array_equal(a.correspondences, b.correspondences)
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)
            assert np.array_equal(a.essential, b.essential)
            assert np.array_equal(a.labels, b.labels)
            assert a.config == b.config and a.seed == b.seed

    @pytest.mark.parametrize("outlier_ratio, pixel_noise", [(0.6, 1.0), (0.4, 0.5)],
                             ids=["hard", "easy"])
    def test_generated_sets_read_without_floating_point_warnings(self, tmp_path, outlier_ratio,
                                                                 pixel_noise):
        """The inlier check runs with overflow as an error; generated sets never reach it."""
        scene = SceneConfig(n=512, outlier_ratio=outlier_ratio, pixel_noise=pixel_noise)
        pairs = generate_dataset(scene, 8, base_seed=300)
        path = tmp_path / "data.txt"
        write_dataset(pairs, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = read_dataset(path)
        for a, b in zip(pairs, loaded, strict=True):
            assert np.array_equal(a.correspondences, b.correspondences)
            assert np.array_equal(a.labels, b.labels)

    def test_reals_are_shortest_repr(self):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = pair_to_line(pair)
        field = base64.b64decode(json.loads(record)["correspondences"], validate=True)
        assert field == pair.correspondences.astype("<f8").tobytes()
        assert f'"t_gt":[{",".join(repr(float(v)) for v in pair.translation)}]' in record

    def test_seventeen_digit_files_still_load(self, tmp_path):
        """Records whose pose and config reals are written with format(x, ".17g") read back
        the same values."""
        pairs = generate_dataset(SceneConfig(n=32, outlier_ratio=0.3, pixel_noise=0.7, seed=0),
                                 4, base_seed=50)

        def g17(value):
            return format(float(value), ".17g")

        def array(values):
            return "[" + ",".join(g17(v) for v in np.ravel(values)) + "]"

        lines = []
        for p in pairs:
            cfg = ",".join(f'"{k}":{g17(v) if isinstance(v, float) else json.dumps(v)}'
                           for k, v in asdict(p.config).items())
            lines.append(
                f'{{"n":{len(p.correspondences)},"seed":{p.seed},"config":{{{cfg}}},'
                f'"correspondences":"{encode(p.correspondences)}","e_gt":{array(p.essential)},'
                f'"r_gt":{array(p.rotation)},"t_gt":{array(p.translation)},'
                f'"labels":[{",".join(str(int(v)) for v in p.labels)}]}}')
        old, new = tmp_path / "old.txt", tmp_path / "new.txt"
        old.write_text("".join(line + "\n" for line in lines))
        write_dataset(pairs, new)
        assert old.read_bytes() != new.read_bytes()
        for a, b in zip(pairs, read_dataset(old)):
            for field in ("correspondences", "rotation", "translation", "essential", "labels"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert a.config == b.config and a.seed == b.seed

    def test_file_byte_stable(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 3, base_seed=7)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(pairs, p1)
        write_dataset(pairs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_record_rejected(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 1, base_seed=0)
        path = tmp_path / "data.txt"
        write_dataset(pairs, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(MalformedRecord):
            read_dataset(path)

    def test_tampered_labels_rejected(self, tmp_path):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        line = pair_to_line(pair)
        flipped = 0 if pair.labels[0] else 1
        head, _, tail = line.partition('"labels":[')
        first, _, rest = tail.partition(",")
        bad = f'{head}"labels":[{flipped},{rest}'
        path = tmp_path / "data.txt"
        path.write_text(bad + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_dataset(path)
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_correspondence_rejected(self, tmp_path, value):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        row = int(np.flatnonzero(pair.labels == 0)[0])  # an outlier: its label stays 0
        record = json.loads(pair_to_line(pair))
        values = decode(record["correspondences"])
        values[4 * row:4 * row + 4] = value
        record["correspondences"] = encode(values)
        assert_rejected(tmp_path, record, "non-finite")

    @pytest.mark.parametrize("bad", [
        lambda field: field[:8] + "!" + field[8:],        # a character outside the alphabet
        lambda field: field[:8] + " " + field[8:],
        lambda field: encode(decode(field)[:-1]),         # 31 * n bytes
        lambda field: encode(np.append(decode(field), 0.0)),  # 33 * n bytes
        lambda field: base64.b64encode(base64.b64decode(field)[:-3]).decode(),
        lambda field: "",
        lambda field: 7.5,                                # a number
        lambda field: {"data": field},                    # an object
        lambda field: decode(field).tolist(),             # a JSON list of reals
    ], ids=["bang", "space", "short", "long", "partial-real", "empty", "number", "object", "list"])
    def test_bad_correspondence_field_rejected(self, tmp_path, bad):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record["correspondences"] = bad(record["correspondences"])
        assert_rejected(tmp_path, record, "correspondences")

    @pytest.mark.parametrize("key, value", [
        ("n", 16.7), ("n", 16.0), ("n", True), ("n", "16"),
        ("seed", 5.9), ("seed", True), ("seed", None),
    ])
    def test_non_integer_count_or_seed_rejected(self, tmp_path, key, value):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record[key] = value
        assert_rejected(tmp_path, record, f"{key} must be a JSON integer")

    @pytest.mark.parametrize("key, value, words", [
        ("n", 16.7, "config.n must be a JSON integer"),
        ("seed", True, "config.seed must be a JSON integer"),
        ("image_width", "640", "config.image_width must be a JSON integer"),
        ("focal", "500", "config.focal must be a finite JSON number"),
        ("pixel_noise", True, "config.pixel_noise must be a finite JSON number"),
        ("depth_max", float("inf"), "config.depth_max must be a finite JSON number"),
        ("bogus", 1, "config must be an object with keys from"),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, key, value, words):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record["config"][key] = value
        assert_rejected(tmp_path, record, words)

    def test_config_float_field_takes_a_json_integer(self):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record["config"]["focal"] = 500
        cfg = pair_from_line(json.dumps(record), 1).config
        assert type(cfg.focal) is float and cfg == pair.config

    @pytest.mark.parametrize("key", ["e_gt", "r_gt", "t_gt"])
    @pytest.mark.parametrize("kind", ["string", "bool"])
    def test_list_of_non_numbers_rejected(self, tmp_path, key, kind):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record[key][0] = repr(record[key][0]) if kind == "string" else True
        assert_rejected(tmp_path, record, f"{key} must be a list of JSON numbers")

    @pytest.mark.parametrize("key", ["e_gt", "r_gt", "t_gt"])
    def test_non_finite_pose_rejected(self, tmp_path, key):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record[key][0] = float("nan")
        assert_rejected(tmp_path, record, "does not match essential_from_pose")

    @pytest.mark.parametrize("n", [-1, 0, 7])
    def test_count_below_eight_rejected(self, tmp_path, n):
        """n = -1 names no count of rows at all; n = 0 leaves none to label."""
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        rows = 16 if n < 0 else n
        record = json.loads(pair_to_line(pair))
        record.update(n=n, labels=pair.labels[:rows].tolist(),
                      correspondences=encode(pair.correspondences[:rows]))
        assert_rejected(tmp_path, record, "n must be at least 8")

    @pytest.mark.parametrize("value", [0.4, 0.0, 1.0, True, False, 2, -1, 10**30, "1", None])
    def test_non_binary_label_rejected(self, tmp_path, value):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        record = json.loads(pair_to_line(pair))
        record["labels"][0] = value
        assert_rejected(tmp_path, record, "labels must be")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_finite_correspondences_round_trip_bit_for_bit(self, data):
        """A record gives back the very bits, -0.0 and subnormals included; reals so large
        that the inlier check overflows are rejected as a malformed record."""
        n = data.draw(st.integers(8, 24))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        special = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308])
        corr = data.draw(arrays(np.float64, (n, 4), elements=finite | special))
        pair = generate_pair(SceneConfig(n=8, seed=data.draw(st.integers(0, 50))))
        try:
            with np.errstate(over="raise", invalid="raise"):
                labels = label_inliers(pair.essential, corr)
        except FloatingPointError:  # huge reals overflow the distances
            labels = None
        pair = replace(pair, correspondences=corr,
                       labels=np.zeros(n, np.int64) if labels is None else labels)
        line = pair_to_line(pair)
        if labels is None:
            with pytest.raises(MalformedRecord, match="line 1: correspondence coordinates overflow"):
                pair_from_line(line, 1)
            return
        got = pair_from_line(line, 1)
        assert got.correspondences.dtype == np.float64 and got.correspondences.flags.writeable
        assert got.correspondences.tobytes() == corr.tobytes()
        assert np.array_equal(got.labels, pair.labels)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 4, base_seed=3)
        path = tmp_path / "data.txt"
        write_dataset(pairs[2:], path)
        before = path.read_bytes()

        def failing():
            yield pairs[0]
            yield pairs[1]
            raise RuntimeError("generation failed on the third pair")

        with pytest.raises(RuntimeError):
            write_dataset(failing(), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["data.txt"]

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_dataset(path) == []

    def test_blank_lines_ignored(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 2, base_seed=0)
        path = tmp_path / "data.txt"
        path.write_text(pair_to_line(pairs[0]) + "\n\n" + pair_to_line(pairs[1]) + "\n")
        assert len(read_dataset(path)) == 2


# (field, factor, error words): records whose pose essential_from_pose cannot check alone
BAD_POSES = [("t_gt", 0.0, "translation norm below 1e-12"),
             ("r_gt", 2.0, "rotation is not proper orthogonal"),
             ("t_gt", 2.0, "translation is not unit norm")]


class TestRecordChecks:
    def test_undecodable_byte_names_its_line(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 2, base_seed=0)
        path = tmp_path / "data.txt"
        path.write_bytes(pair_to_line(pairs[0]).encode() + b"\n{\xff\n"
                         + pair_to_line(pairs[1]).encode() + b"\n")
        with pytest.raises(MalformedRecord) as exc:
            read_dataset(path)
        assert exc.value.line_number == 2 and "line 2" in str(exc.value)
        assert "0xff" in str(exc.value)

    def test_utf8_text_outside_ascii_still_reads(self, tmp_path):
        """A key the reader ignores may hold any UTF-8 text."""
        pair = generate_pair(SceneConfig(n=16, seed=5))
        record = json.loads(pair_to_line(pair))
        record["note"] = "café ∂"
        path = tmp_path / "data.txt"
        path.write_bytes(json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n")
        (got,) = read_dataset(path)
        assert got.correspondences.tobytes() == pair.correspondences.tobytes()

    @pytest.mark.parametrize("key, value", [("n", 64), ("seed", 99)])
    def test_config_that_disagrees_with_the_record_rejected(self, tmp_path, key, value):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=4))
        record = json.loads(pair_to_line(pair))
        record["config"][key] = value
        assert_rejected(tmp_path, record, f"config.{key} is {value}", f"the record's {key} is")

    @pytest.mark.parametrize("t_gt", [[1e308, 1e308, 0.5], [1e308, -1e308, 1e308]],
                             ids=["two-huge", "three-huge"])
    def test_pose_near_the_float_range_rejected_without_warnings(self, tmp_path, t_gt):
        """The pose check overflows quietly; the mismatch it yields rejects the record."""
        record = json.loads(pair_to_line(generate_pair(SceneConfig(n=16, seed=4))))
        record["t_gt"] = t_gt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_rejected(tmp_path, record, "stored e_gt does not match")

    @pytest.mark.parametrize("key, scale, words", BAD_POSES, ids=["zero-t", "scaled-r", "scaled-t"])
    def test_pose_that_matches_e_gt_only_up_to_scale_rejected(self, tmp_path, key, scale, words):
        """e_gt is normalised, so it cannot tell a scaled r_gt or t_gt, nor a zero t_gt."""
        record = json.loads(pair_to_line(generate_pair(SceneConfig(n=16, seed=4))))
        record[key] = [scale * v for v in record[key]]
        assert_rejected(tmp_path, record, "bad pose", words)

    def test_config_may_leave_n_and_seed_unstated(self):
        pair = generate_pair(SceneConfig(n=16, seed=4))
        record = json.loads(pair_to_line(pair))
        del record["config"]["n"], record["config"]["seed"]
        got = pair_from_line(json.dumps(record), 1)
        assert got.seed == 4 and got.config == replace(pair.config, n=512, seed=0)

    def test_written_config_states_the_records_n_and_seed(self):
        pair = generate_pair(SceneConfig(n=8, seed=4))
        corr = np.vstack([pair.correspondences, pair.correspondences])
        pair = replace(pair, correspondences=corr, labels=np.tile(pair.labels, 2), seed=6)
        got = pair_from_line(pair_to_line(pair), 1)
        assert got.config == replace(pair.config, n=16, seed=6)

    @pytest.mark.parametrize("labels", [np.array([0, 1, 2] * 5 + [0]), np.full(16, -1),
                                        np.ones(16, dtype=bool), np.ones(16)],
                             ids=["two", "minus-one", "bool", "float"])
    def test_labels_that_no_record_can_hold_are_not_written(self, labels):
        pair = replace(generate_pair(SceneConfig(n=16, seed=4)), labels=labels)
        with pytest.raises(ValueError, match="labels must be"):
            pair_to_line(pair)

    def test_labels_written_as_json_writes_them(self):
        for labels in (np.array([0, 1, 1, 0, 1, 0, 0, 0]), np.zeros(8, np.int64),
                       np.ones(9, np.uint8)):
            pair = replace(generate_pair(SceneConfig(n=8, seed=1)), labels=labels)
            record = pair_to_line(pair)
            assert record.endswith(f'"labels":{json.dumps(labels.tolist(), separators=(",", ":"))}}}')


# Datasets that `twoview gen` wrote: a change that alters a generated byte fails here
PINNED = {
    "hard": (101, "scene.n = 8\nscene.outlier_ratio = 0.6\nscene.pixel_noise = 1.0\n"),
    "easy": (202, "scene.n = 8\nscene.outlier_ratio = 0.4\nscene.pixel_noise = 0.5\n"),
    "noise_free": (303, "scene.n = 8\nscene.outlier_ratio = 0.25\nscene.pixel_noise = 0.0\n"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generation_matches_the_pinned_dataset(tmp_path, name):
    from twoview.cli import main

    seed, text = PINNED[name]
    cfg, out = tmp_path / "scene.cfg", tmp_path / "pairs.txt"
    cfg.write_text(text)
    assert main(["gen", "--seed", str(seed), "--pairs", "3", "--config", str(cfg),
                 "--out", str(out)]) == 0
    pinned = os.path.join(os.path.dirname(__file__), "data", f"gen_{name}.txt")
    with open(pinned, "rb") as fh:
        assert out.read_bytes() == fh.read()

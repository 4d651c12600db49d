import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pointlabel import io as pio
from pointlabel.io import (LAYOUTS, BoundsError, ParseError, PointCloud,
                           Raster, SamplingError, SchemaError, ShapeError,
                           load_points, parse_ascii_grid, parse_points,
                           read_ascii_grid, read_ppm_image, sample_raster,
                           save_points, write_ascii_grid, write_points,
                           write_ppm_image)


class TestParsePoints:
    def test_xyz_only(self):
        cloud = parse_points("1.0 2.0 3.0\n", LAYOUTS[3])
        assert len(cloud) == 1
        assert np.array_equal(cloud.xyz[0], [1.0, 2.0, 3.0])
        assert cloud.spectral is None and cloud.labels is None

    def test_full_schema(self):
        cloud = parse_points("0 0 0 255 0 0 5\n", LAYOUTS[7])
        assert cloud.spectral[0, 0] == 255
        assert cloud.labels[0] == 5

    def test_missing_column_reports_line(self):
        with pytest.raises(SchemaError, match="line 1"):
            parse_points("1.0 2.0\n", LAYOUTS[3])

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n1 2 3  # trailing comment\n4 5 6\n"
        cloud = parse_points(text, LAYOUTS[3])
        assert len(cloud) == 2
        assert cloud.xyz[1, 0] == 4

    def test_bad_number_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_points("1 2 3\n1 x 3\n", LAYOUTS[3])

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_points("1 2 nan\n", LAYOUTS[3])

    def test_order_preserved(self):
        cloud = parse_points("3 0 0\n1 0 0\n2 0 0\n", LAYOUTS[3])
        assert np.array_equal(cloud.xyz[:, 0], [3, 1, 2])


class TestReader:
    """One reader for named and explicit layouts, with the same checks."""

    def test_layout_from_first_data_line(self):
        cloud = parse_points("# x y z label\n\n1 2 3 4\n5 6 7 8\n")
        assert np.array_equal(cloud.labels, [4, 8]) and cloud.spectral is None
        cloud = parse_points("1 2 3 4 5 6\n")
        assert np.array_equal(cloud.spectral, [[4, 5, 6]]) and cloud.labels is None
        with pytest.raises(SchemaError, match="line 3: 5 columns"):
            parse_points("# header\n\n1 2 3 4 5\n")

    def test_empty_input(self):
        assert len(parse_points("")) == 0
        cloud = parse_points("# nothing\n\n", ["x", "y", "z", "label"])
        assert len(cloud) == 0 and cloud.labels.shape == (0,)

    def test_discarded_columns_not_parsed(self):
        cloud = parse_points("1 2 3 first nan 5\n",
                             ["x", "y", "z", "-", "-", "label"])
        assert np.array_equal(cloud.labels, [5])

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError, match="'label' more than once"):
            parse_points("1 2 3 4 4\n", ["x", "y", "z", "label", "label"])

    @pytest.mark.parametrize("text, columns, line", [
        ("1 2 3 0\n4 5 6 -1\n", ["x", "y", "z", "label"], 2),
        ("1 2 3 -1 0\n", ["x", "y", "z", "label", "-"], 1),
        ("1 2 3 4 5 6 0\n1 2 3 4 nan 6 0\n", None, 2),
        ("1 2 3 nan 5 6\n", ["x", "y", "z", "ir", "r", "g"], 1),
        ("9 8 7 1 2 3\n", ["ir", "r", "g", "x", "y", "z"], None),
        ("1 2 3 0\n\n1 2 3 99999999999\n", None, 3),
        ("1 2 3 99999999999\n", ["x", "y", "z", "label"], 1),
        ("1 2 3 2147483648\n", None, 1),
        ("1 2 3 99999999999999999999999\n", None, 1),
        ("1 2 3 5.0\n", None, 1),
        ("1 2 inf\n", ["x", "y", "z"], 1),
    ])
    def test_bad_value_names_its_line(self, text, columns, line):
        if line is None:
            cloud = parse_points(text, columns)
            assert np.array_equal(cloud.xyz, [[1, 2, 3]])
            assert np.array_equal(cloud.spectral, [[9, 8, 7]])
            return
        with pytest.raises(ParseError, match=f"^line {line}: ") as info:
            parse_points(text, columns)
        assert not isinstance(info.value, SchemaError)

    def test_line_numpy_splits_differently_rejected(self):
        # a carriage return inside one line of an in-memory iterable
        with pytest.raises(ParseError, match="^line 2: malformed line"):
            parse_points(["1 2 3\n", "1 2\r3\n"])

    @pytest.mark.parametrize("char", sorted(
        ({chr(c) for c in range(0x3000 + 1) if chr(c).isspace()} - set("\r\n"))
        | set("\x00\x85\xa0\u200b\u2028\ufeff#-,;")))
    def test_one_pass_splits_lines_as_str_split(self, char):
        # the one-pass reader leaves the width check to numpy's tokenizer:
        # it must cut a line into the tokens str.split() gives (a line
        # break inside a line is test_line_numpy_splits_differently_rejected)
        for line in (f"1{char}2 3", f"{char}1 2 3{char}", f"1 2{char}{char}3"):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                assert len(parse_points([line], LAYOUTS[3])) == 0
            elif len(tokens) == 3 and all(t.isdigit() for t in tokens):
                assert np.array_equal(parse_points([line]).xyz,
                                      [[float(t) for t in tokens]])
            else:
                with pytest.raises(ParseError):
                    parse_points([line], LAYOUTS[3])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, columns, error, message", [
        ("1 nan abc", None, ParseError, "line 1: z 'abc' is not a number"),
        ("-1 q nan inf 1", ["label", "-", "z", "y", "x"], ParseError,
         "line 1: non-finite y"),
        ("1 2 3 -5", None, ParseError, "line 1: label -5 outside 0..2147483647"),
        ("inf 2 3 x", ["x", "y", "z", "label"], ParseError,
         "line 1: label 'x' is not an integer"),
        # the bisection meets a chunk of comments and blank lines
        ("# a\n# b\n# c\n\n1 2 3\n1 2", None, SchemaError,
         "line 6: expected 3 columns, got 2"),
    ])
    def test_faults_of_one_line_named_in_order(self, text, columns, error,
                                               message):
        # column count, then malformed columns in file order, then
        # non-finite values in x, y, z, ir, r, g order, then the label range
        with pytest.raises(ParseError) as info:
            parse_points(text, columns)
        assert type(info.value) is error and str(info.value) == message

    def test_largest_label_accepted(self):
        cloud = parse_points("1 2 3 2147483647\n")
        assert cloud.labels[0] == 2 ** 31 - 1

    BAD_LINES = {"width": (SchemaError, "1 2 3"),
                 "number": (ParseError, "1 x 3 0"),
                 "nan": (ParseError, "1 2 nan 0"),
                 "negative": (ParseError, "1 2 3 -4"),
                 "huge": (ParseError, "1 2 3 99999999999"),
                 "fraction": (ParseError, "1 2 3 5.0")}

    @settings(max_examples=100, deadline=None)
    @given(n_good=st.integers(1, 60), explicit=st.booleans(),
           bad=st.lists(st.tuples(st.integers(1, 60), st.sampled_from(sorted(BAD_LINES))),
                        min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_first_bad_line_reported(self, n_good, explicit, bad, seed):
        rng = np.random.default_rng(seed)
        lines = [f"{x:.3f} {y:.3f} {z:.3f} {lab}" for (x, y, z), lab in
                 zip(rng.uniform(-50, 50, (n_good, 3)), rng.integers(0, 9, n_good))]
        for pos, kind in bad:
            lines.insert(min(pos, len(lines)), kind)
        # comments and blank lines shift line numbers, not data rows
        text = []
        for line in lines:
            if rng.random() < 0.2:
                text.append(["", "# comment", "   "][rng.integers(0, 3)])
            text.append(line)
        first = next(i for i, line in enumerate(text) if line in self.BAD_LINES)
        error, body = self.BAD_LINES[text[first]]
        text = [self.BAD_LINES[line][1] if line in self.BAD_LINES else line
                for line in text]
        with pytest.raises(error, match=f"^line {first + 1}: ") as info:
            parse_points("\n".join(text) + "\n",
                         LAYOUTS[4] if explicit or first == 0 else None)
        assert (error is SchemaError) == isinstance(info.value, SchemaError)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3, max_size=60).map(lambda v: v[:len(v) // 3 * 3]),
           style=st.sampled_from(["repr", "e", "f"]), digits=st.integers(0, 25))
    def test_values_match_float_bit_for_bit(self, values, style, digits):
        # the whole-table conversion rounds every token as float() does
        tokens = [repr(v) if style == "repr" else f"{v:.{digits}{style}}"
                  for v in values]
        tokens = [t for t in tokens if math.isfinite(float(t))]
        tokens = tokens[:len(tokens) // 3 * 3]
        text = "".join(" ".join(tokens[i:i + 3]) + "\n"
                       for i in range(0, len(tokens), 3))
        want = np.array([float(t) for t in tokens]).reshape(-1, 3)
        assert parse_points(text).xyz.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 40), has_spectral=st.booleans(),
           has_labels=st.booleans(), explicit=st.booleans(),
           extra=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_write_parse_roundtrip(self, n, has_spectral, has_labels, explicit,
                                   extra, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.uniform(-1e4, 1e4, (n, 3)),
                           rng.uniform(0, 255, (n, 3)) if has_spectral else None,
                           rng.integers(0, 2 ** 31, n) if has_labels else None)
        text = write_points(cloud)
        layout = LAYOUTS[3 + 3 * has_spectral + has_labels]
        columns = None
        if explicit:
            # reorder the columns and interleave discarded ones holding
            # text that is no number
            columns = list(layout) + ["-"] * extra
            order = rng.permutation(len(columns))
            columns = [columns[k] for k in order]
            rows = []
            for line in text.splitlines():
                toks = line.split() + ["n/a"] * extra
                rows.append(" ".join(toks[k] for k in order) + "\n")
            text = "".join(rows)
        back = parse_points(text, columns)
        assert write_points(back) == write_points(cloud)
        assert np.allclose(back.xyz, cloud.xyz, rtol=0, atol=1e-6)
        if has_spectral:
            assert np.allclose(back.spectral, cloud.spectral, rtol=0, atol=1e-6)
        else:
            assert back.spectral is None
        if has_labels:
            assert np.array_equal(back.labels, cloud.labels)
        else:
            assert back.labels is None


class TestWritePoints:
    def test_single_labeled_point(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        assert write_points(cloud, labels=[3]) == "1.000000 2.000000 3.000000 3\n"

    def test_empty_cloud(self):
        assert write_points(PointCloud(np.zeros((0, 3)))) == ""

    def test_label_length_mismatch(self):
        cloud = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            write_points(cloud, labels=[1])

    def test_roundtrip_random_clouds(self, rng):
        for has_spectral, has_label in [(False, False), (True, False),
                                        (False, True), (True, True)]:
            layout = LAYOUTS[3 + 3 * has_spectral + has_label]
            n = 1000
            cloud = PointCloud(
                rng.uniform(-100, 100, (n, 3)),
                rng.uniform(0, 255, (n, 3)) if has_spectral else None,
                rng.integers(0, 9, n).astype(np.int32) if has_label else None)
            back = parse_points(write_points(cloud), layout)
            assert np.allclose(back.xyz, cloud.xyz, atol=1e-6)
            if has_spectral:
                assert np.allclose(back.spectral, cloud.spectral, atol=1e-6)
            if has_label:
                assert np.array_equal(back.labels, cloud.labels)

    def test_text_matches_per_value_reference(self, rng):
        def reference(cloud, labels):
            out = []
            for i in range(len(cloud)):
                cols = [f"{v:.6f}" for v in cloud.xyz[i]]
                if cloud.spectral is not None:
                    cols += [f"{v:.6f}" for v in cloud.spectral[i]]
                if labels is not None:
                    cols.append(str(int(labels[i])))
                out.append(" ".join(cols))
            return "\n".join(out) + ("\n" if out else "")

        # -0.0, values that round at the 6th decimal either way, and a
        # length that spans several formatting chunks
        awkward = [-0.0, 0.0, 5e-7, -5e-7, 0.0000005000001, 1.2345675,
                   -1.2345665, 123456.9999995, 1e-12, -1e-12]
        n = 9000
        for has_spectral, has_labels in [(False, False), (True, False),
                                         (False, True), (True, True)]:
            xyz = rng.uniform(-1e5, 1e5, (n, 3))
            xyz.flat[:len(awkward)] = awkward
            spectral = rng.uniform(0, 255, (n, 3)) if has_spectral else None
            if has_spectral:
                spectral[-1] = awkward[:3]
            cloud = PointCloud(xyz, spectral,
                               rng.integers(0, 9, n) if has_labels else None)
            assert write_points(cloud) == reference(cloud, cloud.labels)
        labels = rng.integers(0, 9, n)
        assert write_points(cloud, labels=labels) == reference(cloud, labels)

    # every float64, the exact ties k/128 (six decimals end in a 5 with
    # nothing after it), magnitudes around and beyond 2^52 / 1e6, where the
    # scaled value runs out of integer digits, and the non-finite values
    VALUES = st.one_of(
        st.floats(width=64),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
        st.integers(-2 ** 24, 2 ** 24).map(lambda k: k / 128),
        st.floats(2 ** 52 / 1e6 / 4, 2 ** 52 / 1e6 * 4).flatmap(
            lambda v: st.sampled_from([v, -v])),
        st.floats(-1e4, 1e4),
        st.floats(-1e-5, 1e-5))
    LABELS = st.one_of(
        st.integers(-2 ** 31, 2 ** 31 - 1),
        st.sampled_from([-1, 0, 2 ** 31 - 1]),
        st.floats(-1e20, 1e20), st.sampled_from([-0.5, -0.0, 2.5, 1e15 + 0.5]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30), has_spectral=st.booleans(),
           labels=st.sampled_from(["none", "int", "float"]),
           chunk=st.sampled_from([1, 3, 4096]))
    def test_text_matches_percent_format(self, data, n, has_spectral, labels,
                                         chunk):
        values = np.array(data.draw(st.lists(self.VALUES, min_size=6 * n,
                                             max_size=6 * n))).reshape(n, 6)
        cloud = PointCloud(values[:, :3], values[:, 3:] if has_spectral else None)
        label_values = None
        if labels != "none":
            label_values = np.array(data.draw(st.lists(
                st.integers(-2 ** 31, 2 ** 31 - 1) if labels == "int"
                else self.LABELS, min_size=n, max_size=n)),
                dtype=np.int64 if labels == "int" else np.float64)
        want = []
        for i in range(n):
            cols = ["%.6f" % v for v in cloud.xyz[i].tolist()]
            if has_spectral:
                cols += ["%.6f" % v for v in cloud.spectral[i].tolist()]
            if label_values is not None:
                cols.append("%d" % float(label_values[i]))
            want.append(" ".join(cols) + "\n")
        with mock.patch.object(pio, "WRITE_CHUNK_ROWS", chunk):
            assert write_points(cloud, label_values) == "".join(want)

    def test_file_roundtrip_auto_schema(self, rng, tmp_path):
        cloud = PointCloud(rng.uniform(0, 10, (20, 3)),
                           rng.uniform(0, 255, (20, 3)),
                           rng.integers(0, 9, 20).astype(np.int32))
        path = tmp_path / "pts.txt"
        save_points(path, cloud)
        back = load_points(path)
        assert back.has_spectral and back.has_labels
        assert np.allclose(back.xyz, cloud.xyz, atol=1e-6)


class TestSaveValues:
    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_bytes_equal_savetxt(self, tmp_path, rng, chunk):
        # 0, 1, the exact ties k/128 and values within an ulp of the
        # rounding ties (k + 0.5) * 1e-6, among random probabilities
        ties = (np.arange(20) + 0.5) * 1e-6
        awkward = np.concatenate([
            [0.0, 1.0, -0.0, 5e-7], np.arange(129) / 128, ties,
            np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)])
        values = rng.dirichlet(np.ones(9), 40)
        values.flat[:len(awkward)] = awkward
        want, got = tmp_path / "want.txt", tmp_path / "got.txt"
        np.savetxt(want, values, fmt="%.6f")
        with mock.patch.object(pio, "WRITE_CHUNK_ROWS", chunk):
            pio.save_values(got, values)
        assert got.read_bytes() == want.read_bytes()


class TestLoadPointsFile:
    """load_points on whole files: the one-pass read and, on a bad line,
    the message naming the line the bisection finds."""

    def write(self, path, lines, newline="\n"):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(newline.join(lines) + newline)

    def lines(self, rng, n=6000):
        cloud = PointCloud(rng.uniform(-500, 500, (n, 3)),
                           rng.uniform(0, 255, (n, 3)), rng.integers(0, 9, n))
        lines = write_points(cloud).splitlines()
        # a header, blank lines, whole-line and trailing comments
        lines[100] += "  # trailing"
        return (["# x y z ir r g label", ""] + lines[:3000]
                + ["", "   # note", "\t"] + lines[3000:])

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_comments_and_blank_lines(self, rng, tmp_path, newline):
        lines = self.lines(rng)
        self.write(tmp_path / "p.txt", lines, newline)
        cloud = load_points(tmp_path / "p.txt")
        rows = [line.split("#")[0].split() for line in lines]
        rows = np.array([[float(t) for t in r] for r in rows if r])
        assert cloud.xyz.tobytes() == rows[:, :3].copy().tobytes()
        assert cloud.spectral.tobytes() == rows[:, 3:6].copy().tobytes()
        assert np.array_equal(cloud.labels, rows[:, 6])
        assert cloud.labels.dtype == np.int32

    @pytest.mark.parametrize("bad, error, message", [
        ("1.0 2.0 abc 4 5 6 7", ParseError, "z 'abc' is not a number"),
        ("1.0 2.0 3.0 4 5 6 7.5", ParseError, "label '7.5' is not an integer"),
        ("1.0 2.0 nan 4 5 6 7", ParseError, "non-finite z"),
        ("1.0 2.0 3.0 4 inf 6 7", ParseError, "non-finite r"),
        ("1.0 2.0 3.0 4 5 6 -7", ParseError, "label -7 outside 0..2147483647"),
        ("1.0 2.0 3.0 4 5 6", SchemaError, "expected 7 columns, got 6"),
        ("1.0 2.0 3.0 4 5 6 7 8", SchemaError, "expected 7 columns, got 8"),
        ("1.0 2.0 3.0 4 5 6 7\x0c8", SchemaError, "expected 7 columns, got 8"),
    ])
    def test_one_bad_line_deep_inside(self, rng, tmp_path, bad, error, message):
        lines = self.lines(rng)
        lines[4500] = bad
        self.write(tmp_path / "p.txt", lines)
        with pytest.raises(error, match=f"^line 4501: {message}$") as info:
            load_points(tmp_path / "p.txt")
        assert (error is SchemaError) == isinstance(info.value, SchemaError)


    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                      "\x85", "\u2028", "\u2029"])
    def test_string_splits_lines_as_a_file(self, tmp_path, char):
        # str.splitlines() would also break lines at these characters; a
        # file read in text mode breaks them at \n, \r\n and \r only
        def outcome(read):
            try:
                cloud = read()
            except ParseError as e:
                return type(e), str(e)
            return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                         for a in (cloud.xyz, cloud.spectral, cloud.labels))

        texts = [f"1 2 3{char}4 5 6\n", f"1 2 3\n4{char}5 6\n",
                 f"1 2 3 1{char}\r\n4 5 6 2{char}7\r9 8 7 0\n",
                 f"# a{char}b\n{char}1 2 3\n", f"1 2 3\r{char}\r\n4 5 6{char}"]
        for text in texts:
            with open(tmp_path / "p.txt", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            for columns in (None, ["x", "y", "z"]):
                assert (outcome(lambda: parse_points(text, columns))
                        == outcome(lambda: load_points(tmp_path / "p.txt", columns)))


class TestParseColumns:
    def test_discard_extra_columns(self):
        # x y z intensity return_count label
        text = "1 2 3 180 2 5\n4 5 6 190 1 7\n"
        cloud = parse_points(text, ["x", "y", "z", "-", "-", "label"])
        assert len(cloud) == 2
        assert np.array_equal(cloud.xyz[0], [1, 2, 3])
        assert np.array_equal(cloud.labels, [5, 7])
        assert cloud.spectral is None

    def test_reordered_columns(self):
        cloud = parse_points("3 1 2\n", ["z", "x", "y"])
        assert np.array_equal(cloud.xyz[0], [1, 2, 3])

    def test_spectral_requires_all_three(self):
        with pytest.raises(ValueError, match="ir, r, g"):
            parse_points("1 2 3 4\n", ["x", "y", "z", "ir"])

    def test_missing_coordinate_rejected(self):
        with pytest.raises(ValueError, match="'z'"):
            parse_points("1 2\n", ["x", "y"])

    def test_wrong_width_reports_line(self):
        with pytest.raises(SchemaError, match="line 1"):
            parse_points("1 2 3 4\n", ["x", "y", "z"])


GRID_1X1 = "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 2\nNODATA_value -9999\n7\n"


class TestAsciiGrid:
    def test_corner_to_center_conversion(self):
        r = parse_ascii_grid(GRID_1X1)
        assert r.origin_x == 1.0 and r.origin_y == 1.0
        assert r.data[0, 0, 0] == 7.0

    def test_nodata_kept_as_sentinel(self):
        text = GRID_1X1.replace("7\n", "-9999\n")
        r = parse_ascii_grid(text)
        assert r.data[0, 0, 0] == -9999.0
        assert r.nodata == -9999.0

    def test_value_count_mismatch(self):
        text = ("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                "NODATA_value -9999\n1 2 3\n")
        with pytest.raises(SchemaError, match="expected 4"):
            parse_ascii_grid(text)

    def test_nodata_value_optional(self):
        # the format's default when the line is absent
        r = parse_ascii_grid(GRID_1X1.replace("NODATA_value -9999\n", "")
                             .replace("7\n", "-9999\n"))
        assert r.nodata == -9999.0 and r.data[0, 0, 0] == -9999.0
        assert parse_ascii_grid(GRID_1X1.replace("-9999", "-1")).nodata == -1.0

    def test_missing_header_key(self):
        with pytest.raises(ParseError, match="cellsize"):
            parse_ascii_grid("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\n"
                             "NODATA_value -9999\n7\n")

    def test_first_data_row_is_north(self):
        text = ("ncols 1\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                "NODATA_value -9999\n10\n20\n")
        r = parse_ascii_grid(text)
        # row 0 sits at the top: origin_y = 0 + 2*1 - 0.5 = 1.5
        assert r.origin_y == 1.5
        assert sample_raster(r, 0.5, 1.5)[0] == 10.0
        assert sample_raster(r, 0.5, 0.5)[0] == 20.0

    @pytest.mark.parametrize("text,match", [
        (GRID_1X1.replace("7\n", "nan\n"), "line 7: grid value 'nan'"),
        (GRID_1X1.replace("7\n", "inf\n"), "line 7: grid value 'inf'"),
        (GRID_1X1.replace("xllcorner 0", "xllcorner nan"),
         "line 3: xllcorner is 'nan', not a finite number"),
        (GRID_1X1.replace("NODATA_value -9999", "NODATA_value -inf"),
         "line 6: NODATA_value is '-inf'"),
        (GRID_1X1.replace("ncols 1", "ncols 2.7"),
         "line 1: ncols is '2.7', not a positive integer"),
        (GRID_1X1.replace("nrows 1", "nrows 0"),
         "line 2: nrows is '0', not a positive integer"),
        (GRID_1X1.replace("ncols 1", "ncols 2").replace("7\n", "nan 7\n"),
         "line 7: grid value 'nan'"),
        (GRID_1X1.replace("7\n", "seven\n"), "line 7: bad grid value"),
        (GRID_1X1.replace("cellsize 2", "cellsize 0"),
         "line 5: cellsize is '0', not a finite number > 0"),
        (GRID_1X1.replace("cellsize 2", "cellsize -2"),
         "line 5: cellsize is '-2', not a finite number > 0"),
    ])
    def test_bad_header_or_value_names_its_line(self, text, match):
        with pytest.raises(ParseError, match=match):
            parse_ascii_grid(text)

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x85", "\u2028"])
    def test_string_splits_lines_as_a_file(self, tmp_path, char):
        # a file read in text mode breaks lines at \n, \r\n and \r only,
        # where str.splitlines() also breaks them at these characters
        def outcome(read):
            try:
                r = read()
            except (ParseError, SchemaError) as e:
                return type(e), str(e)
            return (r.data.tobytes(), r.data.shape, r.origin_x, r.origin_y,
                    r.cell_size, r.nodata)

        two = GRID_1X1.replace("ncols 1", "ncols 2")
        texts = [GRID_1X1.replace("\nnrows", f"{char}nrows"),
                 two.replace("7\n", f"7{char}8\n"),
                 GRID_1X1.replace("7\n", f"{char}7\r\n{char}\r"),
                 GRID_1X1.replace("\n", "\r").replace("cellsize",
                                                      f"{char}cellsize")]
        for text in texts:
            with open(tmp_path / "g.asc", "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            assert (outcome(lambda: parse_ascii_grid(text))
                    == outcome(lambda: read_ascii_grid(tmp_path / "g.asc")))
        assert outcome(lambda: parse_ascii_grid(texts[0]))[1] == (
            "line 1: malformed header line")

    @pytest.mark.parametrize("repeat,match", [
        ("cellsize 5", "line 6: repeated header key cellsize"),
        ("CELLSIZE 2", "line 6: repeated header key CELLSIZE"),
    ])
    def test_repeated_header_key_names_its_line(self, repeat, match):
        text = GRID_1X1.replace("cellsize 2\n", f"cellsize 2\n{repeat}\n")
        with pytest.raises(ParseError, match=match):
            parse_ascii_grid(text)

    def test_header_keys_any_case(self):
        r = parse_ascii_grid(GRID_1X1.upper().replace("NODATA_VALUE", "nodata_Value"))
        assert r.data[0, 0, 0] == 7.0 and r.cell_size == 2.0

    def test_write_parse_origin_roundtrip(self, rng):
        r = Raster(rng.uniform(0, 50, (4, 5)), origin_x=100.33, origin_y=250.77,
                   cell_size=0.5)
        back = parse_ascii_grid(write_ascii_grid(r))
        assert back.origin_x == pytest.approx(r.origin_x, abs=1e-6)
        assert back.origin_y == pytest.approx(r.origin_y, abs=1e-6)
        assert np.allclose(back.data, r.data)


class TestPpmWorld:
    def test_roundtrip(self, tmp_path, rng):
        r = Raster(rng.integers(0, 256, (3, 4, 6)).astype(float),
                   origin_x=10.0, origin_y=20.0, cell_size=0.25)
        path = tmp_path / "img.ppm"
        write_ppm_image(path, r)
        back = read_ppm_image(path)
        assert back.bands == 3 and back.width == 6 and back.height == 4
        assert back.origin_x == 10.0 and back.cell_size == 0.25
        assert np.array_equal(back.data, r.data)

    @pytest.mark.parametrize("body,match", [
        ("P3\n1 1\n65535\n1 2 3\n", "maxval 65535"),
        ("P3\n1 1\n255\n1 999 3\n", "sample 1 is 999"),
        ("P3\n1 1\n255\n1 2 -4\n", "sample 2 is -4"),
        ("P3\n1 1\n255\n1 nan 3\n", "sample 1 is nan"),
        ("P2\n1 1\n255\n7\n", "P3 magic"),
    ])
    def test_only_8bit_p3_accepted(self, tmp_path, body, match):
        path = tmp_path / "img.ppm"
        path.write_text(body)
        (tmp_path / "img.wld").write_text("1.0\n0.0\n0.0\n-1.0\n0.0\n0.0\n")
        with pytest.raises(ParseError, match=match):
            read_ppm_image(path)

    @pytest.mark.parametrize("body,match", [
        ("P3 2 1 255\n1.5 2.25 3 4 5 6\n", "sample 0 is 1.5, not an integer"),
        ("P3 2 1 255\n1 2 3 4 5 6e0\n", "sample 5 is 6e0, not an integer"),
        ("P3 2.0 1 255\n1 2 3 4 5 6\n", "malformed image header"),
        ("P3 2 1 255.0\n1 2 3 4 5 6\n", "malformed image header"),
    ])
    def test_integer_tokens_required(self, tmp_path, body, match):
        path = tmp_path / "img.ppm"
        path.write_text(body)
        (tmp_path / "img.wld").write_text("1.0\n0.0\n0.0\n-1.0\n0.0\n0.0\n")
        with pytest.raises(ParseError, match=match):
            read_ppm_image(path)

    @pytest.mark.parametrize("header,samples,match", [
        ("-2 -3", 18, "width is -2, not a positive integer"),
        ("0 0", 0, "width is 0, not a positive integer"),
        ("2 0", 0, "height is 0, not a positive integer"),
    ], ids=["negative", "empty", "no-rows"])
    def test_positive_size_required(self, tmp_path, header, samples, match):
        # -2 x -3 failed in numpy's reshape; 0 x 0 loaded as an empty raster
        path = tmp_path / "img.ppm"
        path.write_text(f"P3 {header} 255\n" + " 1" * samples + "\n")
        (tmp_path / "img.wld").write_text("1.0\n0.0\n0.0\n-1.0\n0.0\n0.0\n")
        with pytest.raises(ParseError, match=match):
            read_ppm_image(path)

    def test_full_8bit_range_read(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text("P3\n1 1\n255\n0 128 255\n")
        (tmp_path / "img.wld").write_text("1.0\n0.0\n0.0\n-1.0\n0.0\n0.0\n")
        assert read_ppm_image(path).data.reshape(-1).tolist() == [0, 128, 255]

    @pytest.mark.parametrize("value", [255.5, 256.0, -0.6, np.nan])
    def test_write_refuses_samples_outside_8bit(self, tmp_path, value):
        r = Raster(np.full((3, 1, 2), 7.0), origin_x=0.0, origin_y=0.0,
                   cell_size=1.0)
        r.data[1, 0, 1] = value
        with pytest.raises(ValueError, match="sample 4 "):
            write_ppm_image(tmp_path / "img.ppm", r)
        assert not (tmp_path / "img.ppm").exists()

    def test_write_rounds_into_range(self, tmp_path):
        r = Raster(np.array([255.4, -0.4, 2.5]).reshape(3, 1, 1),
                   origin_x=0.0, origin_y=0.0, cell_size=1.0)
        write_ppm_image(tmp_path / "img.ppm", r)
        assert read_ppm_image(tmp_path / "img.ppm").data.reshape(-1).tolist() \
            == [255.0, 0.0, 2.0]

    def test_write_needs_three_bands(self, tmp_path):
        r = Raster(np.zeros((2, 2)), origin_x=0.0, origin_y=0.0, cell_size=1.0)
        with pytest.raises(ShapeError, match="3 bands"):
            write_ppm_image(tmp_path / "img.ppm", r)

    @pytest.mark.parametrize("world,match", [
        ("1.0\n0.0\n0.0\n-1.0\nnan\n0.0\n", "line 5: x origin is 'nan'"),
        ("nan\n0.0\n0.0\n-1.0\n0.0\n0.0\n",
         "line 1: x cell size is 'nan', not a finite number > 0"),
        ("1.0\n0.0\n0.0\nbad\n0.0\n0.0\n",
         "line 4: y cell size is 'bad', not a finite number"),
        ("1.0\n\n0.0\n0.0\n-1.0\n0.0\n-inf\n", "line 7: y origin is '-inf'"),
        ("0.0\n0.0\n0.0\n-0.0\n0.0\n0.0\n",
         "line 1: x cell size is '0.0', not a finite number > 0"),
        ("-1.0\n0.0\n0.0\n1.0\n0.0\n0.0\n", "line 1: x cell size is '-1.0'"),
    ])
    def test_world_values_checked_by_line(self, tmp_path, world, match):
        path = tmp_path / "img.ppm"
        path.write_text("P3\n1 1\n255\n1 2 3\n")
        (tmp_path / "img.wld").write_text(world)
        with pytest.raises(ParseError, match=f"img.wld: {match}"):
            read_ppm_image(path)

    def test_world_file_required(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text("P3\n1 1\n255\n1 2 3\n")
        with pytest.raises(FileNotFoundError):
            read_ppm_image(path)


def grid(data, origin_x=0.0, origin_y=0.0, cell=1.0, nodata=-9999.0):
    return Raster(np.asarray(data, dtype=float), origin_x=origin_x,
                  origin_y=origin_y, cell_size=cell, nodata=nodata)


class TestSampleRaster:
    def test_pixel_center_exact_both_modes(self):
        r = grid([[1.0, 2.0], [3.0, 4.0]])
        assert sample_raster(r, 1.0, 0.0)[0] == 2.0

    def test_midpoint_of_four_pixels(self):
        r = grid([[0.0, 0.0], [1.0, 1.0]])
        assert sample_raster(r, 0.5, -0.5)[0] == pytest.approx(0.5)

    def test_nodata_neighbor_renormalized(self):
        r = grid([[-9999.0, 0.0], [1.0, 1.0]])
        # equal corner weights, nodata excluded -> (0+1+1)/3
        assert sample_raster(r, 0.5, -0.5)[0] == pytest.approx(2.0 / 3.0)

    def test_all_nodata_rejected(self):
        r = grid([[-9999.0, -9999.0], [-9999.0, -9999.0]])
        with pytest.raises(SamplingError):
            sample_raster(r, 0.5, -0.5)

    def test_edge_clamping_within_margin(self):
        r = grid([[5.0]])
        assert sample_raster(r, 0.49, 0.0)[0] == 5.0

    def test_out_of_extent_rejected(self):
        r = grid([[5.0]])
        with pytest.raises(BoundsError):
            sample_raster(r, 2.0, 0.0)

    def test_bilinear_exact_on_planar_field(self, rng):
        # data[j, i] = a*x_i + b*y_j + c sampled anywhere in the interior
        a, b, c = 0.7, -1.3, 4.0
        xs = np.arange(8) * 0.5 + 2.0
        ys = 10.0 - np.arange(6) * 0.5
        data = a * xs[None, :] + b * ys[:, None] + c
        r = grid(data, origin_x=2.0, origin_y=10.0, cell=0.5)
        for _ in range(200):
            x = rng.uniform(xs[0], xs[-1])
            y = rng.uniform(ys[-1], ys[0])
            expect = a * x + b * y + c
            assert sample_raster(r, x, y)[0] == pytest.approx(expect, abs=1e-5)

    def test_multiband(self):
        r = Raster(np.stack([np.full((2, 2), 10.0), np.full((2, 2), 20.0),
                             np.full((2, 2), 30.0)]),
                   origin_x=0, origin_y=0, cell_size=1)
        assert np.array_equal(sample_raster(r, 0.5, -0.5), [10.0, 20.0, 30.0])


def scalar_sample(raster, x, y):
    """Reference: the per-point sampler the array sampler replaced."""
    cell = raster.cell_size
    px = (x - raster.origin_x) / cell
    py = (raster.origin_y - y) / cell
    w, h = raster.width, raster.height
    margin = 0.5 + 1e-9
    if not (-margin <= px <= w - 1 + margin) or not (-margin <= py <= h - 1 + margin):
        raise BoundsError("outside")
    px = min(max(px, 0.0), float(w - 1))
    py = min(max(py, 0.0), float(h - 1))
    i0 = min(int(math.floor(px)), max(w - 2, 0))
    j0 = min(int(math.floor(py)), max(h - 2, 0))
    i1 = min(i0 + 1, w - 1)
    j1 = min(j0 + 1, h - 1)
    fx = px - i0
    fy = py - j0
    neighbors = ((j0, i0, (1 - fx) * (1 - fy)), (j0, i1, fx * (1 - fy)),
                 (j1, i0, (1 - fx) * fy), (j1, i1, fx * fy))
    out = np.zeros(raster.bands, dtype=np.float64)
    for band in range(raster.bands):
        acc = 0.0
        wsum = 0.0
        for j, i, wgt in neighbors:
            v = raster.data[band, j, i]
            if v == raster.nodata:
                continue
            acc += wgt * v
            wsum += wgt
        if wsum <= 0.0:
            raise SamplingError("no valid neighbors")
        out[band] = acc / wsum
    return out


class TestSampleRasterArrays:
    @settings(max_examples=150, deadline=None)
    @given(bands=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5),
           cell=st.one_of(st.sampled_from([0.25, 1.0, 2.0]), st.floats(0.05, 20.0)),
           ox=st.one_of(st.integers(-999, 999).map(float), st.floats(-1e4, 1e4)),
           oy=st.one_of(st.integers(-999, 999).map(float), st.floats(-1e4, 1e4)),
           nodata_share=st.sampled_from([0.0, 0.2, 0.6]),
           n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scalar_reference_bit_for_bit(self, bands, h, w, cell, ox, oy,
                                                  nodata_share, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.uniform(-50.0, 300.0, (bands, h, w))
        data[rng.random(data.shape) < nodata_share] = -9999.0
        r = Raster(data, origin_x=ox, origin_y=oy, cell_size=cell)
        # pixel coordinates: anywhere from well outside to the far margin,
        # exact pixel centers and midpoints between them, and points on
        # the half-cell margin
        kind = rng.integers(0, 3, n)
        px = np.where(kind == 0, rng.uniform(-1.5, w + 0.5, n),
                      np.where(kind == 1, rng.integers(0, 2 * w - 1, n) / 2,
                               rng.choice([-0.5, w - 0.5], n)))
        py = np.where(kind == 0, rng.uniform(-1.5, h + 0.5, n),
                      np.where(kind == 1, rng.integers(0, 2 * h - 1, n) / 2,
                               rng.choice([-0.5, h - 0.5], n)))
        x = ox + px * cell
        y = oy - py * cell
        expected = []
        for xi, yi in zip(x, y):
            try:
                expected.append(scalar_sample(r, xi, yi))
            except (BoundsError, SamplingError) as exc:
                expected.append(type(exc))
        failed = [k for k, e in enumerate(expected) if isinstance(e, type)]
        if failed:
            with pytest.raises(expected[failed[0]]) as info:
                sample_raster(r, x, y)
            assert info.value.index == failed[0]
        ok = [k for k in range(n) if k not in failed]
        got = sample_raster(r, x[ok], y[ok])
        assert got.shape == (len(ok), bands)
        want = np.array([expected[k] for k in ok]).reshape(len(ok), bands)
        assert got.tobytes() == want.tobytes()
        if ok:
            one = sample_raster(r, float(x[ok[0]]), float(y[ok[0]]))
            assert one.shape == (bands,)
            assert one.tobytes() == want[0].tobytes()

    def test_lengths_must_match(self):
        with pytest.raises(ShapeError):
            sample_raster(grid([[1.0]]), np.zeros(2), np.zeros(3))

    def test_lowest_failing_query_reported_bounds_first(self):
        r = grid([[1.0, -9999.0, -9999.0], [2.0, -9999.0, -9999.0]])
        # query 1 has only nodata neighbors, query 2 is outside the extent
        x = np.array([0.0, 2.0, 9.0])
        y = np.array([0.0, 0.0, 0.0])
        with pytest.raises(SamplingError) as info:
            sample_raster(r, x, y)
        assert info.value.index == 1
        with pytest.raises(BoundsError) as info:
            sample_raster(r, x[::-1], y)
        assert info.value.index == 0

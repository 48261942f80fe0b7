import pytest
from hypothesis import given, settings, strategies as st

from dispgrid import PointSet, full_grid, read_point_set, write_point_set
from dispgrid.pointset_io import PointSetParseError, format_header


class TestRoundTrip:
    def test_full_grid(self, tmp_path):
        path = tmp_path / "pts.txt"
        original = full_grid(2, 2)
        write_point_set(original, path)
        assert read_point_set(path) == original

    def test_metadata_comments_ignored(self, tmp_path):
        path = tmp_path / "pts.txt"
        ps = PointSet.from_numerators(2, 1, [(1,), (3,)])
        write_point_set(ps, path, metadata={"seed": 7, "note": "x"})
        text = path.read_text()
        assert "# seed=7" in text
        assert read_point_set(path) == ps

    def test_real_round_trip_exact_floats(self, tmp_path):
        path = tmp_path / "pts.txt"
        ps = PointSet.from_reals(2, [(0.1, 0.9999999999999999), (1 / 3, 0.0)])
        write_point_set(ps, path)
        assert read_point_set(path) == ps

    def test_golden_text(self, tmp_path):
        path = tmp_path / "pts.txt"
        write_point_set(PointSet.from_numerators(3, 2, [(1, 7), (4, 4)]), path)
        assert path.read_text() == "dispgrid v1 d=2 k=3 n=2 repr=grid\n1 7\n4 4\n"
        write_point_set(PointSet.from_reals(2, [(0.1, 1 / 3)]), path)
        assert path.read_text() == "dispgrid v1 d=2 k=0 n=1 repr=real\n0.1 0.3333333333333333\n"

    @given(
        payload=st.integers(2, 4).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.integers(1, 3).flatmap(
                    lambda d: st.tuples(
                        st.just(d),
                        st.lists(
                            st.lists(
                                st.integers(1, 2**k - 1), min_size=d, max_size=d
                            ).map(tuple),
                            max_size=12,
                        ),
                    )
                ),
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_identity_property(self, payload, tmp_path_factory):
        k, (d, rows) = payload
        ps = PointSet.from_numerators(k, d, rows)
        path = tmp_path_factory.mktemp("io") / "pts.txt"
        write_point_set(ps, path)
        assert read_point_set(path) == ps


class TestHeader:
    def test_grid_header(self):
        assert format_header(full_grid(2, 2)) == "dispgrid v1 d=2 k=2 n=9 repr=grid"

    def test_real_header_carries_k0(self):
        ps = PointSet.from_reals(1, [(0.5,)])
        assert format_header(ps) == "dispgrid v1 d=1 k=0 n=1 repr=real"


class TestParseErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        return path

    def test_numerator_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=1 k=2 n=1 repr=grid\n4\n")
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 2

    def test_real_coordinate_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=1 k=0 n=1 repr=real\n1.2\n")
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 2

    def test_malformed_header(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=1 n=1 repr=grid\n1\n")
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 1

    def test_dimension_mismatch(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=2 k=2 n=1 repr=grid\n1\n")
        with pytest.raises(PointSetParseError):
            read_point_set(path)

    def test_count_mismatch(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=1 k=2 n=2 repr=grid\n1\n")
        with pytest.raises(PointSetParseError):
            read_point_set(path)

    def test_bad_literal_names_line(self, tmp_path):
        path = self.write(tmp_path, "dispgrid v1 d=1 k=2 n=2 repr=grid\n1\nx\n")
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 3

    @pytest.mark.parametrize(
        "text,message",
        [
            ("dispgrid v1 d=1 k=1 n=1 repr=grid\n3\n", "grid files need k >= 2, got k=1"),
            ("dispgrid v1 d=1 k=0 n=1 repr=grid\n3\n", "grid files need k >= 2, got k=0"),
            ("dispgrid v1 d=1 k=3 n=1 repr=real\n1.5\n", "real files must carry k=0, got k=3"),
        ],
        ids=["grid-k1", "grid-k0", "real-k3"],
    )
    def test_header_k_refused_before_points(self, tmp_path, text, message):
        # line 2 holds a bad coordinate, so a check made after the points names line 2
        path = self.write(tmp_path, text)
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 1
        assert str(info.value) == f"{path}:1: {message}"

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(PointSetParseError):
            read_point_set(path)

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scc import (
    BadMagic,
    DataSet,
    Dictionary,
    DimensionMismatch,
    EpochStats,
    FormatError,
    NonFinite,
    SCCError,
    SparseCode,
    Truncated,
)
from scc import rng_from_seed, validate_dataset
from scc.core import _CodeStore
from scc.serialize import (
    MAGIC_CODES,
    MAGIC_MATRIX,
    METRICS_HEADER,
    read_codes,
    read_dataset,
    read_dataset_csv,
    read_dictionary,
    read_matrix,
    read_metrics_csv,
    read_pgm,
    write_codes,
    write_dataset,
    write_dictionary,
    write_matrix,
    write_metrics_csv,
    write_pgm,
)

from conftest import random_unit_atoms


class TestMatrixContainer:
    def test_round_trip_bits(self, tmp_path, rng):
        X = rng.standard_normal((5, 7))
        path = tmp_path / "x.sccmat"
        write_matrix(path, X)
        back = read_matrix(path)
        assert back.tobytes() == np.asfortranarray(X).tobytes()
        assert back.flags.f_contiguous

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(1, 6), n=st.integers(1, 6), seed=st.integers(0, 2**31))
    def test_round_trip_property(self, tmp_path_factory, p, n, seed):
        X = rng_from_seed(seed).standard_normal((p, n))
        path = tmp_path_factory.mktemp("mat") / "m.sccmat"
        write_matrix(path, X)
        np.testing.assert_array_equal(read_matrix(path), X)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "x.sccmat"
        write_matrix(path, rng.standard_normal((4, 4)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(Truncated):
            read_matrix(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.sccmat"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(BadMagic):
            read_matrix(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "x.sccmat"
        write_matrix(path, rng.standard_normal((2, 2)))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_matrix(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        with pytest.raises(NonFinite):
            write_matrix(tmp_path / "x.sccmat", np.array([[np.nan]]))

    def test_nonfinite_rejected_on_read(self, tmp_path):
        path = tmp_path / "x.sccmat"
        payload = np.array([np.inf]).astype("<f8").tobytes()
        path.write_bytes(MAGIC_MATRIX + (1).to_bytes(4, "little") * 2 + payload)
        with pytest.raises(NonFinite):
            read_matrix(path)

    def test_dataset_and_dictionary_wrappers(self, tmp_path, rng):
        ds = DataSet(rng.standard_normal((6, 3)))
        write_dataset(tmp_path / "d.sccmat", ds)
        back = read_dataset(tmp_path / "d.sccmat")
        assert back.X.tobytes() == ds.X.tobytes()

        D = Dictionary(random_unit_atoms(rng, 6, 4))
        write_dictionary(tmp_path / "dict.sccmat", D)
        back_dict = read_dictionary(tmp_path / "dict.sccmat")
        assert back_dict.atoms.tobytes() == D.atoms.tobytes()

    def test_dataset_read_peaks_below_two_and_a_half_file_sizes(self, tmp_path, rng):
        path = tmp_path / "d.sccmat"
        write_matrix(path, rng.standard_normal((64, 2000)))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ds = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (64, 2000)
        assert peak < 2.5 * size, peak / size

    def test_dataset_read_peaks_below_one_and_a_half_file_sizes(self, tmp_path, rng):
        path = tmp_path / "d.sccmat"
        X = rng.standard_normal((64, 2000))
        write_matrix(path, X)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ds = read_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, peak / size
        assert ds.X.tobytes(order="F") == X.tobytes(order="F")
        assert ds.X.flags.f_contiguous and not ds.X.flags.writeable

    def test_flagged_dataset_read_and_validated_below_one_and_a_half_file_sizes(
        self, tmp_path, rng
    ):
        path = tmp_path / "d.sccmat"
        X = rng.standard_normal((64, 2000))
        X -= X.mean(axis=0)
        X /= np.linalg.norm(X, axis=0)
        write_matrix(path, X)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            ds = read_dataset(path, preprocessed=True)
            validate_dataset(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, peak / size

    def test_fortran_matrix_is_written_without_a_copy_of_its_payload(self, tmp_path, rng):
        path = tmp_path / "d.sccmat"
        X = np.asfortranarray(rng.standard_normal((64, 2000)))
        tracemalloc.start()
        try:
            write_matrix(path, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the finiteness check's booleans are an eighth of the payload
        assert peak < 0.25 * X.nbytes, peak / X.nbytes
        assert path.read_bytes()[16:] == X.tobytes(order="F")

    def test_csv_fallback_one_sample_per_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,f2\n1.0,2.0,3.0\n4.0,5.5,6.25\n")
        ds = read_dataset(path)
        assert (ds.p, ds.n) == (3, 2)
        np.testing.assert_array_equal(ds.column(0), [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(ds.column(1), [4.0, 5.5, 6.25])

    def test_csv_fallback_rejects_ragged_and_garbage(self, tmp_path):
        from scc import DimensionMismatch

        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DimensionMismatch):
            read_dataset(path)
        path.write_text("a,b\n1,two\n")
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_csv_fallback_rejects_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n3,\xff\n")
        with pytest.raises(FormatError, match="not UTF-8 text"):
            read_dataset(path)


_DATASET_FILES = {
    "sccmat": MAGIC_MATRIX + struct.pack("<II", 2, 3)
    + np.array([1.0, -2.5, 0.0, 3.25, 4.0, -1.0]).tobytes(),
    "csv": b"f0,f1\n1.0,-2.5\n0.0,3.25\n4.0,-1.0\n",
}


@settings(max_examples=200, deadline=None)
@given(source=st.sampled_from(sorted(_DATASET_FILES)), cut=st.integers(0, 70),
       edits=st.lists(st.tuples(st.integers(0, 69), st.integers(0, 255)), max_size=4),
       reader=st.sampled_from([read_dataset, read_dataset_csv]))
@example(source="sccmat", cut=70, edits=[(0, 0xD3)], reader=read_dataset)  # one damaged magic byte
def test_damaged_dataset_files_raise_only_scc_errors(tmp_path_factory, source, cut, edits, reader):
    _read_damaged(tmp_path_factory, _DATASET_FILES[source], cut, edits, reader)


def _read_damaged(tmp_path_factory, original, cut, edits, reader):
    """``reader`` on ``original`` cut to ``cut`` bytes and mutated by ``edits``: it
    may raise only ``SCCError``s."""
    data = bytearray(original[:cut])  # truncated
    for pos, byte in edits:  # and mutated
        if pos < len(data):
            data[pos] = byte
    path = tmp_path_factory.getbasetemp() / "damaged-file"
    path.write_bytes(bytes(data))
    try:
        reader(path)
    except SCCError:
        pass


_OTHER_FILES = {
    "metrics": (read_metrics_csv, (METRICS_HEADER + "\n1,0.5,0.125,0.0625,3.5,7\n"
                                   "2,0.25,0.25,0.125,3.0,6\n").encode()),
    "sccspc": (read_codes, MAGIC_CODES + struct.pack("<IIIIdIdI", 5, 2, 2, 0, 0.5, 3, -1.25, 0)),
    "dictionary": (read_dictionary, MAGIC_MATRIX + struct.pack("<II", 2, 2)
                   + np.array([0.6, 0.8, -1.0, 0.0]).tobytes()),
    "pgm": (read_pgm, b"P5\n3 2\n255\n" + bytes(range(0, 240, 40))),
}
_FIRST_ROW = len(METRICS_HEADER) + 1  # where the metrics file's first epoch number is


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_OTHER_FILES)), cut=st.integers(0, 120),
       edits=st.lists(st.tuples(st.integers(0, 119), st.integers(0, 255)), max_size=4))
@example(kind="metrics", cut=120, edits=[(_FIRST_ROW, ord("x"))])  # a letter in the epoch column
@example(kind="metrics", cut=120, edits=[(_FIRST_ROW, 0xFF)])  # a byte that is not UTF-8
def test_damaged_files_raise_only_scc_errors(tmp_path_factory, kind, cut, edits):
    reader, original = _OTHER_FILES[kind]
    _read_damaged(tmp_path_factory, original, cut, edits, reader)


class TestCodesContainer:
    def round_trip(self, tmp_path, codes):
        path = tmp_path / "z.sccspc"
        write_codes(path, codes)
        back = read_codes(path)
        assert len(back) == len(codes)
        for a, b in zip(codes, back):
            assert a.m == b.m
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.values, b.values)

    def test_round_trip_mixed(self, tmp_path, rng):
        codes = [
            SparseCode.zero(9),
            SparseCode(np.array([0, 8]), np.array([0.25, -1.5]), 9),
            SparseCode(np.arange(9), rng.standard_normal(9) + 3.0, 9),
        ]
        self.round_trip(tmp_path, codes)

    @staticmethod
    def packed(codes, m):
        """The container's bytes, one struct field at a time."""
        parts = [MAGIC_CODES, struct.pack("<II", m, len(codes))]
        for c in codes:
            parts.append(struct.pack("<I", c.nnz))
            parts += [struct.pack("<Id", j, v) for j, v in zip(c.indices.tolist(), c.values.tolist())]
        return b"".join(parts)

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 12), sizes=st.lists(st.integers(0, 12), min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    def test_store_and_list_write_the_same_bytes(self, tmp_path_factory, m, sizes, seed):
        rng = rng_from_seed(seed)
        codes = [SparseCode(np.sort(rng.choice(m, min(k, m), replace=False)),
                            rng.standard_normal(min(k, m)) + 5.0, m) for k in sizes]
        # the same codes laid out in reverse sample order, as a shuffled epoch may leave them
        reversed_store = _CodeStore(m, len(codes), 0)
        for i in reversed(range(len(codes))):
            reversed_store.put(i, codes[i])
        want = self.packed(codes, m)
        path = tmp_path_factory.mktemp("codes") / "z.sccspc"
        for source in (codes, _CodeStore.of(codes, m), reversed_store):
            write_codes(path, source)
            assert path.read_bytes() == want
        self.round_trip(path.parent, codes)

    def test_zero_codes_and_mixed_ambients_are_rejected(self, tmp_path):
        path = tmp_path / "z.sccspc"
        with pytest.raises(DimensionMismatch, match="zero codes"):
            write_codes(path, [])  # a list without codes does not know its m
        with pytest.raises(DimensionMismatch, match="code 1 has ambient 5, expected 4"):
            write_codes(path, [SparseCode.zero(4), SparseCode.zero(5)])
        assert not path.exists()

    def test_empty_store_writes_its_header(self, tmp_path):
        path = tmp_path / "z.sccspc"
        write_codes(path, _CodeStore(4, 0, 0))
        assert path.read_bytes() == MAGIC_CODES + struct.pack("<II", 4, 0)
        assert read_codes(path) == []

    def test_truncated(self, tmp_path):
        path = tmp_path / "z.sccspc"
        write_codes(path, [SparseCode(np.array([1]), np.array([2.0]), 4)])
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(Truncated):
            read_codes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "z.sccspc"
        path.write_bytes(b"SCCMAT01" + b"\0" * 8)
        with pytest.raises(BadMagic):
            read_codes(path)

    @pytest.mark.parametrize("pairs", [
        [(3, 1.0), (1, 2.0)],  # indices out of order
        [(1, 0.0)],  # an explicit zero
        [(4, 1.0)],  # an index at m
    ])
    def test_malformed_record_is_format_error(self, tmp_path, pairs):
        path = tmp_path / "z.sccspc"
        good = struct.pack("<I", 1) + struct.pack("<Id", 0, 0.5)
        bad = struct.pack("<I", len(pairs)) + b"".join(struct.pack("<Id", *pr) for pr in pairs)
        path.write_bytes(MAGIC_CODES + struct.pack("<II", 4, 2) + good + bad)
        with pytest.raises(FormatError, match="code 1"):
            read_codes(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_atom_header_is_format_error(self, tmp_path, n):
        path = tmp_path / "z.sccspc"
        path.write_bytes(MAGIC_CODES + struct.pack("<II", 0, n) + struct.pack("<I", 0) * n)
        with pytest.raises(FormatError):
            read_codes(path)


class TestMetricsCsv:
    def make_stats(self, k):
        return [
            EpochStats(
                epoch=i + 1,
                objective=0.5 / (i + 1),
                time_code_update=0.125 * i,
                time_dict_update=0.0625 * i,
                mean_support=3.5,
                max_support=7,
            )
            for i in range(k)
        ]

    def test_line_count(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv(path, self.make_stats(10))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11
        assert lines[0] == "epoch,objective,time_code_s,time_dict_s,mean_support,max_support"

    def test_parse_back_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        stats = self.make_stats(4)
        write_metrics_csv(path, stats)
        assert read_metrics_csv(path) == stats

    def test_header_required(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("nope\n1,2,3,4,5,6\n")
        with pytest.raises(FormatError):
            read_metrics_csv(path)


class TestPgm:
    def test_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 13)).astype(np.uint8)
        path = tmp_path / "i.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_comments_and_whitespace(self, tmp_path):
        pixels = bytes(range(6))
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5 # comment\n# another\n 3\n2 255\n" + pixels)
        img = read_pgm(path)
        assert img.shape == (2, 3)
        assert img[1, 2] == 5

    @pytest.mark.parametrize("header", [
        b"P5 #a\n3\t#b\n2\n#c\n255\n",  # a comment between every pair of tokens
        b"#x\nP5\n#y\n3\n#z\n2\n#w\n255\n",  # and before the first
        b"P5 3 2 255 ",
        b"P5\t3\t2\t255\t",
        b"P5\r3\r2\r255\r",
        b"P5\x0b3\x0b2\x0b255\x0b",
        b"P5\x0c3\x0c2\x0c255\x0c",
        b"P5\n \t\r\x0b\x0c3 2\n255\n",  # a run of all six whitespace bytes
    ])
    def test_header_separators(self, tmp_path, header):
        path = tmp_path / "i.pgm"
        path.write_bytes(header + bytes(range(6)))
        np.testing.assert_array_equal(read_pgm(path), np.arange(6, dtype=np.uint8).reshape(2, 3))

    @pytest.mark.parametrize("data, error", [
        (b"P5 3 2 # the end, without a newline", Truncated),
        (b"P5 3#2 2 255\n" + bytes(6), FormatError),  # "3#2" is one token
        (b"P5 #\n", Truncated),
        (b"#P5\n3 2 255\n" + bytes(6), BadMagic),  # a token is never read out of a comment
        (b"# comment only", BadMagic),
        (b"", BadMagic),
        (b"P5 3 2 255", Truncated),  # the header's last token ends the file
    ])
    def test_malformed_headers(self, tmp_path, data, error):
        path = tmp_path / "i.pgm"
        path.write_bytes(data)
        with pytest.raises(error):
            read_pgm(path)

    def test_token_may_hold_a_hash_after_its_first_byte(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5#x\n3 2 255\n" + bytes(6))
        with pytest.raises(BadMagic):  # the magic token is "P5#x"
            read_pgm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
        with pytest.raises(BadMagic):
            read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\0" * 7)
        with pytest.raises(Truncated):
            read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "i.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\0" * 8)
        with pytest.raises(FormatError):
            read_pgm(path)

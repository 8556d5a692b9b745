import struct
import warnings

import numpy as np
import pytest

from scc import cli, generate_planted, sample_objective, soft_threshold
from scc.cli import main
from scc.serialize import (
    MAGIC_CODES,
    read_codes,
    read_metrics_csv,
    write_dataset,
    write_dictionary,
    write_matrix,
)

from conftest import CD_PATHS, NATIVE_POSSIBLE, cd_path


def run(argv):
    return main([str(a) for a in argv])


_BENCH = ["bench", "--synthetic", "8,12,20,2,0.02", "--out", "b.csv"]
# a command line that is whole but for the flag under test
_COMMAND = {
    "--synthetic": ["train"],
    "--dict-sizes": _BENCH,
    "--cd-steps": [*_BENCH, "--dict-sizes", "8"],
    "--mode": ["encode", "--dict", "d.sccmat", "--data", "x.sccmat", "--out", "z.sccspc"],
}


@pytest.mark.parametrize("flag, value", [
    ("--synthetic", "1,2,3"),
    ("--synthetic", "a,b,c,d,e"),
    ("--synthetic", "1,2,3,4,x"),
    ("--dict-sizes", ""),
    ("--dict-sizes", "8,x"),
    ("--cd-steps", "x"),
    ("--mode", "magic"),
    ("--mode", "scc:0"),
    ("--mode", "scc:x"),
])
def test_malformed_value_is_refused_while_parsing(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    # parsing comes before the SCC_THREADS check, so a bad cap does not turn this into exit 1
    monkeypatch.setenv("SCC_THREADS", "abc")
    loads = []
    monkeypatch.setattr(cli, "generate_planted", lambda *a, **k: loads.append(a))
    with pytest.raises(SystemExit) as exc:
        run([*_COMMAND[flag], flag, value])
    assert exc.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert loads == []
    assert list(tmp_path.iterdir()) == []


def test_list_items_go_through_int():
    args = cli.build_parser().parse_args([*_BENCH, "--dict-sizes", " 8, 12,"])
    assert (args.dict_sizes, args.cd_steps, args.synthetic) == ([8, 12], [3], (8, 12, 20, 2, 0.02))


class TestTrain:
    def test_synthetic_run_writes_metrics(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run(
            ["train", "--synthetic", "8,16,120,2,0.01", "--algo", "scc",
             "--seed", "7", "--out-metrics", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11  # header + default 10 epochs
        stats = read_metrics_csv(out)
        assert stats[-1].objective < stats[0].objective

    @pytest.mark.parametrize("command", [
        ["train", "--epochs", "3", "--out-metrics"],
        ["bench", "--dict-sizes", "32", "--epochs", "3", "--out"],
    ])
    def test_invalid_thread_cap_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys, command
    ):
        monkeypatch.setenv("SCC_THREADS", "abc")
        loads = []
        real = cli.generate_planted
        monkeypatch.setattr(
            cli, "generate_planted", lambda *a, **k: loads.append(a) or real(*a, **k)
        )
        out = tmp_path / "m.csv"
        assert run([command[0], "--synthetic", "16,32,500,3,0.01", *command[1:], out]) == 1
        err = capsys.readouterr().err
        assert "SCC_THREADS" in err
        assert "epoch" not in err
        assert not out.exists()
        assert loads == []  # rejected before the data was even generated

    def test_one_row_synthetic_data_is_runtime_failure(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(["train", "--synthetic", "1,4,60,2,0.01", "--epochs", "1"]) == 1
        assert "p must be >= 2" in capsys.readouterr().err

    def test_missing_data_source_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--out-metrics", tmp_path / "m.csv"])
        assert exc.value.code == 2

    def test_both_data_sources_is_usage_error(self, tmp_path):
        write_matrix(tmp_path / "d.sccmat", np.eye(3))
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", tmp_path / "d.sccmat", "--synthetic", "4,4,4,1,0.0"])
        assert exc.value.code == 2

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for tag in ("a", "b"):
            d, c, m = (tmp_path / f"{tag}.dict", tmp_path / f"{tag}.codes",
                       tmp_path / f"{tag}.csv")
            assert run(
                ["train", "--synthetic", "8,12,60,2,0.02", "--epochs", "3",
                 "--seed", "11", "--out-dict", d, "--out-codes", c, "--out-metrics", m]
            ) == 0
            outputs.append((d.read_bytes(), c.read_bytes(), read_metrics_csv(m)))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        for sa, sb in zip(outputs[0][2], outputs[1][2]):
            # wall times are the one nondeterministic column pair
            assert (sa.epoch, sa.objective, sa.mean_support, sa.max_support) == (
                sb.epoch, sb.objective, sb.mean_support, sb.max_support)

    def test_dict_size_required_with_data(self, tmp_path):
        write_matrix(tmp_path / "d.sccmat", np.eye(4))
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", tmp_path / "d.sccmat"])
        assert exc.value.code == 2

    def test_natural_algo_runs(self, tmp_path):
        out = tmp_path / "m.csv"
        code = run(
            ["train", "--synthetic", "8,12,40,2,0.02", "--epochs", "2", "--algo",
             "natural", "--rate-a", "1", "--rate-b", "0", "--out-metrics", out]
        )
        assert code == 0
        assert len(read_metrics_csv(out)) == 2

    def test_runtime_error_exits_one(self, tmp_path):
        code = run(["train", "--data", tmp_path / "missing.sccmat", "--dict-size", "4"])
        assert code == 1

    def test_data_file_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        # one damaged magic byte sends an SCCMAT file to the CSV fallback
        path = tmp_path / "x.sccmat"
        write_matrix(path, np.full((2, 3), 0.5))
        path.write_bytes(b"\xd3" + path.read_bytes()[1:])
        assert run(["train", "--data", path, "--dict-size", "2"]) == 1
        assert capsys.readouterr().err.startswith(f"scc: error: {path}: not UTF-8 text")

    def test_csv_input_fallback(self, tmp_path):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((30, 6))  # one sample per line
        csv = tmp_path / "data.csv"
        csv.write_text(
            ",".join(f"f{i}" for i in range(6)) + "\n"
            + "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
            + "\n"
        )
        out = tmp_path / "m.csv"
        code = run(
            ["train", "--data", csv, "--preprocess", "--dict-size", "8",
             "--epochs", "2", "--out-metrics", out]
        )
        assert code == 0
        assert len(read_metrics_csv(out)) == 2


class TestEncode:
    def identity_fixture(self, tmp_path):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(4, 6))
        write_matrix(tmp_path / "data.sccmat", X)
        write_matrix(tmp_path / "dict.sccmat", np.eye(4))
        return X

    def test_identity_dictionary_soft_thresholds(self, tmp_path):
        X = self.identity_fixture(tmp_path)
        out = tmp_path / "z.sccspc"
        code = run(
            ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
             tmp_path / "data.sccmat", "--lambda", "0.1", "--mode", "oracle",
             "--out", out]
        )
        assert code == 0
        codes = read_codes(out)
        for i, z in enumerate(codes):
            want = np.array([soft_threshold(float(v), 0.1) for v in X[:, i]])
            np.testing.assert_allclose(z.to_dense(), want, atol=1e-12)

    def test_huge_lambda_empties_codes(self, tmp_path):
        self.identity_fixture(tmp_path)
        out = tmp_path / "z.sccspc"
        assert run(
            ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
             tmp_path / "data.sccmat", "--lambda", "10", "--mode", "scc:2",
             "--out", out]
        ) == 0
        assert all(z.nnz == 0 for z in read_codes(out))

    @pytest.mark.parametrize("lam", ["-0.5", "0", "nan", "inf"])
    def test_bad_lambda_exits_one(self, tmp_path, capsys, lam):
        self.identity_fixture(tmp_path)
        out = tmp_path / "z.sccspc"
        assert run(
            ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
             tmp_path / "data.sccmat", "--lambda", lam, "--out", out]
        ) == 1
        assert "lambda" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_exits_one(self, tmp_path):
        self.identity_fixture(tmp_path)
        write_matrix(tmp_path / "dict5.sccmat", np.eye(5))
        code = run(
            ["encode", "--dict", tmp_path / "dict5.sccmat", "--data",
             tmp_path / "data.sccmat", "--out", tmp_path / "z.sccspc"]
        )
        assert code == 1

    def test_bad_mode_is_usage_error(self, tmp_path):
        self.identity_fixture(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["encode", "--dict", tmp_path / "dict.sccmat", "--data",
                 tmp_path / "data.sccmat", "--mode", "magic", "--out", tmp_path / "z"])
        assert exc.value.code == 2

    def test_mode_count_goes_through_int(self, tmp_path):
        ds, truth, _ = generate_planted(16, 32, 60, 3, 0.01, seed=303)
        write_dataset(tmp_path / "data.sccmat", ds)
        write_dictionary(tmp_path / "dict.sccmat", truth)
        blobs = {}
        for mode in ("scc:3", "scc: 3", "scc:+3", "scc:2"):
            out = tmp_path / "z.sccspc"
            assert run(
                ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
                 tmp_path / "data.sccmat", "--mode", mode, "--out", out]
            ) == 0
            blobs[mode] = out.read_bytes()
        assert blobs["scc: 3"] == blobs["scc:+3"] == blobs["scc:3"] != blobs["scc:2"]

    def test_data_without_samples_writes_a_header_alone(self, tmp_path):
        self.identity_fixture(tmp_path)
        write_matrix(tmp_path / "empty.sccmat", np.empty((4, 0)))
        out = tmp_path / "z.sccspc"
        for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
            with cd_path(path):
                assert run(
                    ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
                     tmp_path / "empty.sccmat", "--out", out]
                ) == 0
            assert out.read_bytes() == MAGIC_CODES + struct.pack("<II", 4, 0)
            assert read_codes(out) == []

    def test_cheap_mode_close_to_oracle(self, tmp_path):
        ds, truth, _ = generate_planted(16, 32, 60, 3, 0.01, seed=303)
        write_dataset(tmp_path / "data.sccmat", ds)
        write_dictionary(tmp_path / "dict.sccmat", truth)
        outs = {}
        for mode in ("scc:3", "oracle"):
            out = tmp_path / f"{mode.replace(':', '_')}.sccspc"
            assert run(
                ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
                 tmp_path / "data.sccmat", "--mode", mode, "--out", out]
            ) == 0
            outs[mode] = read_codes(out)
        lam = 1.2 / np.sqrt(16)
        gaps = []
        for i in range(ds.n):
            f_cheap = sample_objective(truth, outs["scc:3"][i], ds.column(i), lam)
            f_star = sample_objective(truth, outs["oracle"][i], ds.column(i), lam)
            assert f_cheap >= f_star - 1e-9
            gaps.append((f_cheap - f_star) / f_star)
        assert float(np.median(gaps)) <= 0.05

    def test_thread_cap_does_not_change_bytes(self, tmp_path, monkeypatch):
        self.identity_fixture(tmp_path)
        blobs = {}
        for workers in ("1", "3"):
            monkeypatch.setenv("SCC_THREADS", workers)
            out = tmp_path / f"z{workers}.sccspc"
            assert run(
                ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
                 tmp_path / "data.sccmat", "--mode", "scc:2", "--out", out]
            ) == 0
            blobs[workers] = out.read_bytes()
        assert blobs["1"] == blobs["3"]

    def test_invalid_thread_cap_is_runtime_failure(self, tmp_path, monkeypatch, capsys):
        self.identity_fixture(tmp_path)
        monkeypatch.setenv("SCC_THREADS", "zero")
        out = tmp_path / "z.sccspc"
        assert run(
            ["encode", "--dict", tmp_path / "dict.sccmat", "--data",
             tmp_path / "data.sccmat", "--mode", "scc:2", "--out", out]
        ) == 1
        assert "SCC_THREADS" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_grid_rows_and_step_monotonicity(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(
            ["bench", "--synthetic", "8,12,60,2,0.02", "--dict-sizes", "8,12",
             "--cd-steps", "1,3", "--epochs", "2", "--seed", "0", "--out", out]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "algo,m,S,epoch,objective,time_code_s,time_dict_s"
        rows = [ln.split(",") for ln in lines[1:]]
        # per m: two scc configs and one batch run, two epochs each
        assert len(rows) == 2 * (2 + 1) * 2
        table = {}
        for algo, m, S, epoch, obj, *_ in rows:
            table[(algo, int(m), int(S), int(epoch))] = float(obj)
        for m in (8, 12):
            for epoch in (1, 2):
                assert table[("scc", m, 3, epoch)] <= table[("scc", m, 1, epoch)] + 1e-6
                assert ("batch", m, 0, epoch) in table

    def test_empty_grid_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--synthetic", "8,12,20,2,0.02", "--dict-sizes", "",
                 "--out", tmp_path / "b.csv"])
        assert exc.value.code == 2

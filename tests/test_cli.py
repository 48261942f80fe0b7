import random

import pytest

from dispgrid import PointSet, full_grid, read_point_set, write_point_set
from dispgrid.cli import (
    EXIT_CHECK_FAIL,
    EXIT_GUARD,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_cli,
)


class TestParseCli:
    def test_gen_with_eps_derives_k(self):
        config = parse_cli(
            ["gen", "--eps", "0.25", "--d", "2", "--n", "2048", "--seed", "7",
             "--out", "pts.txt"]
        )
        assert config.command == "gen"
        assert config.k == 2
        assert str(config.eps) == "1/4"
        assert config.d == 2 and config.n == 2048 and config.seed == 7

    def test_mc_with_k(self):
        config = parse_cli(
            ["mc", "--k", "2", "--d", "1", "--n", "3", "--trials", "10000", "--seed", "1"]
        )
        assert config.command == "mc"
        assert config.k == 2 and config.eps is None
        assert config.trials == 10000

    def test_bounds_lists(self):
        config = parse_cli(
            ["bounds", "--eps-list", "0.25,0.1", "--d-list", "2,100", "--out", "t.csv"]
        )
        assert [str(e) for e in config.eps_list] == ["1/4", "1/10"]
        assert config.d_list == (2, 100)
        assert config.out_path == "t.csv"

    def test_k_and_eps_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            parse_cli(["mc", "--k", "2", "--eps", "0.25", "--d", "1", "--n", "3",
                       "--trials", "10", "--seed", "1"])

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(SystemExit):
            parse_cli(["gen", "--eps", "0.75", "--d", "2", "--n", "10", "--seed", "1",
                       "--out", "x"])

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            parse_cli(["mc", "--bogus", "1"])

    def test_usage_error_exit_code(self, capsys):
        assert main(["mc", "--k", "1", "--d", "1", "--n", "3", "--trials", "1",
                     "--seed", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mc", "--k", "1", "--d", "1", "--n", "3", "--trials", "1", "--seed", "1"],
             "dispgrid mc: error: argument --k: k must be >= 2, got 1"),
            (["mc", "--k", "x", "--d", "1", "--n", "3", "--trials", "1", "--seed", "1"],
             "dispgrid mc: error: argument --k: not an integer: 'x'"),
            (["ineq-check", "--k-max", "1"],
             "dispgrid ineq-check: error: argument --k-max: k must be >= 2, got 1"),
            (["mc", "--k", "2", "--d", "1", "--n", "3", "--trials", "1", "--seed", "-1"],
             "dispgrid mc: error: argument --seed: seed must be >= 0, got -1"),
        ],
    )
    def test_k_and_seed_error_text(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == message


class TestGenCertifyDisp:
    def test_gen_then_certify_then_disp(self, tmp_path, capsys):
        out = tmp_path / "pts.txt"
        assert main(["gen", "--eps", "0.25", "--d", "2", "--n", "256", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        assert "certified 256 points" in capsys.readouterr().out

        assert main(["certify", "--in", str(out), "--k", "2"]) == EXIT_OK
        assert "pass" in capsys.readouterr().out

        assert main(["disp", "--in", str(out)]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "dispersion:" in captured and "witness:" in captured

    def test_gen_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "pts.txt"
        code = main(["gen", "--k", "2", "--d", "1", "--n", "1", "--seed", "0",
                     "--max-attempts", "3", "--out", str(out)])
        assert code == EXIT_CHECK_FAIL
        capsys.readouterr()

    def test_certify_fail_with_confirm_exact(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("dispgrid v1 d=2 k=2 n=1 repr=grid\n1 1\n")
        code = main(["certify", "--in", str(path), "--confirm-exact"])
        assert code == EXIT_CHECK_FAIL
        captured = capsys.readouterr().out
        assert "fail" in captured
        assert "exact dispersion:" in captured

    def test_certify_uses_header_k(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        write_point_set(full_grid(2, 2), path)
        assert main(["certify", "--in", str(path)]) == EXIT_OK
        capsys.readouterr()

    def test_certify_k_mismatch_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        write_point_set(full_grid(2, 2), path)
        assert main(["certify", "--in", str(path), "--k", "3"]) == 2
        assert "k=3" in capsys.readouterr().err

    def test_disp_full_grid_value(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        write_point_set(full_grid(2, 2), path)
        assert main(["disp", "--in", str(path)]) == EXIT_OK
        assert "dispersion: 1/4" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["disp", "--in", str(tmp_path / "nope.txt")]) == EXIT_IO
        capsys.readouterr()

    def test_parse_error_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dispgrid v1 d=1 k=2 n=1 repr=grid\n9\n")
        assert main(["certify", "--in", str(path)]) == EXIT_IO
        capsys.readouterr()

    def test_guard_exit_code_reports_count(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        write_point_set(full_grid(3, 2), path)
        assert main(["disp", "--in", str(path), "--enum-limit", "10"]) == EXIT_GUARD
        err = capsys.readouterr().err
        assert "guard exceeded" in err
        assert "items" in err

    def test_disp_guard_refuses_large_real_input(self, tmp_path, capsys):
        rng = random.Random(17)
        path = tmp_path / "reals.txt"
        rows = [(rng.random(), rng.random()) for _ in range(2000)]
        write_point_set(PointSet.from_reals(2, rows), path)
        assert main(["disp", "--in", str(path)]) == EXIT_GUARD
        assert "guard exceeded" in capsys.readouterr().err


class TestTabularCommands:
    def test_mc_csv(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert main(["mc", "--k", "2", "--d", "1", "--n", "3", "--trials", "50",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert text.startswith("# dispgrid")
        assert "success_rate" in text
        assert "# rng: pcg64" in text

    def test_mc_jsonl(self, tmp_path):
        out = tmp_path / "mc.jsonl"
        assert main(["mc", "--k", "2", "--d", "1", "--n", "3", "--trials", "50",
                     "--seed", "1", "--format", "jsonl", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith('{"meta"')
        assert '"successes"' in lines[1]

    def test_mc_rerun_byte_identical(self, tmp_path):
        args = ["mc", "--k", "2", "--d", "1", "--n", "4", "--trials", "30",
                "--seed", "9"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_mc_threads_byte_identical(self, tmp_path):
        base = ["mc", "--k", "2", "--d", "1", "--n", "4", "--trials", "30",
                "--seed", "9"]
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(base + ["--threads", "1", "--out", str(out1)]) == EXIT_OK
        assert main(base + ["--threads", "8", "--out", str(out8)]) == EXIT_OK
        assert out1.read_bytes() == out8.read_bytes()

    def test_bounds_table(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--eps-list", "0.25,0.1", "--d-list", "2,100",
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[:4] == ["eps", "d", "k", "n_required"]
        assert len(lines) == 5  # header + 4 rows

    def test_min_n(self, tmp_path):
        out = tmp_path / "minn.csv"
        assert main(["min-n", "--k", "2", "--d", "1", "--target", "0.5",
                     "--trials", "300", "--seed", "8", "--out", str(out)]) == EXIT_OK
        assert "n_star" in out.read_text()

    def test_prob_audit(self, tmp_path):
        out = tmp_path / "prob.csv"
        assert main(["prob-audit", "--k-list", "2,3", "--d-list", "1,2",
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_count_audit(self, tmp_path):
        out = tmp_path / "count.csv"
        assert main(["count-audit", "--k-list", "2", "--d-list", "1,2",
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[1].startswith("2,1,6,6,")
        assert lines[2].startswith("2,2,27,36,")

    def test_ineq_check_19_rows_all_pass(self, tmp_path):
        out = tmp_path / "ineq.csv"
        assert main(["ineq-check", "--k-max", "20", "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 20  # header + 19 rows
        assert all(line.endswith("true") for line in lines[1:])

    def test_stdout_output(self, capsys):
        assert main(["ineq-check", "--k-max", "3"]) == EXIT_OK
        captured = capsys.readouterr().out
        assert "lhs_min" in captured


class TestGenMetadataReproducibility:
    def test_gen_rerun_byte_identical(self, tmp_path):
        # the emitted file carries no path or timestamp, so reruns are bit-equal
        args = ["gen", "--eps", "0.25", "--d", "1", "--n", "16", "--seed", "3"]
        out1, out2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert read_point_set(out1) == read_point_set(out2)

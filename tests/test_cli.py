import dataclasses
import random
from pathlib import Path

import pytest

from dispgrid import PointSet, cli, full_grid, read_point_set, write_point_set
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

    def test_certify_fail_prints_empty_box(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("dispgrid v1 d=2 k=2 n=1 repr=grid\n1 1\n")
        assert main(["certify", "--in", str(path)]) == EXIT_CHECK_FAIL
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# dispgrid 0.1.0", "# command: certify"]
        assert lines[3:] == [
            "fail: core box of class anchor=(1, 2) span=(1, 2) missed after 2 classes",
            "empty box: (0,1/2) x (1/4,1) volume: 3/8",
        ]

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


# csv column order per tabular command; the golden jsonl runs sort their keys
CSV_HEADER = {
    "mc": (["--k", "2", "--d", "1", "--n", "3", "--trials", "5", "--seed", "1"],
           "k,d,n,trials,successes,success_rate,ci_low,ci_high,master_seed"),
    "min-n": (["--k", "2", "--d", "1", "--target", "0.5", "--trials", "20", "--seed", "8"],
              "k,d,target,trials,n_star,rate_at_n_star,rate_below,n_required,within_required"),
    "bounds": (["--eps-list", "0.25", "--d-list", "2"],
               "eps,d,k,n_required,n_logdim,n_coarse,n_lineardim,better,threshold_exceeds_d"),
    "prob-audit": (["--k-list", "2", "--d-list", "1"], "k,d,min_hit_probability,lower_bound,pass"),
    "count-audit": (["--k-list", "2", "--d-list", "1"],
                    "k,d,exact_feasible_count,anchor_formula_count,ln_class_count_bound"),
    "ineq-check": (["--k-max", "2"], "k,lhs_min,rhs,margin,min_j,pass"),
}


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

    def test_mc_threads_flag_removed(self, capsys):
        assert main(["mc", "--k", "2", "--d", "1", "--n", "4", "--trials", "30",
                     "--seed", "9", "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", CSV_HEADER)
    def test_csv_column_order(self, command, capsys):
        args, header = CSV_HEADER[command]
        assert main([command, *args]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines[0] == header

    def test_min_n_search_limit_exit(self, capsys):
        assert main(["min-n", "--k", "2", "--d", "1", "--target", "0.99", "--trials", "20",
                     "--seed", "1", "--max-n", "4"]) == EXIT_CHECK_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "min-n: no n <= 4 reached target rate 0.99 (trials=20)\n"

    @pytest.mark.parametrize(
        "argv,check,field",
        [
            (["prob-audit", "--k-list", "2,3", "--d-list", "1"],
             "audit_hit_probabilities", "passed"),
            (["ineq-check", "--k-max", "3"], "check_hit_factor_inequality", "holds"),
        ],
        ids=["prob-audit", "ineq-check"],
    )
    def test_failing_check_writes_table_and_exits_3(self, argv, check, field, monkeypatch, capsys):
        real = getattr(cli, check)

        def fail_at_k2(k, *args, **kwargs):
            return dataclasses.replace(real(k, *args, **kwargs), **{field: k != 2})

        monkeypatch.setattr(cli, check, fail_at_k2)
        assert main(argv) == EXIT_CHECK_FAIL
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert [line.rsplit(",", 1)[1] for line in lines] == ["pass", "false", "true"]

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


GOLDEN = {
    "gen": (
        ["gen", "--eps", "0.25", "--d", "1", "--n", "8", "--seed", "3",
         "--enum-limit", "1000", "--out", "{tmp}/pts.txt"],
        "certified 8 points (distinct 3) with dispersion <= 1/4 after 1 attempt(s): {tmp}/pts.txt\n"
        "dispgrid v1 d=1 k=2 n=8 repr=grid\n"
        "# version=0.1.0\n"
        "# config=d=1 eps=1/4 k=2 max_attempts=64 n=8 seed=3\n"
        "# rng=pcg64-seedsequence-v1\n"
        "# attempts=1\n"
        "# distinct=3\n"
        "# certified_dispersion_at_most=1/4\n"
        "2\n2\n1\n2\n1\n3\n1\n2\n",
    ),
    "certify": (
        ["certify", "--in", "{tmp}/grid.txt", "--confirm-exact", "--enum-limit", "1000"],
        "# dispgrid 0.1.0\n"
        "# command: certify\n"
        "# config: in_path={tmp}/grid.txt\n"
        "pass: all 27 core boxes hit; dispersion <= 1/4\n"
        "exact dispersion: 1/4 witness: [0,1/4) x [0,1]\n",
    ),
    "disp": (
        ["disp", "--in", "{tmp}/grid.txt", "--enum-limit", "1000"],
        "# dispgrid 0.1.0\n"
        "# command: disp\n"
        "# config: in_path={tmp}/grid.txt\n"
        "dispersion: 1/4\n"
        "witness: [0,1/4) x [0,1]\n",
    ),
    "mc": (
        ["mc", "--eps", "0.3", "--d", "1", "--n", "4", "--trials", "30", "--seed", "9",
         "--enum-limit", "1000"],
        "# dispgrid 0.1.0\n"
        "# command: mc\n"
        "# config: d=1 eps=3/10 fmt=csv k=2 n=4 seed=9 trials=30\n"
        "# rng: pcg64-seedsequence-v1\n"
        "k,d,n,trials,successes,success_rate,ci_low,ci_high,master_seed\n"
        "2,1,4,30,10,0.3333333333333333,0.19230498083676134,0.5121994835545616,9\n",
    ),
    "min-n": (
        ["min-n", "--k", "2", "--d", "1", "--target", "0.5", "--trials", "50", "--seed", "8",
         "--max-n", "64", "--format", "jsonl"],
        '{"meta": ["dispgrid 0.1.0", "command: min-n", '
        '"config: d=1 fmt=jsonl k=2 max_n=64 seed=8 target=0.5 trials=50", '
        '"rng: pcg64-seedsequence-v1"]}\n'
        '{"d": 1, "k": 2, "n_required": 1536, "n_star": 5, "rate_at_n_star": 0.74, '
        '"rate_below": 0.46, "target": 0.5, "trials": 50, "within_required": true}\n',
    ),
    "bounds": (
        ["bounds", "--eps-list", "0.25", "--d-list", "2", "--out", "{tmp}/b.csv"],
        "# dispgrid 0.1.0\n"
        "# command: bounds\n"
        "# config: d_list=2 eps_list=1/4 fmt=csv\n"
        "eps,d,k,n_required,n_logdim,n_coarse,n_lineardim,better,threshold_exceeds_d\n"
        "1/4,2,2,2048,18432.0,32768.0,1536.0,lineardim,true\n",
    ),
    "prob-audit": (
        ["prob-audit", "--k-list", "2", "--d-list", "1,2", "--enum-limit", "1000",
         "--format", "jsonl"],
        '{"meta": ["dispgrid 0.1.0", "command: prob-audit", '
        '"config: d_list=1,2 fmt=jsonl k_list=2"]}\n'
        '{"d": 1, "k": 2, "lower_bound": "1/64", "min_hit_probability": "1/3", "pass": true}\n'
        '{"d": 2, "k": 2, "lower_bound": "1/64", "min_hit_probability": "2/9", "pass": true}\n',
    ),
    "count-audit": (
        ["count-audit", "--k-list", "2", "--d-list", "1,2", "--enum-limit", "1000",
         "--format", "jsonl", "--out", "{tmp}/c.jsonl"],
        '{"meta": ["dispgrid 0.1.0", "command: count-audit", '
        '"config: d_list=1,2 fmt=jsonl k_list=2"]}\n'
        '{"anchor_formula_count": 6, "d": 1, "exact_feasible_count": 6, "k": 2, '
        '"ln_class_count_bound": 16.635532333438686}\n'
        '{"anchor_formula_count": 36, "d": 2, "exact_feasible_count": 27, "k": 2, '
        '"ln_class_count_bound": 22.18070977791825}\n',
    ),
    "ineq-check": (
        ["ineq-check", "--k-max", "2"],
        "# dispgrid 0.1.0\n"
        "# command: ineq-check\n"
        "# config: fmt=csv k_max=2\n"
        "k,lhs_min,rhs,margin,min_j,pass\n"
        "2,0.2222222222222222,0.1640625,0.05815972222222221,2,true\n",
    ),
}


@pytest.mark.parametrize("command", GOLDEN)
def test_golden_output(command, tmp_path, capsys):
    """Full output of one run per command: stdout, then the file written by --out.

    The config echo holds every option that affects results and none of the
    execution details (--out, --enum-limit, --confirm-exact); an --eps run
    echoes both eps and the k derived from it.
    """
    argv, expected = GOLDEN[command]
    write_point_set(full_grid(2, 2), tmp_path / "grid.txt")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    if "--out" in argv:
        text += Path(argv[argv.index("--out") + 1]).read_text()
    assert text.replace(str(tmp_path), "{tmp}") == expected

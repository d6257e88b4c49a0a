import json
from fractions import Fraction
import pytest

from scramblab import benchcli as bc, rewrite as rw
from scramblab.errors import InvalidParameterError, ScramblabError


# Every float parameter of every experiment, set to nan, and to inf except eps
# (an infinite rewrite budget is legal: every rotation may be dropped).
NON_FINITE_SETTINGS = [(exp.name, key, value)
                       for exp in bc._REGISTRY.values()
                       for key, default in exp.params.items() if isinstance(default, float)
                       for value in ("nan", "inf") if (key, value) != ("eps", "inf")]


class TestRegistry:
    def test_count_is_ten(self):
        assert len(bc.list_experiments()) == 10

    def test_contains_expected_names(self):
        names = {name for name, _ in bc.list_experiments()}
        assert "appendix-a" in names
        assert "switchback" in names
        assert names == {"toy-hybrids", "toy-distinguish", "prs-gram", "prs-distinguish",
                         "prs-energy", "weingarten-verify", "appendix-a", "rewrite-growth",
                         "switchback", "scrambling-time"}

    def test_descriptions_nonempty(self):
        assert all(desc for _, desc in bc.list_experiments())


class TestSerialization:
    def test_fraction_as_p_over_q(self):
        assert bc.fmt_fraction(Fraction(0)) == "0/1"
        assert bc.fmt_fraction(Fraction(-3, 7)) == "-3/7"

    def test_json_floats_17_digits(self):
        text = bc.dump_json({"x": 1 / 3})
        assert "0.33333333333333331" in text

    def test_json_sorted_and_stable(self):
        a = bc.dump_json({"b": 1, "a": [2.0, {"z": Fraction(1, 2)}]})
        b = bc.dump_json({"a": [2.0, {"z": Fraction(1, 2)}], "b": 1})
        assert a == b
        assert '"z": "1/2"' in a


class TestRunner:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(KeyError):
            bc.run("nope", {}, 0, tmp_path)

    def test_unknown_parameter(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            bc.run("toy-hybrids", {"bogus": "1"}, 0, tmp_path)

    def test_set_values_parse_as_their_defaults_types(self):
        def parse(experiment, raw):
            return bc._parse_params(bc._REGISTRY[experiment], raw)

        energy = parse("prs-energy", {"beta": "2", "shots": "7"})
        assert energy["beta"] == 2.0 and isinstance(energy["beta"], float)
        assert energy["shots"] == 7 and isinstance(energy["shots"], int)
        games = parse("toy-distinguish", {"ells": " 4, 6 ,", "strategies": " zero_query ,x "})
        assert games["ells"] == [4, 6] and games["strategies"] == ["zero_query", "x"]
        assert parse("switchback", {"shock_label": " Y"})["shock_label"] == " Y"
        with pytest.raises(InvalidParameterError,
                           match=r"parameter ells=' 4x': invalid literal for int\(\) "
                                 r"with base 10: ' 4x'"):
            parse("toy-distinguish", {"ells": " 4x"})
        with pytest.raises(InvalidParameterError, match="could not convert string to float"):
            parse("prs-energy", {"beta": "warm"})

    def test_writes_summary_csv_manifest(self, tmp_path):
        manifest, summary, ok = bc.run("weingarten-verify", {}, 0, tmp_path)
        assert ok
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "wg_table.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        loaded = json.loads((tmp_path / "manifest.json").read_text())
        assert loaded["experiment"] == "weingarten-verify"
        assert loaded["version"]

    def test_toy_hybrids_reports_zero_tv(self, tmp_path):
        _, summary, ok = bc.run("toy-hybrids", {}, 0, tmp_path)
        assert ok
        assert summary["tv_CD"] == Fraction(0)
        assert json.loads((tmp_path / "summary.json").read_text())["tv_CD"] == "0/1"

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        bc.run("prs-gram", {"trials": "5"}, 3, out1)
        bc.run("prs-gram", {"trials": "5"}, 3, out2)
        assert (out1 / "gram.csv").read_bytes() == (out2 / "gram.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("experiment", ["toy-hybrids", "weingarten-verify"])
    def test_cached_tables_keep_reruns_byte_identical(self, experiment, tmp_path):
        # the second run in this process reads the permutation and Wg tables
        # the first one cached
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        bc.run(experiment, {}, 0, out1)
        bc.run(experiment, {}, 0, out2)
        for name in sorted(p.name for p in out1.iterdir() if p.name != "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_check_flag_detects_threshold_failure(self, tmp_path):
        # tiny-trial run whose zero-query rate lands off 0.5 at this seed
        _, summary, ok = bc.run("toy-distinguish",
                                {"trials": "4", "strategies": "zero_query", "ells": "4"},
                                0, tmp_path)
        assert not ok
        assert summary["strategies"]["zero_query"]["pooled_success"] == 0.75

    def test_appendix_a_first_power(self, tmp_path):
        _, summary, ok = bc.run("appendix-a",
                                {"K": "1", "d": "4", "trials": "10000", "d_list": "16,32"},
                                1, tmp_path)
        assert ok
        assert abs(summary["mc_small_mean"] - 0.2) <= 3 * summary["mc_small_se"]
        assert summary["exact_small"] == Fraction(1, 5)


class TestCli:
    def test_list(self, capsys):
        assert bc.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "appendix-a" in out and "switchback" in out

    def test_run_exit_codes(self, tmp_path, capsys):
        code = bc.main(["run", "--experiment", "toy-hybrids",
                        "--out", str(tmp_path / "r"), "--check"])
        assert code == 0
        code = bc.main(["run", "--experiment", "toy-hybrids", "--set", "bogus=1",
                        "--out", str(tmp_path / "r2")])
        assert code == 2
        code = bc.main(["run", "--experiment", "nope", "--out", str(tmp_path / "r3")])
        assert code == 2
        code = bc.main(["run", "--experiment", "toy-distinguish", "--seed", "0",
                        "--set", "trials=4", "--set", "strategies=zero_query",
                        "--set", "ells=4", "--out", str(tmp_path / "r4"), "--check"])
        assert code == 3

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "params.cfg"
        cfg.write_text("# comment\ntrials = 4\nn = 8\n")
        out = tmp_path / "out"
        code = bc.main(["run", "--experiment", "prs-gram", "--config", str(cfg),
                        "--set", "trials=3", "--seed", "2", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["params"]["trials"] == 3
        assert summary["params"]["n"] == 8

    def test_pc_verb_reads_and_writes_format(self, tmp_path, capsys):
        seq = rw.GateSequence((rw.Gate("H", (0,)), rw.Gate("H", (0,)),
                               rw.Gate("RZ", (1,), 0.5)), 2)
        src = tmp_path / "circuit.txt"
        dst = tmp_path / "out.txt"
        src.write_text(rw.sequence_to_text(seq))
        code = bc.main(["pc", "--input", str(src), "--eps", "0.0", "--output", str(dst)])
        assert code == 0
        assert "3 -> 1" in capsys.readouterr().out
        back = rw.sequence_from_text(dst.read_text())
        assert len(back) == 1 and back.gates[0].kind == "RZ"

    def test_exact_overlap_below_its_dimension_exits_2(self, tmp_path, capsys):
        code = bc.main(["run", "--experiment", "appendix-a", "--set", "d=3",
                        "--out", str(tmp_path / "r")])
        assert code == 2
        assert "d = 3" in capsys.readouterr().err

    def test_pc_malformed_input_exits_2(self, tmp_path, capsys):
        src = tmp_path / "circuit.txt"
        src.write_text("# qubits 2\nRZ 0\n")
        assert bc.main(["pc", "--input", str(src)]) == 2
        assert "RZ" in capsys.readouterr().err


class TestCliErrors:
    @pytest.mark.parametrize("argv, message", [
        (["run", "--experiment", "toy-hybrids", "--set", "n=4"], "(n, ell) = (3, 2)"),
        (["run", "--experiment", "prs-energy", "--set", "n=4"], "OTOC"),
        (["run", "--experiment", "toy-hybrids", "--config", "nope.cfg"], "nope.cfg"),
        (["pc", "--input", "nope.txt"], "nope.txt"),
    ])
    def test_package_errors_and_missing_files_exit_2(self, tmp_path, monkeypatch, capsys,
                                                     argv, message):
        monkeypatch.chdir(tmp_path)
        assert bc.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("experiment, setting, message", [
        ("toy-distinguish", "ells=", "at least one value"),
        ("rewrite-growth", "t_list=", "at least one value"),
        ("prs-distinguish", "copies=", "at least one value"),
        ("scrambling-time", "trials=0", "trials must be >= 1"),
        ("scrambling-time", "time_step=0", "time_step must be finite and > 0"),
        ("scrambling-time", "time_step=nan", "time_step must be finite and > 0"),
        ("scrambling-time", "time_step=-1", "time_step must be finite and > 0"),
        ("prs-energy", "beta=nan", "beta must be finite"),
        ("prs-energy", "T_rand=5e-324", "distinct positive shock times"),
        ("scrambling-time", "time_step=5e-324", "exceeds"),
        ("scrambling-time", "g=nan", "coefficient must be finite"),
        ("rewrite-growth", "eps=nan", "eps must be >= 0"),
        ("prs-gram", "trials=0", "trials >= 2"),
        ("toy-distinguish", "ells=4", "two distinct x"),
        ("rewrite-growth", "t_list=1", "two distinct x"),
        ("prs-distinguish", "strategies=energy", "unknown strategy 'energy'"),
    ])
    def test_degenerate_sizes_exit_2(self, tmp_path, monkeypatch, capsys,
                                     experiment, setting, message):
        monkeypatch.chdir(tmp_path)
        assert bc.main(["run", "--experiment", experiment, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "results").exists()

    def test_pc_negative_eps_exits_2(self, tmp_path):
        src = tmp_path / "circuit.txt"
        src.write_text(rw.sequence_to_text(rw.GateSequence((rw.Gate("H", (0,)),), 1)))
        assert bc.main(["pc", "--input", str(src), "--eps", "-1"]) == 2

    @pytest.mark.parametrize("text, eps", [
        ("# qubits 1\nRZ 0 nan\nH 0\n", "0"),
        ("# qubits 1\nRX 0 inf\nH 0\n", "0"),
        ("# qubits 1\nRZ 0 0.5\nH 0\n", "nan"),
    ])
    def test_pc_non_finite_inputs_exit_2(self, tmp_path, capsys, text, eps):
        src = tmp_path / "circuit.txt"
        src.write_text(text)
        assert bc.main(["pc", "--input", str(src), "--eps", eps]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and not out.out

    @pytest.mark.parametrize("experiment, key, value", NON_FINITE_SETTINGS)
    def test_non_finite_float_parameters_exit_2(self, tmp_path, monkeypatch, capsys,
                                                experiment, key, value):
        monkeypatch.chdir(tmp_path)
        assert bc.main(["run", "--experiment", experiment, "--set", f"{key}={value}"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "results").exists()

    def test_non_finite_settings_cover_the_float_parameters(self):
        keys = {key for _, key, _ in NON_FINITE_SETTINGS}
        assert keys >= {"beta", "T_rand", "g", "h", "threshold", "time_step", "eps"}

    def test_run_out_onto_an_existing_file_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        assert bc.main(["run", "--experiment", "toy-hybrids", "--out", "afile"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "afile" in err

    def test_pc_output_in_a_missing_directory_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text(
            rw.sequence_to_text(rw.GateSequence((rw.Gate("H", (0,)),), 1)))
        assert bc.main(["pc", "--input", "c.txt", "--output", "nodir/x.txt"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir/x.txt" in err

    def test_unknown_experiment_message_is_unquoted(self, capsys):
        assert bc.main(["run", "--experiment", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'nope'; registered: [")
        assert '"' not in err

    def test_key_error_inside_an_experiment_is_not_exit_2(self, tmp_path, monkeypatch):
        def broken(params, seed):
            return {}[params["n"]]

        exp = bc._REGISTRY["toy-hybrids"]
        monkeypatch.setitem(bc._REGISTRY, "toy-hybrids",
                            bc.Experiment(exp.name, exp.description, exp.params, broken))
        with pytest.raises(KeyError) as err:
            bc.main(["run", "--experiment", "toy-hybrids", "--out", str(tmp_path)])
        assert not isinstance(err.value, ScramblabError)

    def test_every_package_error_is_a_scramblab_error(self):
        from scramblab import errors

        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, Exception)]
        for cls in classes:
            assert issubclass(cls, errors.ScramblabError)
        assert issubclass(errors.InvalidParameterError, ValueError)
        assert issubclass(errors.ResourceLimitError, RuntimeError)


class TestToyHybridsGolden:
    def test_tv_csv_bytes(self, tmp_path):
        manifest, summary, ok = bc.run("toy-hybrids", {}, 0, tmp_path)
        assert ok
        assert (tmp_path / "tv.csv").read_bytes() == (
            b"pair,tv,bound\nCD,0/1,0/1\nAB,55/56,97/56\nDE,6/7,97/56\n")
        assert isinstance(manifest.checks, tuple)
        assert all(isinstance(name, str) and isinstance(flag, bool)
                   for name, flag in manifest.checks)


class TestCsvColumns:
    def test_game_csv_columns(self, tmp_path):
        bc.run("toy-distinguish", {"trials": "3", "ells": "4", "strategies": "zero_query"},
               1, tmp_path)
        header = (tmp_path / "games.csv").read_text().splitlines()[0]
        assert header == "strategy,l,trial,hybrid,decision,correct,fwd_queries,inv_queries"

    def test_distinguish_csv_columns(self, tmp_path):
        bc.run("prs-distinguish", {"trials": "3", "copies": "1", "n": "4",
                                   "strategies": "swap-test"}, 1, tmp_path)
        header = (tmp_path / "distinguish.csv").read_text().splitlines()[0]
        assert header == "strategy,copies,trial,ensemble,decision,correct,copies_used"

    def test_switchback_csv_columns(self, tmp_path):
        bc.run("switchback", {"t_list": "1", "n": "4"}, 1, tmp_path)
        header = (tmp_path / "switchback.csv").read_text().splitlines()[0]
        assert header == "t,pc_forward_back,pc_shocked,naive"

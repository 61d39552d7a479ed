"""File formats and the command-line interface."""

import json

import pytest

import edk
from edk.catalog import k5_two_cycles, quadratic_residue_tournament
from edk.cli import main
from edk.oracle import size_guard
from edk.files import format_graph, format_property


@pytest.fixture
def prop_files(tmp_path):
    files = {}
    files["rainbow"] = tmp_path / "rainbow.prop"
    files["rainbow"].write_text("multicolor r=3\ngraph n=3\n1 2\n3\n")
    files["ctri"] = tmp_path / "ctri.prop"
    files["ctri"].write_text("directed palette=tourn\ngraph n=3\n> <\n>\n")
    files["trans"] = tmp_path / "trans.prop"
    files["trans"].write_text("directed palette=tourn\ngraph n=3\n> >\n>\n")
    files["graph"] = tmp_path / "g.graph"
    files["graph"].write_text(format_graph(k5_two_cycles().recolored(0, 1, 2)))
    files["rgraph"] = tmp_path / "r3.graph"
    files["rgraph"].write_text(
        "multicolor r=3\ngraph n=5\n1 2 3 1\n2 2 1\n3 3\n1\n"
    )
    return files


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFormats:
    def test_property_roundtrip_qr7(self):
        fam = edk.PropertyFamily.directed("tourn", [quadratic_residue_tournament()])
        assert edk.parse_property(format_property(fam)) == fam

    def test_comments_and_blank_lines(self):
        text = "# heading\nmulticolor r=2\n\n# block\ngraph n=2\n1  # the pair\n"
        fam = edk.parse_property(text)
        assert fam.forbidden[0].colors == (1,)

    def test_graph_file_must_hold_one_graph(self):
        text = "multicolor r=2\ngraph n=2\n1\n\ngraph n=2\n2\n"
        with pytest.raises(edk.PropertyFormatError):
            edk.parse_graph(text)


class TestCli:
    def test_chi(self, capsys, prop_files):
        code, out = run(capsys, "chi", "--property", str(prop_files["rainbow"]))
        assert code == 0
        assert json.loads(out) == {"mode": "weak", "chi": 2}

    def test_chi_trivial_flag(self, capsys, prop_files):
        code, out = run(capsys, "chi", "--property", str(prop_files["trans"]))
        assert code == 0
        assert json.loads(out) == {"mode": "weak", "chi": 1, "trivial": True}

    def test_spectrum_json_and_csv(self, capsys, prop_files):
        code, out = run(capsys, "spectrum", "--property", str(prop_files["rainbow"]))
        assert code == 0
        payload = json.loads(out)
        assert payload["chi"] == 2
        assert [0, 0, 0] in payload["tuples"]
        code, out = run(
            capsys, "spectrum", "--property", str(prop_files["rainbow"]), "--format", "csv"
        )
        assert code == 0
        assert "0,0,0" in out.splitlines()

    def test_types_text_and_json(self, capsys, prop_files):
        code, out = run(capsys, "types", "--property", str(prop_files["ctri"]), "--kmax", "1")
        assert code == 0
        assert "type n=1" in out
        code, out = run(
            capsys, "types", "--property", str(prop_files["ctri"]), "--kmax", "1",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["count"] == 2

    def test_distfn_point(self, capsys, prop_files):
        code, out = run(
            capsys, "distfn", "--property", str(prop_files["rainbow"]),
            "--p", "1/2,1/4,1/4", "--kmax", "2",
        )
        assert code == 0
        assert json.loads(out)["value"] == "1/4"

    def test_distfn_grid_csv(self, capsys, prop_files):
        code, out = run(
            capsys, "distfn", "--property", str(prop_files["rainbow"]),
            "--grid", "1/4", "--kmax", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15  # compositions of 4 into 3 parts
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_distfn_point_and_max_csv(self, capsys, prop_files):
        code, out = run(
            capsys, "distfn", "--property", str(prop_files["rainbow"]),
            "--p", "1/2,1/4,1/4", "--kmax", "2", "--format", "csv",
        )
        assert (code, out) == (0, "1/2,1/4,1/4,1/4\n")
        code, out = run(
            capsys, "distfn", "--property", str(prop_files["ctri"]), "--kmax", "1",
            "--format", "csv",
        )
        assert (code, out) == (0, "0,1/2,1/2\n")  # the argmax, then the maximum

    def test_distfn_max(self, capsys, prop_files):
        code, out = run(
            capsys, "distfn", "--property", str(prop_files["ctri"]), "--kmax", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["max_value"] == "1/2"
        assert payload["turan_lower"] == "1/2"

    def test_edit_and_oracle(self, capsys, prop_files):
        code, out = run(
            capsys, "edit", "--property", str(prop_files["rainbow"]),
            "--graph", str(prop_files["rgraph"]), "--type-index", "0", "--kmax", "1",
            "--weights", "1", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        code, out = run(
            capsys, "oracle", "--property", str(prop_files["rainbow"]),
            "--graph", str(prop_files["rgraph"]),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["witness_member"] is True
        assert payload["hamming_check"] is True

    def test_sample_roundtrip(self, capsys, tmp_path, prop_files):
        out_file = tmp_path / "sampled.graph"
        code, _ = run(
            capsys, "sample", "--n", "6", "--seed", "3", "--p", "1/3,1/3,1/3",
            "--out", str(out_file),
        )
        assert code == 0
        g = edk.parse_graph(out_file.read_text())
        assert g.n == 6

    def test_sample_deterministic(self, capsys):
        code1, out1 = run(capsys, "sample", "--n", "6", "--seed", "3", "--p", "1/2,1/2")
        code2, out2 = run(capsys, "sample", "--n", "6", "--seed", "3", "--p", "1/2,1/2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_estimate(self, capsys, prop_files):
        code, out = run(
            capsys, "estimate", "--property", str(prop_files["rainbow"]),
            "--n", "5", "--p", "1/3,1/3,1/3", "--trials", "6", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "exact"
        assert payload["trials"] == 6

    def test_estimate_jobs_match_sequential(self, capsys, prop_files):
        args = [
            "estimate", "--property", str(prop_files["rainbow"]),
            "--n", "5", "--p", "1/3,1/3,1/3", "--trials", "4", "--seed", "2",
        ]
        _, seq = run(capsys, *args)
        _, par = run(capsys, *args, "--jobs", "2")
        assert seq == par

    def test_edit_trials_jobs_match_sequential(self, capsys, prop_files):
        args = [
            "edit", "--property", str(prop_files["rainbow"]),
            "--graph", str(prop_files["rgraph"]), "--type-index", "0", "--kmax", "1",
            "--weights", "1", "--seed", "7", "--trials", "5",
        ]
        _, seq = run(capsys, *args)
        _, par = run(capsys, *args, "--jobs", "2")
        assert seq == par

    def test_verify_cases(self, capsys):
        code, out = run(capsys, "verify-paper", "--case", "example-spectra")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True

    def test_verify_unknown_case(self, capsys):
        code, _ = run(capsys, "verify-paper", "--case", "nope")
        assert code == 1

    def test_usage_error_exits_2(self, capsys):
        assert main(["chi"]) == 2  # missing --property
        assert main(["nonsense"]) == 2

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.prop"
        bad.write_text("multicolor r=2\ngraph n=3\n1 3\n2\n")
        assert main(["chi", "--property", str(bad)]) == 2
        assert main(["chi", "--property", str(tmp_path / "missing.prop")]) == 2

    def test_domain_error_exits_1(self, capsys, prop_files):
        assert main(["distfn", "--property", str(prop_files["trans"]), "--kmax", "1"]) == 1

    @pytest.mark.parametrize("flag, value, command", [
        ("--trials", "0", "estimate"),
        ("--trials", "0", "edit"),
        ("--jobs", "0", "estimate"),
        ("--jobs", "-3", "edit"),
    ])
    def test_counts_below_one_are_usage_errors(self, capsys, prop_files, flag, value,
                                               command):
        args = {
            "estimate": ["estimate", "--property", str(prop_files["rainbow"]), "--n", "5",
                         "--p", "1/3,1/3,1/3", "--trials", "2", "--seed", "2"],
            "edit": ["edit", "--property", str(prop_files["rainbow"]),
                     "--graph", str(prop_files["rgraph"]), "--type-index", "0",
                     "--kmax", "1", "--weights", "1", "--seed", "7", "--trials", "2"],
        }[command]
        assert main(args + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be at least 1" in captured.err

    def test_malformed_guard_variable_is_a_usage_error(self, capsys, prop_files, monkeypatch):
        monkeypatch.setenv("EDK_GUARD_N", "abc")
        code = main(["oracle", "--property", str(prop_files["rainbow"]),
                     "--graph", str(prop_files["rgraph"])])
        assert code == 2
        assert "EDK_GUARD_N must be an integer, got 'abc'" in capsys.readouterr().err

    def test_distfn_turan_lower_null_only_when_trivial(self, capsys, prop_files, monkeypatch):
        # no family reaches the fallback through dist_max_upper (a trivial one
        # fails there first), so the lower bound is replaced
        import edk.cli

        def trivial(family):
            raise edk.TrivialPropertyError("trivial property")

        monkeypatch.setattr(edk.cli, "dist_lower_turan", trivial)
        args = ["distfn", "--property", str(prop_files["ctri"]), "--kmax", "1"]
        code, out = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["turan_lower"] is None

        def broken(family):
            raise RuntimeError("internal failure")

        monkeypatch.setattr(edk.cli, "dist_lower_turan", broken)
        assert main(args) == 1
        assert "internal failure" in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys, prop_files):
        args = [
            "distfn", "--property", str(prop_files["rainbow"]), "--kmax", "2",
            "--p", "1/3,1/3,1/3",
        ]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestCliBoundaries:
    @pytest.fixture
    def two_way_graph(self, tmp_path):
        path = tmp_path / "two_way.graph"
        path.write_text("directed palette=full\ngraph n=3\n- -\n-\n")
        return path

    @pytest.mark.parametrize("command, extra", [
        ("oracle", []),
        ("edit", ["--type-index", "0", "--kmax", "1", "--weights", "1", "--seed", "1"]),
    ])
    def test_graph_outside_the_palette_is_refused(self, capsys, prop_files, two_way_graph,
                                                   command, extra):
        code = main([command, "--property", str(prop_files["ctri"]),
                     "--graph", str(two_way_graph)] + extra)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "outside palette tourn" in captured.err

    @pytest.mark.parametrize("weights, reason", [
        ("1/2,1/2", "need 1 weights"),
        ("1/2,x", "Invalid literal for Fraction"),
    ])
    def test_bad_weights_are_usage_errors(self, capsys, prop_files, weights, reason):
        code = main(["edit", "--property", str(prop_files["rainbow"]),
                     "--graph", str(prop_files["rgraph"]), "--type-index", "0",
                     "--kmax", "2", "--weights", weights, "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--weights for the 1-vertex type 0" in captured.err
        assert reason in captured.err

    def test_one_vertex_graph_normalizes_to_zero(self, capsys, prop_files, tmp_path):
        graph = tmp_path / "one.graph"
        assert main(["sample", "--n", "1", "--seed", "1", "--p", "1/3,1/3,1/3",
                     "--out", str(graph)]) == 0
        capsys.readouterr()
        files = ["--property", str(prop_files["rainbow"]), "--graph", str(graph)]
        assert main(["edit", *files, "--kmax", "1", "--type-index", "0", "--weights", "1",
                     "--seed", "1", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "changes": 0, "normalized": "0", "member": True}
        assert main(["oracle", *files]) == 0
        assert json.loads(capsys.readouterr().out)["normalized"] == "0"

    def test_worker_count_is_clamped(self, monkeypatch):
        import os

        from edk.cli import worker_count

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert worker_count(10 ** 9, 50) == 2
        assert worker_count(10 ** 9, 1) == 1
        assert worker_count(1, 50) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count(10 ** 9, 50) == 1


class TestCliErrorKinds:
    @pytest.mark.parametrize("command, flag", [
        (["edit", "--graph", "{rgraph}", "--type-index", "0", "--kmax", "1",
          "--weights", "1/0", "--seed", "7"], "--weights for the 1-vertex type 0"),
        (["edit", "--graph", "{rgraph}", "--type-index", "0", "--kmax", "2",
          "--weights", "1/2, 3/0", "--seed", "7"], "--weights for the 1-vertex type 0"),
        (["distfn", "--kmax", "1", "--p", "1/0,1,0"], "--p"),
        (["distfn", "--kmax", "1", "--grid", "1/0"], "--grid"),
        (["estimate", "--n", "5", "--p", "1/3,1/3,1/0", "--trials", "1", "--seed", "1"], "--p"),
    ])
    def test_zero_denominator_names_the_flag(self, capsys, prop_files, command, flag):
        argv = [a.format(rgraph=prop_files["rgraph"]) for a in command]
        code = main(argv + ["--property", str(prop_files["rainbow"])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err
        assert "/0' has a zero denominator" in captured.err

    def test_sample_zero_denominator(self, capsys):
        assert main(["sample", "--n", "3", "--seed", "1", "--palette", "full",
                     "--dens", "0,1/0"]) == 2
        assert "--dens: '1/0' has a zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("command, prop, flag, count, got", [
        (["sample", "--n", "3", "--seed", "1", "--palette", "full", "--dens", "1/2"],
         None, "--dens", 2, 1),
        (["distfn", "--kmax", "1", "--p", "1/2,1/2"], "rainbow", "--p", 3, 2),
        (["distfn", "--kmax", "1", "--p", "1/4,1/4,1/4,1/4"], "rainbow", "--p", 3, 4),
        (["distfn", "--kmax", "1", "--p", "1/2"], "ctri", "--p", 2, 1),
        (["estimate", "--n", "5", "--p", "1/2,1/2", "--trials", "1", "--seed", "1"],
         "rainbow", "--p", 3, 2),
        (["estimate", "--n", "5", "--p", "0,1/2,0", "--trials", "1", "--seed", "1"],
         "ctri", "--p", 2, 3),
    ])
    def test_density_with_the_wrong_count_names_the_flag(self, capsys, prop_files, command,
                                                         prop, flag, count, got):
        argv = command + (["--property", str(prop_files[prop])] if prop else [])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{flag}: expected {count} comma-separated rationals, got {got}" in captured.err

    def test_sample_with_one_color_names_the_flag(self, capsys):
        code = main(["sample", "--n", "3", "--seed", "1", "--p", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--p: expected at least 2 comma-separated rationals" in captured.err
        assert "got 1" in captured.err

    @pytest.mark.parametrize("extra, named", [
        (["--palette", "full"], "--palette"),
        (["--dens", "1,0"], "--dens"),
        (["--palette", "full", "--dens", "1,0"], "--palette and --dens"),
    ])
    def test_sample_refuses_p_with_directed_flags(self, capsys, extra, named):
        code = main(["sample", "--n", "3", "--seed", "1", "--p", "1/2,1/2"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--p samples a multicolor graph; it cannot go with {named}" in captured.err

    def test_sample_dens_without_palette_names_the_default(self, capsys):
        code = main(["sample", "--n", "4", "--seed", "1", "--dens", "1/4,1/4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: --dens 1/4,1/4 needs --palette: the default palette "
                                "is tourn, whose density is fixed at 0,1/2\n")
        code = main(["sample", "--n", "4", "--seed", "1", "--dens", "0,1/2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("directed palette=tourn\n")

    @pytest.mark.parametrize("pal", ["full", "compl", "orien", "undir"])
    def test_sample_palette_without_dens_names_the_flag(self, capsys, pal):
        code = main(["sample", "--n", "5", "--seed", "1", "--palette", pal])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: --palette {pal} needs --dens 'p,q': only the tourn "
                                f"palette has a fixed density\n")

    def test_density_that_does_not_sum_to_one_stays_a_domain_error(self, capsys, prop_files):
        code = main(["distfn", "--property", str(prop_files["rainbow"]), "--kmax", "1",
                     "--p", "1/2,1/3,0"])
        assert code == 1
        assert "densities sum to 5/6" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_guard_variable_below_one_is_a_usage_error(self, capsys, prop_files, monkeypatch,
                                                       value):
        monkeypatch.setenv("EDK_GUARD_N", value)
        code = main(["oracle", "--property", str(prop_files["rainbow"]),
                     "--graph", str(prop_files["rgraph"])])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"EDK_GUARD_N must be at least 1, got {value}" in captured.err
        with pytest.raises(edk.UsageError, match="EDK_GUARD_N"):
            size_guard(edk.catalog.rainbow_triangle_family())

    def test_internal_errors_exit_3_with_a_traceback(self, capsys, prop_files, monkeypatch):
        import edk.cli

        def broken(args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(edk.cli, "_cmd_chi", broken)
        code = main(["chi", "--property", str(prop_files["rainbow"])])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("internal error:\nTraceback (most recent call last):")
        assert captured.err.rstrip().endswith("TypeError: unsupported operand")

    def test_guard_errors_stay_domain_errors(self, capsys, prop_files):
        code = main(["types", "--property", str(prop_files["rainbow"]), "--kmax", "3",
                     "--ceiling", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: enumeration would examine")

    def test_estimate_honours_the_ceiling(self, capsys, prop_files):
        code = main(["estimate", "--property", str(prop_files["rainbow"]), "--n", "5",
                     "--p", "1/3,1/3,1/3", "--trials", "1", "--seed", "1",
                     "--mode", "algorithmic", "--kmax", "3", "--ceiling", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: enumeration would examine")

    @pytest.mark.parametrize("argv", [
        ["oracle", "--property", "{rainbow}", "--graph", "{rgraph}", "--jobs", "2"],
        ["oracle", "--property", "{rainbow}", "--graph", "{rgraph}", "--format", "json"],
        ["sample", "--n", "3", "--seed", "1", "--p", "1/2,1/2", "--ceiling", "5"],
        ["chi", "--property", "{rainbow}", "--format", "text"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, prop_files, argv):
        argv = [a.format(rainbow=prop_files["rainbow"], rgraph=prop_files["rgraph"])
                for a in argv]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("where", [
        ["--p", "1/3,1/3,1/3", "--grid", "1/4"],
        ["--grid", "1/4", "--p", "1/3,1/3,1/3"],
    ])
    def test_distfn_point_and_grid_are_exclusive(self, capsys, prop_files, where):
        code = main(["distfn", "--property", str(prop_files["rainbow"]), "--kmax", "1"] + where)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err
        assert "--p" in captured.err and "--grid" in captured.err

    def test_grid_step_must_divide_one(self, capsys, prop_files):
        code = main(["distfn", "--property", str(prop_files["rainbow"]), "--kmax", "1",
                     "--grid", "0"])
        assert code == 1
        assert "grid step must be positive and divide 1" in capsys.readouterr().err

    def test_estimate_needs_two_vertices(self, capsys, prop_files):
        code = main(["estimate", "--property", str(prop_files["rainbow"]), "--n", "1",
                     "--p", "1/3,1/3,1/3", "--trials", "1", "--seed", "1"])
        assert code == 1
        assert "need at least two vertices" in capsys.readouterr().err


class TestFlagRanges:
    COMMANDS = {
        "types": ["types", "--kmax", "1"],
        "distfn": ["distfn", "--kmax", "1"],
        "edit": ["edit", "--graph", "{rgraph}", "--type-index", "0", "--kmax", "1",
                 "--weights", "1", "--seed", "7"],
        "estimate": ["estimate", "--n", "5", "--p", "1/3,1/3,1/3", "--trials", "1",
                     "--seed", "1", "--kmax", "1"],
        "oracle": ["oracle", "--graph", "{rgraph}"],
        "sample": ["sample", "--seed", "1", "--p", "1/3,1/3,1/3"],
    }

    @pytest.mark.parametrize("command, flag, value, low", [
        ("edit", "--type-index", "-1", 0),
        ("types", "--kmax", "0", 1),
        ("distfn", "--kmax", "0", 1),
        ("edit", "--kmax", "0", 1),
        ("estimate", "--kmax", "-2", 1),
        ("types", "--ceiling", "0", 1),
        ("distfn", "--ceiling", "-5", 1),
        ("estimate", "--max-n", "-1", 1),
        ("estimate", "--max-n", "0", 1),
        ("oracle", "--max-n", "0", 1),
        ("sample", "--n", "0", 1),
        ("sample", "--n", "-2", 1),
        ("estimate", "--n", "0", 1),
    ])
    def test_below_the_least_value_is_a_usage_error(self, capsys, prop_files, command, flag,
                                                    value, low):
        argv = [a.format(rgraph=prop_files["rgraph"]) for a in self.COMMANDS[command]]
        if command != "sample":
            argv += ["--property", str(prop_files["rainbow"])]
        code = main(argv + [flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in captured.err

    def test_least_values_are_accepted(self, capsys, prop_files):
        argv = [a.format(rgraph=prop_files["rgraph"]) for a in self.COMMANDS["edit"]]
        assert main(argv + ["--property", str(prop_files["rainbow"]), "--ceiling", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["member"] is True
        argv = [a.format(rgraph=prop_files["rgraph"]) for a in self.COMMANDS["estimate"]]
        assert main(argv + ["--property", str(prop_files["rainbow"]), "--max-n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "algorithmic"
        assert main(self.COMMANDS["sample"] + ["--n", "1"]) == 0
        assert capsys.readouterr().out == "multicolor r=3\n\ngraph n=1\n"

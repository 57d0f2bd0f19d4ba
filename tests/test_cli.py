import textwrap

import pytest

from cavitycluster import oracle
from cavitycluster.cli import (
    _KEYS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    load_run_config,
    main,
)


def write(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return p


SMALL_SWEEP = """\
    [lattice]
    M = 5
    N = 5
    J = 0.1
    delta = 0.0

    [gamma-sweep]
    tau = 3.0
    delta_min = 0.0
    delta_max = 2.0
    delta_step = 0.5
    tau_min = 0.0
    tau_max = 1.0
    tau_step = 0.25
    separations = 1,0 1,1
    """


# a value other than the default for every key of the INI schema
NON_DEFAULT = {
    ("lattice", "m"): "5",
    ("lattice", "n"): "5",
    ("lattice", "j"): "0.2",
    ("lattice", "delta"): "1.5",
    ("lattice", "g"): "2.0",
    ("gamma-sweep", "tau"): "2.5",
    ("gamma-sweep", "delta_min"): "1.0",
    ("gamma-sweep", "delta_max"): "10.0",
    ("gamma-sweep", "delta_step"): "0.25",
    ("gamma-sweep", "tau_min"): "0.5",
    ("gamma-sweep", "tau_max"): "2.0",
    ("gamma-sweep", "tau_step"): "0.1",
    ("gamma-sweep", "separations"): "1,0 2,1",
    ("cluster", "tau"): "2.0",
    ("cluster", "nn_only"): "false",
    ("cluster", "periodic"): "false",
    ("cluster", "snapshot"): "true",
    ("cluster", "fidelity_min"): "0.99",
    ("oracle", "n_max"): "6",
    ("oracle", "tolerance"): "1e-8",
    ("oracle", "tau"): "1.5",
    ("mbqc", "pattern"): "wire.pat",
    ("mbqc", "builtin"): "cnot",
    ("mbqc", "theta1"): "0.3",
    ("mbqc", "theta2"): "0.3",
    ("mbqc", "theta3"): "0.3",
    ("mbqc", "source"): "generated",
}


class TestConfigParsing:
    def test_defaults(self):
        run = load_run_config(None)
        assert run.lattice.M == 19 and run.lattice.N == 19
        assert run.lattice.J == 0.1

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", """\
            [lattice]
            M = 3
            frobnicate = 1
            """)
        rc = main(["gamma-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_unknown_key_line_number(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", """\
            [lattice]
            M = 3
            frobnicate = 1
            """)
        main(["gamma-sweep", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "line 3" in err and "frobnicate" in err

    def test_mbqc_mode_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", """\
            [mbqc]
            builtin = wire
            mode = x
            """)
        assert main(["mbqc", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 3" in err and "mode" in err

    def test_unknown_section(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", "[wat]\nx = 1\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("header", ["[Lattice]", "[Cluster]", "[DEFAULT]"])
    def test_section_must_match_exactly(self, tmp_path, capsys, header):
        # configparser matches sections by exact name; [DEFAULT] would feed every section
        body = f"# a 2x2 run\n{header}\nM = 2\nN = 2\n[cluster]\ntau = 2.0\n"
        cfg = write(tmp_path, "s.ini", body)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"line 2: unknown section {header}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_separation_names_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "s1.ini", "[lattice]\nM = 3\nN = 3\n"
                    "[gamma-sweep]\nseparations = 1,0 2\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "s1.ini, line 5: [gamma-sweep] separations must be integer pairs 'dm,dn'" in err
        assert not out.exists()

    def test_unparseable_value(self, tmp_path):
        cfg = write(tmp_path, "bad.ini", "[lattice]\nM = banana\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "command,section,value",
        [
            ("gamma-sweep", "gamma-sweep", "nan"),
            ("cluster", "cluster", "nan"),
            ("cluster", "cluster", "-1"),
            ("oracle-verify", "oracle", "-3"),
        ],
    )
    def test_bad_tau_is_config_error(self, tmp_path, capsys, command, section, value):
        cfg = write(tmp_path, "t.ini", f"[lattice]\nM = 1\nN = 2\n[{section}]\ntau = {value}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line 5: [{section}] tau must be finite and non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,section,key",
        [
            ("gamma-sweep", "gamma-sweep", "tau_max"),
            ("gamma-sweep", "gamma-sweep", "delta_step"),
            ("cluster", "cluster", "fidelity_min"),
            ("cluster", "lattice", "J"),
            ("oracle-verify", "oracle", "tolerance"),
            ("mbqc", "mbqc", "theta1"),
        ],
    )
    def test_non_finite_float_is_config_error(
        self, tmp_path, capsys, command, section, key, value
    ):
        body = "[lattice]\nM = 1\nN = 2\n" + ("" if section == "lattice" else f"[{section}]\n")
        body += f"{key} = {value}\n"
        cfg = write(tmp_path, "f.ini", body)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        line = body.count("\n")
        assert f"line {line}: [{section}] {key.lower()} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_oracle_tau_rejected_on_load(self, tmp_path):
        # a NaN interaction time would send the integrator's step doubling to its cap
        cfg = write(tmp_path, "t.ini", "[oracle]\ntau = nan\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_run_config(cfg)

    @pytest.mark.parametrize(
        "section,key", [(sec, key) for sec in sorted(_KEYS) for key in sorted(_KEYS[sec])]
    )
    def test_every_key_reaches_run_config(self, tmp_path, section, key):
        # no key is accepted but ignored: a non-default value changes the RunConfig
        value = NON_DEFAULT[section, key]
        cfg = write(tmp_path, "k.ini", f"[{section}]\n{key} = {value}\n")
        assert load_run_config(cfg) != RunConfig()

    @pytest.mark.parametrize("word", ["1", "Yes", "true", "ON", "0", "no", "False", "off"])
    def test_boolean_words(self, tmp_path, word):
        cfg = write(tmp_path, "b.ini", f"[cluster]\nsnapshot = {word}\n")
        assert load_run_config(cfg).snapshot is (word.lower() in ("1", "yes", "true", "on"))

    def test_bad_boolean_names_line(self, tmp_path):
        cfg = write(tmp_path, "b.ini", "[lattice]\nM = 3\n[cluster]\nperiodic = maybe\n")
        with pytest.raises(ConfigError, match="line 4: cannot parse periodic = 'maybe'"):
            load_run_config(cfg)

    def test_missing_config_file(self, tmp_path):
        assert (
            main(["cluster", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
            == EXIT_USAGE
        )


class TestGammaSweep:
    def test_writes_both_csvs(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        delta_csv = (out / "gamma_vs_delta.csv").read_text()
        tau_csv = (out / "gamma_vs_tau.csv").read_text()
        assert "delta_over_g,gamma_nn" in delta_csv
        assert "g_tau,G_1_0,G_1_1" in tau_csv
        assert delta_csv.startswith("# cavitycluster gamma-sweep")
        assert "# seed = 0" in delta_csv
        assert "# lattice.M = 5" in delta_csv

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SMALL_SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gamma-sweep", "--config", str(cfg), "--out", str(out1)])
        main(["gamma-sweep", "--config", str(cfg), "--out", str(out2)])
        for name in ("gamma_vs_delta.csv", "gamma_vs_tau.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", """\
            [gamma-sweep]
            delta_min = 5.0
            delta_max = 1.0
            """)
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert not (out / "gamma_vs_delta.csv").exists()

    @pytest.mark.parametrize(
        "M,N,seps,named", [(3, 3, "1,0 3,0", "(3, 0)"), (1, 4, "1,0", "(1, 0)")]
    )
    def test_zero_separation_is_config_error(self, tmp_path, capsys, M, N, seps, named):
        # a separation that is zero on the lattice names itself, no CSV is written
        cfg = write(tmp_path, "sweep.ini", f"[lattice]\nM = {M}\nN = {N}\n"
                    f"[gamma-sweep]\nseparations = {seps}\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"separation {named} is zero" in capsys.readouterr().err
        assert not (out / "gamma_vs_delta.csv").exists()

    @pytest.mark.parametrize("step", ["1e-320", "1.5e-5"])
    def test_grid_size_cap(self, tmp_path, capsys, step):
        # 1e-320 overflows the point count; 1.5e-5 asks for 200 001 points
        cfg = write(tmp_path, "sweep.ini", "[lattice]\nM = 2\nN = 2\n"
                    f"[gamma-sweep]\ntau_step = {step}\nseparations = 1,0\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "tau grid: more than 100000 points" in capsys.readouterr().err
        assert not (out / "gamma_vs_tau.csv").exists()

    def test_columns_are_dimensionless(self, tmp_path):
        # doubling g, J and every detuning while halving every time leaves
        # g tau, delta/g and Gamma unchanged, so every data row is the same
        scaled = """\
            [lattice]
            M = 5
            N = 5
            J = 0.2
            delta = 0.0
            g = 2.0

            [gamma-sweep]
            tau = 1.5
            delta_min = 0.0
            delta_max = 4.0
            delta_step = 1.0
            tau_min = 0.0
            tau_max = 0.5
            tau_step = 0.125
            separations = 1,0 1,1
            """
        rows = []
        for name, body in (("base", SMALL_SWEEP), ("scaled", scaled)):
            out = tmp_path / name
            assert main(["gamma-sweep", "--config", str(write(tmp_path, f"{name}.ini", body)),
                         "--out", str(out)]) == EXIT_OK
            rows.append([
                [line for line in (out / csv).read_text().splitlines() if not line.startswith("#")]
                for csv in ("gamma_vs_delta.csv", "gamma_vs_tau.csv")
            ])
        assert rows[0] == rows[1]
        assert rows[0][1][2].startswith("0.25,")  # g tau, not tau

    def test_single_row(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", "[lattice]\nM = 1\nN = 5\n"
                    "[gamma-sweep]\nseparations = 0,1 0,2\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "g_tau,G_0_1,G_0_2" in (out / "gamma_vs_tau.csv").read_text()

    def test_1x1_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "sweep.ini", "[lattice]\nM = 1\nN = 1\n")
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "1x1 lattice has no pairs" in capsys.readouterr().err

    def test_preset_writes_feasibility(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", SMALL_SWEEP)
        out = tmp_path / "out"
        main(["gamma-sweep", "--config", str(cfg), "--out", str(out), "--preset", "cpb"])
        text = (out / "feasibility.txt").read_text()
        assert "gate_time_seconds" in text


class TestCluster:
    def test_2x2_report(self, tmp_path):
        cfg = write(tmp_path, "c.ini", """\
            [lattice]
            M = 2
            N = 2
            J = 0.1

            [cluster]
            fidelity_min = 0.999999
            """)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = (out / "cluster_report.txt").read_text()
        fidelity = next(line for line in report.splitlines() if line.startswith("fidelity = "))
        assert 0.99999 <= float(fidelity.split(" = ")[1]) <= 1.0
        assert "verdict = pass" in report

    def test_snapshot_csv(self, tmp_path):
        cfg = write(tmp_path, "c.ini", """\
            [lattice]
            M = 1
            N = 2
            J = 0.1

            [cluster]
            snapshot = true
            """)
        out = tmp_path / "out"
        main(["cluster", "--config", str(cfg), "--out", str(out)])
        snap = (out / "cluster_state.csv").read_text()
        assert "basis_index,real,imag" in snap

    def test_preset_appends_feasibility(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 2\nN = 2\n")
        out = tmp_path / "out"
        argv = ["cluster", "--config", str(cfg), "--out", str(out), "--preset", "cpb"]
        assert main(argv) == EXIT_OK
        tail = (out / "cluster_report.txt").read_text().splitlines()[-6:]
        assert tail[0] == "verdict = pass"
        assert [line.split(" = ")[0] for line in tail[1:]] == [
            "feasibility preset", "gate_time_g_units", "gate_time_seconds",
            "ratio_T_cavity", "ratio_T_qubit",
        ]
        assert tail[1] == "feasibility preset = cpb"

    def test_preset_reads_gate_time_as_g_tau(self, tmp_path):
        # scaling g, J and delta together leaves g tau, and so the time in
        # seconds, unchanged
        seconds = []
        for g in (1.0, 2.0):
            cfg = write(tmp_path, "c.ini",
                        f"[lattice]\nM = 2\nN = 2\nJ = {0.1 * g}\ndelta = {0.05 * g}\ng = {g}\n")
            out = tmp_path / f"out{g}"
            main(["cluster", "--config", str(cfg), "--out", str(out), "--preset", "cpb"])
            report = (out / "cluster_report.txt").read_text().splitlines()
            lines = dict(line.split(" = ") for line in report if not line.startswith("#"))
            assert lines["gate_time_g_units"] == lines["g_tau"]
            seconds.append(float(lines["gate_time_seconds"]))
        assert seconds[1] == pytest.approx(seconds[0], rel=1e-12)

    def test_cap_exceeded(self, tmp_path):
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 5\nN = 5\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_full_table_open_boundary_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", """\
            [lattice]
            M = 3
            N = 3
            J = 0.1

            [cluster]
            nn_only = false
            periodic = false
            """)
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "periodic = true" in err and "nn_only = true" in err
        assert "larger table" not in err  # the CLI always builds the patch's own table
        assert not (tmp_path / "cluster_report.txt").exists()

    def test_1x1_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 1\nN = 1\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "1x1 lattice has no pairs" in capsys.readouterr().err
        assert not (tmp_path / "cluster_report.txt").exists()

    def test_gate_time_failure_exit(self, tmp_path):
        cfg = write(tmp_path, "c.ini", """\
            [lattice]
            M = 2
            N = 2
            J = 0.1
            delta = 50.0
            """)
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VERIFY


class TestOracleVerify:
    def test_1x2_passes(self, tmp_path):
        cfg = write(tmp_path, "o.ini", """\
            [lattice]
            M = 1
            N = 2
            J = 0.1
            delta = 20.0

            [oracle]
            n_max = 4
            tolerance = 1e-8
            """)
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = (out / "oracle_report.txt").read_text()
        assert "verdict = pass" in report
        assert "identity.anticommutator_sz_jx" in report
        assert "phase.00-01" in report

    def test_failed_identity_fails_the_run(self, tmp_path, monkeypatch):
        # a defect far over the bound must fail the whole run
        ids = {**oracle.check_identities(1, 2), "mutual_commutator_jx": 1.0}
        monkeypatch.setattr(oracle, "check_identities", lambda M, N: ids)
        cfg = write(tmp_path, "o.ini", """\
            [lattice]
            M = 1
            N = 2
            J = 0.1
            delta = 20.0

            [oracle]
            tolerance = 1e-8
            """)
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        report = (out / "oracle_report.txt").read_text()
        assert "identity.mutual_commutator_jx: value=1.0 bound=1e-14 FAIL" in report
        assert "phase.00-01" in report and "verdict = fail" in report

    def test_unreadable_phase_fails_the_run(self, tmp_path):
        # at zero detuning a short echo leaves the field excited, so no pair phase can be read
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 2\ndelta = 0.0\n"
                    "[oracle]\nn_max = 2\ntolerance = 1e-6\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        report = (out / "oracle_report.txt").read_text()
        assert "phase extraction failure: residual field excitation 0.320736" in report
        assert "echo.residual_excitation: value=0.3207" in report and "bound=1e-08 FAIL" in report
        assert "phase." not in report and report.endswith("verdict = fail\n")

    def test_integrator_failure_fails_the_run(self, tmp_path):
        # no step count under the cap reaches a 1e-16 tolerance
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 2\ndelta = 20.0\n"
                    "[oracle]\ntolerance = 1e-16\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        report = (out / "oracle_report.txt").read_text()
        assert "integrator failure: no convergence to tolerance 1e-16" in report
        assert "echo.integrator: value=inf bound=0.0 FAIL" in report
        assert report.endswith("verdict = fail\n")

    def test_cap(self, tmp_path):
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 2\nN = 3\n")
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE

    def test_amplitude_cap_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 2\n[oracle]\nn_max = 100000\n")
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "exceeds cap" in capsys.readouterr().err
        assert not (tmp_path / "oracle_report.txt").exists()

    def test_propagator_cap_is_config_error(self, tmp_path, capsys):
        # 2x2 at n_max = 60 holds 1344 amplitudes but a 238144-element propagator
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 2\nN = 2\n[oracle]\nn_max = 60\n")
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "[oracle] total dimension 238144 exceeds cap" in capsys.readouterr().err
        assert not (tmp_path / "oracle_report.txt").exists()

    def test_zero_tolerance_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 2\n[oracle]\ntolerance = 0\n")
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        assert "tolerance must be positive" in capsys.readouterr().err


class TestMbqc:
    def test_builtin_wire_deterministic(self, tmp_path):
        out = tmp_path / "out"
        assert main(["mbqc", "--out", str(out)]) == EXIT_OK
        report = (out / "mbqc_report.txt").read_text()
        assert "deterministic = pass" in report
        assert "branches_evaluated = 16" in report

    def test_builtin_cnot_generated_source(self, tmp_path):
        cfg = write(tmp_path, "m.ini", """\
            [mbqc]
            builtin = cnot
            source = generated
            """)
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "deterministic = pass" in (out / "mbqc_report.txt").read_text()

    def test_unknown_builtin_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "m.ini", "[mbqc]\nbuiltin = foo\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "line 2: [mbqc] builtin must be 'wire' or 'cnot'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("builtin,shape", [("wire", "1x5"), ("cnot", "3x2")])
    def test_builtin_shape_from_its_sites(self, tmp_path, builtin, shape):
        cfg = write(tmp_path, "m.ini", f"[mbqc]\nbuiltin = {builtin}\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert f"cluster_shape = {shape}" in (out / "mbqc_report.txt").read_text()

    def test_pattern_file(self, tmp_path):
        from cavitycluster.mbqc import format_pattern, wire_rotation_pattern

        pat = tmp_path / "wire.pat"
        pat.write_text(format_pattern(wire_rotation_pattern(0.5, 0.0, -0.5)))
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_OK

    def test_malformed_pattern_names_line(self, tmp_path, capsys):
        pat = tmp_path / "bad.pat"
        pat.write_text("0 0 X - -\n0 1 EQ oops -\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
    @pytest.mark.parametrize(
        "byproduct", ["byproduct 0 1 X 3", "byproduct 3 3 X 0", "byproduct 0 0 X 0"]
    )
    def test_invalid_byproduct_is_config_error(self, tmp_path, capsys, byproduct, seed):
        # whatever outcome the seed draws, a bad rule is refused before any run
        pat = tmp_path / "bad.pat"
        pat.write_text(f"0 0 X - -\n{byproduct}\noutput 0 1\n")
        out = tmp_path / "out"
        argv = ["mbqc", "--pattern", str(pat), "--out", str(out), "--seed", seed]
        assert main(argv) == EXIT_USAGE
        assert "bad.pat: line 2: byproduct" in capsys.readouterr().err
        assert not (out / "mbqc_report.txt").exists()

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_empty_pattern_is_config_error(self, tmp_path, capsys, text):
        pat = tmp_path / "empty.pat"
        pat.write_text(text)
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        assert f"{pat}: pattern has no steps and no outputs" in capsys.readouterr().err
        assert not (out / "mbqc_report.txt").exists()

    def test_negative_site_is_config_error(self, tmp_path, capsys):
        pat = tmp_path / "bad.pat"
        pat.write_text("0 -1 X - -\noutput 0 1\n")
        assert main(["mbqc", "--pattern", str(pat), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "line 1: site (0, -1) has a negative coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_is_config_error(self, tmp_path, capsys, angle):
        pat = tmp_path / "bad.pat"
        pat.write_text(f"0 0 EQ {angle} -\noutput 0 1\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        assert f"bad.pat: line 1: angle must be finite, got {angle}" in capsys.readouterr().err
        assert not (out / "mbqc_report.txt").exists()

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "out"
        main(["mbqc", "--out", str(out), "--seed", "42"])
        assert "# seed = 42" in (out / "mbqc_report.txt").read_text()

    def test_bad_seed(self, tmp_path):
        assert main(["mbqc", "--out", str(tmp_path), "--seed", "-3"]) == EXIT_USAGE


class TestUsage:
    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_preset(self):
        assert main(["gamma-sweep", "--preset", "alien"]) == EXIT_USAGE

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

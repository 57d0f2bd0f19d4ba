import re
import textwrap

import numpy as np
import pytest

from cavitycluster import __version__, cli, oracle
from cavitycluster.cli import (
    _KEYS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    ConfigError,
    RunConfig,
    _snapshot_rows,
    load_run_config,
    main,
)
from cavitycluster.effective import PhasePolynomial, cluster_phase, phase_register
from cavitycluster.geomphase import build_phase_table, solve_gate_time
from cavitycluster.lattice import LatticeConfig


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

    def test_mode_cap_names_line(self, tmp_path):
        # 5000 x 19 modes pass the cap; the N that makes 5000 x 5000 is refused
        # while the config is read, so no subcommand and no mode array runs
        cfg = write(tmp_path, "big.ini", "[lattice]\nM = 5000\nN = 5000\n")
        with pytest.raises(ConfigError, match="big.ini, line 3: a 5000x5000 lattice has over"):
            load_run_config(cfg)

    def test_mbqc_mode_key_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.ini", """\
            [mbqc]
            builtin = wire
            mode = x
            """)
        assert main(["mbqc", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 3" in err and "mode" in err

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("[lattice]\nM = 2\nM = 3\n", 3, "option 'm' in section 'lattice' already exists"),
            ("[lattice]\nM = 2\n[lattice]\nN = 2\n", 3, "section 'lattice' already exists"),
            ("[lattice]\nM\nN = 2\n", 2, "parsing errors"),
        ],
        ids=["duplicate-key", "duplicate-section", "no-equals"],
    )
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, body, line, message):
        cfg = write(tmp_path, "bad.ini", body)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: {cfg}: " in err and message in err
        assert re.search(rf"\[line +{line}\]", err)
        assert not out.exists()

    def test_mbqc_pattern_key_rejected(self, tmp_path, capsys):
        # a pattern file comes only from --pattern, so the INI has no key for it
        cfg = write(tmp_path, "m.ini", "[mbqc]\nsource = reference\npattern = wire.pat\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "m.ini, line 3: unknown key 'pattern' in section [mbqc]" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "key,value,rule",
        [
            ("tau_min", "-1", "finite and non-negative"),
            ("delta_step", "0", "finite and positive"),
            ("tau_step", "0", "finite and positive"),
            ("tau_step", "-0.5", "finite and positive"),
        ],
    )
    def test_bad_grid_key_names_line(self, tmp_path, capsys, key, value, rule):
        cfg = write(tmp_path, "g.ini", f"[lattice]\nM = 3\nN = 3\n[gamma-sweep]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"g.ini, line 5: [gamma-sweep] {key} must be {rule}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,section,key,value,rest,message",
        [
            ("cluster", "cluster", "tau", "1e120", "", "puts g*tau at 1e+120, past the bound 100"),
            ("gamma-sweep", "gamma-sweep", "tau", "1e300", "", "puts g*tau at 1e+300"),
            ("gamma-sweep", "gamma-sweep", "tau_min", "100.5", "tau_max = 101\n",
             "puts g*tau at 100.5, past the bound 100"),
            ("gamma-sweep", "gamma-sweep", "tau_max", "1e300", "tau_step = 1e296\n",
             "puts g*tau at 1e+300"),
            ("gamma-sweep", "gamma-sweep", "delta_min", "-1e151", "",
             "puts |delta|/g at 1e+151, past the bound 1e+150"),
            ("gamma-sweep", "gamma-sweep", "delta_max", "1e308", "delta_step = 1e307\n",
             "puts |delta|/g at 1e+308"),
            ("oracle-verify", "oracle", "tau", "1e300", "", "puts g*tau at 1e+300"),
            ("cluster", "lattice", "J", "1e308", "", "|J| must be at most 1e+150 g"),
            ("gamma-sweep", "lattice", "delta", "-1e308", "", "|delta| must be at most 1e+150 g"),
        ],
    )
    def test_scaled_key_past_bound_names_line(
        self, tmp_path, capsys, command, section, key, value, rest, message
    ):
        # these ended in an OverflowError traceback, or wrote nan rows, with exit 0 or 1
        body = "[lattice]\nM = 2\nN = 2\n" + ("" if section == "lattice" else f"[{section}]\n")
        cfg = write(tmp_path, "s.ini", body + f"{key} = {value}\n{rest}")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"s.ini, line {body.count(chr(10)) + 1}: " in err and message in err
        if section != "lattice":
            assert f"[{section}] {key} = {float(value)!r} puts" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,section", [("gamma-sweep", "gamma-sweep"),
                                                 ("oracle-verify", "oracle")])
    def test_default_tau_past_bound_at_large_g(self, tmp_path, capsys, command, section):
        # the default tau = 3 is g*tau = 3000 at g = 1000; cluster solves its own tau and runs
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 1\nN = 2\nJ = 100\ng = 1000\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert (f"s.ini: [{section}] tau = 3.0 (default) puts g*tau at 3000, past the bound 100"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_delta_grid_past_bound(self, tmp_path, capsys):
        # delta_max is at the bound, but the grid's last point rounds past it
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 2\nN = 2\n[gamma-sweep]\n"
                    "delta_max = 1e150\ndelta_step = 6e149\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "[gamma-sweep] a delta grid point is past |delta|/g = 1e+150" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_largest_g_tau_at_smallest_g_runs(self, tmp_path):
        # g*tau = 100 and |delta|/g = 1e150 at g = 1e-100, with no warning
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 2\nN = 2\nJ = 1e-101\ng = 1e-100\n"
                    "[gamma-sweep]\ntau = 1e102\ntau_max = 1e102\ntau_step = 5e101\nseparations = 1,0\n"
                    "delta_min = -1e50\ndelta_max = 1e50\ndelta_step = 1e50\n"
                    "[oracle]\ntau = 1e102\n")
        for command in ("gamma-sweep", "oracle-verify"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY)
        rows = (tmp_path / "gamma-sweep" / "gamma_vs_tau.csv").read_text().splitlines()[-3:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "50.0", "100.0"]
        assert "nan" not in "".join(rows) and "inf" not in "".join(rows)

    def test_nan_oracle_tau_rejected_on_load(self, tmp_path):
        # a NaN interaction time would make every echoed amplitude NaN
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


class GivenPhi:
    """Stands in for a 1 x n PhasePolynomial whose Phi at the 2^n bitstrings is
    given; values() never yields -0.0, since an exact zero it rounds to is +0.0."""

    def __init__(self, values):
        self.M, self.N = 1, len(values).bit_length() - 1
        self._values = np.array(values, dtype=float)

    def values(self):
        return self._values.copy()


def random_field_4x4():
    rng = np.random.default_rng(16)
    w = np.triu(rng.uniform(-1.5, 1.5, (16, 16)), 1)
    return PhasePolynomial(4, 4, w + w.T, rng.uniform(-2, 2, 16))


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

    @staticmethod
    def expected_snapshot(M, N, nn_only, periodic):
        """cluster_state.csv of a default-J run, formatted row by row with repr."""
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=0.0, g=1.0)
        table = build_phase_table(cfg, solve_gate_time(cfg))
        amps = phase_register(cluster_phase(M, N, table.grid, nn_only, periodic)).amps
        header = ["cavitycluster cluster", f"version = {__version__}", "seed = 0",
                  f"lattice.M = {M}", f"lattice.N = {N}", "lattice.J = 0.1",
                  "lattice.delta = 0.0", "lattice.g = 1.0"]
        rows = [f"{i}.0,{re!r},{im!r}" for i, (re, im) in
                enumerate(zip(amps.real.tolist(), amps.imag.tolist()))]
        return "".join(f"# {line}\n" for line in header) + "\n".join(
            ["basis_index,real,imag", *rows]) + "\n"

    def test_snapshot_csv(self, tmp_path):
        for M, N, nn_only, periodic in [(1, 2, True, True), (3, 3, False, True),
                                        (4, 4, True, False)]:
            cfg = write(tmp_path, "c.ini", f"[lattice]\nM = {M}\nN = {N}\nJ = 0.1\n[cluster]\n"
                        f"nn_only = {nn_only}\nperiodic = {periodic}\nsnapshot = true\n")
            out = tmp_path / f"out{M}x{N}"
            assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            snap = (out / "cluster_state.csv").read_text()
            assert snap == self.expected_snapshot(M, N, nn_only, periodic), f"{M}x{N}"

    @pytest.mark.parametrize("rows_per_write", [1000, cli._SNAPSHOT_ROWS_PER_WRITE])
    def test_snapshot_streamed_bytes(self, tmp_path, monkeypatch, rows_per_write):
        # written a chunk of rows at a time, the 4x4 file has the joined form's bytes,
        # a short last chunk included
        monkeypatch.setattr(cli, "_SNAPSHOT_ROWS_PER_WRITE", rows_per_write)
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 4\nN = 4\nJ = 0.1\n[cluster]\n"
                    "nn_only = true\nperiodic = false\nsnapshot = true\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        snap = (tmp_path / "out" / "cluster_state.csv").read_bytes()
        assert snap == self.expected_snapshot(4, 4, True, False).encode()

    @pytest.mark.parametrize(
        "make_phi",
        [
            lambda: cluster_phase(3, 3, np.full((3, 3), np.pi / 4), periodic=False),
            lambda: GivenPhi([0.5, -0.25, 0.5, 0.5, -0.25, 0.1, 0.1, 0.5]),
            lambda: GivenPhi([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0]),
            lambda: GivenPhi([5e-324, -5e-324, 1e16, -1e22, 1e16, 0.0, -0.0, 5e-324]),
            random_field_4x4,
        ],
        ids=["cluster-3x3", "repeated", "signed-zeros", "extremes", "all-distinct"],
    )
    def test_snapshot_rows_match_repr(self, make_phi):
        # each distinct Phi is formatted once; every row must equal phase_register's
        # amplitude formatted on its own
        phi = make_phi()
        amps = phase_register(phi).amps
        want = ["basis_index,real,imag"] + [
            f"{i}.0,{re!r},{im!r}" for i, (re, im) in
            enumerate(zip(amps.real.tolist(), amps.imag.tolist()))
        ]
        assert "\n".join(_snapshot_rows(phi)).split("\n") == want

    def test_snapshot_cap(self, tmp_path, capsys, monkeypatch):
        # 21 qubits are refused; 20 pass the cap and reach the lattice checks, stubbed
        # here to stop the run before it writes 2^20 rows
        def stop(cfg):
            raise ValueError("stopped past the snapshot cap")

        monkeypatch.setattr(cli, "nn_separation", stop)
        for (M, N), message in [((3, 7), "[cluster] snapshot = true on 3x7 would write 2^21 = "
                                 "2097152 rows, over the 20-qubit snapshot cap"),
                                ((4, 5), "[lattice] stopped past the snapshot cap")]:
            ini = f"[lattice]\nM = {M}\nN = {N}\n[cluster]\nsnapshot = true\n"
            cfg = write(tmp_path, "c.ini", ini)
            assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
            assert message in capsys.readouterr().err

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

    @pytest.mark.parametrize("tau_line", ["", "[cluster]\ntau = 2.0\n"], ids=["solved", "given"])
    def test_preset_solves_gate_time_once(self, tmp_path, monkeypatch, tau_line):
        # the cluster and its feasibility lines share one solve; with
        # [cluster] tau given, the feasibility lines still read the solved one
        calls = []

        def counted(config):
            calls.append(config)
            return solve_gate_time(config)

        monkeypatch.setattr(cli, "solve_gate_time", counted)
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 2\nN = 3\nJ = 0.1\n" + tau_line)
        out = tmp_path / "out"
        argv = ["cluster", "--config", str(cfg), "--out", str(out), "--preset", "cpb"]
        assert main(argv) == EXIT_OK
        assert len(calls) == 1
        report = (out / "cluster_report.txt").read_text().splitlines()
        lines = dict(line.split(" = ") for line in report if not line.startswith("#"))
        solved = solve_gate_time(LatticeConfig(M=2, N=3, J=0.1))
        assert lines["gate_time_g_units"] == repr(solved)
        assert lines["tau"] == (repr(solved) if not tau_line else "2.0")

    def test_preset_reads_gate_time_as_g_tau(self, tmp_path):
        # scaling g, J and delta together leaves g tau, and so the time in
        # seconds, unchanged
        seconds = []
        for g in (1.0, 2.0, 1000.0, 0.01):
            cfg = write(tmp_path, "c.ini",
                        f"[lattice]\nM = 2\nN = 2\nJ = {0.1 * g}\ndelta = {0.05 * g}\ng = {g}\n")
            out = tmp_path / f"out{g}"
            argv = ["cluster", "--config", str(cfg), "--out", str(out), "--preset", "cpb"]
            assert main(argv) == EXIT_OK
            report = (out / "cluster_report.txt").read_text().splitlines()
            lines = dict(line.split(" = ") for line in report if not line.startswith("#"))
            assert lines["gate_time_g_units"] == lines["g_tau"]
            seconds.append(float(lines["gate_time_seconds"]))
        assert seconds[1:] == pytest.approx(seconds[:1] * 3, rel=1e-12)

    @pytest.mark.parametrize("g,J", [("1e-103", "1e-104"), ("1e300", "1e299")])
    def test_coupling_out_of_range_names_line(self, tmp_path, capsys, g, J):
        # past these ends the g*tau grid points or g**2 overflowed into a traceback
        cfg = write(tmp_path, "c.ini", f"[lattice]\nM = 2\nN = 2\ng = {g}\nJ = {J}\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"c.ini, line 4: coupling g must lie in [1e-100, 1e100], got {float(g)!r}" in err

    @pytest.mark.parametrize(
        "g,J,g_tau", [("1e-100", "1e-101", "1.8220669087574788"), ("1e100", "1e99", "1.822066908757479")]
    )
    def test_coupling_range_ends_run(self, tmp_path, g, J, g_tau):
        # J/g = 0.1 at either end solves as at g = 1, with no RuntimeWarning
        cfg = write(tmp_path, "c.ini", f"[lattice]\nM = 2\nN = 2\ng = {g}\nJ = {J}\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
        assert f"g_tau = {g_tau}\n" in (tmp_path / "cluster_report.txt").read_text()

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

    @pytest.mark.parametrize(
        "command,extra,preset",
        [
            ("cluster", "", False),
            ("cluster", "[cluster]\ntau = 2.0\n", True),
            ("gamma-sweep", "[gamma-sweep]\nseparations = 1,0\n", True),
            ("mbqc", "[mbqc]\nsource = generated\n", False),
        ],
        ids=["cluster", "cluster-tau-preset", "gamma-sweep-preset", "mbqc-generated"],
    )
    def test_gate_time_failure_exit(self, tmp_path, capsys, command, extra, preset):
        # at delta = 50 no g tau in the window reaches pi/4: every subcommand
        # that needs the gate time exits 1 with one line, no traceback
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 2\nN = 2\nJ = 0.1\ndelta = 50.0\n" + extra)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv + (["--preset", "cpb"] if preset else [])) == EXIT_VERIFY
        assert capsys.readouterr().err.startswith("error: no g*tau in (0, 20] reaches Gamma_nn")
        assert [p.name for p in tmp_path.iterdir()] == ["c.ini"]  # no report, no CSV


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
        rows = [line.split(":")[0] for line in report.splitlines() if ": value=" in line]
        identities = [f"identity.{name}" for name in oracle.check_identities(1, 2)]
        assert rows == identities + ["echo.residual_excitation", "phase.00-01"]
        assert "\ntruncation_estimate = " in report and "steps = " not in report

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
        assert "phase extraction failure: residual field excitation 0.320737" in report
        assert "echo.residual_excitation: value=0.3207" in report and "bound=1e-08 FAIL" in report
        assert "phase." not in report and report.endswith("verdict = fail\n")

    def test_integrator_failure_fails_the_run(self, tmp_path):
        # the echoed field's norm defect is rounding, about 1e-15: over a
        # 1e-16 tolerance it fails the run, with the phase rows still written
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 2\ndelta = 20.0\n"
                    "[oracle]\ntolerance = 1e-16\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_VERIFY
        report = (out / "oracle_report.txt").read_text()
        defect = float(re.search(r"^error_estimate = (\S+)$", report, re.M)[1])
        assert 1e-16 < defect < 1e-14
        assert f"echo.error_estimate: value={defect!r} bound=1e-16 FAIL" in report
        assert "phase.00-01" in report and report.endswith("verdict = fail\n")

    @pytest.mark.parametrize("scale", [1 - 1e-9, 1 + 1e-9], ids=["below", "above"])
    @pytest.mark.parametrize("M,N", [(1, 2), (2, 2)])
    def test_gate_time_phase_compared_modulo_half_pi(self, tmp_path, M, N, scale):
        # Gamma_nn = pi/4 sits on the edge of the readout range (-pi/4, pi/4]:
        # just past the gate time the measured phase reads about -pi/4
        tau = solve_gate_time(LatticeConfig(M=M, N=N, J=0.1)) * scale
        cfg = write(tmp_path, "o.ini", f"[lattice]\nM = {M}\nN = {N}\nJ = 0.1\ndelta = 0.0\n"
                    f"[oracle]\nn_max = 40\ntau = {tau!r}\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = (out / "oracle_report.txt").read_text()
        passed = re.findall(r"^phase\.\S+: value=\S+ bound=1e-06 pass$", report, re.M)
        assert len(passed) == M * N * (M * N - 1) // 2
        assert report.endswith("verdict = pass\n")

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

    @pytest.mark.parametrize(
        "key,value,rule",
        [
            ("tolerance", "0", "finite and positive"),
            ("tolerance", "-1", "finite and positive"),
            ("tolerance", "nan", "finite and positive"),
            ("tolerance", "inf", "finite and positive"),
            ("n_max", "0", "at least 1"),
        ],
        ids=["tolerance-zero", "tolerance-negative", "tolerance-nan", "tolerance-inf", "n_max-zero"],
    )
    def test_oracle_rule_names_line(self, tmp_path, capsys, key, value, rule):
        cfg = write(tmp_path, "o.ini", f"[lattice]\nM = 1\nN = 2\n[oracle]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"o.ini, line 5: [oracle] {key} must be {rule}" in capsys.readouterr().err
        assert not out.exists()


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

    def test_duplicate_output_is_config_error(self, tmp_path, capsys):
        pat = tmp_path / "bad.pat"
        pat.write_text("0 0 X - -\n0 1 X - -\noutput 0 2\noutput 0 2\n")
        assert main(["mbqc", "--pattern", str(pat), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert "bad.pat: line 4: output site (0, 2) is declared twice" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_is_config_error(self, tmp_path, capsys, angle):
        pat = tmp_path / "bad.pat"
        pat.write_text(f"0 0 EQ {angle} -\noutput 0 1\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        assert f"bad.pat: line 1: angle must be finite, got {angle}" in capsys.readouterr().err
        assert not (out / "mbqc_report.txt").exists()

    def test_step_cap(self, tmp_path, capsys):
        # a 1x14 X wire has 13 steps, 2^13 branches: refused before any runs
        pat = tmp_path / "long.pat"
        pat.write_text("".join(f"0 {n} X - -\n" for n in range(13)) + "output 0 13\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "long.pat: pattern has 13 measurement steps, over the 12-step cap" in err
        assert not (out / "mbqc_report.txt").exists()

    def test_qubit_cap_names_pattern_file(self, tmp_path, capsys):
        pat = write(tmp_path, "wide.pat", "0 0 X - -\noutput 9 9\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{pat}: pattern needs a 10x10 cluster, over the 24-qubit cap" in err
        assert not out.exists()

    def test_zero_probability_branches_pruned(self, tmp_path):
        # Z on both ends isolates (0, 1) in |+> or |->, so its X outcome is
        # fixed: 4 of the 8 outcome strings have probability 0 and never run
        pat = write(tmp_path, "iso.pat", "0 0 Z - -\n0 2 Z - -\n0 1 X - -\n")
        cfg = write(tmp_path, "m.ini", "[mbqc]\nsource = reference\n")
        out = tmp_path / "out"
        argv = ["mbqc", "--config", str(cfg), "--pattern", str(pat), "--out", str(out)]
        assert main(argv) == EXIT_OK
        report = (out / "mbqc_report.txt").read_text()
        assert "cluster_shape = 1x3" in report
        assert "branches_evaluated = 4" in report and "deterministic = pass" in report

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "out"
        main(["mbqc", "--out", str(out), "--seed", "42"])
        assert "# seed = 42" in (out / "mbqc_report.txt").read_text()

    def test_bad_seed(self, tmp_path):
        assert main(["mbqc", "--out", str(tmp_path), "--seed", "-3"]) == EXIT_USAGE


class TestUsage:
    @pytest.mark.parametrize(
        "command,ini,pattern,message",
        [
            ("oracle-verify", "[lattice]\nM = 2\nN = 2\n[oracle]\nn_max = 60\n", None,
             "[oracle] total dimension 238144 exceeds cap 200000 (n_max = 60 on the 2x2 lattice)"),
            ("mbqc", "[mbqc]\nsource = reference\n", "0 0 X - -\n0 1 EQ oops -\n",
             "bad.pat: line 2"),
            ("cluster", "[lattice]\nM = 4\nN = 6\n[cluster]\nsnapshot = true\n", None,
             "[cluster] snapshot = true on 4x6"),
        ],
        ids=["oracle-cap", "bad-pattern", "snapshot-cap"],
    )
    def test_refusal_leaves_no_out_dir(self, tmp_path, capsys, command, ini, pattern, message):
        argv = [command, "--config", str(write(tmp_path, "c.ini", ini)),
                "--out", str(tmp_path / "out")]
        if pattern is not None:
            argv += ["--pattern", str(write(tmp_path, "bad.pat", pattern))]
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_bad_preset(self):
        assert main(["gamma-sweep", "--preset", "alien"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", ["oracle-verify", "mbqc"])
    def test_preset_only_where_read(self, tmp_path, command):
        # no number in these reports depends on a preset, so neither takes the flag
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 1\nN = 2\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--preset", "cpb"]) == EXIT_USAGE
        assert not out.exists()
        main(argv)  # the same run without the flag writes its report
        assert any(out.iterdir())

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

import configparser
import hashlib
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cavitycluster import __version__, cli, mbqc, oracle
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
    ("gamma-sweep", "tau"): "2.5",
    ("gamma-sweep", "delta_min"): "1.0",
    ("gamma-sweep", "delta_max"): "10.0",
    ("gamma-sweep", "delta_step"): "0.25",
    ("gamma-sweep", "tau_min"): "0.5",
    ("gamma-sweep", "tau_max"): "2.0",
    ("gamma-sweep", "tau_step"): "0.1",
    ("gamma-sweep", "separations"): "1,0 2,1",
    ("cluster", "tau"): "2.0",
    ("cluster", "nn_only"): "true",
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


def configparser_read(path):
    """The config as configparser read it, its items parsed through _KEYS: the
    reference that load_run_config must match on every valid file."""
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.read_string(path.read_text())
    run, lattice = RunConfig(), {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            name, parse = _KEYS[section][key]
            if section == "lattice":
                lattice[name] = parse(raw)
            else:
                setattr(run, name, parse(raw))
    run.lattice = replace(run.lattice, **lattice)
    return run


ROOT = Path(__file__).parents[1]
# the README's example configuration, the one ```ini block
README_INI = (ROOT / "README.md").read_text().split("```ini\n", 1)[1].split("```", 1)[0]
# ':' delimiters, upper-case keys, both comment styles, an indented comment,
# blank lines, spaces round delimiters and at line ends, a header with a trailing
# note, and an inline ';' that stays in the value (separations reads it as a space)
MIXED_INI = (
    "; a mixed file\n# with both comment styles\n\n[lattice] # note\nM: 3  \n"
    "  # an indented comment\nN   =   4\nJ=0.2\n\n[cluster]\nNN_ONLY : true\n"
    "Periodic = off\nfidelity_min=0.5\t\n[gamma-sweep]\nseparations = 1,0 ; 0,1\n"
    "TAU_MAX: 2.5\n"
)


class TestConfigParsing:
    @pytest.mark.parametrize(
        "text",
        [pytest.param(ini.read_text(), id=ini.name)
         for ini in sorted((ROOT / "docs" / "examples").glob("*.ini"))]
        + [pytest.param(README_INI, id="README.ini"), pytest.param(MIXED_INI, id="mixed.ini")],
    )
    def test_reads_as_configparser_read(self, tmp_path, text):
        cfg = write(tmp_path, "c.ini", text)
        assert load_run_config(cfg) == configparser_read(cfg)

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

    @pytest.mark.parametrize("body", ["M = 100000\nN = 1\n", "N = 1\nM = 100000\n"],
                             ids=["M-first", "N-first"])
    def test_mode_cap_any_key_order(self, tmp_path, body):
        # the cap applies to M and N together, so neither is checked against
        # the other's default: 100000 x 19 would be over it
        cfg = write(tmp_path, "wide.ini", "[lattice]\n" + body)
        assert load_run_config(cfg).lattice == LatticeConfig(M=100000, N=1, J=0.1)

    def test_dimension_rule_names_line(self, tmp_path):
        cfg = write(tmp_path, "zero.ini", "[lattice]\nN = 3\nM = 0\n")
        with pytest.raises(ConfigError, match=r"zero.ini, line 3: \[lattice\] m must be at least 1"):
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
            ("[lattice]\nM = 2\nM = 3\n", 3, "repeated key 'm' in section [lattice]"),
            ("[lattice]\nM = 2\n[lattice]\nN = 2\n", 3, "repeated section [lattice]"),
            ("[lattice]\nM\nN = 2\n", 2, "expected an unindented '[section]' or 'key = value', got 'M'"),
            ("M = 2\n[lattice]\nN = 2\n", 1, "a key before any [section] header"),
            # configparser would have joined the indented line to the value
            ("[lattice]\nM = 2\n[gamma-sweep]\nseparations = 1,0\n    2,0\n", 5,
             "expected an unindented '[section]' or 'key = value', got '    2,0'"),
        ],
        ids=["duplicate-key", "duplicate-section", "no-equals", "key-before-header",
             "indented-continuation"],
    )
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, body, line, message):
        cfg = write(tmp_path, "bad.ini", body)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {cfg}, line {line}: {message}\n"
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
        # sections match by exact name, and [DEFAULT] is no special section that feeds the rest
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
            ("cluster", "cluster", "tau", "1e120", "", "tau must be at most 100"),
            ("gamma-sweep", "gamma-sweep", "tau", "1e300", "", "tau must be at most 100"),
            ("gamma-sweep", "gamma-sweep", "tau_min", "100.5", "tau_max = 101\n",
             "tau_min must be at most 100"),
            ("gamma-sweep", "gamma-sweep", "tau_max", "1e300", "tau_step = 1e296\n",
             "tau_max must be at most 100"),
            ("gamma-sweep", "gamma-sweep", "delta_min", "-1e151", "",
             "delta_min must be in [-1e+150, 1e+150]"),
            ("gamma-sweep", "gamma-sweep", "delta_max", "1e308", "delta_step = 1e307\n",
             "delta_max must be in [-1e+150, 1e+150]"),
            ("oracle-verify", "oracle", "tau", "1e300", "", "tau must be at most 100"),
            ("cluster", "lattice", "J", "1e308", "", "j must be in [-1e+150, 1e+150]"),
            ("gamma-sweep", "lattice", "delta", "-1e308", "", "delta must be in [-1e+150, 1e+150]"),
        ],
    )
    def test_scaled_key_past_bound_names_line(
        self, tmp_path, capsys, command, section, key, value, rest, message
    ):
        # a time (in units of 1/g) or a detuning (in units of g) past its bound
        # ended in an OverflowError traceback, or wrote nan rows, with exit 0 or 1
        body = "[lattice]\nM = 2\nN = 2\n" + ("" if section == "lattice" else f"[{section}]\n")
        cfg = write(tmp_path, "s.ini", body + f"{key} = {value}\n{rest}")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"s.ini, line {body.count(chr(10)) + 1}: " in err and message in err
        if section != "lattice":
            assert f"[{section}] {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gamma-sweep", "cluster", "oracle-verify", "mbqc"])
    def test_scaled_keys_checked_by_every_subcommand(self, tmp_path, capsys, command):
        # a key's bound is its rule, so the file is refused on load, as for any
        # other broken rule, whichever subcommand reads it
        cfg = write(tmp_path, "s.ini", "[oracle]\ntau = 200\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "s.ini, line 2: [oracle] tau must be at most 100" in capsys.readouterr().err
        assert not out.exists()

    def test_other_sections_checked_but_not_read(self, tmp_path, capsys):
        # a file may carry several subcommands' sections: a cluster run
        # rule-checks them all on load but reads [lattice] and [cluster] only,
        # while mbqc refuses its own keys that the run does not read
        others = "[oracle]\nn_max = 7\n[mbqc]\nbuiltin = cnot\ntheta1 = 0.7\n"
        reports = []
        for name, extra in (("plain", ""), ("mixed", others)):
            cfg = write(tmp_path, f"{name}.ini", "[lattice]\nM = 3\nN = 3\n" + extra)
            assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
            reports.append((tmp_path / name / "cluster_report.txt").read_bytes())
        assert reports[0] == reports[1]
        broken = write(tmp_path, "broken.ini", "[lattice]\nM = 3\nN = 3\n[oracle]\nn_max = 0\n")
        unread = write(tmp_path, "unread.ini", others)
        for command, cfg, message in [
            ("cluster", broken, "broken.ini, line 5: [oracle] n_max must be at least 1"),
            ("mbqc", unread, "unread.ini, line 5: [mbqc] theta1 = 0.7 is not read"),
        ]:
            out = tmp_path / f"{cfg.stem}-out"
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_coupling_is_no_key(self, tmp_path, capsys):
        # frequencies are in units of g, so [lattice] has no g to set
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 2\nN = 2\ng = 2.0\n")
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "c.ini, line 4: unknown key 'g' in section [lattice]" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_steps_are_not_g_bounded(self, tmp_path):
        # a step is no time or detuning the physics runs at: |delta_step| = 1e151
        # and tau_step = 101 pass their bounds, and each grid keeps its one point
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 3\nN = 3\n[gamma-sweep]\n"
                    "delta_max = 0\ndelta_step = 1e151\ntau_max = 0\ntau_step = 101\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len((out / "gamma_vs_tau.csv").read_text().splitlines()) == 6 + 2

    def test_delta_grid_past_bound(self, tmp_path):
        # delta_max is at the bound, and 33 steps of 1e150/33 pass it by rounding, to
        # 1.0000000000000002e150: that last point is the bound itself
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 2\nN = 2\n[gamma-sweep]\n"
                    "delta_max = 1e150\ndelta_step = 3.0303030303030305e148\nseparations = 1,0\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        rows = (out / "gamma_vs_delta.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[-2:]] == ["9.696969696969698e+149", "1e+150"]

    @pytest.mark.parametrize(
        "grid,last",
        [("tau_max = 100\ntau_step = 9.090909090909092\n", ("gamma_vs_tau.csv", "100.0")),
         ("delta_max = 1e150\ndelta_step = 3.3333333333333334e149\n",
          ("gamma_vs_delta.csv", "1e+150"))],
        ids=["tau", "delta"],
    )
    @pytest.mark.filterwarnings("error")
    def test_grid_rounding_past_its_bound_ends_at_the_bound(self, tmp_path, grid, last):
        # every key obeys its rule, and the grid's last point passes the keys' bound
        # (g*tau = 100, |delta|/g = 1e150) by rounding only: it is the bound, and the
        # run writes every row
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 2\nN = 2\n[gamma-sweep]\n"
                    f"separations = 1,0\n{grid}")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        csv, value = last
        rows = (out / csv).read_text().splitlines()
        assert rows[-1].split(",")[0] == value
        assert "nan" not in rows[-1] and "inf" not in rows[-1]

    @pytest.mark.filterwarnings("error")
    def test_largest_g_tau_runs(self, tmp_path):
        # g*tau = 100 and |delta| = 1e150, the bounds, with no warning
        cfg = write(tmp_path, "s.ini", "[lattice]\nM = 2\nN = 2\nJ = 0.1\n"
                    "[gamma-sweep]\ntau = 100\ntau_max = 100\ntau_step = 50\nseparations = 1,0\n"
                    "delta_min = -1e150\ndelta_max = 1e150\ndelta_step = 1e150\n"
                    "[oracle]\ntau = 100\n")
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

    @pytest.mark.parametrize(
        "ini,pattern,line",
        [(b"[lattice]\nM = 2\xff\n", None, 2),
         # a cut two-byte sequence, after CRLF line ends
         (b"[lattice]\r\nM = 2\r\nN = 2 # \xc3\r\n", None, 3),
         (None, b"0 0 X - -\n\xff 1 X - -\noutput 0 2\n", 2)],
        ids=["config", "config-crlf", "pattern"],
    )
    def test_not_utf8_is_refused_at_its_line(self, tmp_path, capsys, ini, pattern, line):
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback, exit 1
        argv, bad = ["mbqc", "--out", str(tmp_path / "out")], tmp_path / "bad"
        bad.write_bytes(ini or pattern)
        argv += ["--config" if ini else "--pattern", str(bad)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {bad}, line {line}: not valid UTF-8\n"
        assert not (tmp_path / "out").exists()

    def test_reads_utf8_in_any_locale(self, tmp_path):
        # under the C locale, whose encoding is ASCII, a UTF-8 comment is read as UTF-8
        cfg = tmp_path / "c.ini"
        cfg.write_bytes("# \u00e9t\u00e9\n[lattice]\nM = 2\nN = 2\n".encode())
        pat = tmp_path / "p.pat"
        pat.write_bytes("# \u00e9t\u00e9\n0 0 Z - -\n0 2 Z - -\n0 1 X - -\n".encode())
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "LC_ALL": "C",
               "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        for argv in (["cluster", "--config", str(cfg)], ["mbqc", "--pattern", str(pat)]):
            subprocess.run([sys.executable, "-m", "cavitycluster.cli", *argv,
                            "--out", str(tmp_path / argv[0])], env=env, check=True)


    @pytest.mark.parametrize(
        "command,flag,text,report",
        [("cluster", "--config", b"# a comment\n[lattice]\nM = 2\nN = 2\n", "cluster_report.txt"),
         ("mbqc", "--pattern", b"0 0 Z - -\n0 2 Z - -\n0 1 X - -\n", "mbqc_report.txt")],
        ids=["config", "pattern"],
    )
    def test_byte_order_mark_is_read_past(self, tmp_path, command, flag, text, report):
        # a file saved with a UTF-8 byte-order mark was refused at line 1
        reports = []
        for name, mark in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            (tmp_path / name).write_bytes(mark + text)
            out = tmp_path / f"out-{name}"
            assert main([command, flag, str(tmp_path / name), "--out", str(out)]) == EXIT_OK
            reports.append((out / report).read_bytes())
        assert reports[0] == reports[1]

    def test_negative_j_names_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "j.ini", "[lattice]\nM = 2\nN = 2\nJ = -0.1\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {cfg}, line 4: [lattice] j must be non-negative\n"
        assert not (tmp_path / "out").exists()


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
        assert "# seed" not in delta_csv  # mbqc alone takes a seed
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
        "lo,hi,step,count,last",
        [(0.0, 1.0, 0.6, 2, 0.6), (0.1, 0.7, 0.2, 4, 0.7000000000000001),
         (-0.3, 0.0, 0.1, 4, 5.551115123125783e-17), (0.0, 30.0, 0.5, 61, 30.0),
         (0.0, 3.0, 0.02, 151, 3.0)],
    )
    def test_grid_ends_at_its_max(self, lo, hi, step, count, last):
        # the last point may pass hi by rounding, never by a sizeable part of a step
        grid = cli._grid(RunConfig(tau_min=lo, tau_max=hi, tau_step=step), "tau", 100.0)
        assert (len(grid), grid[-1]) == (count, last)

    def test_grids_write_no_row_past_their_max(self, tmp_path):
        cfg = write(tmp_path, "sweep.ini", "[lattice]\nM = 5\nN = 5\n[gamma-sweep]\n"
                    "delta_max = 1\ndelta_step = 0.6\ntau_max = 1\ntau_step = 0.6\n")
        out = tmp_path / "out"
        assert main(["gamma-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        for csv in ("gamma_vs_delta.csv", "gamma_vs_tau.csv"):
            rows = [line for line in (out / csv).read_text().splitlines() if line[0].isdigit()]
            assert [row.split(",")[0] for row in rows] == ["0.0", "0.6"], csv

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

    @pytest.mark.parametrize(
        "preset,seconds,cavity,qubit",
        [("cpb", "7.300114825423398e-09", "0.0003650057412711699", "0.007300114825423398"),
         ("qdot", "2.9200459301693585e-09", "5.840091860338717e-05", "0.0029200459301693587"),
         ("toroid", "2.2933987105912078e-08", "0.000917359484236483", "0.0038223311843186797")],
    )
    def test_preset_lines_pinned(self, tmp_path, preset, seconds, cavity, qubit):
        # every preset's lines on the docs example, in report order
        cfg = Path(__file__).parents[1] / "docs" / "examples" / "detuning_sweep.ini"
        out = tmp_path / "out"
        argv = ["gamma-sweep", "--config", str(cfg), "--preset", preset, "--out", str(out)]
        assert main(argv) == EXIT_OK
        body = [line for line in (out / "feasibility.txt").read_text().splitlines()
                if not line.startswith("#")]
        assert body == [f"feasibility preset = {preset}", "gate_time_g_units = 2.293398710591208",
                        f"gate_time_seconds = {seconds}", f"ratio_T_cavity = {cavity}",
                        f"ratio_T_qubit = {qubit}"]

    def test_1x1_names_lattice_like_cluster(self, tmp_path, capsys):
        # the fault is in [lattice], whichever subcommand finds it
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 1\nN = 1\n")
        for command in ("gamma-sweep", "cluster"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"config error: {cfg}, line 3: a 1x1 lattice has no pairs\n"
            assert not out.exists()


class GivenPhi:
    """Stands in for a 1 x n PhasePolynomial whose Phi at the 2^n bitstrings is
    given; values() never yields -0.0, since an exact zero it rounds to is +0.0."""

    def __init__(self, values):
        self.M, self.N = 1, len(values).bit_length() - 1
        self._values = np.array(values, dtype=float)

    def values(self):
        return self._values.copy()


def assert_same_rows(got, want, where="snapshot"):
    """got == want, row for row: a failure names the first wrong row instead of
    diffing every row, which takes minutes on a snapshot."""
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"{where} row {bad}: {got[bad]!r}, expected {want[bad]!r}"
    assert len(got) == len(want), f"{where}: {len(got)} rows, expected {len(want)}"


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

    @pytest.mark.parametrize("M,N", [(3, 3), (4, 4), (4, 5)])
    def test_default_applies_every_pair(self, tmp_path, M, N):
        # the default run drops no coupling that the table holds: its report
        # is the nn_only = false run's, byte for byte
        reports = []
        for name, cluster in (("default", ""), ("every-pair", "[cluster]\nnn_only = false\n")):
            cfg = write(tmp_path, f"{name}.ini", f"[lattice]\nM = {M}\nN = {N}\n{cluster}")
            out = tmp_path / name
            assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            reports.append((out / "cluster_report.txt").read_bytes())
        assert reports[0] == reports[1]
        assert b"nn_only = False\n" in reports[0] and b"fidelity = 1.0\n" not in reports[0]

    @staticmethod
    def expected_snapshot(M, N, nn_only, periodic):
        """cluster_state.csv of a default-J run, formatted row by row with repr."""
        cfg = LatticeConfig(M=M, N=N, J=0.1, delta=0.0)
        table = build_phase_table(cfg, solve_gate_time(cfg))
        amps = phase_register(cluster_phase(M, N, table.grid, nn_only, periodic)).amps
        header = ["cavitycluster cluster", f"version = {__version__}",
                  f"lattice.M = {M}", f"lattice.N = {N}", "lattice.J = 0.1",
                  "lattice.delta = 0.0"]
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
            want = self.expected_snapshot(M, N, nn_only, periodic)
            assert_same_rows(snap.split("\n"), want.split("\n"), f"{M}x{N}")

    @pytest.mark.parametrize("rows_per_write", [1000, cli._SNAPSHOT_ROWS_PER_WRITE])
    def test_snapshot_streamed_bytes(self, tmp_path, monkeypatch, rows_per_write):
        # written a chunk of rows at a time, the 4x4 file has the joined form's bytes,
        # a short last chunk included
        monkeypatch.setattr(cli, "_SNAPSHOT_ROWS_PER_WRITE", rows_per_write)
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 4\nN = 4\nJ = 0.1\n[cluster]\n"
                    "nn_only = true\nperiodic = false\nsnapshot = true\n")
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
        snap = (tmp_path / "out" / "cluster_state.csv").read_bytes()
        want = self.expected_snapshot(4, 4, True, False).encode()
        assert_same_rows(snap.split(b"\n"), want.split(b"\n"))

    @pytest.mark.parametrize(
        "make_phi",
        [
            lambda: cluster_phase(3, 3, np.full((3, 3), np.pi / 4), nn_only=True, periodic=False),
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
        assert_same_rows(b"".join(_snapshot_rows(phi)).decode().split("\n"), want + [""])

    def test_snapshot_six_digit_indices(self):
        # 2^17 rows: two index digits above the low four, the top one NUL below
        # 10^5, in chunks of 10^4 rows
        phi = GivenPhi(np.tile([0.5, -0.25, 0.0, 1.0], 2**15))
        amps = phase_register(phi).amps.tolist()
        got = b"".join(_snapshot_rows(phi)).decode().split("\n")[1:-1]
        assert_same_rows(got, [f"{i}.0,{z.real!r},{z.imag!r}" for i, z in enumerate(amps)])

    def test_snapshot_peak_memory(self, tmp_path):
        # the writer's working set is one chunk of rows, reused: the 4x4 file
        # (65536 rows, 3 MB) is written with a small traced peak
        cfg = LatticeConfig(M=4, N=4, J=0.1, delta=0.0)
        table = build_phase_table(cfg, solve_gate_time(cfg))
        phi = cluster_phase(4, 4, table.grid, nn_only=True, periodic=False)
        run = RunConfig(lattice=cfg)
        tracemalloc.start()
        try:
            cli._write_report(tmp_path / "cluster_state.csv", run, "cluster", _snapshot_rows(phi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"{peak / 2**20:.1f} MiB"

    def test_snapshot_cap(self, tmp_path, capsys, monkeypatch):
        # 21 qubits are refused; 20 pass the cap and reach the gate-time solve, stubbed
        # here to stop the run before it writes 2^20 rows
        def stop(cfg):
            raise ConfigError("stopped past the snapshot cap")

        monkeypatch.setattr(cli, "solve_gate_time", stop)
        for (M, N), message in [((3, 7), "[cluster] snapshot = true on 3x7 would write 2^21 = "
                                 "2097152 rows, over the 20-qubit snapshot cap"),
                                ((4, 5), "config error: stopped past the snapshot cap")]:
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

    @pytest.mark.parametrize("g,J", [("1e-103", "1e-104"), ("1e300", "1e299")])
    def test_coupling_out_of_range_names_line(self, tmp_path, capsys, g, J):
        # frequencies are in units of g, so a g once past its range is refused
        # as no key at all, on its own line and before the J line is judged
        cfg = write(tmp_path, "c.ini", f"[lattice]\nM = 2\nN = 2\ng = {g}\nJ = {J}\n")
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "c.ini, line 4: unknown key 'g' in section [lattice]" in err
        assert "line 5" not in err
        assert not out.exists()

    def test_cap_exceeded(self, tmp_path, capsys):
        # the exact sum's own cap: 31 qubits are refused before any solve
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 1\nN = 31\n")
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"config error: {cfg}, line 3: 1x31 exceeds the 30-qubit cap on the exact sum\n")
        assert not out.exists()

    def test_past_the_dense_cap_pinned(self, tmp_path):
        # 25 qubits, past the 24-qubit dense cap: periodic, every pair coupled, J = 0.1 g
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 5\nN = 5\n")
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = (out / "cluster_report.txt").read_text()
        fidelity = float(report.split("\nfidelity = ", 1)[1].split("\n", 1)[0])
        assert abs(fidelity - 0.995939020665125) <= 1e-12

    @pytest.mark.parametrize(
        "config,hashes",
        [
            ((ROOT / "docs/examples/cluster.ini").read_text(), {
                "cluster_report.txt": "d48df54c8748b37c6f3cdd8034c5b741cf6b90d3c232b344e5ed4b8f66de9b41",
                "cluster_state.csv": "d55e13886a2ec095d283254484a5dcbcdebe96ab2d99448c307038fa467edbb5",
            }),
            ("[lattice]\nM = 4\nN = 4\n[cluster]\nnn_only = true\nperiodic = false\nsnapshot = true\n", {
                "cluster_report.txt": "d14ab2de8fc4f718199b7c5ebb10a5a1e6e8b08521c32f0df8a03f375e3e3d9b",
                "cluster_state.csv": "d1c892434d62c31beba017c247edac7dfeb673fe80e8794c3179e056cd5248e8",
            }),
            ("[lattice]\nM = 4\nN = 5\n[cluster]\nnn_only = true\nperiodic = true\n", {
                "cluster_report.txt": "c636851fb892d3f25ba3069a222ac8a11835b20af74e7366118ca8da23fa516e",
            }),
            ("[lattice]\nM = 4\nN = 5\n[cluster]\nnn_only = false\nperiodic = true\n", {
                "cluster_report.txt": "0c756e1c800a24eea255862cc945dc92d070ca6f4b27f775017f33d35131eb72",
            }),
            ("[lattice]\nM = 3\nN = 4\nJ = 0.3\n[cluster]\ntau = 1.0\n", {
                "cluster_report.txt": "bf52cd19a5153871fc77d2804d836c8f1088fd7462a338a01b9808923a21e207",
            }),
        ],
        ids=["docs-example", "open-nn-4x4-snapshot", "periodic-nn-4x5", "periodic-full-4x5",
             "tau-3x4"],
    )
    def test_report_bytes_pinned(self, tmp_path, config, hashes):
        # every output file keeps its bytes (sha256); the header carries the
        # package version, so a version change pins them anew
        cfg = write(tmp_path, "c.ini", config)
        out = tmp_path / "out"
        assert main(["cluster", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert got == hashes

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
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 2\nN = 5\nJ = 0.1\ndelta = 50.0\n" + extra)
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

    @pytest.mark.parametrize("M,N", [(1, 2), (2, 1), (1, 3), (2, 2)])
    def test_phase_rows_from_the_phase_table(self, tmp_path, M, N):
        # each phase.* row compares the extracted phase with the lattice's FFT
        # phase table, the one the cluster reads
        cfg = write(tmp_path, "o.ini", f"[lattice]\nM = {M}\nN = {N}\ndelta = 20.0\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        report = (out / "oracle_report.txt").read_text()
        lat = LatticeConfig(M=M, N=N, J=0.1, delta=20.0)
        rep, table = oracle.echo_evolve(lat, 3.0, 4), build_phase_table(lat, 3.0)
        phases = oracle.extract_pair_phase(rep)
        assert len(phases) == M * N * (M * N - 1) // 2
        for (a, b), measured in phases.items():
            gap = measured - table.gamma(b[0] - a[0], b[1] - a[1])
            value = abs(math.remainder(gap, math.pi / 2))
            assert f"phase.{a[0]}{a[1]}-{b[0]}{b[1]}: value={value!r} bound=1e-06 pass\n" in report

    def test_1x1_is_config_error(self, tmp_path, capsys):
        # a 1x1 lattice has no pair phase to compare, so no run of it can pass
        cfg = write(tmp_path, "o.ini", "[lattice]\nM = 1\nN = 1\ndelta = 20.0\n")
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"config error: {cfg}, line 3: a 1x1 lattice has no pairs" in capsys.readouterr().err
        assert not out.exists()

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

    def test_generated_patch_reads_the_lattice(self, tmp_path):
        # the patch's phases come from the configured lattice's table: 9x9 moves
        # the report's digits and still passes, and on 4x6 the solved (1, 0)
        # phase leaves the wire's (0, 1) edges off pi/4
        bodies = {}
        for name, lattice in (("19x19", ""), ("9x9", "[lattice]\nM = 9\nN = 9\n"),
                              ("4x6", "[lattice]\nM = 4\nN = 6\n")):
            cfg = write(tmp_path, f"{name}.ini", lattice + "[mbqc]\nsource = generated\n")
            out = tmp_path / name
            code = main(["mbqc", "--config", str(cfg), "--out", str(out)])
            report = (out / "mbqc_report.txt").read_text()
            assert code == (EXIT_VERIFY if name == "4x6" else EXIT_OK)
            assert f"# lattice.M = {name.split('x')[0]}\n" in report
            bodies[name] = [line for line in report.splitlines() if not line.startswith("#")]
        assert "deterministic = pass" in bodies["9x9"] and "deterministic = fail" in bodies["4x6"]
        assert bodies["9x9"] != bodies["19x19"]

    @pytest.mark.parametrize(
        "lattice,builtin,message",
        [
            ("M = 1\nN = 1\n", "wire", "{cfg}, line 3: a 1x1 lattice has no pairs"),
            ("M = 1\nN = 19\n", "cnot",
             "{cfg}, line 6: [lattice] the pattern's 3x2 patch does not fit the 1x19 lattice"),
            ("M = 19\nN = 1\n", "wire",
             "{cfg}, line 6: [lattice] the pattern's 1x5 patch does not fit the 19x1 lattice"),
            # a patch larger than the array would put two patch sites in one cavity
            ("M = 2\nN = 2\n", "wire",
             "{cfg}, line 6: [lattice] the pattern's 1x5 patch does not fit the 2x2 lattice"),
            ("M = 2\nN = 2\n", "cnot",
             "{cfg}, line 6: [lattice] the pattern's 3x2 patch does not fit the 2x2 lattice"),
        ],
        ids=["1x1", "cnot-on-a-row", "wire-on-a-column", "wire-on-2x2", "cnot-on-2x2"],
    )
    def test_generated_lattice_without_the_patch_is_config_error(self, tmp_path, capsys, lattice,
                                                                  builtin, message):
        cfg = write(tmp_path, "m.ini", f"[lattice]\n{lattice}[mbqc]\nbuiltin = {builtin}\n"
                    "source = generated\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert f"config error: {message.format(cfg=cfg)}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("M,N,builtin,code", [(1, 5, "wire", EXIT_OK), (3, 2, "cnot", EXIT_VERIFY)])
    def test_patch_the_size_of_the_lattice_runs(self, tmp_path, M, N, builtin, code):
        # a patch that fills the array exactly is carved and run; the 3x2 CNOT
        # fails its check because the solve puts pi/4 on one axis only
        cfg = write(tmp_path, "m.ini", f"[lattice]\nM = {M}\nN = {N}\n[mbqc]\nbuiltin = {builtin}\n"
                    "source = generated\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == code
        assert f"cluster_shape = {M}x{N}\n" in (out / "mbqc_report.txt").read_text()

    @pytest.mark.parametrize(
        "lattice,line",
        [("M = 9\n", 2), ("N = 19\nJ = 0.3\n", 3), ("delta = -1\n", 2)],
        ids=["M", "J", "delta"],
    )
    def test_reference_source_refuses_lattice_keys(self, tmp_path, capsys, lattice, line):
        # the reference cluster is built from no lattice, so a [lattice] key off its
        # default would be accepted and then ignored
        cfg = write(tmp_path, "m.ini", f"[lattice]\n{lattice}[mbqc]\nsource = reference\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"m.ini, line {line}: [lattice] " in err
        assert "is not read: source = reference takes no lattice" in err
        assert not out.exists()

    def test_reference_source_takes_default_lattice_keys(self, tmp_path):
        cfg = write(tmp_path, "m.ini", "[lattice]\nM = 19\nN = 19\nJ = 0.1\ndelta = 0\n")
        assert main(["mbqc", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

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

    @pytest.mark.parametrize(
        "ini,pattern,message",
        [
            ("builtin = cnot\ntheta2 = 0.5\n", False,
             "line 3: [mbqc] theta2 = 0.5 is not read: builtin = cnot takes no angles"),
            ("theta1 = -1\n", True, "line 2: [mbqc] theta1 = -1.0 is not read: --pattern replaces"),
            ("source = reference\nbuiltin = cnot\n", True,
             "line 3: [mbqc] builtin = 'cnot' is not read: --pattern replaces the builtin"),
            ("builtin = cnot\ntheta1 = 0.0\n", False, None),
            ("builtin = wire\ntheta3 = 0\n", True, None),
        ],
        ids=["cnot-angle", "pattern-angle", "pattern-builtin", "cnot-zero-angle",
             "pattern-default-keys"],
    )
    def test_unread_key_off_default_is_config_error(self, tmp_path, capsys, ini, pattern, message):
        # a key the run does not read is refused, naming its line, unless it keeps its default
        out = tmp_path / "out"
        argv = ["mbqc", "--config", str(write(tmp_path, "m.ini", "[mbqc]\n" + ini)),
                "--out", str(out)]
        if pattern:
            argv += ["--pattern", str(write(tmp_path, "z.pat", "0 0 Z - -\n0 2 Z - -\n0 1 X - -\n"))]
        if message is None:
            assert main(argv) == EXIT_OK
            return
        assert main(argv) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

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
        assert "bad.pat, line 2: byproduct" in capsys.readouterr().err
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
        assert "bad.pat, line 4: output site (0, 2) is declared twice" in capsys.readouterr().err

    @pytest.mark.parametrize("angle", ["nan", "inf"])
    def test_non_finite_angle_is_config_error(self, tmp_path, capsys, angle):
        pat = tmp_path / "bad.pat"
        pat.write_text(f"0 0 EQ {angle} -\noutput 0 1\n")
        out = tmp_path / "out"
        assert main(["mbqc", "--pattern", str(pat), "--out", str(out)]) == EXIT_USAGE
        assert f"bad.pat, line 1: angle must be finite, got {angle}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("seed,drawn", [(1, "0110"), (2, "1100"), (3, "0101")])
    def test_seeded_outcomes_pinned(self, tmp_path, seed, drawn):
        # the default wire run's draw, one outcome bit per step
        out = tmp_path / "out"
        assert main(["mbqc", "--seed", str(seed), "--out", str(out)]) == EXIT_OK
        assert f"\nsampled_outcomes = {drawn}\n" in (out / "mbqc_report.txt").read_text()

    def test_run_measures_each_step_once(self, tmp_path, monkeypatch):
        # the draw follows a row of the branch walk, so the 4-step wire is
        # measured in 4 passes, not once more for the draw
        calls = []
        children = mbqc._children
        monkeypatch.setattr(mbqc, "_children", lambda *args: calls.append(args) or children(*args))
        assert main(["mbqc", "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(calls) == 4

    def test_flag_equals_value(self, tmp_path):
        # --flag=value and --flag value write the same bytes
        assert main(["mbqc", f"--out={tmp_path / 'a'}", "--seed=7"]) == EXIT_OK
        assert main(["mbqc", "--out", str(tmp_path / "b"), "--seed", "7"]) == EXIT_OK
        report = (tmp_path / "a" / "mbqc_report.txt").read_bytes()
        assert b"# seed = 7\n" in report
        assert report == (tmp_path / "b" / "mbqc_report.txt").read_bytes()


class TestUsage:
    @pytest.mark.parametrize(
        "command,ini,pattern,message",
        [
            ("oracle-verify", "[lattice]\nM = 2\nN = 2\n[oracle]\nn_max = 60\n", None,
             "[oracle] total dimension 238144 exceeds cap 200000 (n_max = 60 on the 2x2 lattice)"),
            ("mbqc", "[mbqc]\nsource = reference\n", "0 0 X - -\n0 1 EQ oops -\n",
             "bad.pat, line 2"),
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

    @pytest.mark.parametrize(
        "command,ini,message",
        [
            ("cluster", "[lattice]\nM = 6\nN = 6\n",
             "{cfg}, line 3: 6x6 exceeds the 30-qubit cap on the exact sum"),
            ("cluster", "[cluster]\nperiodic = true\n",
             "19x19 exceeds the 30-qubit cap on the exact sum; [lattice] M and N are not set, "
             "and default to 19"),
            ("cluster", None, "19x19 exceeds the 30-qubit cap on the exact sum; [lattice] M and N "
             "are not set, and default to 19"),
            ("cluster", "[cluster]\nsnapshot = true\n[lattice]\nN = 7\nM = 3\n",
             "{cfg}, line 5: [cluster] snapshot = true on 3x7 would write 2^21 = 2097152 rows, "
             "over the 20-qubit snapshot cap"),
            ("cluster", "[lattice]\nM = 3\nN = 3\n[cluster]\nperiodic = false\n",
             "{cfg}, line 5: [cluster] nn_only = false on an open 3x3 patch reads separations "
             "that wrap round its own table; set periodic = true or nn_only = true"),
            ("cluster", "[cluster]\nnn_only = false\nperiodic = false\n[lattice]\nM = 3\nN = 3\n",
             "{cfg}, line 3: [cluster] nn_only = false on an open 3x3 patch reads separations "
             "that wrap round its own table; set periodic = true or nn_only = true"),
            ("gamma-sweep", "[gamma-sweep]\ndelta_min = 40\n",
             "{cfg}, line 2: delta grid: empty grid (max < min)"),
            ("gamma-sweep", "[gamma-sweep]\ntau_step = 1.5e-5\n[lattice]\nM = 2\n",
             "{cfg}, line 2: tau grid: more than 100000 points"),
            ("gamma-sweep", "[gamma-sweep]\nseparations = 1,0\n[lattice]\nM = 1\nN = 4\n",
             "{cfg}, line 5: [gamma-sweep] separation (1, 0) is zero on the 1x4 lattice"),
            ("gamma-sweep", "[lattice]\nM = 2\nN = 3\n",
             "{cfg}, line 3: [gamma-sweep] separation (2, 0) is zero on the 2x3 lattice"),
            ("oracle-verify", "[lattice]\nM = 2\nN = 2\n[oracle]\nn_max = 60\n",
             "{cfg}, line 5: [oracle] total dimension 238144 exceeds cap 200000 "
             "(n_max = 60 on the 2x2 lattice)"),
            ("oracle-verify", "[oracle]\nn_max = 2\n[lattice]\nM = 1\nN = 5\n",
             "{cfg}, line 5: [oracle] identity checks capped at 4 sites"),
            ("oracle-verify", "[oracle]\ntau = 1\n", "[oracle] identity checks capped at 4 sites; "
             "[lattice] M and N are not set, and default to 19"),
            ("oracle-verify", None, "[oracle] identity checks capped at 4 sites; [lattice] M and N "
             "are not set, and default to 19"),
            ("mbqc", "[lattice]\nM = 2\nN = 2\n[mbqc]\nsource = generated\n",
             "{cfg}, line 5: [lattice] the pattern's 1x5 patch does not fit the 2x2 lattice"),
        ],
        ids=["exact-sum-cap", "exact-sum-cap-default", "exact-sum-cap-no-config", "snapshot-cap",
             "open-all-pairs", "open-all-pairs-lattice-later", "empty-grid", "grid-cap",
             "zero-separation", "zero-separation-default", "oracle-dimension-cap",
             "oracle-site-cap", "oracle-site-cap-default", "oracle-site-cap-no-config",
             "patch-does-not-fit"],
    )
    def test_run_time_refusal_form(self, tmp_path, capsys, command, ini, message):
        # a refusal that config keys decide names the file and the last line among
        # those keys that it sets, in the load-time form; with none of them set, or no
        # --config, it is the message alone
        argv = [command, "--out", str(tmp_path / "out")]
        cfg = write(tmp_path, "c.ini", ini) if ini is not None else None
        if cfg:
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv,named",
        [
            ([], "no command"),
            (["bogus"], "'bogus'"),
            (["--seed", "1", "mbqc"], "'--seed'"),
            (["cluster", "--pattern", "p.pat"], "cluster does not take '--pattern'"),
            (["mbqc", "--conf", "c.ini"], "mbqc does not take '--conf'"),
            (["mbqc", "--bogus=1"], "mbqc does not take '--bogus=1'"),
            (["mbqc", "--out", "out", "--seed"], "--seed needs a value"),
            (["mbqc", "--config", "--out", "out"], "--config needs a value"),
            (["mbqc", "--out", "out", "--seed", "-3"], "--seed must be an unsigned 64-bit integer"),
            (["mbqc", "--out", "out", "--seed", str(2**64)], "--seed must be an unsigned 64-bit"),
            (["mbqc", "--out", "out", "--seed", "x"], "cannot parse --seed 'x'"),
            (["gamma-sweep", "--out", "out", "--preset", "alien"], "--preset must be 'cpb'"),
            (["mbqc", "--out", "out", "stray"], "mbqc does not take 'stray'"),
            (["mbqc", "--out", "out", "--seed", "1", "--seed", "2"], "--seed is given twice"),
            (["mbqc", "--seed=1", "--out", "out", "--seed", "1"], "--seed is given twice"),
        ],
        ids=["no-command", "unknown-command", "flag-before-command", "flag-not-taken",
             "abbreviation", "unknown-flag-with-value", "value-at-end", "value-is-a-flag",
             "negative-seed", "seed-past-u64", "seed-not-an-integer", "unknown-preset",
             "stray-word", "repeated-flag", "repeated-flag-both-forms"],
    )
    def test_usage_refused(self, tmp_path, capsys, monkeypatch, argv, named):
        # exit 2 before anything is written, naming the word, with the usage
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert named in err and "usage: cavitycluster" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["oracle-verify", "mbqc"])
    def test_preset_only_where_read(self, tmp_path, command):
        # no number in these reports depends on a preset, so neither takes the flag;
        # mbqc's reference cluster reads no [lattice]
        text = {"oracle-verify": "[lattice]\nM = 1\nN = 2\n", "mbqc": "[mbqc]\nbuiltin = wire\n"}
        cfg = write(tmp_path, "c.ini", text[command])
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--preset", "cpb"]) == EXIT_USAGE
        assert not out.exists()
        main(argv)  # the same run without the flag writes its report
        assert any(out.iterdir())

    @pytest.mark.parametrize("command", ["gamma-sweep", "cluster", "oracle-verify"])
    def test_seed_only_where_read(self, tmp_path, capsys, command):
        # mbqc alone samples outcomes; elsewhere a seed changed only the header
        cfg = write(tmp_path, "c.ini", "[lattice]\nM = 1\nN = 2\n[gamma-sweep]\nseparations = 0,1\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--seed", "1"]) == EXIT_USAGE
        assert f"{command} does not take '--seed'" in capsys.readouterr().err
        assert not out.exists()
        # the same run without the flag writes its reports, with no seed line
        assert main(argv) in (EXIT_OK, EXIT_VERIFY)
        assert all(b"# seed" not in path.read_bytes() for path in out.iterdir())

    def test_help_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (["--help"], ["-h"], ["cluster", "--help"], ["mbqc", "--seed", "1", "-h"]):
            assert main(argv) == EXIT_OK
            usage = capsys.readouterr().out
            assert "cavitycluster cluster [--config CONFIG] [--out OUT] [--preset PRESET]\n" in usage
            assert "cavitycluster mbqc [--config CONFIG] [--out OUT] [--seed SEED] " \
                   "[--pattern PATTERN]\n" in usage
            assert all(f"cavitycluster {name} " in usage for name in cli._COMMANDS)
        assert not any(tmp_path.iterdir())

    def test_import_leaves_argparse_out(self):
        # the flags are read from one table; building an argparse tree cost more
        # than a small job's physics.  The config has one reader of its own too.
        src = str(Path(cli.__file__).parents[1])
        code = ("import sys, cavitycluster.cli; "
                "print('argparse' in sys.modules, 'configparser' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": src})
        assert result.stdout == "False False\n"

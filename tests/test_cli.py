"""Command-line interface: parsing, precedence, outputs, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import asymcap
import asymcap.cli
import asymcap.verify
from asymcap.cli import CAP_SWEEP_HEADER, SIM_SWEEP_HEADER, main

from gates import check_nan_residual_fails_verify

REPO_ROOT = Path(__file__).resolve().parents[1]
# The directory holding the imported `asymcap` package (src/ in a checkout).
PACKAGE_ROOT = Path(asymcap.__file__).resolve().parents[1]

CAP_01_01 = "0.3199229543"
GAP_01_01 = "0.2110814521"
SIM_ARGS = ("simulate", "--n", "8", "--messages", "2", "--p1", "0.1", "--p2", "0.1",
            "--trials", "10")
COLLISION_ARGS = ("collision", "--messages", "4", "--collide", "2", "--n", "8",
                  "--p1", "0.1", "--p2", "0.1", "--trials", "20")


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_matrix(path, rows):
    path.write_text("\n".join(" ".join(str(v) for v in r) for r in rows) + "\n")
    return str(path)


class TestCapacity:
    def test_happy_path(self, capsys):
        rc, out, err = run_cli(capsys, "capacity", "--p1", "0.1", "--p2", "0.1")
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0].startswith("config: ")
        assert lines[1] == "capacity " + CAP_01_01
        assert lines[2] == "gap " + GAP_01_01
        assert lines[3] == "argmax_px 0.5 0.5"

    def test_stdout_reproducible(self, capsys):
        a = run_cli(capsys, "capacity", "--p1", "0.3", "--p2", "0.05")
        b = run_cli(capsys, "capacity", "--p1", "0.3", "--p2", "0.05")
        assert a == b

    def test_out_of_range_probability(self, capsys):
        rc, out, err = run_cli(capsys, "capacity", "--p1", "1.3", "--p2", "0.1")
        assert rc == 2
        assert err.startswith("error: ")

    def test_missing_parameter(self, capsys):
        rc, _, err = run_cli(capsys, "capacity", "--p1", "0.1")
        assert rc == 2
        assert "--p2" in err

    # Every subcommand that takes a crossover reports a bad one in the same
    # words.  NaN never reaches the library: the flag parser refuses it.
    CROSSOVER_ARGS = {
        "capacity": ("capacity", "--p1", "0.1", "--p2", "0.1"),
        "simulate": SIM_ARGS,
        "collision": COLLISION_ARGS,
        "sweep": ("sweep", "--mode", "simulation", "--n-list", "8", "--m-list", "2",
                  "--p1", "0.1", "--p2", "0.1", "--trials", "10", "--out", "s.csv"),
    }

    @pytest.mark.parametrize("command", list(CROSSOVER_ARGS))
    @pytest.mark.parametrize("name, value, where, line", [
        ("p1", "1.5", "flag", "error: p1=1.5 outside [0, 1]"),
        ("p2", "-0.5", "flag", "error: p2=-0.5 outside [0, 1]"),
        ("p1", 1.5, "config", "error: p1=1.5 outside [0, 1]"),
        ("p2", float("nan"), "config", "error: --p2: expected float, got nan"),
    ], ids=["p1-flag", "p2-flag", "p1-config", "nan-config"])
    def test_crossover_outside_unit_interval(self, capsys, tmp_path, monkeypatch,
                                             command, name, value, where, line):
        monkeypatch.chdir(tmp_path)
        argv = list(self.CROSSOVER_ARGS[command])
        at = argv.index("--" + name) + 1
        if where == "flag":
            argv[at] = value
        else:
            del argv[at - 1:at + 1]
            (tmp_path / "c.json").write_text(json.dumps({name: value}))
            argv += ["--config", "c.json"]
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.splitlines() == [line]
        assert not (tmp_path / "s.csv").exists()


class TestConfigPrecedence:
    def test_config_file_fills_missing_flags(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p1": 0.1, "p2": 0.1}))
        rc, out, _ = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 0
        assert "capacity " + CAP_01_01 in out

    def test_flags_beat_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p1": 0.4, "p2": 0.4}))
        rc, out, _ = run_cli(
            capsys, "capacity", "--config", str(cfg), "--p1", "0.1", "--p2", "0.1"
        )
        assert rc == 0
        assert "capacity " + CAP_01_01 in out
        assert '"p1": 0.1' in out.splitlines()[0]

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p1": 0.1, "p2": 0.1, "warp": 9}))
        rc, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 2
        assert "warp" in err

    def test_malformed_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        rc, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 2

    def test_config_must_be_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        rc, _, err = run_cli(capsys, "capacity", "--config", str(cfg))
        assert rc == 2
        assert "JSON object" in err

    def test_missing_config_file(self, capsys):
        rc, _, err = run_cli(capsys, "capacity", "--config", "/no/such/file.json")
        assert rc == 2

    @pytest.mark.parametrize(
        "argv, cfg, flag",
        [
            (SIM_ARGS[:1] + SIM_ARGS[3:], {"n": [1]}, "--n"),
            (SIM_ARGS[:1] + SIM_ARGS[3:], {"n": float("inf")}, "--n"),
            (COLLISION_ARGS[:7] + COLLISION_ARGS[9:], {"p1": "0.1", "seed": "abc"}, "--seed"),
            (SIM_ARGS, {"seed": 1.5}, "--seed"),
            (SIM_ARGS, {"fixed_codebook": "no"}, "--fixed-codebook"),
            (SIM_ARGS, {"decoder": "typicality"}, "--decoder"),
            (("capacity-general",), {"channel": 5, "perturb": "pe.txt"}, "--channel"),
            (("capacity-general", "--channel", "ch.txt", "--perturb", "pe.txt"),
             {"restarts": 2.7}, "--restarts"),
            (("sweep", "--mode", "simulation", "--out", "x.csv"), {"n_list": [8.5]}, "--n-list"),
            (("capacity-general", "--channel", "ch.txt", "--perturb", "pe.txt"),
             {"tol": float("nan")}, "--tol"),
        ],
    )
    def test_config_value_of_wrong_kind(self, capsys, tmp_path, argv, cfg, flag):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {flag}: expected ")

    def test_non_finite_flag_rejected(self, capsys, tmp_path):
        ch = write_matrix(tmp_path / "ch.txt", [[0.9, 0.1], [0.1, 0.9]])
        for argv in (("capacity-general", "--channel", ch, "--perturb", ch, "--tol", "nan"),
                     SIM_ARGS + ("--decoder", "typ", "--epsilon", "inf")):
            rc, out, err = run_cli(capsys, *argv)
            assert rc == 2 and out == ""
            assert err.splitlines() == [f"error: {argv[-2]}: expected float, got {argv[-1]!r}"]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, capsys, tmp_path, seed):
        # derive_seed reads 64 bits, so such a seed would run as another one
        # while the echo showed the value given
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": seed}))
        for argv, given in ((("--seed", str(seed)), str(seed)),
                            (("--config", str(path)), seed)):
            rc, out, err = run_cli(capsys, *COLLISION_ARGS, *argv)
            assert rc == 2 and out == ""
            assert err.splitlines() == [
                f"error: --seed: expected integer in [0, 2^64), got {given!r}"]

    def test_largest_seed_accepted(self, capsys):
        rc, out, _ = run_cli(capsys, *COLLISION_ARGS, "--seed", str(2**64 - 1))
        assert rc == 0
        assert json.loads(out.splitlines()[0][len("config: "):])["seed"] == 2**64 - 1

    def test_config_value_parsed_like_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"p1": 0, "p2": "0.1", "seed": 2.0}))
        rc, out, _ = run_cli(capsys, *COLLISION_ARGS[:7], "--trials", "20", "--config", str(cfg))
        assert rc == 0
        assert out.splitlines()[0] == ('config: {"collide": 2, "messages": 4, "n": 8, '
                                       '"p1": 0.0, "p2": 0.1, "seed": 2, "trials": 20}')

    def test_null_means_not_given(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mode": "capacity", "grid_step": None}))
        rc, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "cap.csv")
        )
        assert rc == 0
        assert "wrote 2601 rows" in out


def _mask_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_seconds": [^,}]*', '"elapsed_seconds": 0', text)


# One valid run per subcommand, echoing its configuration in the stdout
# `config:` line, the `# config:` line of the CSV it writes, or the
# "config" key of verify's JSON report.
REPLAYS = {
    "capacity": ("capacity", "--p1", "0.1", "--p2", "0.2"),
    "capacity-general": ("capacity-general", "--channel", "ch.txt", "--perturb", "ch.txt",
                         "--restarts", "2"),
    "simulate-map": SIM_ARGS + ("--seed", "4"),
    "simulate-typ": SIM_ARGS + ("--decoder", "typ", "--fixed-codebook"),
    "simulate-typ-epsilon": SIM_ARGS + ("--decoder", "typ", "--epsilon", "0.2"),
    "sweep-capacity": ("sweep", "--mode", "capacity", "--grid-step", "0.25", "--out", "run.out"),
    "sweep-map": ("sweep", "--mode", "simulation", "--n-list", "4,8", "--m-list", "2",
                  "--p1", "0.1", "--p2", "0.05", "--trials", "10", "--out", "run.out"),
    "sweep-typ": ("sweep", "--mode", "simulation", "--n-list", "8", "--m-list", "2,4",
                  "--p1", "0.1", "--p2", "0.05", "--trials", "10", "--decoder", "typ",
                  "--out", "run.out"),
    "collision": COLLISION_ARGS,
    "verify": ("verify", "--grid-step", "0.5", "--seed", "3", "--out", "run.out"),
}


@pytest.mark.parametrize("argv", list(REPLAYS.values()), ids=list(REPLAYS))
def test_echoed_config_replays(capsys, tmp_path, monkeypatch, argv):
    """The echoed config, given back through --config (with --out where the
    run writes a file), reproduces the run: same stdout, same file bytes."""
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path / "ch.txt", [[0.9, 0.1], [0.2, 0.8]])
    path = tmp_path / "run.out"
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0 and err == ""
    written = path.read_bytes() if "--out" in argv else None
    if argv[0] == "verify":
        echo = json.dumps(json.loads(written)["config"])
    else:
        echo = (path.read_text() if written else out).splitlines()[0].split("config: ", 1)[1]
    (tmp_path / "c.json").write_text(echo)
    path.unlink(missing_ok=True)
    rc, again, err = run_cli(capsys, argv[0], "--config", "c.json",
                             *(("--out", "run.out") if written else ()))
    assert (rc, err) == (0, "")
    assert _mask_elapsed(again) == _mask_elapsed(out)
    assert (path.read_bytes() if written else None) == written


class TestCapacityGeneral:
    def test_identity_perturbation_recovers_channel_capacity(self, capsys, tmp_path):
        ch = write_matrix(tmp_path / "ch.txt", [[0.89, 0.11], [0.11, 0.89]])
        pe = write_matrix(tmp_path / "pe.txt", [[1, 0], [0, 1]])
        rc, out, _ = run_cli(capsys, "capacity-general", "--channel", ch, "--perturb", pe)
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "optimize 0.5000840418"
        assert lines[2].startswith("iterations ")
        assert lines[3].startswith("residual ")
        assert any(l.startswith("grid ") for l in lines)
        diff = next(l for l in lines if l.startswith("difference "))
        assert float(diff.split()[1]) < 1e-5

    def test_one_input_symbol_has_a_one_point_lattice(self, capsys, tmp_path):
        # one input symbol: the ascent has nothing to move and the lattice
        # is the single point p(x) = 1; both report I(U;Y) there
        ch = write_matrix(tmp_path / "ch.txt", [[0.3, 0.7]])
        pe = write_matrix(tmp_path / "pe.txt", [[0.5, 0.25, 0.25]])
        rc, out, _ = run_cli(capsys, "capacity-general", "--channel", ch, "--perturb", pe)
        assert rc == 0
        assert out.splitlines()[1:] == [
            "optimize 6.661338148e-17",
            "iterations 0",
            "residual 0",
            "argmax_px 1",
            "grid 6.661338148e-17",
            "difference 0",
        ]

    def test_large_alphabet_skips_grid_crosscheck(self, capsys, tmp_path):
        rows = [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ]
        ch = write_matrix(tmp_path / "ch.txt", rows)
        pe = write_matrix(tmp_path / "pe.txt", rows)
        rc, out, _ = run_cli(capsys, "capacity-general", "--channel", ch, "--perturb", pe)
        assert rc == 0
        assert not any(l.startswith("grid ") for l in out.splitlines())

    def test_ragged_matrix_file_names_the_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 0.5\n0.4 0.3 0.3\n")
        pe = write_matrix(tmp_path / "pe.txt", [[1, 0], [0, 1]])
        rc, _, err = run_cli(
            capsys, "capacity-general", "--channel", str(bad), "--perturb", pe
        )
        assert rc == 2
        assert "line 2" in err

    def test_unreadable_file(self, capsys):
        rc, _, err = run_cli(
            capsys, "capacity-general", "--channel", "/no/ch.txt", "--perturb", "/no/pe.txt"
        )
        assert rc == 2

    def test_restarts_above_cap_rejected_before_solving(self, capsys, tmp_path, monkeypatch):
        # validation alone: the solver, which would allocate the starts, never runs
        def never(*args, **kwargs):
            raise AssertionError("solver ran")

        monkeypatch.setattr(asymcap.cli, "capacity_optimize", never)
        ch = write_matrix(tmp_path / "ch.txt", [[0.9, 0.1], [0.1, 0.9]])
        rc, out, err = run_cli(
            capsys, "capacity-general", "--channel", ch, "--perturb", ch,
            "--restarts", "100000000",
        )
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "restarts" in err


class TestCapacityInputs:
    """capacity and capacity-general compute from their inputs alone: a seed
    or a lattice spacing would be echoed but never read, so neither command
    takes one, and each echoes only the parameters its run reads."""

    CAPACITY = ("capacity", "--p1", "0.1", "--p2", "0.1")
    GENERAL = ("capacity-general", "--channel", "ch.txt", "--perturb", "ch.txt")

    @pytest.fixture(autouse=True)
    def _matrix(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_matrix(tmp_path / "ch.txt", [[0.9, 0.1], [0.2, 0.8]])

    @pytest.mark.parametrize("argv", [CAPACITY + ("--seed", "1"), GENERAL + ("--seed", "1"),
                                      GENERAL + ("--grid-res", "0.01")],
                             ids=["capacity-seed", "general-seed", "general-grid-res"])
    def test_flag_refused(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: unrecognized arguments: {argv[-2]} {argv[-1]}"]

    @pytest.mark.parametrize("argv, key", [(CAPACITY, "seed"), (GENERAL, "grid_res")],
                             ids=["capacity-seed", "general-grid-res"])
    def test_config_key_refused(self, capsys, tmp_path, argv, key):
        (tmp_path / "c.json").write_text(json.dumps({key: 1}))
        rc, out, err = run_cli(capsys, *argv, "--config", "c.json")
        assert rc == 2 and out == ""
        assert err.splitlines() == [f"error: unknown config keys: {key}"]

    @pytest.mark.parametrize("argv, keys", [
        (CAPACITY, ["p1", "p2"]), (GENERAL, ["channel", "perturb", "restarts", "tol"])],
        ids=["capacity", "general"])
    def test_echo_holds_only_what_runs(self, capsys, argv, keys):
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert list(json.loads(out.splitlines()[0][len("config: "):])) == keys


class TestSimulate:
    ARGS = ("simulate", "--n", "16", "--messages", "4", "--p1", "0.1", "--p2", "0.1",
            "--trials", "200", "--seed", "3")

    def test_report_line_is_wire_json(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("config: ")
        report = json.loads(lines[1])
        assert list(report.keys()) == [
            "trials", "errors", "pe_hat", "ci95", "lambda_max_hat", "rate",
            "n", "M", "decoder", "epsilon", "p1", "p2", "seed", "elapsed_seconds",
        ]
        assert report["trials"] == 200
        assert report["decoder"] == "map"
        assert report["epsilon"] is None
        assert report["seed"] == 3

    def test_deterministic_up_to_elapsed(self, capsys):
        _, out_a, _ = run_cli(capsys, *self.ARGS)
        _, out_b, _ = run_cli(capsys, *self.ARGS)
        rep_a = json.loads(out_a.splitlines()[1])
        rep_b = json.loads(out_b.splitlines()[1])
        rep_a.pop("elapsed_seconds")
        rep_b.pop("elapsed_seconds")
        assert rep_a == rep_b
        assert out_a.splitlines()[0] == out_b.splitlines()[0]

    def test_typicality_defaults_epsilon(self, capsys):
        rc, out, _ = run_cli(
            capsys, "simulate", "--n", "32", "--messages", "2", "--p1", "0.05",
            "--p2", "0.05", "--decoder", "typ", "--trials", "20",
        )
        assert rc == 0
        config = json.loads(out.splitlines()[0][len("config: "):])
        report = json.loads(out.splitlines()[1])
        assert config["epsilon"] == 0.05
        assert report["epsilon"] == 0.05
        assert report["decoder"] == "typicality"

    def test_epsilon_rejected_for_map(self, capsys):
        rc, _, err = run_cli(
            capsys, "simulate", "--n", "8", "--messages", "2", "--p1", "0.1",
            "--p2", "0.1", "--trials", "10", "--epsilon", "0.1",
        )
        assert rc == 2
        assert "epsilon" in err

    def test_fixed_codebook_flag_echoed(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--fixed-codebook")
        assert rc == 0
        config = json.loads(out.splitlines()[0][len("config: "):])
        assert config["fixed_codebook"] is True

    def test_flag_does_not_carry_into_the_next_call(self, capsys):
        # main reuses one parser; a flag given to one call must not leak
        run_cli(capsys, *self.ARGS, "--fixed-codebook")
        rc, out, _ = run_cli(capsys, *self.ARGS)
        assert rc == 0
        config = json.loads(out.splitlines()[0][len("config: "):])
        assert config["fixed_codebook"] is False


class TestSweepCapacity:
    def test_small_surface(self, capsys, tmp_path):
        out_path = tmp_path / "cap.csv"
        rc, out, _ = run_cli(
            capsys, "sweep", "--mode", "capacity", "--grid-step", "0.25",
            "--out", str(out_path),
        )
        assert rc == 0
        assert out.strip() == f"wrote 9 rows to {out_path}"
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == CAP_SWEEP_HEADER
        assert len(lines) == 2 + 9
        rows = [l.split(",") for l in lines[2:]]
        for p1, p2, cap, gap in rows:
            if p2 == "0":
                assert gap == "0"
            if p1 == "0.5":
                assert float(cap) == pytest.approx(0.0, abs=1e-12)

    def test_default_step_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "cap.csv"
        rc, out, _ = run_cli(capsys, "sweep", "--mode", "capacity", "--out", str(out_path))
        assert rc == 0
        assert "wrote 2601 rows" in out

    # sha256 of the whole CSV, pinned when the surface was a scalar double loop
    PINNED_SHA256 = {
        "0.01": "bae868c6d9a13155e09faef4aaceb71d90898ebe72c72047e76ddbd1678f09d0",
        "0.002": "1750c1ac2c1298ffb0f2dcefa6cd0a503e721de528205567201de3b44c44b27e",
    }

    @pytest.mark.parametrize("step", list(PINNED_SHA256))
    def test_pinned_csv_bytes(self, capsys, tmp_path, step):
        out_path = tmp_path / "cap.csv"
        rc, _, _ = run_cli(capsys, "sweep", "--mode", "capacity", "--grid-step", step,
                           "--out", str(out_path))
        assert rc == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == self.PINNED_SHA256[step]

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "sweep", "--mode", "capacity", "--grid-step", "0.1", "--out", str(a))
        run_cli(capsys, "sweep", "--mode", "capacity", "--grid-step", "0.1", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_step(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--mode", "capacity", "--grid-step", "0.9",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_step_not_dividing_half_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "x.csv"
        rc, out, err = run_cli(
            capsys, "sweep", "--mode", "capacity", "--grid-step", "0.3",
            "--out", str(out_path),
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: grid step 0.3 does not divide 0.5"]
        assert not out_path.exists()


class TestSweepSimulation:
    def test_lattice_rows_in_row_major_order(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        rc, out, _ = run_cli(
            capsys, "sweep", "--mode", "simulation", "--n-list", "8,16",
            "--m-list", "2,4", "--p1", "0.1", "--p2", "0.1", "--trials", "50",
            "--out", str(out_path),
        )
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert lines[1] == SIM_SWEEP_HEADER
        cells = [l.split(",") for l in lines[2:]]
        assert [(c[0], c[1]) for c in cells] == [
            ("8", "2"), ("8", "4"), ("16", "2"), ("16", "4")
        ]
        for c in cells:
            assert c[3] == "map"
            assert c[4] == ""  # epsilon column empty under MAP
            assert c[5] == "50"
            assert int(c[6]) <= 50

    def test_rerun_byte_identical(self, capsys, tmp_path):
        argv = ("sweep", "--mode", "simulation", "--n-list", "8", "--m-list", "2,4",
                "--p1", "0.2", "--p2", "0.1", "--trials", "40", "--seed", "5")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *argv, "--out", str(a))
        run_cli(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_typicality_epsilon_column_filled(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", "--mode", "simulation", "--n-list", "32",
            "--m-list", "2", "--p1", "0.05", "--p2", "0.05", "--decoder", "typ",
            "--trials", "20", "--out", str(out_path),
        )
        assert rc == 0
        row = out_path.read_text().splitlines()[2].split(",")
        assert row[3] == "typicality"
        assert row[4] == "0.05"

    def test_budget_violation_names_the_row(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--mode", "simulation", "--n-list", "8", "--m-list", "2",
            "--p1", "0.1", "--p2", "0.1", "--trials", "50", "--budget", "100",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2
        assert "row 1 (n=8, M=2)" in err
        assert not (tmp_path / "x.csv").exists()

    def test_simulation_mode_requires_lattice_params(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--mode", "simulation", "--out", str(tmp_path / "x.csv")
        )
        assert rc == 2
        assert "--n-list" in err

    def test_bad_list_syntax(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "sweep", "--mode", "simulation", "--n-list", "8;16",
            "--m-list", "2", "--p1", "0.1", "--p2", "0.1", "--trials", "10",
            "--out", str(tmp_path / "x.csv"),
        )
        assert rc == 2

    def test_unwritable_output_path(self, capsys):
        rc, _, err = run_cli(
            capsys, "sweep", "--mode", "capacity", "--grid-step", "0.25",
            "--out", "/no-such-dir/x.csv",
        )
        assert rc == 2

    def test_unwritable_output_fails_before_any_row(self, capsys, monkeypatch):
        def no_rows(cfg):
            raise AssertionError("a row ran before --out was checked")

        monkeypatch.setattr(asymcap.cli, "run_experiment", no_rows)
        rc, out, err = run_cli(
            capsys, "sweep", "--mode", "simulation", "--n-list", "16,32,64",
            "--m-list", "16,64", "--p1", "0.05", "--p2", "0.05", "--trials", "300",
            "--out", "/no-such-dir/x.csv",
        )
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestVerify:
    def test_default_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        rc, out, _ = run_cli(capsys, "verify", "--out", str(out_path))
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "overall PASS"
        assert sum(1 for l in lines if l.startswith("PASS ")) == 14
        data = json.loads(out_path.read_text())
        assert list(data.keys()) == ["config", "checks", "pass"]
        assert out_path.read_text().startswith(
            '{\n  "config": {\n    "grid_step": 0.1,\n    "samples": 1000000,\n'
            '    "seed": 0\n  },\n')
        assert data["pass"] is True
        assert len(data["checks"]) == 14

    def test_report_file_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--out", str(a))
        run_cli(capsys, "verify", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_undersampled_run_passes_against_its_gate(self, capsys, tmp_path):
        # the TV gate widens with fewer samples: eps(16, 2e4) = 0.025, where
        # correct code reads about 0.01
        out_path = tmp_path / "rep.json"
        rc, out, _ = run_cli(
            capsys, "verify", "--samples", "20000", "--grid-step", "0.25",
            "--out", str(out_path),
        )
        assert rc == 0
        lines = out.splitlines()
        assert "PASS pairwise_factorization_tv residual=0.0081 threshold=0.02495287305" in lines
        assert lines[-1] == "overall PASS"
        data = json.loads(out_path.read_text())
        assert data["pass"] is True

    def test_nan_residual_fails_the_run(self, tmp_path):
        check_nan_residual_fails_verify(tmp_path / "rep.json")

    def test_out_required(self, capsys):
        rc, _, err = run_cli(capsys, "verify")
        assert rc == 2
        assert "--out" in err

    def test_step_not_dividing_half_rejected(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        rc, out, err = run_cli(
            capsys, "verify", "--grid-step", "0.3", "--out", str(out_path),
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: grid step 0.3 does not divide 0.5"]
        assert not out_path.exists()

    def test_bad_samples_rejected_without_a_file(self, capsys, tmp_path):
        out_path = tmp_path / "rep.json"
        rc, out, err = run_cli(capsys, "verify", "--samples", "0", "--out", str(out_path))
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: samples must be at least 1"]
        assert not out_path.exists()

    def test_samples_above_cap_rejected_before_any_check(self, capsys, tmp_path, monkeypatch):
        # validation alone: a run of this size would allocate gigabytes
        def never(*args, **kwargs):
            raise AssertionError("checks ran")

        monkeypatch.setattr(asymcap.cli, "run_verification", never)
        out_path = tmp_path / "rep.json"
        rc, out, err = run_cli(
            capsys, "verify", "--samples", "33554433", "--out", str(out_path),
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: samples must be at most 33554432, got 33554433"]
        assert not out_path.exists()

    def test_unwritable_output_fails_before_any_check(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("checks ran")

        monkeypatch.setattr(asymcap.cli, "run_verification", never)
        rc, out, err = run_cli(capsys, "verify", "--out", "/no-such-dir/r.json")
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_raising_check_writes_strict_json(self, capsys, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler failed")

        def strict(name):
            raise ValueError(f"{name} is not JSON")

        monkeypatch.setattr(asymcap.verify, "sampled_pair_tv", broken)
        out_path = tmp_path / "rep.json"
        rc, out, _ = run_cli(
            capsys, "verify", "--grid-step", "0.5", "--samples", "10", "--out", str(out_path),
        )
        assert rc == 1
        # at 10 samples the gate exceeds 1, the largest TV, yet a raise still fails
        assert ("FAIL pairwise_factorization_tv residual=inf threshold=1.115926407"
                in out.splitlines())
        data = json.loads(out_path.read_text(), parse_constant=strict)
        check = {c["check"]: c for c in data["checks"]}["pairwise_factorization_tv"]
        assert check["max_residual"] is None and check["pass"] is False


class TestGridCaps:
    """Grid steps past the grid caps exit 2 by validation alone: no grid is
    built and no file is written."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("work ran")

        for name in ("run_verification", "sweep_capacity_surface"):
            monkeypatch.setattr(asymcap.cli, name, never)

    @pytest.mark.parametrize("command", [("sweep", "--mode", "capacity"), ("verify",)])
    @pytest.mark.parametrize("step", ["1e-320", "5e-324", "0.001"])
    def test_grid_step_below_cap_refused(self, capsys, tmp_path, command, step):
        # 1e-320 and 5e-324 are subnormal: 0.5 / step overflows to inf
        out_path = tmp_path / "out"
        rc, out, err = run_cli(capsys, *command, "--grid-step", step, "--out", str(out_path))
        assert rc == 2 and out == ""
        assert err.splitlines() == [
            f"error: grid step {float(step)!r} gives more than 251 points per axis"
        ]
        assert not out_path.exists()


class TestCollision:
    def test_bound_met(self, capsys):
        rc, out, _ = run_cli(
            capsys, "collision", "--messages", "8", "--collide", "4", "--n", "16",
            "--p1", "0.05", "--p2", "0.05", "--trials", "200",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[1] == "lambda_max_hat 1"
        assert lines[2] == "bound 0.75"
        assert lines[-1] == "verdict PASS"

    def test_single_collider_rejected(self, capsys):
        rc, _, err = run_cli(
            capsys, "collision", "--messages", "4", "--collide", "1", "--n", "8",
            "--p1", "0.1", "--p2", "0.1", "--trials", "40",
        )
        assert rc == 2
        assert "--collide" in err

    def test_collide_beyond_message_count_rejected(self, capsys):
        rc, _, err = run_cli(
            capsys, "collision", "--messages", "4", "--collide", "5", "--n", "8",
            "--p1", "0.1", "--p2", "0.1", "--trials", "40",
        )
        assert rc == 2

    def test_fewer_trials_than_colliders_rejected(self, capsys):
        rc, out, err = run_cli(
            capsys, "collision", "--messages", "8", "--collide", "4", "--n", "16",
            "--p1", "0.1", "--p2", "0.1", "--trials", "3",
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == ["error: --trials must be at least --collide (4); got 3"]


# Values the property test draws for each parameter: inside and outside its
# domain, and of the wrong kind.  Sizes stay small (n <= 16, M <= 8,
# trials <= 20, samples <= 1000, grid step 0.5, 2x2 matrices).
GOOD_MATRIX, RAGGED_MATRIX = "good.txt", "ragged.txt"
PARAM_VALUES = {
    "p1": [0.0, 0.05, 0.1, 0.5, 1.0, -0.1, 1.5, "0.2"],
    "p2": [0.0, 0.05, 0.3, -1.0, 2.0],
    "n": [1, 4, 16, 0, -3, 8.0],
    "messages": [1, 2, 8, 0, -1],
    "trials": [1, 5, 20, 0, -2],
    "collide": [2, 4, 1, 9],
    "seed": [0, 7, -1, 2**64 + 3],
    "decoder": ["map", "typ", "typicality"],
    "epsilon": [0.05, 0.5, 0.0, -0.1],
    "fixed_codebook": [True, False],
    "channel": [GOOD_MATRIX, RAGGED_MATRIX, "missing.txt"],
    "perturb": [GOOD_MATRIX, RAGGED_MATRIX],
    "restarts": [1, 3, 0, -1],
    "tol": [1e-9, 1e-3, 0.0, -1.0],
    "mode": ["capacity", "simulation", "surface"],
    "grid_step": [0.5, 0.3, 0.0, -0.5, 1.0],
    "samples": [1, 1000, 0, -5],
    "n_list": ["4,16", "8", "", "4;8", [4, 16], []],
    "m_list": ["2,8", "1", [2], "x"],
    "budget": [10**9, 100, 0],
    "out": ["out.txt", "/no-such-dir/out.txt"],
}
WRONG_KIND = [None, True, "x", [1], {"a": 1}, 1.5, float("nan"), float("inf")]
SUBCOMMAND_PARAMS = {
    "capacity": ("p1", "p2"),
    "capacity-general": ("channel", "perturb", "restarts", "tol"),
    "simulate": ("n", "messages", "p1", "p2", "decoder", "epsilon", "trials",
                 "fixed_codebook", "seed"),
    "sweep": ("mode", "grid_step", "p1", "p2", "n_list", "m_list", "decoder", "epsilon",
              "trials", "budget", "seed", "out"),
    "verify": ("grid_step", "samples", "seed", "out"),
    "collision": ("messages", "collide", "n", "p1", "p2", "trials", "seed"),
}
STRAY_TOKENS = ["--warp", "--p", "-x", "junk", "--n", "--help", "--seed=1"]


def _strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(str(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


@st.composite
def invocations(draw):
    """(argv, config) for one subcommand, or a stray argv."""
    command = draw(st.sampled_from(sorted(SUBCOMMAND_PARAMS) + ["bogus", None]))
    argv, cfg = ([] if command is None else [command]), {}
    for name in SUBCOMMAND_PARAMS.get(command, ()):
        value = draw(st.sampled_from(PARAM_VALUES[name] + WRONG_KIND))
        where = draw(st.sampled_from(["flag", "flag", "config", "config", "absent"]))
        if where == "config":
            cfg[name] = value
        elif where == "flag" and value is not None:
            flag = "--" + name.replace("_", "-")
            argv += [flag] if name == "fixed_codebook" else [flag, _flag_text(value)]
    if draw(st.booleans()):
        argv += draw(st.lists(st.sampled_from(STRAY_TOKENS), min_size=1, max_size=2))
    return argv, cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    write_matrix(d / GOOD_MATRIX, [[0.9, 0.1], [0.2, 0.8]])
    (d / RAGGED_MATRIX).write_text("0.5 0.5\n1.0\n")
    return d


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(invocations())
def test_cli_contract(fuzz_dir, monkeypatch, invocation):
    """Whatever the argv and config: no exception leaves main, the exit code
    is 0, 1 or 2, exit 2 comes with exactly one `error:` line and nothing on
    stdout, and every echoed `config:` line is strict JSON."""
    argv, cfg = invocation
    monkeypatch.chdir(fuzz_dir)
    if cfg:
        (fuzz_dir / "c.json").write_text(json.dumps(cfg))
        argv = argv + ["--config", "c.json"]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except BaseException as exc:  # SystemExit included
        pytest.fail(f"main({argv}) with config {cfg} raised {exc!r}")
    assert rc in (0, 1, 2), (argv, cfg, rc)
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, cfg, lines)
        assert out.getvalue() == "", (argv, cfg)
    for line in out.getvalue().splitlines():
        if line.startswith("config: "):
            json.loads(line[len("config: "):], parse_constant=_strict_constant)


def _readme_examples():
    """Each indented `asymcap ...` command line of README.md as an argv, its
    `\\` continuations joined and the brackets of optional flags dropped,
    with the indented `# ...` lines under it."""
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    examples, i = [], 0
    while i < len(lines):
        if lines[i].startswith("    asymcap "):
            command = lines[i]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            shown = []
            while i + 1 < len(lines) and lines[i + 1].startswith("    # "):
                i += 1
                shown.append(lines[i][len("    # "):])
            examples.append((command.replace("[", "").replace("]", "").split()[1:], shown))
        i += 1
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv", [argv for argv, _ in README_EXAMPLES],
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example_parses(argv):
    # parsed and merged as main would, but not run
    args = asymcap.cli.build_parser().parse_args(argv)
    asymcap.cli._merge(args, args.params)


def test_readme_capacity_example_prints_what_it_shows(capsys):
    [(argv, shown)] = [ex for ex in README_EXAMPLES if ex[0][0] == "capacity"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out.splitlines()[1:] == shown


class TestConsoleScript:
    """The `asymcap` console script, run as its own process."""

    def check_capacity_run(self, command, env=None):
        proc = subprocess.run(
            [*command, "capacity", "--p1", "0.1", "--p2", "0.1"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0
        assert "capacity " + CAP_01_01 in proc.stdout
        assert proc.stderr == ""

    @staticmethod
    def same_package_env():
        """The environment for a child that imports the same package as this
        process, whatever the cwd."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
        )
        return env

    def test_installed_entry_point(self):
        """Run the entry point declared in pyproject.toml the way the
        console script pip generates for it does, so no install is needed."""
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["asymcap"]
        module, attr = target.split(":")
        wrapper = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'asymcap'\n"
            f"sys.exit({attr}())\n"
        )
        self.check_capacity_run([sys.executable, "-c", wrapper], self.same_package_env())

    def test_run_as_module(self):
        self.check_capacity_run([sys.executable, "-m", "asymcap"], self.same_package_env())

    @pytest.mark.skipif(
        shutil.which("asymcap") is None,
        reason="no asymcap console script on PATH (package not installed)",
    )
    def test_console_script_on_path(self):
        self.check_capacity_run(["asymcap"])

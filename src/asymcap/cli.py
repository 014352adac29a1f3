"""Command-line front end.

Subcommands: capacity, capacity-general, simulate, sweep, verify,
collision.  Flags override values from an optional JSON file given via
--config, which in turn override built-in defaults; the effective
configuration is echoed into every output (a leading `config:` line on
stdout, a `# config:` comment in CSV files, a "config" key in JSON
reports).  Each parameter is declared once, as a `Param` in COMMANDS, and
a flag string and a config value are checked by the same `coerce`.  Exit
codes: 0 success, 1 verification/bound failure, 2 usage or input error
(one `error:` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

from .capacity import (
    SolverOptions,
    capacity_closed_form_bsc,
    capacity_grid,
    capacity_optimize,
    sweep_capacity_surface,
)
from .codec import DECODER_MAP, DECODER_TYPICALITY, MODE_FIXED, MODE_FRESH, SimConfig, collision_experiment, run_experiment
from .info import TransitionMatrix, bsc_capacity_gap
from .rng import MASK64, TAG_SWEEP, derive_seed
from .verify import default_grid, run_verification, verification_grid

__all__ = ["main", "main_entry"]

DEFAULT_EPSILON = 0.05          # typicality slack when none is given
DEFAULT_SWEEP_GRID_STEP = 0.01  # 51 points per axis on [0, 0.5]
GRID_CROSSCHECK_LIMIT = 3       # capacity-general cross-checks up to this |X|

SIM_SWEEP_HEADER = "n,M,rate,decoder,epsilon,trials,errors,pe_hat,ci95,lambda_max_hat"
CAP_SWEEP_HEADER = "p1,p2,capacity,gap"
_NUMBER_FORMAT = ".10g"  # every number the CLI prints or writes
_CAP_SWEEP_ROW = ",".join(["{:" + _NUMBER_FORMAT + "}"] * 4)  # one format op per row

INT_LIST = "comma-separated integers"  # a Param kind; a JSON list also serves
SEED_INT = "integer in [0, 2^64)"  # a Param kind: derive_seed keeps 64 bits, so a wider seed aliases


class UsageError(ValueError):
    """Bad flags, bad config file, or missing required parameters."""


def _as_int(value) -> int:
    if isinstance(value, float) and value.is_integer():  # e.g. JSON 1e6
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError
    value = float(value)
    if not math.isfinite(value):  # also JSON's NaN and Infinity
        raise ValueError
    return value


def _as_seed(value) -> int:
    value = _as_int(value)
    if not 0 <= value <= MASK64:
        raise ValueError
    return value


def _as_int_list(value) -> list[int]:
    items = [t for t in value.split(",") if t.strip()] if isinstance(value, str) else value
    if not isinstance(items, list) or not items:
        raise TypeError
    return [_as_int(v) for v in items]


_CONVERT = {int: _as_int, float: _as_float, INT_LIST: _as_int_list, SEED_INT: _as_seed}


@dataclass(frozen=True)
class Param:
    """One parameter: flag --<name with dashes>, config key <name>.

    `kind` is int, float, str, bool, INT_LIST or a tuple of allowed
    strings.  A default of None means the parameter has no value unless
    one is given.
    """

    name: str
    kind: object
    help: str
    default: object = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def coerce(self, value):
        """Check a flag string or a JSON config value; return it typed."""
        kind = self.kind
        if isinstance(kind, tuple):
            if isinstance(value, str) and value in kind:
                return value
            kind = "one of " + ", ".join(kind)
        elif kind in (str, bool):
            if isinstance(value, kind):
                return value
        else:
            try:
                return _CONVERT[kind](value)
            except (TypeError, ValueError, OverflowError):
                pass
        raise UsageError(f"{self.flag}: expected {getattr(kind, '__name__', kind)}, got {value!r}")


P1 = Param("p1", float, "channel crossover probability", required=True)
P2 = Param("p2", float, "perturbation crossover probability", required=True)
N = Param("n", int, "block length", required=True)
MESSAGES = Param("messages", int, "message count M", required=True)
TRIALS = Param("trials", int, "Monte Carlo trials", required=True)
DECODER = Param("decoder", ("map", "typ"), "decoding rule", "map")
EPSILON = Param("epsilon", float, f"typicality slack (typ only; {DEFAULT_EPSILON} if not given)")
SEED = Param("seed", SEED_INT, "master seed", 0)
OUT = Param("out", str, "output file path", required=True)

# sweep's simulation-only parameters, required in that mode alone
SWEEP_SIMULATION = (
    Param("n_list", INT_LIST, "comma-separated block lengths (simulation mode)"),
    Param("m_list", INT_LIST, "comma-separated message counts (simulation mode)"),
    replace(P1, required=False),
    replace(P2, required=False),
    replace(TRIALS, required=False),
)


def _fmt(v: float) -> str:
    return format(float(v), _NUMBER_FORMAT)


def _config_json(eff: dict) -> str:
    return json.dumps(eff, sort_keys=True)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path}: expected a JSON object")
    return data


def _require(eff: dict, params, context: str = "") -> None:
    missing = [p.flag for p in params if eff[p.name] is None]
    if missing:
        raise UsageError(f"missing required parameter(s){context}: {', '.join(missing)}")


def _merge(args: argparse.Namespace, params: tuple[Param, ...]) -> dict:
    """Resolve flag > config file > built-in default for every parameter.

    A JSON null counts as not given.  Flag strings and config values both
    pass through Param.coerce, so every value in the result has its kind.
    """
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - {p.name for p in params})
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    eff = {}
    for p in params:
        value = getattr(args, p.name)
        if value is None:
            value = cfg.get(p.name)
        eff[p.name] = p.default if value is None else p.coerce(value)
    _require(eff, [p for p in params if p.required])
    return eff


def _resolve_decoder(eff: dict) -> None:
    """Give the typicality decoder its default epsilon when none is given,
    so that the echoed config holds the value that runs."""
    if eff["decoder"] == "typ" and eff["epsilon"] is None:
        eff["epsilon"] = DEFAULT_EPSILON


def _write_csv(path: str, echo: dict, header: str, rows) -> None:
    """Write a CSV, drawing rows from the iterable as it goes.

    The file is opened before the first row is drawn, so an unwritable
    path fails before a lazily computed row costs anything.
    """
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + _config_json(echo) + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
            count += 1
    print(f"wrote {count} rows to {path}")


def cmd_capacity(eff: dict) -> int:
    res = capacity_closed_form_bsc(eff["p1"], eff["p2"])
    print("config: " + _config_json(eff))
    print("capacity " + _fmt(res.capacity))
    print("gap " + _fmt(bsc_capacity_gap(eff["p1"], eff["p2"])))
    print("argmax_px " + " ".join(_fmt(v) for v in res.argmax_px))
    return 0


def cmd_capacity_general(eff: dict) -> int:
    pyx = TransitionMatrix.from_file(eff["channel"])
    pux = TransitionMatrix.from_file(eff["perturb"])
    res = capacity_optimize(pyx, pux, SolverOptions(restarts=eff["restarts"],
                                                    convergence_tol=eff["tol"]))
    print("config: " + _config_json(eff))
    print("optimize " + _fmt(res.capacity))
    print("iterations " + str(res.iterations))
    print("residual " + _fmt(res.residual))
    print("argmax_px " + " ".join(_fmt(v) for v in res.argmax_px))
    if pyx.input_size <= GRID_CROSSCHECK_LIMIT:
        ref = capacity_grid(pyx, pux)
        print("grid " + _fmt(ref.capacity))
        print("difference " + _fmt(abs(res.capacity - ref.capacity)))
    return 0


def _sim_config(eff: dict, n: int, m: int, seed: int, mode: str = MODE_FRESH) -> SimConfig:
    return SimConfig.binary_symmetric(
        n=n, M=m, p1=eff["p1"], p2=eff["p2"], epsilon=eff["epsilon"],
        decoder=DECODER_TYPICALITY if eff["decoder"] == "typ" else DECODER_MAP,
        trials=eff["trials"], codebook_mode=mode, master_seed=seed,
    )


def cmd_simulate(eff: dict) -> int:
    _resolve_decoder(eff)
    mode = MODE_FIXED if eff["fixed_codebook"] else MODE_FRESH
    report = run_experiment(_sim_config(eff, eff["n"], eff["messages"], eff["seed"], mode))
    print("config: " + _config_json(eff))
    print(json.dumps(report.to_json_dict()))
    return 0


def _csv_cell(v) -> str:
    return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)


def _sim_sweep_row(cfg: SimConfig) -> str:
    """One lattice row: the run's report fields in SIM_SWEEP_HEADER order."""
    rep = run_experiment(cfg).to_json_dict()
    return ",".join(_csv_cell(rep[k]) for k in SIM_SWEEP_HEADER.split(","))


def cmd_sweep(eff: dict) -> int:
    if eff["mode"] == "capacity":
        grid = default_grid(eff["grid_step"])
        rows = (_CAP_SWEEP_ROW.format(*row) for row in sweep_capacity_surface(grid, grid))
        echo = {k: eff[k] for k in ("mode", "grid_step", "seed")}
        _write_csv(eff["out"], echo, CAP_SWEEP_HEADER, rows)
        return 0

    _require(eff, SWEEP_SIMULATION, " for simulation mode")
    _resolve_decoder(eff)
    lattice = [(n, m) for n in eff["n_list"] for m in eff["m_list"]]
    for i, (n, m) in enumerate(lattice):
        cost = n * m * eff["trials"]
        if cost > eff["budget"]:
            raise UsageError(
                f"row {i + 1} (n={n}, M={m}): n*M*trials = {cost} exceeds budget {eff['budget']}"
            )
    # Every row's config is validated before the output file is created.
    cfgs = [_sim_config(eff, n, m, derive_seed(eff["seed"], i, TAG_SWEEP))
            for i, (n, m) in enumerate(lattice)]
    echo = {k: v for k, v in eff.items() if k not in ("grid_step", "out")}
    _write_csv(eff["out"], echo, SIM_SWEEP_HEADER, map(_sim_sweep_row, cfgs))
    return 0


def cmd_verify(eff: dict) -> int:
    # Validate, then open --out, then run: no file on bad input, no run on a bad path.
    verification_grid(eff["grid_step"], eff["samples"])
    with open(eff["out"], "w", encoding="utf-8", newline="") as fh:
        report = run_verification(grid_step=eff["grid_step"], samples=eff["samples"],
                                  seed=eff["seed"])
        echo = {k: v for k, v in eff.items() if k != "out"}
        fh.write(json.dumps({"config": echo} | report.to_json_dict(), indent=2,
                            allow_nan=False) + "\n")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} residual={_fmt(c.max_residual)} threshold={_fmt(c.threshold)}")
    print("overall " + ("PASS" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def cmd_collision(eff: dict) -> int:
    m, trials = eff["collide"], eff["trials"]
    if not 2 <= m <= eff["messages"]:
        raise UsageError(f"--collide must lie in [2, M]; got {m} with M={eff['messages']}")
    if trials < m:
        raise UsageError(f"--trials must be at least --collide ({m}); got {trials}")
    lam = collision_experiment(M=eff["messages"], m_collide=m, n=eff["n"], p1=eff["p1"],
                               p2=eff["p2"], trials=trials, seed=eff["seed"])
    bound = 1.0 - 1.0 / m
    sigma = math.sqrt(bound * (1.0 - bound) / (trials // m))
    ok = lam >= bound - 3.0 * sigma
    print("config: " + _config_json(eff))
    print("lambda_max_hat " + _fmt(lam))
    print("bound " + _fmt(bound))
    print("slack_3sigma " + _fmt(3.0 * sigma))
    print("verdict " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


# subcommand -> (handler, help, parameters); every subcommand also takes --config.
COMMANDS = {
    "capacity": (cmd_capacity, "closed-form binary symmetric capacity and gap", (P1, P2)),
    "capacity-general": (cmd_capacity_general, "numeric capacity for arbitrary matrices", (
        Param("channel", str, "channel matrix file", required=True),
        Param("perturb", str, "perturbation matrix file", required=True),
        Param("restarts", int, "gradient solver restarts", 8),
        Param("tol", float, "Frank-Wolfe gap (residual), in bits, below which a run stops", 1e-9),
    )),
    "simulate": (cmd_simulate, "Monte Carlo block-error estimate", (
        N, MESSAGES, P1, P2, DECODER, EPSILON, TRIALS,
        Param("fixed_codebook", bool, "reuse one codebook pair instead of redrawing per trial", False),
        SEED,
    )),
    "sweep": (cmd_sweep, "write a capacity surface or simulation lattice CSV", (
        Param("mode", ("capacity", "simulation"), "what to sweep", required=True),
        Param("grid_step", float, "capacity mode lattice step", DEFAULT_SWEEP_GRID_STEP),
        *SWEEP_SIMULATION, DECODER, EPSILON,
        Param("budget", int, "max n*M*trials per row", 10**9),
        SEED, OUT,
    )),
    "verify": (cmd_verify, "run the structural self-check suite", (
        Param("grid_step", float, "(p1, p2) lattice step for identity checks", 0.1),
        Param("samples", int, "sample count for the factorization check", 10**6),
        SEED, OUT,
    )),
    "collision": (cmd_collision, "decoder-codebook collision bound check", (
        MESSAGES, Param("collide", int, "number of colliding messages", required=True),
        N, P1, P2, TRIALS, SEED,
    )),
}


class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit 2."""

    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser for COMMANDS, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="asymcap",
        description="Capacity and Monte Carlo tools for channels decoded "
                    "with a perturbed codebook.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, params) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for p in params:
            text = p.help
            if p.default is not None and p.kind is not bool:
                text += f" (default {p.default})"
            if p.kind is bool:
                sp.add_argument(p.flag, dest=p.name, action="store_true", default=None, help=text)
            else:
                choices = "{" + ",".join(p.kind) + "}" if isinstance(p.kind, tuple) else None
                sp.add_argument(p.flag, dest=p.name, metavar=choices, help=text)
        sp.add_argument("--config", metavar="PATH",
                        help="JSON file with parameter defaults; flags win")
        sp.set_defaults(func=func, params=params)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(_merge(args, args.params))
    except SystemExit as exc:  # -h/--help, after argparse printed the help
        return exc.code
    except (ValueError, OSError) as exc:
        print("error: " + " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())

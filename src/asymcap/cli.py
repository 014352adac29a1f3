"""Command-line front end.

Subcommands: capacity, capacity-general, simulate, sweep, verify,
collision.  Flags override values from an optional JSON file given via
--config, which in turn override built-in defaults; the effective
configuration is echoed into every output (a leading `config:` line on
stdout, a `# config:` comment in CSV files, a "config" key in JSON
reports).  Exit codes: 0 success, 1 verification/bound failure, 2 usage
or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .capacity import (
    SolverOptions,
    capacity_closed_form_bsc,
    capacity_grid,
    capacity_optimize,
    sweep_capacity_surface,
)
from .codec import DECODER_MAP, DECODER_TYPICALITY, MODE_FIXED, MODE_FRESH, SimConfig, collision_experiment, run_experiment
from .info import TransitionMatrix, binary_entropy, composite_crossover
from .rng import TAG_SWEEP, derive_seed
from .verify import default_grid, run_verification

__all__ = ["main", "main_entry"]

DEFAULT_EPSILON = 0.05          # typicality slack when none is given
DEFAULT_SWEEP_GRID_STEP = 0.01  # 51 points per axis on [0, 0.5]
DEFAULT_SWEEP_BUDGET = 10**9    # cap on n * M * trials per simulation row
GRID_CROSSCHECK_LIMIT = 3       # capacity-general cross-checks up to this |X|

SIM_SWEEP_HEADER = "n,M,rate,decoder,epsilon,trials,errors,pe_hat,ci95,lambda_max_hat"
CAP_SWEEP_HEADER = "p1,p2,capacity,gap"


class UsageError(ValueError):
    """Bad flags, bad config file, or missing required parameters."""


def _fmt(v: float) -> str:
    return format(float(v), ".10g")


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


def _merge(args: argparse.Namespace, defaults: dict, required: tuple[str, ...]) -> dict:
    """Resolve flag > config file > built-in default for every parameter."""
    cfg = _load_config(args.config)
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    eff = {}
    for key, builtin in defaults.items():
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, builtin)
        eff[key] = value
    missing = [k for k in required if eff[k] is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise UsageError(f"missing required parameter(s): {flags}")
    return eff


def _int_list(value, flag: str) -> list[int]:
    if isinstance(value, str):
        toks = [t.strip() for t in value.split(",") if t.strip()]
        try:
            out = [int(t) for t in toks]
        except ValueError as exc:
            raise UsageError(f"{flag}: expected comma-separated integers") from exc
    elif isinstance(value, (list, tuple)):
        out = [int(v) for v in value]
    else:
        raise UsageError(f"{flag}: expected comma-separated integers")
    if not out:
        raise UsageError(f"{flag}: empty list")
    return out


def _resolve_decoder(eff: dict) -> tuple[str, float | None]:
    """Map the CLI decoder name to the internal one and settle epsilon."""
    decoder = eff["decoder"]
    if decoder not in ("map", "typ"):
        raise UsageError(f"decoder must be 'map' or 'typ', got {decoder!r}")
    if decoder == "typ":
        eps = eff["epsilon"]
        return DECODER_TYPICALITY, float(eps) if eps is not None else DEFAULT_EPSILON
    if eff["epsilon"] is not None:
        raise UsageError("--epsilon only applies to the typicality decoder")
    return DECODER_MAP, None


def _write_csv(path: str, eff: dict, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + _config_json(eff) + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def cmd_capacity(args: argparse.Namespace) -> int:
    eff = _merge(args, {"p1": None, "p2": None, "seed": 0}, ("p1", "p2"))
    res = capacity_closed_form_bsc(eff["p1"], eff["p2"])
    q = composite_crossover(eff["p1"], eff["p2"])
    gap = binary_entropy(q) - binary_entropy(eff["p1"])
    print("config: " + _config_json(eff))
    print("capacity " + _fmt(res.capacity))
    print("gap " + _fmt(gap))
    print("argmax_px " + " ".join(_fmt(v) for v in res.argmax_px))
    return 0


def cmd_capacity_general(args: argparse.Namespace) -> int:
    defaults = {
        "channel": None,
        "perturb": None,
        "restarts": 8,
        "tol": 1e-9,
        "grid_res": 1e-3,
        "seed": 0,
    }
    eff = _merge(args, defaults, ("channel", "perturb"))
    pyx = TransitionMatrix.from_file(eff["channel"])
    pux = TransitionMatrix.from_file(eff["perturb"])
    opts = SolverOptions(
        grid_resolution=float(eff["grid_res"]),
        restarts=int(eff["restarts"]),
        convergence_tol=float(eff["tol"]),
    )
    res = capacity_optimize(pyx, pux, opts)
    print("config: " + _config_json(eff))
    print("optimize " + _fmt(res.capacity))
    print("iterations " + str(res.iterations))
    print("residual " + _fmt(res.residual))
    print("argmax_px " + " ".join(_fmt(v) for v in res.argmax_px))
    if pyx.input_size <= GRID_CROSSCHECK_LIMIT:
        ref = capacity_grid(pyx, pux, float(eff["grid_res"]))
        print("grid " + _fmt(ref.capacity))
        print("difference " + _fmt(abs(res.capacity - ref.capacity)))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    defaults = {
        "n": None,
        "messages": None,
        "p1": None,
        "p2": None,
        "decoder": "map",
        "epsilon": None,
        "trials": None,
        "seed": 0,
        "fixed_codebook": False,
    }
    eff = _merge(args, defaults, ("n", "messages", "p1", "p2", "trials"))
    decoder, epsilon = _resolve_decoder(eff)
    mode = MODE_FIXED if eff["fixed_codebook"] else MODE_FRESH
    cfg = SimConfig.binary_symmetric(
        n=int(eff["n"]),
        M=int(eff["messages"]),
        p1=float(eff["p1"]),
        p2=float(eff["p2"]),
        decoder=decoder,
        epsilon=epsilon,
        trials=int(eff["trials"]),
        codebook_mode=mode,
        master_seed=int(eff["seed"]),
    )
    echo = dict(eff, decoder=decoder, epsilon=epsilon, fixed_codebook=(mode == MODE_FIXED))
    report = run_experiment(cfg)
    print("config: " + _config_json(echo))
    print(json.dumps(report.to_json_dict()))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    defaults = {
        "mode": None,
        "grid_step": DEFAULT_SWEEP_GRID_STEP,
        "p1": None,
        "p2": None,
        "n_list": None,
        "m_list": None,
        "decoder": "map",
        "epsilon": None,
        "trials": None,
        "budget": DEFAULT_SWEEP_BUDGET,
        "seed": 0,
        "out": None,
    }
    eff = _merge(args, defaults, ("mode", "out"))
    if eff["mode"] == "capacity":
        step = float(eff["grid_step"])
        grid = default_grid(step)
        echo = {"mode": "capacity", "grid_step": step, "seed": int(eff["seed"])}
        rows = [
            ",".join(_fmt(v) for v in row)
            for row in sweep_capacity_surface(grid, grid)
        ]
        _write_csv(eff["out"], echo, CAP_SWEEP_HEADER, rows)
        print(f"wrote {len(rows)} rows to {eff['out']}")
        return 0
    if eff["mode"] != "simulation":
        raise UsageError(f"mode must be 'capacity' or 'simulation', got {eff['mode']!r}")

    for key in ("n_list", "m_list", "p1", "p2", "trials"):
        if eff[key] is None:
            raise UsageError(
                "missing required parameter(s) for simulation mode: --"
                + key.replace("_", "-")
            )
    n_list = _int_list(eff["n_list"], "--n-list")
    m_list = _int_list(eff["m_list"], "--m-list")
    decoder, epsilon = _resolve_decoder(eff)
    trials = int(eff["trials"])
    budget = int(eff["budget"])
    seed = int(eff["seed"])
    lattice = [(n, m) for n in n_list for m in m_list]
    for i, (n, m) in enumerate(lattice):
        cost = n * m * trials
        if cost > budget:
            raise UsageError(
                f"row {i + 1} (n={n}, M={m}): n*M*trials = {cost} exceeds budget {budget}"
            )

    echo = {
        "mode": "simulation",
        "p1": float(eff["p1"]),
        "p2": float(eff["p2"]),
        "n_list": n_list,
        "m_list": m_list,
        "decoder": decoder,
        "epsilon": epsilon,
        "trials": trials,
        "budget": budget,
        "seed": seed,
    }
    rows = []
    for i, (n, m) in enumerate(lattice):
        cfg = SimConfig.binary_symmetric(
            n=n,
            M=m,
            p1=float(eff["p1"]),
            p2=float(eff["p2"]),
            decoder=decoder,
            epsilon=epsilon,
            trials=trials,
            master_seed=derive_seed(seed, i, TAG_SWEEP),
        )
        rep = run_experiment(cfg)
        rows.append(
            ",".join(
                [
                    str(n),
                    str(m),
                    _fmt(math.log2(m) / n),
                    decoder,
                    "" if epsilon is None else _fmt(epsilon),
                    str(trials),
                    str(rep.error_count),
                    _fmt(rep.pe_hat),
                    _fmt(rep.ci95_halfwidth),
                    _fmt(rep.lambda_max_hat),
                ]
            )
        )
    _write_csv(eff["out"], echo, SIM_SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {eff['out']}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    defaults = {"grid_step": 0.1, "samples": 10**6, "seed": 0, "out": None}
    eff = _merge(args, defaults, ("out",))
    report = run_verification(
        grid_step=float(eff["grid_step"]),
        samples=int(eff["samples"]),
        seed=int(eff["seed"]),
    )
    with open(eff["out"], "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} residual={_fmt(c.max_residual)} threshold={_fmt(c.threshold)}")
    print("overall " + ("PASS" if report.passed else "FAIL"))
    return 0 if report.passed else 1


def cmd_collision(args: argparse.Namespace) -> int:
    defaults = {
        "messages": None,
        "collide": None,
        "n": None,
        "p1": None,
        "p2": None,
        "trials": None,
        "seed": 0,
    }
    eff = _merge(args, defaults, ("messages", "collide", "n", "p1", "p2", "trials"))
    m = int(eff["collide"])
    if not 2 <= m <= int(eff["messages"]):
        raise UsageError(f"--collide must lie in [2, M]; got {m} with M={eff['messages']}")
    if int(eff["trials"]) < m:
        raise UsageError(f"--trials must be at least --collide ({m}); got {eff['trials']}")
    lam = collision_experiment(
        M=int(eff["messages"]),
        m_collide=m,
        n=int(eff["n"]),
        p1=float(eff["p1"]),
        p2=float(eff["p2"]),
        trials=int(eff["trials"]),
        seed=int(eff["seed"]),
    )
    bound = 1.0 - 1.0 / m
    sigma = math.sqrt(bound * (1.0 - bound) / (int(eff["trials"]) // m))
    ok = lam >= bound - 3.0 * sigma
    print("config: " + _config_json(eff))
    print("lambda_max_hat " + _fmt(lam))
    print("bound " + _fmt(bound))
    print("slack_3sigma " + _fmt(3.0 * sigma))
    print("verdict " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    sp.add_argument("--config", default=None, metavar="PATH",
                    help="JSON file with parameter defaults; flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymcap",
        description="Capacity and Monte Carlo tools for channels decoded "
                    "with a perturbed codebook.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("capacity", help="closed-form binary symmetric capacity and gap")
    sp.add_argument("--p1", type=float, help="channel crossover probability")
    sp.add_argument("--p2", type=float, help="perturbation crossover probability")
    _add_common(sp)
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("capacity-general", help="numeric capacity for arbitrary matrices")
    sp.add_argument("--channel", metavar="PATH", help="channel matrix file")
    sp.add_argument("--perturb", metavar="PATH", help="perturbation matrix file")
    sp.add_argument("--restarts", type=int, help="gradient solver restarts (default 8)")
    sp.add_argument("--tol", type=float, help="convergence tolerance (default 1e-9)")
    sp.add_argument("--grid-res", type=float, dest="grid_res",
                    help="lattice spacing for the grid cross-check (default 1e-3)")
    _add_common(sp)
    sp.set_defaults(func=cmd_capacity_general)

    sp = sub.add_parser("simulate", help="Monte Carlo block-error estimate")
    sp.add_argument("--n", type=int, help="block length")
    sp.add_argument("--messages", type=int, help="message count M")
    sp.add_argument("--p1", type=float, help="channel crossover probability")
    sp.add_argument("--p2", type=float, help="perturbation crossover probability")
    sp.add_argument("--decoder", choices=("map", "typ"), default=None,
                    help="decoding rule (default map)")
    sp.add_argument("--epsilon", type=float,
                    help="typicality slack (typ only, default 0.05)")
    sp.add_argument("--trials", type=int, help="Monte Carlo trials")
    sp.add_argument("--fixed-codebook", dest="fixed_codebook",
                    action="store_true", default=None,
                    help="reuse one codebook pair instead of redrawing per trial")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="write a capacity surface or simulation lattice CSV")
    sp.add_argument("--mode", choices=("capacity", "simulation"), default=None)
    sp.add_argument("--grid-step", type=float, dest="grid_step",
                    help="capacity mode lattice step (default 0.01)")
    sp.add_argument("--p1", type=float)
    sp.add_argument("--p2", type=float)
    sp.add_argument("--n-list", dest="n_list", metavar="N1,N2,...",
                    help="block lengths (simulation mode)")
    sp.add_argument("--m-list", dest="m_list", metavar="M1,M2,...",
                    help="message counts (simulation mode)")
    sp.add_argument("--decoder", choices=("map", "typ"), default=None)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--budget", type=int,
                    help=f"max n*M*trials per row (default {DEFAULT_SWEEP_BUDGET})")
    sp.add_argument("--out", metavar="PATH", help="CSV output path")
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("verify", help="run the structural self-check suite")
    sp.add_argument("--grid-step", type=float, dest="grid_step",
                    help="(p1, p2) lattice step for identity checks (default 0.1)")
    sp.add_argument("--samples", type=int,
                    help="sample count for the factorization check (default 1e6)")
    sp.add_argument("--out", metavar="PATH", help="JSON report path")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("collision", help="decoder-codebook collision bound check")
    sp.add_argument("--messages", type=int, help="message count M")
    sp.add_argument("--collide", type=int, help="number of colliding messages")
    sp.add_argument("--n", type=int, help="block length")
    sp.add_argument("--p1", type=float)
    sp.add_argument("--p2", type=float)
    sp.add_argument("--trials", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_collision)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())

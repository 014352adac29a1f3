"""Workload inputs and output checks for the asymcap benchmark.

Every input is a pure function of (workload, seed).  Inputs are drawn from
the standard library's Mersenne Twister, never from the package under
test, and reach the program only as files: one JSON config per CLI op,
plus plain-text matrix files for ``capacity-general``.

A workload is a pool of passes; a pass is a fixed list of CLI ops.  A run
cycles through the pool, so a pass met a second time must reproduce its
first outputs exactly.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

MC_P = 0.05  # channel and perturbation crossover of the Monte Carlo rows

# mc_short: criterion 7's n-sweep at M=16, its M-sweep rows at n=16 with
# M in {2, 8}, its far-below-capacity row n=64 M=4, and a typicality row.
SHORT_MAP_ROWS = ((16, 16), (32, 16), (64, 16), (128, 16), (16, 2), (16, 8), (64, 4))
SHORT_TYP_ROW = (200, 4, 0.05)  # n, M, epsilon
SHORT_TRIALS = 250
COLLISION = {"messages": 8, "collide": 4, "n": 16, "p1": 0.1, "p2": 0.1, "trials": 400}

# mc_wide: fresh n=16 M=1024 (codebook gather dominates) and a fixed
# n=32 M=4096 codebook (MAP scoring over 131k cells per trial dominates).
WIDE_FRESH = (16, 1024, 60)  # n, M, trials
WIDE_FIXED = (32, 4096, 100)

CAP_NX = (2, 3, 4, 8)
CAP_PER_NX = 2          # random channel/perturbation pairs per nx per pass
CAP_BSC_PER_PASS = 4    # points of criterion 1's 11x11 lattice per pass
# BSC solve time ranges from 0 (p1 or p2 = 1/2) to 0.3 s, so the lattice
# points are the same for every seed, strided across the lattice; only the
# random pairs depend on the seed.
BSC_STRIDE = 31
BSC_LATTICE = [i / 20 for i in range(11)]  # 0, 0.05, ..., 0.5
SWEEP_ROWS = 51 * 51    # sweep --mode capacity at its default step 0.01

VERIFY_GRID_STEP = 0.0625  # 1/16: divides 0.5 exactly, finer than 0.1
VERIFY_SAMPLES = 2_000_000
# Sampling gates of `verify` that are 3-sigma tests with a nonzero
# false-alarm rate on a correct program (about 0.75% of seeds together).
VERIFY_Z_GATES = ("codebook_symbol_frequency", "codebook_cell_correlation")

# Passes in a workload's pool.  Monte Carlo and verify costs do not depend
# on the seed, so one pass repeated as often as possible serves best; the
# capacity workload needs two to average over its seeded instances.
PASSES = {"mc_short": 1, "mc_wide": 1, "capacity": 2, "verify": 1}
WORK_UNIT = {
    "mc_short": "Monte Carlo trials",
    "mc_wide": "Monte Carlo trials",
    "capacity": "capacity-general solves",
    "verify": "verify runs",
}


@dataclass
class Op:
    """One CLI op: its subcommand, config, and what its output must show."""

    kind: str
    cfg: dict
    argv: list
    work: int            # units of WORK_UNIT[workload] the op completes
    label: str = ""      # instance class, e.g. 'nx3' or 'bsc'
    ref: dict = field(default_factory=dict)
    out: str | None = None  # file the op writes, if any


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _cli_op(kind: str, cfg: dict, path: str, **kw) -> Op:
    _write_json(path, cfg)
    return Op(kind=kind, cfg=cfg, argv=[kind, "--config", path], **kw)


def _simulate(d, tag, rnd, n, m, trials, decoder="map", epsilon=None, fixed=False):
    cfg = {
        "n": n, "messages": m, "p1": MC_P, "p2": MC_P, "decoder": decoder,
        "epsilon": epsilon, "trials": trials, "seed": rnd.randrange(1 << 32),
        "fixed_codebook": fixed,
    }
    return _cli_op("simulate", cfg, os.path.join(d, tag + ".json"),
                   work=trials, label=f"n{n}_M{m}")


def _stochastic(rnd, rows, cols):
    out = []
    for _ in range(rows):
        w = [rnd.random() + 0.02 for _ in range(cols)]
        s = sum(w)
        out.append([v / s for v in w])
    return out


def _write_matrix(path, mat) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in mat:
            fh.write(" ".join(repr(v) for v in row) + "\n")


def _h2(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _mi_uniform(pyx, pux) -> float:
    """I(U;Y) in bits at the uniform input, in plain floats."""
    nx, ny, nu = len(pyx), len(pyx[0]), len(pux[0])
    q = [[sum(pux[x][u] * pyx[x][y] for x in range(nx)) / nx for y in range(ny)]
         for u in range(nu)]
    qu = [sum(r) for r in q]
    qy = [sum(q[u][y] for u in range(nu)) for y in range(ny)]
    return sum(q[u][y] * math.log2(q[u][y] / (qu[u] * qy[y]))
               for u in range(nu) for y in range(ny) if q[u][y] > 0)


def _capacity_general(d, tag, pyx, pux, label, ref) -> Op:
    ch = os.path.join(d, tag + "_channel.txt")
    pe = os.path.join(d, tag + "_perturb.txt")
    _write_matrix(ch, pyx)
    _write_matrix(pe, pux)
    return _cli_op("capacity-general", {"channel": ch, "perturb": pe},
                   os.path.join(d, tag + ".json"), work=1, label=label, ref=ref)


def _pass_ops(workload: str, seed: int, k: int, d: str) -> list:
    rnd = random.Random(f"{workload}:{seed}:{k}")
    if workload == "mc_short":
        ops = [_simulate(d, f"map{i}", rnd, n, m, SHORT_TRIALS)
               for i, (n, m) in enumerate(SHORT_MAP_ROWS)]
        n, m, eps = SHORT_TYP_ROW
        ops.append(_simulate(d, "typ", rnd, n, m, SHORT_TRIALS, "typ", eps))
        cfg = dict(COLLISION, seed=rnd.randrange(1 << 32))
        ops.append(_cli_op("collision", cfg, os.path.join(d, "collision.json"),
                           work=cfg["trials"], label="collision"))
        return ops
    if workload == "mc_wide":
        n, m, t = WIDE_FRESH
        ops = [_simulate(d, "fresh", rnd, n, m, t)]
        n, m, t = WIDE_FIXED
        ops.append(_simulate(d, "fixed", rnd, n, m, t, fixed=True))
        return ops
    if workload == "capacity":
        ops = []
        for nx in CAP_NX:
            for j in range(CAP_PER_NX):
                pyx = _stochastic(rnd, nx, rnd.randint(2, 4))
                pux = _stochastic(rnd, nx, rnd.randint(2, 4))
                ref = {"nx": nx, "mi_uniform": _mi_uniform(pyx, pux),
                       "upper": math.log2(min(len(pyx[0]), len(pux[0])))}
                ops.append(_capacity_general(d, f"nx{nx}_{j}", pyx, pux, f"nx{nx}", ref))
        for j in range(CAP_BSC_PER_PASS):
            idx = (k * CAP_BSC_PER_PASS + j) * BSC_STRIDE % 121
            p1, p2 = BSC_LATTICE[idx // 11], BSC_LATTICE[idx % 11]
            ref = {"nx": 2, "closed": 1.0 - _h2(p1 + p2 - 2.0 * p1 * p2)}
            ops.append(_capacity_general(
                d, f"bsc{j}", [[1 - p1, p1], [p1, 1 - p1]],
                [[1 - p2, p2], [p2, 1 - p2]], "bsc", ref))
        out = os.path.join(d, "surface.csv")
        ops.append(_cli_op("sweep", {"mode": "capacity", "out": out},
                           os.path.join(d, "sweep.json"), work=0, label="sweep", out=out))
        return ops
    if workload == "verify":
        out = os.path.join(d, "verify_report.json")
        cfg = {"grid_step": VERIFY_GRID_STEP, "samples": VERIFY_SAMPLES,
               "seed": rnd.randrange(1 << 32), "out": out}
        return [_cli_op("verify", cfg, os.path.join(d, "verify.json"),
                        work=1, label="verify", out=out)]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int, root: str) -> list:
    """Write the workload's pool of passes under `root`; return its ops."""
    pool = []
    for k in range(PASSES[workload]):
        d = os.path.join(root, f"pass{k}")
        os.makedirs(d)
        pool.append(_pass_ops(workload, seed, k, d))
    return pool


# ----------------------------------------------------------------------
# Output checks.  Each returns (problem or None, normalized output); the
# normalized output of a repeated pass must equal its first occurrence.


def fields(stdout: str) -> dict:
    """First word of each stdout line mapped to the rest of the line."""
    return dict(line.partition(" ")[::2] for line in stdout.splitlines())


def _check_simulate(op, rc, stdout):
    lines = stdout.splitlines()
    if rc != 0 or len(lines) != 2:
        return f"exit {rc}, {len(lines)} lines", None
    rep = json.loads(lines[1])
    rep.pop("elapsed_seconds", None)
    t, e = rep["trials"], rep["errors"]
    if t != op.cfg["trials"] or not 0 <= e <= t or rep["pe_hat"] != e / t:
        return f"inconsistent report {rep}", None
    if (rep["n"], rep["M"], rep["seed"]) != (op.cfg["n"], op.cfg["messages"], op.cfg["seed"]):
        return f"report echoes another config {rep}", None
    return None, (lines[0], rep)


def _check_collision(op, rc, stdout):
    f = fields(stdout)
    lam = float(f.get("lambda_max_hat", "nan"))
    bound = 1.0 - 1.0 / op.cfg["collide"]
    if rc != 0 or f.get("verdict") != "PASS" or not 0.0 <= lam <= 1.0:
        return f"exit {rc}, verdict {f.get('verdict')}, lambda {lam}", None
    if float(f["bound"]) != float(format(bound, ".10g")):
        return f"bound {f['bound']} != {bound}", None
    return None, stdout


def _check_capacity_general(op, rc, stdout):
    if rc != 0:
        return f"exit {rc}", None
    f = fields(stdout)
    value = float(f["optimize"])
    ref = op.ref
    if "closed" in ref:
        px = [float(v) for v in f["argmax_px"].split()]
        if abs(value - ref["closed"]) >= 1e-5 or max(abs(v - 0.5) for v in px) >= 1e-3:
            return f"value {value} vs closed form {ref['closed']}, argmax {px}", None
    if ref["nx"] <= 3:
        if "difference" not in f or float(f["difference"]) >= 2e-3:
            return f"lattice difference {f.get('difference')}", None
    elif not ref["mi_uniform"] - 1e-12 <= value <= ref["upper"] + 1e-12:
        return f"value {value} outside [{ref['mi_uniform']}, {ref['upper']}]", None
    return None, stdout


def _check_sweep(op, rc, stdout):
    if rc != 0 or stdout.strip() != f"wrote {SWEEP_ROWS} rows to {op.out}":
        return f"exit {rc}: {stdout.strip()!r}", None
    with open(op.out, "rb") as fh:
        data = fh.read()
    lines = data.decode().splitlines()
    if len(lines) != SWEEP_ROWS + 2 or lines[1] != "p1,p2,capacity,gap":
        return f"{len(lines)} lines in {op.out}", None
    return None, (stdout, data)


def _check_verify(op, rc, stdout):
    """Exact checks must pass; the two z-gates may raise a false alarm."""
    lines = stdout.splitlines()
    if not lines or lines[-1] not in ("overall PASS", "overall FAIL"):
        return f"exit {rc}, no overall verdict", None
    overall = lines[-1] == "overall PASS"
    for line in lines[:-1]:
        status, name, res, thr = line.split()
        residual = float(res.partition("=")[2])
        threshold = float(thr.partition("=")[2])
        if status == "FAIL" and name not in VERIFY_Z_GATES:
            return f"check {name} failed: {line}", None
        if name in VERIFY_Z_GATES and (status == "PASS") != (residual <= threshold):
            return f"verdict disagrees with residual: {line}", None
    if rc != (0 if overall else 1) or len(lines) != 15:
        return f"exit {rc} with {lines[-1]!r} after {len(lines) - 1} checks", None
    with open(op.out, "rb") as fh:
        data = fh.read()
    if json.loads(data)["pass"] != overall:
        return "report file disagrees with stdout", None
    return None, (stdout, data)


CHECKS = {
    "simulate": _check_simulate,
    "collision": _check_collision,
    "capacity-general": _check_capacity_general,
    "sweep": _check_sweep,
    "verify": _check_verify,
}


def check_output(op: Op, rc, stdout: str):
    """(problem or None, normalized output) for one op's exit code and stdout."""
    try:
        return CHECKS[op.kind](op, rc, stdout)
    except (ValueError, KeyError, OSError) as exc:
        return f"unreadable output ({exc!r})", None


def printed_values(op: Op, stdout: str) -> dict:
    """The numbers an op printed that a traced replay must reproduce."""
    if op.kind == "simulate":
        return {"errors": json.loads(stdout.splitlines()[1])["errors"]}
    f = fields(stdout)
    if op.kind == "collision":
        return {"lambda_max_hat": f["lambda_max_hat"]}
    if op.kind == "capacity-general":
        return {k: f[k] for k in ("optimize", "grid") if k in f}
    if op.kind == "sweep":
        return {"rows": int(f["wrote"].split()[0])}
    return {line.split()[1]: line.split()[2].partition("=")[2]
            for line in stdout.splitlines()[:-1]}

"""Outside-in tracing: spans recorded around calls into asymcap's layers.

The traced run replays each workload op through the public functions of
``rng``, ``codec``, ``capacity``, ``info`` and ``verify``.  A call the
replay makes is traced by a wrapper; a call the package makes internally
(the draws inside ``generate_codebooks``, the entropies inside
``identity_residuals``) is traced by swapping the module attribute the
caller looks up for a wrapper while the replay runs.  Source files are
never changed.

Spans stay in memory as parallel lists (name, start, end, parent, op) and
are written out once the run ends.  A span's self time is its duration
minus the durations of its children; a layer's self time is the sum over
its spans, the layer being the span name up to the first dot.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("rng", "codec", "capacity", "info", "verify")
REPLAY = "replay"  # root span of one op's replay; not a layer of the program
PROBE_CALLS = 200  # calls per timing batch of a capacity public function
PROBE_BATCHES = 5


class Tracer:
    """In-memory span recorder with counters beside the timings."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.finish(i)

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(counts, args, result) after."""
        begin, finish, counts = self.begin, self.finish, self.counts

        def traced(*args, **kwargs):
            i = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, name in enumerate(self.name):
                fh.write(json.dumps({
                    "name": name, "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")


@contextlib.contextmanager
def patched(targets):
    """Swap (module, attribute, replacement) triples; restore on exit."""
    saved = []
    try:
        for mod, attr, new in targets:
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def _add(key, fn):
    def count(c, args, out):
        c[key] += fn(args, out)
    return count


def library_targets(tr: Tracer, ac) -> list:
    """Wrappers for every public call the replay makes or the package makes
    internally between layers, in each namespace that looks the name up."""
    plan = {
        "rng": ("derive_seed", "stream", "sample_pmf", "sample_rows"),
        "codec": ("generate_codebooks", "induced_channel", "map_decode",
                  "typicality_decode"),
        "info": ("build_joint_uy", "build_joint_xuyv", "mutual_information",
                 "conditional_entropy", "check_markov", "entropy", "binary_entropy"),
        "capacity": ("capacity_optimize", "capacity_grid", "sweep_capacity_surface"),
        "verify": ("default_grid", "identity_residuals", "corrupted_joint_violation",
                   "sampled_pair_tv", "codebook_iid_zscores"),
    }
    counters = {
        "rng.sample_pmf": _add("rng.sample_pmf.draws", lambda a, out: out.size),
        "rng.sample_rows": _add("rng.sample_rows.draws", lambda a, out: out.size),
        "codec.generate_codebooks": _add("codec.codebook_cells", lambda a, out: a[0] * a[1]),
        "codec.map_decode": _add("codec.map_decode.cells", lambda a, out: a[1].M * a[1].n),
        "capacity.capacity_optimize": _add("capacity.optimize_iterations",
                                           lambda a, out: out.iterations),
        "capacity.capacity_grid": _add("capacity.grid_points", lambda a, out: out.iterations),
        "verify.sampled_pair_tv": _add("verify.samples", lambda a, out: a[2]),
    }
    wrappers = {}
    for layer, names in plan.items():
        home = getattr(ac, layer)
        for attr in names:
            key = f"{layer}.{attr}"
            wrappers[attr] = tr.wrap(key, getattr(home, attr), counters.get(key))
    targets = []
    for mod in (ac.rng, ac.codec, ac.info, ac.capacity, ac.verify):
        for attr, w in wrappers.items():
            # The capacity module's own entropy calls stay untraced: the
            # surface sweep makes thousands and they are not its layer's cost.
            if mod is ac.capacity and attr == "binary_entropy":
                continue
            if hasattr(mod, attr):
                targets.append((mod, attr, w))
    return targets


CLI_ENTRY_POINTS = {
    "run_experiment": "codec.run_experiment",
    "collision_experiment": "codec.collision_experiment",
    "capacity_optimize": "capacity.capacity_optimize",
    "capacity_grid": "capacity.capacity_grid",
    "sweep_capacity_surface": "capacity.sweep_capacity_surface",
    "run_verification": "verify.run_verification",
}


def cli_targets(tr: Tracer, ac) -> list:
    """One level of wrappers: the library calls the CLI module makes."""
    return [(ac.cli, attr, tr.wrap(name, getattr(ac.cli, attr)))
            for attr, name in CLI_ENTRY_POINTS.items()]


# ----------------------------------------------------------------------
# Replays.  Each returns the quantities the program printed, so that the
# replay doubles as an exactness oracle.


def sim_config(codec, cfg: dict):
    """The SimConfig the CLI builds from a simulate op's config."""
    return codec.SimConfig.binary_symmetric(
        n=cfg["n"], M=cfg["messages"], p1=cfg["p1"], p2=cfg["p2"],
        decoder=codec.DECODER_TYPICALITY if cfg["decoder"] == "typ" else codec.DECODER_MAP,
        epsilon=cfg["epsilon"], trials=cfg["trials"],
        codebook_mode=codec.MODE_FIXED if cfg["fixed_codebook"] else codec.MODE_FRESH,
        master_seed=cfg["seed"],
    )


def replay_simulate(tr: Tracer, ac, cfg: dict) -> dict:
    rng, codec = ac.rng, ac.codec
    typ = cfg["decoder"] == "typ"
    with tr.span("codec.SimConfig"):
        sc = sim_config(codec, cfg)
    seed, M, n = sc.master_seed, sc.M, sc.n
    if typ:
        joint = ac.info.build_joint_uy(sc.px, sc.pyx, sc.pux)
    else:
        pyu = codec.induced_channel(sc.px, sc.pyx, sc.pux)
    fixed = None
    if sc.codebook_mode == codec.MODE_FIXED:
        fixed = codec.generate_codebooks(M, n, sc.px, sc.pux, seed)
    chan = sc.pyx.matrix
    begin, finish = tr.begin, tr.finish
    errors = nulls = 0
    for t in range(sc.trials):
        pair = fixed
        if pair is None:
            pair = codec.generate_codebooks(
                M, n, sc.px, sc.pux, rng.derive_seed(seed, t, rng.TAG_CODEBOOK))
        i = begin("codec.channel")
        w = int(rng.stream(rng.derive_seed(seed, t, rng.TAG_MESSAGE)).integers(M))
        y = rng.sample_rows(rng.stream(rng.derive_seed(seed, t, rng.TAG_CHANNEL)),
                            chan, pair.cx[w])
        finish(i)
        if typ:
            w_hat = codec.typicality_decode(y, pair, sc.epsilon, joint)
            nulls += w_hat == 0
        else:
            w_hat = codec.map_decode(y, pair, pyu)
        errors += w_hat != w + 1
    tr.counts["rng.message.draws"] += sc.trials
    tr.counts["codec.trials"] += sc.trials
    tr.counts["codec.errors"] += errors
    tr.counts["codec.typicality_nulls"] += nulls
    return {"errors": errors}


def replay_collision(ac, cfg: dict) -> dict:
    rng, codec, info = ac.rng, ac.codec, ac.info
    m, seed = cfg["collide"], cfg["seed"]
    px, pyx, pux = info.Pmf.uniform(2), info.bsc(cfg["p1"]), info.bsc(cfg["p2"])
    base = codec.generate_codebooks(cfg["messages"], cfg["n"], px, pux, seed)
    cu = np.array(base.cu)
    cu[:m] = base.cu[0]
    pair = codec.CodebookPair(base.cx, cu, base.seed)
    pyu = codec.induced_channel(px, pyx, pux)
    errs = [0] * m
    sent = [0] * m
    for t in range(cfg["trials"]):
        w = t % m
        y = rng.sample_rows(rng.stream(rng.derive_seed(seed, t, rng.TAG_CHANNEL)),
                            pyx.matrix, pair.cx[w])
        sent[w] += 1
        errs[w] += codec.map_decode(y, pair, pyu) != w + 1
    lam = max(e / s for e, s in zip(errs, sent) if s)
    return {"lambda_max_hat": format(lam, ".10g")}


def replay_capacity_general(ac, matrices) -> dict:
    cap = ac.capacity
    pyx, pux = matrices
    res = cap.capacity_optimize(pyx, pux, cap.SolverOptions(
        grid_resolution=1e-3, restarts=8, convergence_tol=1e-9))
    out = {"optimize": format(res.capacity, ".10g")}
    if pyx.input_size <= 3:
        out["grid"] = format(cap.capacity_grid(pyx, pux, 1e-3).capacity, ".10g")
    return out


def replay_sweep(ac) -> dict:
    step = ac.cli.DEFAULT_SWEEP_GRID_STEP
    grid = np.linspace(0.0, 0.5, round(0.5 / step) + 1)
    return {"rows": len(ac.capacity.sweep_capacity_surface(grid, grid))}


def replay_verify(ac, cfg: dict) -> dict:
    """run_verification's checks through verify's public functions."""
    v = ac.verify
    worst = dict.fromkeys(v.IDENTITY_CHECKS, 0.0)
    grid = v.default_grid(cfg["grid_step"])
    for p1 in grid:
        for p2 in grid:
            for name, r in v.identity_residuals(p1, p2).items():
                worst[name] = max(worst[name], r)
    s1, s2 = v.SAMPLING_POINT
    worst["corrupted_joint_control"] = v.corrupted_joint_violation(s1, s2)
    worst["pairwise_factorization_tv"] = v.sampled_pair_tv(s1, s2, cfg["samples"], cfg["seed"])
    m, n = v.FREQ_CODEBOOK_SHAPE
    z = v.codebook_iid_zscores(s2, m, n, cfg["seed"])
    worst["codebook_symbol_frequency"], worst["codebook_cell_correlation"] = z
    return {name: format(float(r), ".10g") for name, r in worst.items()}


def prepare(ac, op):
    """Inputs a replay reads from files, loaded before its span opens."""
    if op.kind != "capacity-general":
        return None
    load = ac.info.TransitionMatrix.from_file
    return load(op.cfg["channel"]), load(op.cfg["perturb"])


def replay(tr: Tracer, ac, op, prepared) -> dict:
    """Replay one op; returns what the program should have printed."""
    if op.kind == "capacity-general":
        return replay_capacity_general(ac, prepared)
    if op.kind == "simulate":
        return replay_simulate(tr, ac, op.cfg)
    if op.kind == "collision":
        return replay_collision(ac, op.cfg)
    if op.kind == "sweep":
        return replay_sweep(ac)
    if op.kind == "verify":
        return replay_verify(ac, op.cfg)
    raise ValueError(op.kind)


# ----------------------------------------------------------------------
# Probes of capacity's public functions, per call, at each input size.


def probe_capacity(ac, pyx, pux) -> dict:
    cap = ac.capacity
    nx = pyx.input_size
    p = np.full(nx, 1.0 / nx)
    v = p + cap.mutual_information_gradient(p, pyx, pux)
    calls = {
        "simplex_project": lambda: cap.simplex_project(v),
        "mi": lambda: cap.input_mutual_information(p, pyx, pux),
        "gradient": lambda: cap.mutual_information_gradient(p, pyx, pux),
    }
    out = {}
    for key, call in calls.items():
        batches = []
        for _ in range(PROBE_BATCHES):
            t0 = perf_counter()
            for _ in range(PROBE_CALLS):
                call()
            batches.append((perf_counter() - t0) / PROBE_CALLS)
        out[f"capacity.{key}_us.nx{nx}"] = statistics.median(batches) * 1e6
    return out


def pool2_speedup(ac, cfgs) -> tuple[float, bool]:
    """Serial over two-worker wall time for run_experiment, and whether the
    reports agree.  Never asks for more workers than CPUs."""
    codec = ac.codec
    sims = [sim_config(codec, c) for c in cfgs]
    t0 = perf_counter()
    serial = [codec.run_experiment(s) for s in sims]
    t_serial = perf_counter() - t0
    os.environ["ASYMCAP_THREADS"] = str(min(2, os.cpu_count() or 1))
    try:
        t0 = perf_counter()
        pooled = [codec.run_experiment(s) for s in sims]
        t_pool = perf_counter() - t0
    finally:
        del os.environ["ASYMCAP_THREADS"]
    return t_serial / t_pool, serial == pooled


# ----------------------------------------------------------------------
# Per-layer metrics from the recorded spans.


def layer_metrics(tr: Tracer, labels: dict, sections: list, untraced_s: float) -> dict:
    """Every per-layer metric; `labels` maps op id to instance class and
    `sections` lists the replay root span of each op."""
    n = len(tr.name)
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    self_t = list(dur)
    root = list(range(n))
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            self_t[p] -= dur[i]
            root[i] = root[p]
    in_replay = [tr.name[root[i]] == REPLAY and tr.name[i] != REPLAY for i in range(n)]

    total = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(float)
    by_label = defaultdict(list)
    cli_self = 0.0
    for i in range(n):
        name = tr.name[i]
        if in_replay[i]:
            total[name] += dur[i]
            calls[name] += 1
            layer_self[name.partition(".")[0]] += self_t[i]
            if name == "capacity.capacity_optimize":
                by_label[labels.get(tr.op[i], "")].append(dur[i])
        elif name == "cli.main":
            cli_self += self_t[i]
        elif root[i] != i and tr.name[root[i]] == "cli.main":
            total["cli:" + name] += dur[i]
    c = tr.counts

    def per(name, scale, base=None):
        k = calls[name] if base is None else base
        return total[name] / k * scale if k else 0.0

    replay_wall = sum(dur[i] for i in sections)
    draws_rows = c["rng.sample_rows.draws"]
    draws_pmf = c["rng.sample_pmf.draws"]
    trials = c["codec.trials"]
    m = {
        "rng.derive_seed_us": per("rng.derive_seed", 1e6),
        "rng.stream_us": per("rng.stream", 1e6),
        "rng.stream_calls": calls["rng.stream"],
        "rng.sample_rows_ns_per_draw": per("rng.sample_rows", 1e9, draws_rows),
        "rng.sample_pmf_ns_per_draw": per("rng.sample_pmf", 1e9, draws_pmf),
        "rng.draws": draws_rows + draws_pmf + c["rng.message.draws"],
        "codec.codebook_s": total["codec.generate_codebooks"],
        "codec.codebook_us_per_call": per("codec.generate_codebooks", 1e6),
        "codec.codebook_cells": c["codec.codebook_cells"],
        # Computed, not measured: cx and cu, two int64 M x n arrays per call.
        "codec.codebook_bytes_computed": 16 * c["codec.codebook_cells"],
        "codec.channel_s": total["codec.channel"],
        "codec.map_decode_s": total["codec.map_decode"],
        "codec.map_decode_us_per_call": per("codec.map_decode", 1e6),
        # Computed: cu, the cell index and its row offset, int64 M x n each.
        "codec.map_decode_bytes_computed": 24 * c["codec.map_decode.cells"],
        "codec.typicality_decode_us_per_call": per("codec.typicality_decode", 1e6),
        "codec.typicality_null_ratio": (c["codec.typicality_nulls"] / calls["codec.typicality_decode"]
                                        if calls["codec.typicality_decode"] else 0.0),
        "codec.decode_success_ratio": 1.0 - c["codec.errors"] / trials if trials else 0.0,
        "codec.trials": trials,
        "codec.collision_s": total["cli:codec.collision_experiment"],
        "capacity.optimize_iterations": c["capacity.optimize_iterations"],
        "capacity.grid_ms": per("capacity.capacity_grid", 1e3),
        "capacity.grid_points": c["capacity.grid_points"],
        "capacity.surface_ms": total["capacity.sweep_capacity_surface"] * 1e3,
        "verify.identity_ms_per_point": per("verify.identity_residuals", 1e3),
        "verify.grid_points": calls["verify.identity_residuals"],
        "verify.sampled_pair_tv_s": total["verify.sampled_pair_tv"],
        "verify.samples": c["verify.samples"],
        "verify.codebook_iid_s": total["verify.codebook_iid_zscores"],
        "verify.control_ms": total["verify.corrupted_joint_violation"] * 1e3,
        "info.build_joint_xuyv_us": per("info.build_joint_xuyv", 1e6),
        "info.conditional_entropy_us": per("info.conditional_entropy", 1e6),
        "info.check_markov_us": per("info.check_markov", 1e6),
        "info.mutual_information_us": per("info.mutual_information", 1e6),
        "cli.overhead_s": cli_self,
        "trace.coverage": (replay_wall - sum(self_t[i] for i in sections)) / replay_wall
        if replay_wall else 0.0,
        "trace.overhead_s": replay_wall - untraced_s,
        "trace.spans": n,
    }
    for label in ("bsc", "nx2", "nx3", "nx4", "nx8"):
        d = by_label.get(label, [])
        m[f"capacity.optimize_ms.{label}"] = sum(d) / len(d) * 1e3 if d else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def untraced_library_s(tr: Tracer) -> float:
    """Summed duration of the library calls the CLI made during the traced
    pass: the untraced counterpart of the replay sections."""
    total = 0.0
    for i, name in enumerate(tr.name):
        p = tr.parent[i]
        if p >= 0 and tr.name[p] == "cli.main":
            total += tr.end[i] - tr.start[i]
    return total

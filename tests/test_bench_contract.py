"""The package names and outputs the benchmark's traced run depends on.

`bench/run.py --trace 1` wraps package functions by name and replays each
op through the library, comparing what the replay returns with what the
CLI printed.  These tests only read `bench/`: they fail when a change to
the package removes or renames something that run needs, or prints an
output that the benchmark's checks reject.
"""

import hashlib
import re
import types
from pathlib import Path

import pytest

import asymcap.capacity
import asymcap.cli
import asymcap.codec
import asymcap.info
import asymcap.rng
import asymcap.verify
from asymcap.cli import main

from gates import load_bench

tracing = load_bench("tracing")
workloads = load_bench("workloads")


@pytest.fixture
def ac():
    """The package namespace bench/run.py hands to the tracing module."""
    return types.SimpleNamespace(
        cli=asymcap.cli, rng=asymcap.rng, codec=asymcap.codec, info=asymcap.info,
        capacity=asymcap.capacity, verify=asymcap.verify,
    )


def test_library_targets_resolve(ac):
    # getattr on every name the traced run wraps: a missing one raises
    assert tracing.library_targets(tracing.Tracer(), ac)


def test_cli_targets_resolve(ac):
    targets = tracing.cli_targets(tracing.Tracer(), ac)
    assert [attr for _, attr, _ in targets] == list(tracing.CLI_ENTRY_POINTS)


def test_capacity_general_replay_matches_cli(ac, capsys, tmp_path):
    pool = workloads.make_inputs("capacity", 0, str(tmp_path))
    op = next(op for op in pool[0] if op.label == "nx3")
    rc = main(list(op.argv))
    stdout = capsys.readouterr().out
    assert workloads.check_output(op, rc, stdout)[0] is None
    tr = tracing.Tracer()
    with tracing.patched(tracing.library_targets(tr, ac)):
        got = tracing.replay(tr, ac, op, tracing.prepare(ac, op))
    want = workloads.printed_values(op, stdout)
    assert set(want) == {"optimize", "grid"}
    assert got == want
    assert "capacity.capacity_grid" in tr.name


# sha256 over every pass-0 op's stdout and output file at seed 0, in op
# order, with the run directory written as <tmp> and "elapsed_seconds"
# dropped.  Any moved byte must be explained.  No pinned product calls BLAS
# (info._mix), so the digests hold under any OpenBLAS kernel
# (test_portability); they still need numpy's X86_V4 (AVX-512) dispatch,
# whose log2 takes other bits than its AVX2 and SSE paths.
WORKLOAD_DIGESTS = {
    "capacity": "3c6020f4251f09fc82c2432d615363810d1fe22f839111e2156aa1dc9a0adeeb",
    "mc_short": "445bc406e3d3e93135c87cf95ea065440154221cc5f9e81e18714bdd728cc2e1",
    "mc_wide": "ece1a75120ce77705284cc00cda5485a919a88240e1718ff6bcf3916597f88e4",
    "verify": "5c65ca942a62b7e9b53e4b146f8303adf3b5f721706d794ecf70bf4cd209d6b7",
}


def _normalized(text, tmp_path):
    text = text.replace(str(tmp_path), "<tmp>")
    return re.sub(r', "elapsed_seconds": [^,}]+', "", text).encode()


@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_workload_outputs_pass_the_bench_checks(capsys, tmp_path, workload):
    # the check the benchmark applies to every op it runs: a problem here is
    # an op it would count as failed
    digest = hashlib.sha256()
    for op in workloads.make_inputs(workload, 0, str(tmp_path))[0]:
        rc = main(list(op.argv))
        out = capsys.readouterr().out
        assert workloads.check_output(op, rc, out)[0] is None, (op.label, out)
        digest.update(_normalized(out, tmp_path))
        if op.out is not None:
            digest.update(_normalized(Path(op.out).read_text(encoding="utf-8"), tmp_path))
    assert digest.hexdigest() == WORKLOAD_DIGESTS[workload]

"""The benchmark's own tests: the oracles agree with bellkit on known cases and
reject deliberately wrong results, the tracer derives self time correctly,
and the runner refuses a directory without sources.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from bellkit import lhvt  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CheckFailed  # noqa: E402

CANONICAL = [
    (lhvt.grid30_scenario(), "agreement", "max", lhvt.max_agreement_30grid),
    (lhvt.grid120_scenario(), "agreement", "min", lhvt.min_agreement_120grid),
    (lhvt.electron_scenario(), "antiparallel", "min", lhvt.min_antiparallel_electron),
]


@pytest.mark.parametrize("spec, score, direction, bound_fn", CANONICAL)
def test_oracle_matches_published_bounds(spec, score, direction, bound_fn):
    hits, _ = oracle.brute_force(spec)
    best, count = oracle.bound(hits, len(spec.runs), score, direction)
    bound = bound_fn()
    assert oracle.strategy_count(spec) == len(lhvt.enumerate_strategies(spec))
    assert (best, count) == (bound.value, len(bound.optimizers))


def test_oracle_counts_match_every_scenario():
    specs = [lhvt.hardy_scenario(), lhvt.ghz_scenario(), lhvt.chsh_scenario(0, 45, 22.5, 67.5)]
    for spec in specs + [c[0] for c in CANONICAL]:
        assert oracle.strategy_count(spec) == len(lhvt.enumerate_strategies(spec))


def test_oracle_mixture_matches_lhvt():
    spec = lhvt.grid30_scenario()
    w = np.random.default_rng(3).dirichlet(np.ones(oracle.strategy_count(spec)))
    _, mix = oracle.brute_force(spec, w.tolist())
    assert np.allclose(mix, lhvt.exact_mixture_correlations(spec, w), atol=1e-12)


# --- each workload's check rejects a wrong result -----------------------------


def test_paper_check_rejects_wrong_output():
    w = workloads.Paper(1)
    ops = {op.kind: op for op in w.round()}
    good = {kind: w.run(op) for kind, op in ops.items()}
    for kind, op in ops.items():
        w.check(op, good[kind])

    rc, out, err = good["report"]
    with pytest.raises(CheckFailed):
        w.check(ops["report"], (rc, out.replace('"bound_max": 2.0', '"bound_max": 2.5'), err))
    with pytest.raises(CheckFailed):
        w.check(ops["report"], (rc, out.replace('"violation"', '"consistent"', 1), err))
    with pytest.raises(CheckFailed):
        w.check(ops["lhvt"], (0, "verdict: consistent\n", ""))
    with pytest.raises(CheckFailed):
        w.check(ops["pair"], (1, good["pair"][1], "boom"))
    rc, out, err = good["pair"]
    corr = next(line for line in out.splitlines() if line.startswith("correlation"))
    with pytest.raises(CheckFailed):
        w.check(ops["pair"], (rc, out.replace(corr, "correlation 0.123456"), err))
    rc, out, err = good["sweep"]
    line = next(x for x in out.splitlines() if x.startswith("90,"))
    with pytest.raises(CheckFailed):
        w.check(ops["sweep"], (rc, out.replace(line, "90,-0.999999"), err))
    rc, out, err = good["chsh_mc"]
    line = next(x for x in out.splitlines() if x.strip().startswith("run "))
    wrong = line.replace(line.split("mean ")[1].split()[0], "0.900000")
    with pytest.raises(CheckFailed):
        w.check(ops["chsh_mc"], (rc, out.replace(line, wrong), err))


def test_quantum_check_rejects_wrong_output():
    w = workloads.Quantum(1)
    op = w.round()[0]
    good = w.run(op)
    w.check(op, good)

    def rejected(mutate):
        d = copy.deepcopy(good)
        mutate(d)
        with pytest.raises(CheckFailed):
            w.check(op, d)

    def shift_pair(d):  # move mass from disagreement to agreement: wrong correlation
        rows = [list(r) for r in d["pair"][0]]
        rows[0][1] += 0.01
        rows[1][1] -= 0.01
        d["pair"][0] = tuple(tuple(r) for r in rows)

    def signal(d):  # party 1's marginal now depends on party 2's setting
        rows = [list(r) for r in d["hardy"][1]]
        rows[0][1] += 0.01
        rows[2][1] -= 0.01
        d["hardy"][1] = tuple(tuple(r) for r in rows)

    rejected(shift_pair)
    rejected(signal)
    rejected(lambda d: d.update(chsh=(3.0, d["chsh"][1])))
    rejected(lambda d: d.update(chsh_quoted=(2.8, d["chsh_quoted"][1])))
    rejected(lambda d: d.update(ghz=d["ghz"][:3] + ("even" if d["ghz"][3] == "odd" else "odd",)))
    rejected(lambda d: d.update(transmission=(d["transmission"][0] + 1e-9, d["transmission"][1])))
    rejected(lambda d: d.update(spin1=(d["spin1"][0], d["spin1"][1] * 1j)))


def test_enumerate_check_rejects_wrong_output():
    w = workloads.Enumerate(1)
    op = w.make_op("flip64")
    good = w.run(op)
    w.check(op, good)

    def rejected(**change):
        with pytest.raises(CheckFailed):
            w.check(op, {**good, **change})

    rejected(count=good["count"] * 2)
    rejected(bound=good["bound"] + Fraction(1, len(op.args[0].runs)))
    rejected(bound=float(good["bound"]))
    rejected(optimizers=good["optimizers"] + 1)
    rejected(mixture=[x + 1e-6 for x in good["mixture"]])
    counts, means, errors, exact = good["mc"]
    far = tuple(m + 6 * s + 1e-6 for m, s in zip(means, errors))
    rejected(mc=(counts, far, errors, exact))


@pytest.mark.parametrize("kind", sorted(set(workloads.ENUMERATE_ROUND)))
def test_enumerate_specs_are_valid(kind):
    spec, score, direction = workloads.make_spec(kind, random.Random(5))
    free = {"flip64": 6, "tri3": 9, "pair5": 10, "pair6": 12,
            "flip4096": 12, "tri4": 12, "pair7": 14}[kind]
    assert oracle.strategy_count(spec) == 2**free
    assert len(set(spec.runs)) == len(spec.runs)


# --- tracing ------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    t = Tracer()
    a = t._name_id("lhvt.x", "lhvt")
    b = t._name_id("tensor.y", "tensor")
    # root [0, 10] > lhvt [1, 9] > two tensor spans [2, 4] and [5, 6]
    for name, start, end, parent in ((t._root, 0, 10, -1), (a, 1, 9, 0), (b, 2, 4, 1),
                                     (b, 5, 6, 1)):
        t.span_name.append(name)
        t.span_start.append(start)
        t.span_end.append(end)
        t.span_parent.append(parent)
    layer_self, _, inclusive = t.self_times()
    assert layer_self == {"bench": 2.0, "lhvt": 5.0, "tensor": 3.0}
    assert inclusive["lhvt"] == 8.0 and inclusive["tensor"] == 3.0


def run_worker(*flags):
    argv = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), *flags]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env={"PATH": "/usr/bin:/bin", "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_worker_reports_layers():
    out = run_worker("--workload", "quantum", "--seed", "2", "--seconds", "0.05", "--trace")
    layers = out["layers"]
    assert out["failed"] == 0 and out["warmup_failed"] == 0
    assert layers["experiments.distributions"] == workloads.Quantum.DISTRIBUTIONS_PER_BATCH
    assert layers["tensor.calls"] > 0 and layers["tensor.self_s"] > 0
    assert layers["spin.calls"] > 0 and layers["polarization.calls"] > 0
    assert layers["lhvt.strategies"] == 0
    per_op = out["op_time"] / len(out["latencies"])
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total <= per_op * 1.001


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

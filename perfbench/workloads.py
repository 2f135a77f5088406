"""The benchmark's workloads: job lists made from a seed, the check of
every job's output, and the gates each run passes once.

A job's `run` is timed; its `check` and the gates are not.  `check`
returns a fingerprint of the output, so the harness can also require
every repetition of a job to give the same numbers.  Each workload is a
closed loop with one caller: jobs run one after another, and the CLI is
called in-process with its default flags (`--workers` is never passed).
A workload is made of two of the parts defined here.

Where a parameter sets how much work a job does (lambda_x sets the
multiset cap and so the sector count), it is fixed and the seed draws
the other parameters, so that every seed asks for the same amount of
work.  See README.md for why each workload exists.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cvpbt import bounds, cli, fock, nport, two_port

PIN_TOL = 1e-9  # tests/data pins
PATH_TOL = 1e-10  # closed form against the generic sector channel
TMSV_IN = str(1 / 3)
KINDS = ("bell2", "bell3", "tmsv")

# Grid and problem sizes: "full" is what the benchmark measures, "smoke" is
# a reduced copy of the same job list for the benchmark's own tests.
SIZES = {
    "full": {
        "sweep3_grid": 3,
        "generic": ((4, 0.45, 3), (5, 0.3, 2)),  # ports, lambda_x, tmsv levels
        "oracle": ((2, 40), (3, 16), (4, 9)),  # ports, cutoff D
        "energy_grid": 50,
        "sweep2_grid": 24,
        "lossy_points": 101,
        "lossy_negative_points": 21,
        "sim_points": 29,
        "coherent_cutoff": 40,
        "library_inputs": 40,
    },
    "smoke": {
        "sweep3_grid": 2,
        "generic": ((4, 0.2, 2),),
        "oracle": ((2, 12), (3, 6)),
        "energy_grid": 4,
        "sweep2_grid": 3,
        "lossy_points": 3,
        "lossy_negative_points": 2,
        "sim_points": 3,
        "coherent_cutoff": 10,
        "library_inputs": 2,
    },
}

# Largest lambda per oracle cutoff D with lambda^(2D) far below the 1e-6
# tolerance, for lambda_x and lambda_y alike, so that exit code 4 means a
# real disagreement and not truncation.
ORACLE_LAMBDA = {40: (0.4, 0.65), 16: (0.3, 0.45), 12: (0.3, 0.45), 9: (0.2, 0.3), 6: (0.1, 0.15)}


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    points: int
    part: str = ""


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    gates: list[tuple[str, Callable[[], None]]] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return sum(job.points for job in self.jobs)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _range(lo: float, hi: float, count: int) -> str:
    return f"{_fmt(lo)}:{_fmt(hi)}:{count}"


def _within(lo: float, hi: float, values, what: str) -> None:
    for v in values:
        _require(math.isfinite(v) and lo <= v <= hi, f"{what} {v!r} outside [{lo}, {hi}]")


class _Cli:
    """Builds CLI jobs that write into the run's temporary directory."""

    def __init__(self, outdir: Path):
        self.outdir = outdir

    def job(self, name: str, argv: list[str], rows: int, check_table=None) -> Job:
        out = self.outdir / f"{name}.csv"

        def run():
            return cli.main(argv + ["--out", str(out)])

        def check(code):
            _require(code == cli.EXIT_OK, f"exit code {code}")
            table = cli.read_table(str(out))
            _require(len(table.rows) == rows, f"{len(table.rows)} rows, expected {rows}")
            values = [v for row in table.rows for v in row if v is not None]
            _require(all(math.isfinite(v) for v in values), "non-finite value in output")
            if check_table is not None:
                check_table(table)
            return [tuple(row) for row in table.rows]

        return Job(name, run, check, rows)

    def table(self, name: str):
        return cli.read_table(str(self.outdir / f"{name}.csv"))


def _column(table, name: str) -> list:
    i = table.columns.index(name)
    return [row[i] for row in table.rows]


def _fidelities_in_range(table) -> None:
    _within(0.0, 1.0 + 1e-12, _column(table, "fidelity"), "fidelity")


def _fidelity_argv(kind: str, ports: int, lx_range: str, ly_range: str) -> list[str]:
    argv = ["fidelity-sweep", "--input", kind, "--ports", str(ports),
            "--lambda-x-range", lx_range, "--lambda-y-range", ly_range]
    if kind == "tmsv":
        argv += ["--lambda-in", TMSV_IN]
    return argv


# ---------------------------------------------------------------------------
# gates shared by the sweep workloads
# ---------------------------------------------------------------------------


def _load_pin(root: Path, name: str) -> dict:
    with open(root / "tests" / "data" / name, encoding="utf-8") as fh:
        return json.load(fh)


def _pin_gate(root: Path, clis: _Cli, pin_name: str, lambda_x_rows=None):
    """Run the CLI on a pinned table's own grid and compare to the pin.

    The pin is only read.  With `lambda_x_rows`, only those rows of the
    pinned grid are run, one CLI call each.
    """

    def gate():
        pin = _load_pin(root, pin_name)
        md = pin["metadata"]
        if md["command"] == "bounds":
            calls = [["bounds", "--kind", md["kind"], "--lambda-x", repr(md["lambda_x"]),
                      "--lambda-y", repr(md["lambda_y"]), "--delta-range", md["delta_range"]]]
            want = [pin["rows"]]
        else:
            argv = lambda lx_range: (
                _fidelity_argv(md["input"], md["ports"], lx_range, md["lambda_y_range"])
                + (["--cutoff", str(md["output_cutoff"])] if md["input"] == "tmsv" else [])
            )
            if lambda_x_rows is None:
                calls = [argv(md["lambda_x_range"])]
                want = [pin["rows"]]
            else:
                calls = [argv(f"{lx!r}:{lx!r}:1") for lx in lambda_x_rows]
                want = [[r for r in pin["rows"] if r[0] == lx] for lx in lambda_x_rows]
        for i, (call, rows) in enumerate(zip(calls, want)):
            name = f"pin-{pin_name}-{i}"
            out = clis.outdir / f"{name}.csv"
            code = cli.main(call + ["--out", str(out)])
            _require(code == cli.EXIT_OK, f"{pin_name}: exit code {code}")
            got = cli.read_table(str(out)).rows
            _require(len(got) == len(rows) and rows, f"{pin_name}: {len(got)} rows, pin has {len(rows)}")
            for g, w in zip(got, rows):
                same = all(a == b if a is None or b is None else abs(a - b) <= PIN_TOL for a, b in zip(g, w))
                _require(same and len(g) == len(w), f"{pin_name}: row {g} differs from the pin {w}")

    return gate


def _generic_agreement_gate(clis: _Cli, rng: random.Random, ports: int, cap=None, max_lambda_x=1.0):
    """Recompute one seeded row of each fidelity table of the timed run with
    the generic `NPortChannel` and require agreement to PATH_TOL."""

    def gate():
        for kind in KINDS:
            table = clis.table(f"sweep{ports}-{kind}")
            rows = [r for r in table.rows if r[0] <= max_lambda_x]
            lx, ly, fid = rng.choice(rows)[:3]
            params = two_port.ChannelParams(lx, ly, ports=ports)
            levels = table.metadata.get("output_cutoff")
            ref, _ = nport.input_output_fidelity(
                kind, params, lambda_in=float(TMSV_IN), levels=levels,
                channel=nport.NPortChannel(params, cap),
            )
            _require(abs(ref - fid) <= PATH_TOL,
                     f"{kind} at ({lx}, {ly}): CLI {fid!r}, generic {ref!r}")

    return gate


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def sweep3(rng: random.Random, clis: _Cli, root: Path, size: dict) -> Workload:
    n = size["sweep3_grid"]
    lx_range = _range(0.15, 0.75, n)
    ly_range = _range(rng.uniform(0.15, 0.25), rng.uniform(0.65, 0.75), n)
    jobs = [
        clis.job(f"sweep3-{kind}", _fidelity_argv(kind, 3, lx_range, ly_range), n * n, _fidelities_in_range)
        for kind in KINDS
    ]
    pinned_x = [0.15, 0.3, 0.44999999999999996, 0.6, 0.75]  # linspace(0.15, 0.75, 5)
    gates = [
        (f"pin {kind} ports3", _pin_gate(root, clis, f"fidelity_{kind}_ports3.json", [rng.choice(pinned_x)]))
        for kind in KINDS
    ]
    gates.append(("closed form = generic, 3 ports", _generic_agreement_gate(clis, rng, ports=3)))
    return Workload("sweep3", jobs, gates, {"lambda_x_range": lx_range, "lambda_y_range": ly_range})


def generic(rng: random.Random, clis: _Cli, root: Path, size: dict) -> Workload:
    jobs, inputs = [], {}
    for ports, lx, levels in size["generic"]:
        params = two_port.ChannelParams(lx, round(rng.uniform(0.35, 0.65), 6), ports=ports)
        inputs[f"N={ports}"] = {"lambda_x": lx, "lambda_y": params.lambda_y, "tmsv_levels": levels}

        def run(params=params, levels=levels):
            channel = nport.NPortChannel(params)
            bell, _ = nport.input_output_fidelity("bell2", params, channel=channel)
            tmsv, _ = nport.input_output_fidelity(
                "tmsv", params, lambda_in=float(TMSV_IN), levels=levels, channel=channel
            )
            return channel, bell, tmsv

        def check(result, levels=levels):
            channel, bell, tmsv = result
            _within(0.0, 1.0 + 1e-12, (bell, tmsv), "fidelity")
            for a in range(levels):
                lost = abs(float(channel.diagonal_profile(a, 12).sum()) - 1.0)
                _require(lost <= channel.tail_bound(12) + 1e-10,
                         f"|a={a}> loses {lost:.3e} of its trace, beyond the declared tail")
            return bell, tmsv

        jobs.append(Job(f"generic-N{ports}", run, check, 1))
    return Workload("generic", jobs, [], inputs)


def oracle(rng: random.Random, clis: _Cli, root: Path, size: dict) -> Workload:
    jobs, inputs = [], {}
    for ports, d in size["oracle"]:
        lo, hi = ORACLE_LAMBDA[d]
        lx, ly = (round(rng.uniform(lo, hi), 6) for _ in range(2))
        inputs[f"N={ports},D={d}"] = {"lambda_x": lx, "lambda_y": ly}
        argv = ["oracle-verify", "--ports", str(ports), "--lambda-x", _fmt(lx),
                "--lambda-y", _fmt(ly), "--cutoff", str(d)]

        def verified(table):
            md = table.metadata
            _require(md.get("passed") is True, f"max deviation {md.get('max_deviation')!r}")

        jobs.append(clis.job(f"oracle-N{ports}-D{d}", argv, 16, verified))
    return Workload("oracle", jobs, [], inputs)


def closed2(rng: random.Random, clis: _Cli, root: Path, size: dict) -> Workload:
    u = rng.uniform
    n_energy, n_sweep = size["energy_grid"], size["sweep2_grid"]
    energy_x = _range(u(0.1, 0.15), u(0.75, 0.8), n_energy)
    energy_y = _range(u(0.1, 0.15), u(0.75, 0.8), n_energy)
    sweep_x = _range(u(0.15, 0.2), u(0.7, 0.75), n_sweep)
    sweep_y = _range(u(0.15, 0.2), u(0.7, 0.75), n_sweep)
    # lambda boxes that lie wholly inside one regime each
    pos_x, pos_y = _fmt(u(0.55, 0.65)), _fmt(u(0.55, 0.65))
    neg_x, neg_y = _fmt(u(0.25, 0.35)), _fmt(u(0.15, 0.25))
    sim_base = _fmt(u(0.82, 0.85))
    alpha = complex(round(u(0.3, 1.2), 6), round(u(-0.5, 0.5), 6))
    n_lossy, n_neg, n_sim = size["lossy_points"], size["lossy_negative_points"], size["sim_points"]
    d = size["coherent_cutoff"]

    def nonnegative(column, top=math.inf):
        return lambda table: _within(0.0, top, _column(table, column), column)

    def trace_within_deficit(table):
        md = table.metadata
        _require(abs(md["trace"] - 1.0) <= md["trace_deficit"] + 1e-10,
                 f"trace {md['trace']!r} beyond deficit {md['trace_deficit']!r}")

    jobs = [
        clis.job("energy", ["energy", "--lambda-x-range", energy_x, "--lambda-y-range", energy_y],
                 n_energy**2, nonnegative("max_energy")),
        *[clis.job(f"sweep2-{kind}", _fidelity_argv(kind, 2, sweep_x, sweep_y), n_sweep**2, _fidelities_in_range)
          for kind in KINDS],
        clis.job("lossy-positive", ["bounds", "--kind", "lossy", "--lambda-x", pos_x, "--lambda-y", pos_y,
                                    "--energy-range", _range(0, u(4, 6), n_lossy)], n_lossy, nonnegative("bound", 2.0)),
        # the negative-regime envelope is a valid but loose bound that can pass 2
        clis.job("lossy-negative", ["bounds", "--kind", "lossy", "--lambda-x", neg_x, "--lambda-y", neg_y,
                                    "--energy-range", _range(0, u(4, 6), n_neg)], n_neg, nonnegative("bound")),
        clis.job("edrc", ["bounds", "--kind", "edrc", "--lambda-x", pos_x, "--lambda-y", pos_y],
                 1, nonnegative("diamond_norm", 2.0)),
        clis.job("sim", ["bounds", "--kind", "sim", "--lambda-x", sim_base, "--lambda-y", sim_base,
                         "--delta-range", _range(0, u(0.2, 0.28), n_sim)], n_sim, nonnegative("bound")),
        clis.job("coherent", ["twoport-coherent", "--lambda-x", pos_x, "--lambda-y", pos_y,
                              "--alpha", str(alpha), "--cutoff", str(d)], d * d, trace_within_deficit),
    ]

    params = two_port.ChannelParams(float(pos_x), float(pos_y))
    alphas = [complex(u(-1.5, 1.5), u(-1.5, 1.5)) for _ in range(size["library_inputs"])]

    def library():
        cutoff = fock.Cutoff(d)
        edrc = bounds.EdrcParams.matched(params)
        out = []
        for a in alphas:
            channel_out = two_port.apply_coherent(a, params, cutoff)
            replaced = bounds.edrc_apply(a, edrc, cutoff)
            out.append((
                fock.trace_norm(channel_out.matrix - replaced.matrix),
                fock.fidelity(channel_out, replaced),
                channel_out.trace(), channel_out.trace_deficit,
            ))
        return out

    def check_library(out):
        for distance, fid, trace, deficit in out:
            _within(0.0, 2.0, (distance,), "trace distance")
            _within(0.0, 1.0 + 1e-9, (fid,), "fidelity")
            _require(abs(trace - 1.0) <= deficit + 1e-10, f"trace {trace!r} beyond deficit {deficit!r}")
        return out

    jobs.append(Job("library", library, check_library, len(alphas)))
    gates = [(f"pin {kind} ports2", _pin_gate(root, clis, f"fidelity_{kind}_ports2.json")) for kind in KINDS]
    gates.append(("pin sim bound", _pin_gate(root, clis, "sim_bound_sweep.json")))
    # cap 40 leaves a remainder of order lambda_x^82, far below the tolerance
    # only for lambda_x <= 0.6; the unit tests compare at lambda_x = 0.5
    gates.append(("closed form = generic at cap 40, 2 ports",
                  _generic_agreement_gate(clis, rng, ports=2, cap=40, max_lambda_x=0.6)))
    inputs = {"energy": [energy_x, energy_y], "sweep2": [sweep_x, sweep_y], "positive": [pos_x, pos_y],
              "negative": [neg_x, neg_y], "sim_base": sim_base, "alpha": str(alpha)}
    return Workload("closed2", jobs, gates, inputs)


PARTS = {"sweep3": sweep3, "closed2": closed2, "oracle": oracle, "generic": generic}

# Each workload runs two parts back to back.  Run alone in 20 s runs, the
# `sweep3` part's run-to-run spread reached the 0.25 bound on a shared
# 2-vCPU machine whose speed drifts; paired, each workload measures more
# work per run.  Each optimisation still has one workload that exercises it
# and one that bypasses it: closed forms and the CLI pool run in
# `closed_forms`, sector construction and the oracle in `sectors_oracle`.
WORKLOADS = {"closed_forms": ("sweep3", "closed2"), "sectors_oracle": ("oracle", "generic")}


def make(name: str, seed: int, outdir: Path, root: Path, size: str = "full") -> Workload:
    clis = _Cli(outdir)
    parts = [PARTS[part](random.Random(f"{part}:{seed}"), clis, root, SIZES[size]) for part in WORKLOADS[name]]
    for part in parts:
        for job in part.jobs:
            job.part = part.name
    return Workload(
        name,
        [job for part in parts for job in part.jobs],
        [gate for part in parts for gate in part.gates],
        {part.name: part.inputs for part in parts},
    )

"""Batch command-line front end.

Subcommands produce machine-readable tables (CSV or JSON) for parameter
sweeps, bound curves, fidelity surfaces, and protocol-level verification
runs.  Output is deterministic apart from a timestamp isolated in the
metadata block.

Exit codes: 0 success, 2 validation error, 3 resource budget exceeded,
4 tolerance failure in a verification run.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import functools
import io
import json
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import __version__, bounds, fock, nport, oracle, two_port

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_TOLERANCE = 4

# Declared sizes of the inputs, refused by `oracle.require_memory` before
# anything is allocated: per table, the CLI's own allocations at any size;
# per table value, its Python row and its share of the written text; per grid
# point, the closed-form level sums behind its row; per bound row, the bound's
# own per-energy work; for the negative-regime lossy bound, its envelope's
# float arrays over bounds.GRID_POINTS samples; per entry of a levels x levels
# channel array, the array and its temporaries.
_TABLE_BYTES = 1 << 18
_CELL_BYTES = {"csv": 160, "json": 320}
_POINT_BYTES = 320
_BOUND_ROW_BYTES = 64
_ENVELOPE_BYTES = 16 * 8 * bounds.GRID_POINTS
_ENTRY_BYTES = 64


@dataclass
class ResultTable:
    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def finalize(self) -> "ResultTable":
        self.metadata.setdefault("tool_version", __version__)
        self.metadata.setdefault(
            "timestamp", datetime.datetime.now(datetime.timezone.utc).isoformat()
        )
        return self

    def to_json_dict(self) -> dict:
        return {
            "format": "cvpbt-result-table",
            "version": 1,
            "metadata": self.metadata,
            "columns": list(self.columns),
            "rows": [[None if v is None else float(v) for v in row] for row in self.rows],
        }

    def write(self, path: str, fmt: str):
        if fmt == "json":
            text = json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"
        elif fmt == "csv":
            buf = io.StringIO()
            buf.write("# cvpbt-result-table v1\n")
            for key in sorted(self.metadata):
                buf.write(f"# {key}={json.dumps(self.metadata[key], sort_keys=True)}\n")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(["" if v is None else format(float(v), ".17g") for v in row])
            text = buf.getvalue()
        else:
            raise ValueError(f"unknown format {fmt!r}")
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def read_table(path: str) -> ResultTable:
    """Load a table written by `ResultTable.write` (either format)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return ResultTable(doc["columns"], doc["rows"], doc["metadata"])
    metadata = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("# ") and "=" in line:
            key, _, raw = line[2:].partition("=")
            try:
                metadata[key] = json.loads(raw)
            except json.JSONDecodeError:
                metadata[key] = raw
        elif line.startswith("#"):
            continue
        else:
            body.append(line)
    reader = csv.reader(body)
    columns = next(reader)
    rows = [[None if v == "" else float(v) for v in row] for row in reader if row]
    return ResultTable(columns, rows, metadata)


def result_table_schema() -> dict:
    with resources.files("cvpbt").joinpath("schema/result_table.schema.json").open() as fh:
        return json.load(fh)


def _require_table(args, rows: int, columns: int, row_bytes: int = 0, work_bytes: int = 0):
    """Refuse a table of `rows` rows of `columns` values, plus `row_bytes` of
    work per row and `work_bytes` of work besides, whose declared size
    exceeds the memory budget."""
    mb = oracle.mib(_TABLE_BYTES + work_bytes + rows * (columns * _CELL_BYTES[args.format] + row_bytes))
    oracle.require_memory(mb, f"{args.command}: a table of {rows} rows")


def _parse_range(spec: str, args, columns: int, *work) -> np.ndarray:
    """start:stop:count range specification; the count is declared as a table
    of that many rows, with the `work` of `_require_table`, before any value
    is made."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not np.isfinite([start, stop]).all():
        raise ValueError(f"range bounds must be finite, got {spec!r}")
    fock._check_integer(count, "range count", 1)
    _require_table(args, count, columns, *work)
    return np.linspace(start, stop, count)


def _grid(args, columns: int, ports: int = 2) -> two_port.ChannelParams:
    """The lambda_x x lambda_y grid of a sweep, its points declared first."""
    lx = _parse_range(args.lambda_x_range, args, columns)
    ly = _parse_range(args.lambda_y_range, args, columns)
    _require_table(args, lx.size * ly.size, columns, _POINT_BYTES)
    return two_port.ChannelParams.grid(lx, ly, ports)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def cmd_twoport_coherent(args) -> tuple[ResultTable, int]:
    params = two_port.ChannelParams(args.lambda_x, args.lambda_y)
    alpha = complex(args.alpha)
    cutoff = fock.Cutoff(args.cutoff)
    d = cutoff.levels
    _require_table(args, d * d, 4, _ENTRY_BYTES)
    state = two_port.apply_coherent(alpha, params, cutoff)
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    rows = [
        [i, j, state.matrix[i, j].real, state.matrix[i, j].imag]
        for i in range(d)
        for j in range(d)
    ]
    table = ResultTable(
        ["row", "col", "real", "imag"],
        rows,
        metadata={
            "command": "twoport-coherent",
            "lambda_x": args.lambda_x,
            "lambda_y": args.lambda_y,
            "alpha": [alpha.real, alpha.imag],
            "cutoff": d,
            "trace": state.trace(),
            "trace_deficit": state.trace_deficit,
            "mean_photon_number": fock.mean_photon_number(state),
            "regime": two_port.regime(params).value,
            "trace_norm_vs_vacuum": fock.trace_norm(state.matrix - vac),
        },
    )
    return table, EXIT_OK


def cmd_energy(args) -> tuple[ResultTable, int]:
    grid = _grid(args, 3)
    energies = two_port.max_output_energy(grid, tol=args.tol)
    rows = [list(row) for row in zip(grid.lambda_x, grid.lambda_y, energies)]
    table = ResultTable(
        ["lambda_x", "lambda_y", "max_energy"],
        rows,
        metadata={
            "command": "energy",
            "lambda_x_range": args.lambda_x_range,
            "lambda_y_range": args.lambda_y_range,
            "tol": args.tol,
        },
    )
    return table, EXIT_OK


def cmd_bounds(args) -> tuple[ResultTable, int]:
    params = two_port.ChannelParams(args.lambda_x, args.lambda_y)
    reg = two_port.regime(params)
    meta = {
        "command": "bounds",
        "kind": args.kind,
        "lambda_x": args.lambda_x,
        "lambda_y": args.lambda_y,
        "regime": reg.value,
    }
    if args.kind == "lossy":
        if args.energy_range is None:
            raise ValueError("--energy-range is required for the lossy bound")
        envelope = 0 if reg is two_port.Regime.POSITIVE else _ENVELOPE_BYTES
        energies = _parse_range(args.energy_range, args, 2, _BOUND_ROW_BYTES, envelope)
        if reg is two_port.Regime.POSITIVE:
            values = bounds.lossy_diamond_bound_positive(energies, params)
            meta["variant"] = "positive"
        else:
            values = bounds.lossy_diamond_bound_negative(energies, params)
            meta["variant"] = "negative-envelope"
        rows = [[e, v] for e, v in zip(energies, values)]
        return ResultTable(["energy", "bound"], rows, meta), EXIT_OK
    if args.kind == "edrc":
        m_c, value = bounds.edrc_distance(params)
        meta["m_c"] = m_c
        return ResultTable(["m_c", "diamond_norm"], [[m_c, value]], meta), EXIT_OK
    if args.kind == "sim":
        if args.delta_range is None:
            raise ValueError("--delta-range is required for the simulation bound")
        deltas = _parse_range(args.delta_range, args, 2, _BOUND_ROW_BYTES)
        rows = [[d, bounds.sim_example_bound(d, params)] for d in deltas]
        meta["delta_range"] = args.delta_range
        return ResultTable(["delta", "bound"], rows, meta), EXIT_OK
    raise ValueError(f"unknown bound kind {args.kind!r}")


def cmd_fidelity_sweep(args) -> tuple[ResultTable, int]:
    if args.input == "tmsv":
        levels = 12 if args.cutoff is None else args.cutoff
    elif args.cutoff is not None:
        raise ValueError(f"--cutoff applies to the tmsv input only: {args.input} compares on its own levels")
    else:
        levels = nport.BELL_LEVELS[args.input]
    grid = _grid(args, 4, args.ports)
    oracle.require_memory(oracle.mib(levels**2 * _ENTRY_BYTES), f"fidelity-sweep at cutoff {levels}")
    options = {"lambda_in": args.lambda_in, "levels": levels, "cap": args.cap}
    if args.ports == 2:  # the closed form takes the whole grid at once
        fids, meta = nport.input_output_fidelity(args.input, grid, **options)
        caps = [meta["cap"]] * len(fids)
    else:
        results = [nport.input_output_fidelity(args.input, p, **options) for p in grid.points()]
        fids, caps = [fid for fid, _ in results], [meta["cap"] for _, meta in results]
    rows = [list(row) for row in zip(grid.lambda_x, grid.lambda_y, fids, caps)]
    table = ResultTable(
        ["lambda_x", "lambda_y", "fidelity", "cap"],
        rows,
        metadata={
            "command": "fidelity-sweep",
            "input": args.input,
            "ports": args.ports,
            "lambda_in": args.lambda_in,
            "lambda_x_range": args.lambda_x_range,
            "lambda_y_range": args.lambda_y_range,
            "output_cutoff": levels,
            "cap_policy": "fixed" if args.cap is not None else f"adaptive({nport.CAP_TOL:g})",
        },
    )
    return table, EXIT_OK


def cmd_oracle_verify(args) -> tuple[ResultTable, int]:
    params = two_port.ChannelParams(args.lambda_x, args.lambda_y, ports=args.ports)
    proto = oracle.TruncatedProtocol(params, fock.Cutoff(args.cutoff))
    report = oracle.verification_report(proto, args.a_max, args.b_max, tol=args.tol)
    rows = [
        [e["a"], e["b"], e["max_deviation"], e["trace_deviation"]] for e in report["elements"]
    ]
    meta = {k: v for k, v in report.items() if k != "elements"}
    meta["command"] = "oracle-verify"
    table = ResultTable(["a", "b", "max_deviation", "trace_deviation"], rows, meta)
    return table, EXIT_OK if report["passed"] else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser():
    """The argparse tree and its subparsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cvpbt",
        description="Port-based teleportation channels in a truncated Fock basis",
    )
    parser.add_argument("--config", help="JSON file supplying defaults for any flag")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, fn, configure):
        p = sub.add_parser(name)
        p.add_argument("--config", help=argparse.SUPPRESS)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        configure(p)
        p.set_defaults(func=fn)
        subparsers[name] = p
        return p

    def twoport(p):
        p.add_argument("--lambda-x", type=float, required=True)
        p.add_argument("--lambda-y", type=float, required=True)
        p.add_argument("--alpha", default="0", help="complex amplitude, e.g. '1.5+0.5j'")
        p.add_argument("--cutoff", type=int, default=30)

    def energy(p):
        p.add_argument("--lambda-x-range", required=True, help="start:stop:count")
        p.add_argument("--lambda-y-range", required=True, help="start:stop:count")
        p.add_argument("--tol", type=float, default=1e-12)

    def bounds_cmd(p):
        p.add_argument("--kind", choices=("lossy", "edrc", "sim"), required=True)
        p.add_argument("--lambda-x", type=float, required=True)
        p.add_argument("--lambda-y", type=float, required=True)
        p.add_argument("--energy-range", help="start:stop:count (lossy)")
        p.add_argument("--delta-range", help="start:stop:count (sim)")

    def fidelity(p):
        p.add_argument("--input", choices=("tmsv", *nport.BELL_LEVELS), required=True)
        p.add_argument("--ports", type=int, choices=(2, 3), default=2)
        p.add_argument("--lambda-in", type=float)
        p.add_argument("--lambda-x-range", required=True)
        p.add_argument("--lambda-y-range", required=True)
        p.add_argument("--cutoff", type=int, help="output cutoff of the tmsv input (default 12)")
        p.add_argument("--cap", type=int)

    def verify(p):
        p.add_argument("--ports", type=int, default=2)
        p.add_argument("--lambda-x", type=float, required=True)
        p.add_argument("--lambda-y", type=float, required=True)
        p.add_argument("--cutoff", type=int, required=True)
        p.add_argument("--a-max", type=int, default=3)
        p.add_argument("--b-max", type=int, default=3)
        p.add_argument("--tol", type=float, default=1e-6)

    add("twoport-coherent", cmd_twoport_coherent, twoport)
    add("energy", cmd_energy, energy)
    add("bounds", cmd_bounds, bounds_cmd)
    add("fidelity-sweep", cmd_fidelity_sweep, fidelity)
    add("oracle-verify", cmd_oracle_verify, verify)
    return parser, subparsers


def _config_actions(parser):
    """The flags of a subcommand that a config key can set."""
    return [a for a in parser._actions if a.option_strings and a.nargs is None]


def _with_config_flags(argv: list, config: dict, subparsers: dict) -> list:
    """argv with the config values the chosen subcommand knows written as
    flags right after its name, so they meet the same type and choices
    checks as typed flags, and flags typed later win.  A key that no
    subcommand knows is a ValueError: one config file serves every
    subcommand, but a misspelt key would silently keep the default."""
    unknown = sorted(set(config) - {a.dest for p in subparsers.values() for a in _config_actions(p)})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    at = next((i for i, a in enumerate(argv) if a in subparsers), None)
    if at is None:
        return argv
    flags = []
    for action in _config_actions(subparsers[argv[at]]):
        if action.dest in config:
            value = config[action.dest]
            flags.append(f"{action.option_strings[0]}={value if isinstance(value, str) else json.dumps(value)}")
    return argv[: at + 1] + flags + argv[at + 1 :]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parser()
    # apply config-file defaults before the real parse; explicit flags win
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        try:
            with open(known.config, encoding="utf-8") as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError("the file must hold a JSON object")
            argv = _with_config_flags(argv, config, subparsers)
        except (OSError, ValueError) as exc:
            print(f"error: config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        table, code = args.func(args)
        table.finalize().write(args.out, args.format)
    except oracle.MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())

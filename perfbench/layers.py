"""Which cvpbt names the traced run wraps, and the per-layer metrics made
from their spans.

Every wrapped name feeds exactly one time metric with its self time.  In
one thread the time metrics of a traced repetition add up to its wall
time; spans of the CLI's worker threads overlap, so there they add up to
more, and `cli.wait_s` shows how much of that is waiting.  Hot
helpers whose caller already feeds the same metric are left unwrapped
(`bounds.negative_regime_t_bound`, `fock.chi`): wrapping them would add
cost without moving time between metrics.
"""
from __future__ import annotations

import weakref

from tracer import Target, self_times


def _one(args, result):
    return 1


def _rows(args, result):
    return len(args[0].rows)


def _arrangement_rows(args, result):
    return len(getattr(args[0], "seqs", ()))


def _sectors(args, result):
    return len(getattr(args[0], "sectors", ()))


def _dimension(args, result):
    return int(args[0].dim)


def _new_blocks():
    """Block count of each protocol's first `_components` call; later calls
    return the cached decomposition and do no work.  Protocols are
    unhashable dataclasses, so they are remembered by id while alive."""
    seen = set()

    def count(args, result):
        proto = args[0]
        if id(proto) in seen:
            return 0
        seen.add(id(proto))
        weakref.finalize(proto, seen.discard, id(proto))
        return len(result[0])

    return count


def targets() -> list[Target]:
    cli, nport, oracle = "cvpbt.cli", "cvpbt.nport", "cvpbt.oracle"
    two_port, bounds, fock = "cvpbt.two_port", "cvpbt.bounds", "cvpbt.fock"
    evaluators = ("NPortChannel", "ThreePortChannel", "TwoPortChannel")
    out = [
        Target(cli, "main", "cli.self_s"),
        Target(cli, "ResultTable.write", "cli.write_s", {"cli.points_n": _rows}),
        Target(
            nport,
            "Arrangements.__init__",
            "nport.arrangements_s",
            {"nport.arrangements_n": _one, "nport.arrangement_rows_n": _arrangement_rows},
        ),
        Target(nport, "sector_matrix", "nport.sector_matrix_s"),
        Target(nport, "gamma", "nport.eigh_s"),
        Target(nport, "eta_basis", "nport.eigh_s"),
        Target(nport, "gamma_from_basis", "nport.eigh_s"),
        Target(nport, "gamma_mm_closed", "nport.closed_gamma_s"),
        Target(nport, "gamma_lm_closed", "nport.closed_gamma_s"),
        Target(nport, "lm_closed_basis", "nport.closed_gamma_s"),
        Target(nport, "NPortChannel.__init__", "nport.build_s", {"nport.sectors_n": _sectors}),
        Target(nport, "ThreePortChannel.__init__", "nport.build_s"),
        Target(nport, "TwoPortChannel.__init__", "nport.build_s"),
        Target(nport, "make_channel", "nport.build_s"),
        Target(nport, "apply_number_element_nport", "nport.eval_s"),
        Target(nport, "three_port_apply_number_element", "nport.eval_s"),
        Target(nport, "apply_state_nport", "nport.fidelity_s"),
        Target(nport, "input_output_fidelity", "nport.fidelity_s"),
        Target(oracle, "TruncatedProtocol.__post_init__", "oracle.rho_s", {"oracle.dim_n": _dimension}),
        Target(oracle, "TruncatedProtocol.sigma_sparse", "oracle.rho_s"),
        Target(oracle, "TruncatedProtocol.rho_sparse", "oracle.rho_s"),
        Target(oracle, "build_sigma", "oracle.rho_s"),
        Target(oracle, "build_rho", "oracle.rho_s"),
        Target(oracle, "TruncatedProtocol._components", "oracle.blocks_s", {"oracle.blocks_n": _new_blocks()}),
        Target(oracle, "TruncatedProtocol.eigenvalue_census", "oracle.blocks_s"),
        Target(oracle, "TruncatedProtocol.povm_sparse", "oracle.povm_s"),
        Target(oracle, "build_povm_element", "oracle.povm_s"),
        Target(oracle, "povm_element_explicit", "oracle.povm_s"),
        Target(oracle, "brute_channel_element", "oracle.gather_s", {"oracle.gather_n": _one}),
        Target(oracle, "reduced_resource", "oracle.gather_s"),
        Target(oracle, "verification_report", "oracle.report_s"),
        Target(two_port, "omega", "two_port.omega_s", {"two_port.omega_n": _one}),
        Target(two_port, "derived_scalars", "two_port.omega_s"),
        Target(two_port, "energy_weighted_omega", "two_port.energy_s"),
        Target(two_port, "output_energy", "two_port.energy_s"),
        Target(two_port, "max_output_energy", "two_port.energy_s"),
        Target(two_port, "apply_number_element", "two_port.apply_s"),
        Target(two_port, "apply_coherent", "two_port.apply_s"),
        Target(two_port, "apply_state", "two_port.apply_s"),
        Target(bounds, "lossy_apply", "bounds.lossy_s"),
        Target(bounds, "lossy_diamond_bound_positive", "bounds.lossy_s"),
        Target(bounds, "lossy_diamond_bound_negative", "bounds.lossy_s"),
        Target(bounds, "EdrcParams.matched", "bounds.edrc_s"),
        Target(bounds, "edrc_apply", "bounds.edrc_s"),
        Target(bounds, "critical_index", "bounds.edrc_s"),
        Target(bounds, "edrc_diamond_norm", "bounds.edrc_s"),
        Target(bounds, "resource_fidelity", "bounds.sim_s"),
        Target(bounds, "sim_example_bound", "bounds.sim_s"),
        Target(fock, "trace_norm", "fock.trace_norm_s"),
        Target(fock, "fidelity", "fock.fidelity_s"),
        Target(fock, "coherent_ket", "fock.coherent_ket_s"),
    ]
    for cls in evaluators:
        for method in ("offdiag_coefficient", "diagonal_profile"):
            out.append(Target(nport, f"{cls}.{method}", "nport.eval_s", {"nport.eval_n": _one}))
        out.append(Target(nport, f"{cls}.number_element", "nport.eval_s"))
    return out


REP_SPAN = "bench.rep"  # root span of one traced repetition of the job list
JOB_SPAN = "bench.job"  # one job inside it; its self time is the harness's own

TIME_METRICS = sorted({t.metric for t in targets()}) + ["bench.self_s", "cli.wait_s"]
COUNT_METRICS = sorted({key for t in targets() for key in t.counts})


def rep_metrics(spans, counts, metric_of) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    `cli.wait_s` sums wall time minus thread CPU time over the spans that
    `cli.main` calls directly: in the CLI's worker pool that is time spent
    waiting for the interpreter lock or a core.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = dict.fromkeys(TIME_METRICS, 0.0)
    for s in spans:
        if s.name in (REP_SPAN, JOB_SPAN):
            out["bench.self_s"] += own[s.id]
            continue
        out[metric_of[s.name]] += own[s.id]
        parent = by_id.get(s.parent)
        if parent is not None and parent.name == "cli.main":
            out["cli.wait_s"] += max(0.0, s.wall - s.cpu)
    for key in COUNT_METRICS:
        out[key] = counts.get(key, 0)
    return out

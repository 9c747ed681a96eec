"""The traced layers (one per fractalspec module) and their metrics.

targets() lists the public functions wrapped by the traced run, with the
counter each span records.  Span names are "<layer>.<function>", where the
layer is the module name without its leading underscore (metric names must
start with a letter or a digit).  The reports module is traced as one span
around the CLI's emit step: render_json recurses once per value, so
per-call spans there would cost more than the work they measure.

FAMILIES groups spans into the metric families of the per-layer table: a
family's calls and counters are taken at its outermost spans only (sinpi
inside cis2pi is one call into the trig kernel, not three), and its self
time is the sum over all of its spans.
"""

from __future__ import annotations

import statistics

import numpy as np

LAYERS = ("numeric", "systems", "measure", "spectrum", "ruelle", "verify", "cli", "reports")


def _rows(arr, d: int) -> int:
    return int(np.size(arr)) // d


def _distinct_rows(T, d: int) -> int:
    T = np.asarray(T, dtype=float).reshape(-1, d)
    return int(np.unique(T[:, 0]).size if d == 1 else np.unique(T, axis=0).shape[0])


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_trig(args, kwargs, result):
    return {"elems": int(np.size(_arg(args, kwargs, 0, "x")))}


def _count_chi_mask(args, kwargs, result):
    sys = _arg(args, kwargs, 0, "sys")
    return {"rows": _rows(_arg(args, kwargs, 1, "t"), sys.d)}


def _count_fourier(args, kwargs, result):
    d = _arg(args, kwargs, 0, "m").sys.d
    T = _arg(args, kwargs, 1, "T")
    return {"rows": _rows(T, d), "distinct_rows": _distinct_rows(T, d)}


def _count_atoms(args, kwargs, result):
    return {"atoms": int(result.points.shape[0])}


def _count_words(args, kwargs, result):
    sys = _arg(args, kwargs, 0, "sys")
    return {"words": sys.n_digits ** (_arg(args, kwargs, 1, "depth") + 1)}


def _count_table(args, kwargs, result):
    return {"pairs": _arg(args, kwargs, 1, "spec").size ** 2}


def _count_q(args, kwargs, result):
    m = _arg(args, kwargs, 0, "m")
    return {"pairs": _rows(_arg(args, kwargs, 2, "T"), m.sys.d) * _arg(args, kwargs, 1, "spec").size}


def _count_scan(args, kwargs, result):
    return {"depths": len(result.depths)}


def _count_trials(args, kwargs, result):
    return {"trials": int(result.trials)}


def targets(fs) -> list:
    """(module, attribute, span name, counter) for the traced run."""
    mods = {
        "numeric": fs._numeric,
        "systems": fs.systems,
        "measure": fs.measure,
        "spectrum": fs.spectrum,
        "ruelle": fs.ruelle,
        "verify": fs.verify,
    }
    table = {
        "numeric": {
            "sinpi": _count_trig,
            "cospi": _count_trig,
            "cis2pi": _count_trig,
            "operator_norm": None,
            "hs_norm": None,
            "power_norms": None,
            "power_norm_tail": None,
            "multi_indices": None,
        },
        "systems": {
            "make_system": None,
            "parse_system": None,
            "load_system": None,
            "hadamard_matrix": None,
            "check_hadamard": None,
            "validate_compatibility": None,
            "validate_system": None,
            "spectral_expansiveness": None,
            "scale_system": None,
            "adjoint_power_norms": None,
            "cantor_four": None,
        },
        "measure": {
            "FractalMeasure.__init__": None,
            "chi_mask": _count_chi_mask,
            "fourier_mu": None,
            "fourier_mu_many": _count_fourier,
            "atomic_approximation": _count_atoms,
            "moments": None,
            "chaos_sample": None,
        },
        "spectrum": {
            "enumerate_spectrum": _count_words,
            "orthogonality_matrix": _count_table,
            "q_partial": None,
            "q_partial_many": _count_q,
            "completeness_scan": _count_scan,
            "separation": None,
        },
        "ruelle": {
            "as_box": None,
            "attractor_hull": None,
            "apply_ruelle": None,
            "lipschitz_norm": None,
            "estimate_gamma": None,
            "probe_ratio": None,
            "contraction_probe": _count_trials,
            "basis_certificate": None,
        },
        "verify": {
            "dim_one_classify": None,
            "max_orthogonal_clique": None,
            "scaling_sweep": None,
            "tiling_multiplicity": None,
            "hardy_roundtrip": None,
        },
    }
    out = []
    for layer, funcs in table.items():
        for path, count in funcs.items():
            name = f"{layer}.{path.split('.')[0]}"
            out.append((mods[layer], path, name, count))
    return out


def cli_targets(cli) -> list:
    """The CLI's emit step, traced inside each cli-batch process."""
    return [(cli, "_emit", "reports.emit", None)]


FAMILIES = {
    "numeric.trig": ("numeric.sinpi", "numeric.cospi", "numeric.cis2pi"),
    "numeric.svd": ("numeric.operator_norm", "numeric.hs_norm"),
    "numeric.power_norms": ("numeric.power_norms", "numeric.power_norm_tail"),
    "systems.validate": ("systems.validate_system", "systems.validate_compatibility"),
}

# (name, unit, better) of every metric the traced run reports.
PER_LAYER = [
    ("numeric.trig.calls", "count", "lower"),
    ("numeric.trig.elems", "count", "lower"),
    ("numeric.trig.self_s", "s", "lower"),
    ("numeric.svd.calls", "count", "lower"),
    ("numeric.svd.self_s", "s", "lower"),
    ("numeric.power_norms.calls", "count", "lower"),
    ("numeric.power_norms.self_s", "s", "lower"),
    ("systems.validate.calls", "count", "lower"),
    ("systems.validate.self_s", "s", "lower"),
    ("systems.make_system.calls", "count", "lower"),
    ("measure.FractalMeasure.calls", "count", "lower"),
    ("measure.FractalMeasure.self_s", "s", "lower"),
    ("measure.fourier_mu_many.calls", "count", "lower"),
    ("measure.fourier_mu_many.rows", "count", "lower"),
    ("measure.fourier_mu_many.distinct_rows", "count", "lower"),
    ("measure.fourier_mu_many.distinct_frac", "1", "higher"),
    ("measure.fourier_mu_many.self_s", "s", "lower"),
    ("measure.chi_mask.calls", "count", "lower"),
    ("measure.chi_mask.rows", "count", "lower"),
    ("measure.chi_mask.self_s", "s", "lower"),
    ("measure.atomic_approximation.atoms", "count", "lower"),
    ("measure.atomic_approximation.self_s", "s", "lower"),
    ("spectrum.enumerate_spectrum.words", "count", "lower"),
    ("spectrum.enumerate_spectrum.self_s", "s", "lower"),
    ("spectrum.orthogonality_matrix.pairs", "count", "lower"),
    ("spectrum.orthogonality_matrix.self_s", "s", "lower"),
    ("spectrum.q_partial_many.pairs", "count", "lower"),
    ("spectrum.q_partial_many.self_s", "s", "lower"),
    ("spectrum.completeness_scan.depths", "count", "lower"),
    ("spectrum.completeness_scan.self_s", "s", "lower"),
    ("spectrum.completeness_scan.resummed_frac", "1", "lower"),
    ("ruelle.attractor_hull.calls", "count", "lower"),
    ("ruelle.attractor_hull.self_s", "s", "lower"),
    ("ruelle.estimate_gamma.calls", "count", "lower"),
    ("ruelle.estimate_gamma.trig_elems", "count", "lower"),
    ("ruelle.estimate_gamma.self_s", "s", "lower"),
    ("ruelle.contraction_probe.trials", "count", "lower"),
    ("ruelle.contraction_probe.self_s", "s", "lower"),
    ("ruelle.basis_certificate.self_s", "s", "lower"),
    ("verify.dim_one_classify.self_s", "s", "lower"),
    ("verify.max_orthogonal_clique.self_s", "s", "lower"),
    ("verify.scaling_sweep.self_s", "s", "lower"),
    ("verify.tiling_multiplicity.self_s", "s", "lower"),
    ("verify.hardy_roundtrip.self_s", "s", "lower"),
    ("cli.startup.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.exit.self_s", "s", "lower"),
    ("reports.emit.self_s", "s", "lower"),
    ("reports.bytes", "B", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.errors", "count", "lower") for layer in LAYERS],
    ("trace.overhead_frac", "1", "lower"),
    ("trace.coverage_frac", "1", "higher"),
    ("trace.spans", "count", "lower"),
]

# Counts that repeat exactly between two traced runs at one seed; a later
# change may cite these, as counts and not as speed-ups.
DETERMINISTIC_COUNTS = (
    "numeric.trig.calls",
    "numeric.trig.elems",
    "numeric.svd.calls",
    "numeric.power_norms.calls",
    "systems.validate.calls",
    "systems.make_system.calls",
    "measure.FractalMeasure.calls",
    "measure.fourier_mu_many.calls",
    "measure.fourier_mu_many.rows",
    "measure.fourier_mu_many.distinct_rows",
    "measure.chi_mask.calls",
    "measure.chi_mask.rows",
    "measure.atomic_approximation.atoms",
    "spectrum.enumerate_spectrum.words",
    "spectrum.orthogonality_matrix.pairs",
    "spectrum.q_partial_many.pairs",
    "spectrum.completeness_scan.depths",
    "ruelle.attractor_hull.calls",
    "ruelle.estimate_gamma.calls",
    "ruelle.estimate_gamma.trig_elems",
    "ruelle.contraction_probe.trials",
    "reports.bytes",
    "trace.spans",
)


def _family(name: str) -> str:
    for family, members in FAMILIES.items():
        if name in members:
            return family
    return name


def layer_metrics(records: list[dict], job_ids: set[int], artifact_bytes: int,
                  overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    records: every span of the pass; job_ids: the ids of the benchmark's own
    job spans, whose direct children are the top-level program spans.
    """
    by_id = {rec["id"]: rec for rec in records}
    family_of = {rec["id"]: _family(rec["name"]) for rec in records}
    values: dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    stats: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        stats[key] = stats.get(key, 0.0) + amount

    scans: dict[int, list[int]] = {}
    imports = []
    for rec in records:
        if rec["id"] in job_ids:
            continue
        family = family_of[rec["id"]]
        layer = rec["name"].split(".")[0]
        add(f"{family}.self_s", rec["self_s"])
        add(f"{layer}.self_s", rec["self_s"])
        if rec["error"]:
            add(f"{layer}.errors", 1)
        parent = rec["parent"]
        if parent is not None and family_of.get(parent) == family:
            continue  # inner span of the same family: not a new call
        add(f"{family}.calls", 1)
        for key, amount in (rec["counters"] or {}).items():
            add(f"{family}.{key}", amount)
        if family == "numeric.trig" and _has_ancestor(rec, by_id, "ruelle.estimate_gamma"):
            add("ruelle.estimate_gamma.trig_elems", rec["counters"]["elems"])
        if rec["name"] == "spectrum.q_partial_many" and parent is not None \
                and by_id[parent]["name"] == "spectrum.completeness_scan":
            scans.setdefault(parent, []).append(rec["counters"]["pairs"])
        if rec["name"] == "cli.import":
            imports.append(rec["end"] - rec["start"])

    for name in values:
        if name in stats:
            values[name] = stats[name]
    rows = stats.get("measure.fourier_mu_many.rows", 0.0)
    if rows:
        values["measure.fourier_mu_many.distinct_frac"] = stats["measure.fourier_mu_many.distinct_rows"] / rows
    # with 0 in L each depth's frequency set contains the previous one, so
    # every pair summed at the previous depth is summed again
    resummed = sum(sum(p[:-1]) for p in scans.values())
    summed = sum(sum(p) for p in scans.values())
    if summed:
        values["spectrum.completeness_scan.resummed_frac"] = resummed / summed
    if imports:
        values["cli.import_s"] = statistics.median(imports)
    values["reports.bytes"] = float(artifact_bytes)
    values["trace.overhead_frac"] = overhead_frac
    job_time = sum(by_id[j]["end"] - by_id[j]["start"] for j in job_ids)
    top = sum(rec["end"] - rec["start"] for rec in records if rec["parent"] in job_ids)
    values["trace.coverage_frac"] = top / job_time if job_time else 0.0
    values["trace.spans"] = float(len(records) - len(job_ids))
    return values


def _has_ancestor(rec: dict, by_id: dict, name: str) -> bool:
    parent = rec["parent"]
    while parent is not None:
        rec = by_id[parent]
        if rec["name"] == name:
            return True
        parent = rec["parent"]
    return False

"""Workload table and metric names shared by the harness and its workers.

Standard library only: ``run.py`` imports this module without numpy.

A workload is a fixed sequence of calls into ``scc`` on inputs built
from the seed.  Every run of a workload spawns fresh worker processes;
each worker sets up once (import, read, preprocess) and makes the
workload's calls, each of which is one operation.  An *epoch* is one
pass over the dataset: one trainer epoch, or one ``scc encode`` call
over the whole data file.
"""

# Data sets.  Workloads that name the same data set get the same inputs
# for the same seed.  ``raw`` data are stored scaled and shifted per
# sample, so the worker pays ``preprocess_dataset`` in its set-up.
DATA = {
    "patch": dict(p=256, m=1024, n=1100, k=5, sigma=0.01, raw=True),
    "small": dict(p=16, m=32, n=2000, k=3, sigma=0.01, raw=True),
    "code": dict(p=64, m=256, n=600, k=5, sigma=0.01, raw=False),
    "batch": dict(p=16, m=32, n=1000, k=3, sigma=0.01, raw=False),
}

# kind "train" calls trainers; kind "encode" calls scc.cli.main(["encode", ...]).
# The first call's label is the primary one: the end-to-end epoch metrics
# come from the calls with that label, ``op_s`` from all of them.
#
# A training call with ``parts`` trains that many times, each on its own
# contiguous slice of the data set with its own TrainConfig.seed; its
# epoch times are summed over the parts.  How long ``batch_train`` takes
# depends on how coherent its initial dictionary is, so one dictionary
# per run made epoch times vary by about 0.2 (interquartile range over
# median) from seed to seed; eight independent parts average that out.
# ``init`` overrides TrainConfig.init: Gaussian atoms vary less in
# coherence than atoms copied from planted samples.
_SCC = dict(label="scc", trainer="scc_train", epochs=3)
WORKLOADS = {
    "train-patch": dict(kind="train", data="patch", calls=[
        dict(label="scc", trainer="scc_train", epochs=2)]),
    "train-small": dict(kind="train", data="small", calls=[
        _SCC, dict(label="natural", trainer="natural_rate_train", epochs=3)]),
    "encode": dict(kind="encode", data="code", steps=3,
                   calls=[dict(label="1t", threads=1), dict(label="2t", threads=2)] * 3),
    "batch": dict(kind="train", data="batch", calls=[
        dict(label="batch", trainer="batch_train", epochs=2, parts=8,
             init="random_gaussian")]),
}

# Reported with --trace 0, on every workload, in this order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "objective": "1",
    "us_per_sample_epoch": "us",
    "first_epoch_s": "s",
    "steady_epoch_s": "s",
    "op_s": "s",
}

# Per-call figures printed in the plain-text report under the names the
# ROADMAP uses: (name, call label, statistic, unit).
NAMED = {
    "train-patch": [
        ("train_us_per_sample_epoch", "scc", "us_per_sample_epoch", "us"),
        ("train_first_epoch_s", "scc", "first_epoch_s", "s"),
        ("train_steady_epoch_s", "scc", "steady_epoch_s", "s"),
    ],
    "train-small": [
        ("train_us_per_sample_epoch", "scc", "us_per_sample_epoch", "us"),
        ("train_first_epoch_s", "scc", "first_epoch_s", "s"),
        ("train_steady_epoch_s", "scc", "steady_epoch_s", "s"),
        ("natural_us_per_sample_epoch", "natural", "us_per_sample_epoch", "us"),
        ("natural_objective", "natural", "objective", "1"),
    ],
    "encode": [
        ("encode_samples_per_s", "1t", "samples_per_s", "1/s"),
        ("encode_samples_per_s_2t", "2t", "samples_per_s", "1/s"),
    ],
    "batch": [("batch_epoch_s", "batch", "epoch_s", "s")],
}

# Times are reported at a reference machine speed: each worker's raw times
# are multiplied by CAL_REF_S over the mean time of its calibration units
# (a fixed loop in the benchmark's own code, timed after set-up and after
# every epoch).  CAL_REF_S is that unit's time on an uncontended core of
# the machine the benchmark was defined on (2-core KVM guest, Intel Xeon
# at 2.1 GHz), at every workload's shape.
CAL_REF_S = 0.002

MODULES = ("core", "data", "lasso", "dictionary", "trainer", "metrics", "serialize", "cli")
ROOT = "root"

# Function groups: metric prefix -> span names (module.function) that
# belong to it.  Span names are found at run time, so a group lists the
# current names; a renamed function keeps its module's self time but
# drops out of its group until the list follows it.
GROUPS = {
    "core.sparse_code": ("core.SparseCode",),
    "core.validate_dataset": ("core.validate_dataset",),
    "data.preprocess_dataset": ("data.preprocess_dataset",),
    "data.init_dictionary": ("data.init_dictionary",),
    "lasso.encode_scc": ("lasso.encode_scc",),
    "lasso.lasso_oracle_cd": ("lasso.lasso_oracle_cd",),
    "dictionary.sgd_step": ("dictionary._sgd_adaptive_inplace", "dictionary._sgd_scalar_inplace"),
    "dictionary.hessian_accumulate": ("dictionary.hessian_accumulate",),
    "dictionary.full_gradient": ("dictionary._dense_codes", "dictionary._gradient_step_dense",
                                 "dictionary._quadratic_term"),
    "metrics.objective": ("metrics.objective",),
    "metrics.sparsity_stats": ("metrics.sparsity_stats",),
    "serialize.read_dataset": ("serialize.read_dataset",),
    "serialize.read_dictionary": ("serialize.read_dictionary",),
    "serialize.write_codes": ("serialize.write_codes",),
    "serialize.read_codes": ("serialize.read_codes",),
}


def per_layer_units():
    """Name -> unit of every metric reported with --trace 1, in order."""
    units = {}
    for mod in MODULES + (ROOT,):
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.self_share"] = "1"
    units.update({
        "core.sparse_code.calls": "count",
        "core.sparse_code.self_s": "s",
        "core.validate_dataset.self_s": "s",
        "data.preprocess_dataset.self_s": "s",
        "data.init_dictionary.self_s": "s",
        "lasso.encode_scc.calls": "count",
        "lasso.encode_scc.self_s": "s",
        "lasso.encode_scc.us_per_call": "us",
        "lasso.encode_scc.nnz_mean": "count",
        "lasso.encode_scc.churn_mean": "count",
        "lasso.encode_scc.unchanged_ratio": "1",
        "lasso.full_pass_coords": "count",
        "lasso.cd_full_cycle.us_per_call": "us",
        "lasso.cd_support_cycle.us_per_call": "us",
        "lasso.lasso_oracle_cd.calls": "count",
        "lasso.lasso_oracle_cd.self_s": "s",
        "lasso.lasso_oracle_cd.us_per_call": "us",
        "dictionary.sgd_step.calls": "count",
        "dictionary.sgd_step.self_s": "s",
        "dictionary.hessian_accumulate.self_s": "s",
        "dictionary.atoms_touched": "count",
        "dictionary.full_gradient.self_s": "s",
        "metrics.objective.self_s": "s",
        "metrics.sparsity_stats.self_s": "s",
        "serialize.read_dataset.self_s": "s",
        "serialize.read_dataset.mib_per_s": "MiB/s",
        "serialize.read_dictionary.self_s": "s",
        "serialize.write_codes.self_s": "s",
        "serialize.read_codes.self_s": "s",
        "trace.wall_s": "s",
        "trace.spans": "count",
        "trace.overhead_ratio": "1",
    })
    return units


# Counts computed by the benchmark from other counts, not observed.
COMPUTED = {"lasso.full_pass_coords": "lasso.encode_scc.calls x m"}

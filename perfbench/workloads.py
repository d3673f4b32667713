"""The benchmark's workloads, each a closed loop with one caller.

* ``csv_coarse_test``: an analyst tests one registry-scale cohort through the
  CLI and a CSV file.
* ``replicate_5k_x2``: a methodologist runs replicated experiments on a pool.

Each workload builds its inputs from the benchmark seed, times ``op`` without
tracing, and repeats the op split into the public calls it makes under
``traced``.  Results are summarised as flat ``<layer>.<quantity>`` dicts,
which the runner compares with the reference values of the default seed,
with earlier results for the same input, and with the invariants given here.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

from cemlogrank import cli, dataio, experiment, iptw, logrank, matching, oracle, simulate, survival
from cemlogrank.util import norm_cdf, norm_sf, pinv

# Reference values exist for this seed only (perfbench/reference.json).
DEFAULT_SEED = 0
# Operations walk through this many distinct inputs and then start over, so
# every operation of the default seed has a reference value.
CYCLE = 16
BOX_LO = (-5.0, -5.0, -5.0)
BOX_HI = (5.0, 5.0, 5.0)
CROSSCHECK_N = 300
COARSE_BINS = 4
STEP_WEIGHTS = {"breakpoints": [2.0, 5.0], "values": [1.0, 0.8, 0.5]}
REPLICATIONS = 24
WORKERS = 2


def grid(bins: int) -> matching.CoarseningScheme:
    return matching.grid_scheme(BOX_LO, BOX_HI, bins, simulate.BINARY_DIMS)


def match_counters(mc: matching.MatchedCohort) -> dict:
    cells = {s for s in mc.stratum_of.values() if isinstance(s, tuple)}
    n = len(mc.cohort.subjects)
    return {
        "matching.matched_treated": mc.n1,
        "matching.matched_controls": mc.n0,
        "matching.cells_matched": len(cells),
        "matching.kept_frac": (mc.n1 + mc.n0) / n,
    }


def traced_matched_test(tr, mc, weight_fn=None) -> tuple[list, float, bool, int]:
    """``run_test`` split into its public calls, with the event grid timed as
    a sibling because ``statistic_path`` builds it internally as well."""
    grid_times = len(tr.call("survival.build_event_grid", survival.build_event_grid, mc.cohort))
    path = tr.call("logrank.statistic_path", logrank.statistic_path, mc, weight_fn)
    variance = tr.call("logrank.variance_estimate", logrank.variance_estimate, mc, weight_fn)
    omega_n = tr.call("matching.omega_n_holds", matching.omega_n_holds, mc)
    return path, variance, omega_n, grid_times


class Workload:
    """Inputs, operation, traced operation and checks of one workload."""

    name = ""
    assignment_model = "model2"
    cohorts_per_op = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Write and build the inputs; repeating it rebuilds the same ones."""
        raise NotImplementedError

    def crosscheck(self) -> tuple[dict, dict]:
        """A few hundred subjects drawn from the seed: the matched statistic
        against the enumeration oracle on the workload's fine grid rule and
        on the coarse grid with the step weights, and the IPTW test at unit
        weights against the classical log-rank.  Returns (observed, expected)."""
        scenario = simulate.Scenario(
            n=CROSSCHECK_N, assignment_model=self.assignment_model, seed=self.seed
        )
        cohort = simulate.generate(scenario)
        fine_bins = experiment.ExperimentConfig(scenario).bins_per_dim
        steps = logrank.WeightFunction.from_dict(STEP_WEIGHTS)
        observed, expected = {}, {}
        for label, bins, weight_fn in (("fine", fine_bins, None), ("coarse", COARSE_BINS, steps)):
            mc = matching.match(cohort, grid(bins))
            path = logrank.statistic_path(mc, weight_fn)
            observed[f"logrank.{label}_statistic"] = path[-1][1] if path else 0.0
            expected[f"logrank.{label}_statistic"] = oracle.statistic_by_enumeration(mc, weight_fn)
        ids = tuple(s.id for s in cohort.subjects)
        unit = iptw.IptwWeights(ids=ids, values=(1.0,) * len(ids))
        observed["iptw.unit_weight_standardized"] = iptw.iptw_logrank(cohort, unit).standardized
        expected["iptw.unit_weight_standardized"] = oracle.classical_logrank(cohort).standardized
        return observed, expected

    def invariants(self, summary: dict) -> dict:
        """Values a correct summary must hold whatever the seed."""
        return {}

    def input_key(self, i: int) -> str:
        """Operations with equal keys receive equal inputs."""
        return str(i % CYCLE)

    def op(self, i: int):
        raise NotImplementedError

    def observe(self, i: int, result, ledger) -> dict | None:
        """Summary of an untraced result, or None when it failed."""
        raise NotImplementedError

    def traced(self, i: int, tr) -> tuple[dict, dict, list[dict]]:
        """The op split into public calls under spans.  Returns the summary,
        per-cohort counters (name -> list) and further expectations."""
        raise NotImplementedError


class CsvCoarseTest(Workload):
    name = "csv_coarse_test"
    assignment_model = "model1"
    n = 50_000

    def prepare(self):
        self.csv_path = self.workdir / "data.csv"
        self.scheme_path = self.workdir / "coarse.json"
        self.weights_path = self.workdir / "steps.json"
        self.out_path = self.workdir / "result.json"
        self.traced_out_path = self.workdir / "result_traced.json"
        scenario = simulate.Scenario(
            n=self.n, assignment_model="model1", hypothesis="null", seed=self.seed
        )
        dataio.write_cohort_csv(simulate.generate(scenario), self.csv_path)
        self.scheme_path.write_text(json.dumps(grid(COARSE_BINS).to_dict()))
        self.weights_path.write_text(json.dumps(STEP_WEIGHTS))
        self.argv = [
            "test", str(self.csv_path),
            "--scheme", str(self.scheme_path),
            "--weight-fn", str(self.weights_path),
            "--output", str(self.out_path),
        ]  # fmt: skip

    def input_key(self, i):
        return "0"

    def op(self, i):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv)
        return code, stderr.getvalue()

    @staticmethod
    def report_keys(report: dict) -> dict:
        keys = {
            f"logrank.{k}": report[k]
            for k in ("statistic", "variance_estimate", "standardized", "p_two_sided")
        }
        keys.update({f"matching.{k}": report[k] for k in ("n1", "n0", "omega_n", "unmatched_count")})
        return keys

    def invariants(self, summary):
        return {
            "logrank.standardized": summary["logrank.statistic"]
            * pinv(math.sqrt(summary["logrank.variance_estimate"]))
        }

    def observe(self, i, result, ledger):
        code, stderr = result
        if code != 0:
            ledger.fail(1, f"cli.errors.exit_{code}")
            ledger.notes.append(stderr.strip())
            return None
        return self.report_keys(json.loads(self.out_path.read_text()))

    def traced(self, i, tr):
        with tr.op(i):
            cohort = tr.call("dataio.read_cohort_csv", dataio.read_cohort_csv, self.csv_path)
            steps = tr.call("dataio.load_weight_fn", dataio.load_weight_fn, self.weights_path)
            scheme = tr.call("dataio.load_scheme", dataio.load_scheme, self.scheme_path)
            mc = tr.call("matching.match", matching.match, cohort, scheme)
            path, variance, omega_n, grid_times = traced_matched_test(tr, mc, steps)
            result = assemble_test_result(path, variance, omega_n, mc)
            config_source = {"command": "test", "dataset": str(self.csv_path)}
            report = tr.call("dataio.result_report", dataio.result_report, result, config_source, scheme=scheme)
            self.traced_out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        summary = self.report_keys(report)
        summary["survival.grid_times"] = grid_times
        counters = {k: [v] for k, v in match_counters(mc).items()}
        counters["survival.grid_times"] = [grid_times]
        return summary, counters, []


def assemble_test_result(path, variance, omega_n, mc, alpha=0.05) -> logrank.TestResult:
    """The two-sided TestResult that ``run_test`` builds from these parts."""
    statistic = path[-1][1] if path else 0.0
    z = statistic * pinv(math.sqrt(variance))
    p_lower, p_upper = norm_cdf(z), norm_sf(z)
    p_two = min(1.0, 2.0 * min(p_lower, p_upper))
    return logrank.TestResult(
        statistic=statistic,
        variance_estimate=variance,
        standardized=z,
        p_lower=p_lower,
        p_upper=p_upper,
        p_two_sided=p_two,
        alpha=alpha,
        direction="two_sided",
        reject=p_two <= alpha,
        omega_n=omega_n,
        n1=mc.n1,
        n0=mc.n0,
        unmatched_count=mc.unmatched_count,
        degenerate_variance=variance == 0.0,
        method="cem",
    )


def samples_keys(text: str) -> dict:
    """Per-replicate rows of ``samples.csv`` as flat keys."""
    rows = list(csv.DictReader(io.StringIO(text)))
    keys = {"experiment.rows": len(rows)}
    for row in rows:
        stem = f"experiment.{row['replicate']}.{row['method']}"
        keys[stem + ".statistic"] = float(row["statistic"])
        keys[stem + ".omega_n"] = row["omega_n"]
        keys[stem + ".n1"] = int(row["n1"])
    return keys


class Replicate(Workload):
    name = "replicate_5k_x2"
    cohorts_per_op = REPLICATIONS

    def prepare(self):
        # a distinct scenario seed per input, so no two inputs share a replicate
        self.configs = [
            experiment.ExperimentConfig(
                scenario=simulate.Scenario(
                    n=5000, assignment_model="model2", hypothesis="null", seed=self.seed * CYCLE + j
                ),
                replications=REPLICATIONS,
                method="both",
                theta=0.3,
                threads=WORKERS,
            )
            for j in range(CYCLE)
        ]
        self.out_dir = self.workdir / "experiment"
        self.traced_out_dir = self.workdir / "experiment_traced"

    def op(self, i):
        result = experiment.run_experiment(self.configs[i % CYCLE])
        dataio.write_experiment_outputs(result, self.out_dir)
        return result

    def observe(self, i, result, ledger):
        return samples_keys((self.out_dir / "samples.csv").read_text())

    def invariants(self, summary):
        return {"experiment.rows": REPLICATIONS * 2}

    def traced(self, i, tr):
        config = self.configs[i % CYCLE]
        with tr.op(i):
            result = tr.call("experiment.run_experiment", experiment.run_experiment, config)
            tr.call(
                "dataio.write_experiment_outputs",
                dataio.write_experiment_outputs, result, self.traced_out_dir,
            )  # fmt: skip
        parallel_text = (self.traced_out_dir / "samples.csv").read_text()

        # the same replicates in process, for the serial time and byte identity
        with tr.op(i, "serial"):
            records = []
            for r in range(config.replications):
                records += tr.call("experiment.run_replicate", experiment.run_replicate, config, r)
            summaries = {
                m: tr.call(
                    "experiment.summarize_method",
                    experiment.summarize_method, [x for x in records if x.method == m], config,
                )  # fmt: skip
                for m in config.methods()
            }
        serial_text = dataio.samples_csv_text(experiment.ExperimentResult(config, records, summaries))

        # and once more split into stages, for the per-layer times
        scheme = grid(config.bins_per_dim)
        staged: dict = {}
        counters: dict[str, list] = {}
        with tr.op(i, "stages"):
            for r in range(config.replications):
                cohort = tr.call("simulate.generate", simulate.generate, config.scenario, r)
                mc = tr.call("matching.match", matching.match, cohort, scheme)
                path, variance, omega_n, grid_times = traced_matched_test(tr, mc)
                model = tr.call("iptw.fit_logistic", iptw.fit_logistic, cohort, experiment.IPTW_FEATURES)
                weights = tr.call("iptw.iptw_weights", iptw.iptw_weights, model, cohort)
                weighted = tr.call("iptw.iptw_logrank", iptw.iptw_logrank, cohort, weights)
                stat = path[-1][1] if path else 0.0
                staged[f"experiment.{r}.cem.statistic"] = stat * pinv(math.sqrt(variance))
                staged[f"experiment.{r}.cem.omega_n"] = "true" if omega_n else "false"
                staged[f"experiment.{r}.cem.n1"] = mc.n1
                staged[f"experiment.{r}.iptw.statistic"] = weighted.standardized
                staged[f"experiment.{r}.iptw.n1"] = weighted.n1
                for k, v in match_counters(mc).items():
                    counters.setdefault(k, []).append(v)
                counters.setdefault("survival.grid_times", []).append(grid_times)
                counters.setdefault("iptw.fit_logistic.iterations", []).append(model.iterations)

        summary = samples_keys(parallel_text)
        summary["experiment.serial_samples_identical"] = parallel_text == serial_text
        return summary, counters, [staged, {"experiment.serial_samples_identical": True}]


WORKLOADS = {w.name: w for w in (CsvCoarseTest, Replicate)}

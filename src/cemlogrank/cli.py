"""Command-line interface.

Subcommands: simulate (emit a cohort CSV), match, test, experiment.  Exit
codes: 0 success, 2 input error, 3 numeric failure (experiment records one
per replicate instead).  Test decisions are never encoded in the exit status.
"""

import argparse
import sys
from pathlib import Path

from . import __version__, dataio
from .errors import (
    ConfigError,
    DatasetFormatError,
    RankDeficiencyError,
    SeparationError,
    WeightOverflowError,
)
from .experiment import ExperimentConfig, run_experiment
from .iptw import fit_logistic, iptw_logrank, iptw_weights
from .logrank import run_test
from .matching import match
from .simulate import Scenario, generate
from .util import require_real

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemlogrank",
        description="Matched and inverse-weighted log-rank testing for survival data",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    sim.add_argument("--config", type=Path, help="scenario JSON (overridden by flags)")
    sim.add_argument("--n", type=int)
    sim.add_argument("--model", dest="assignment_model", choices=["model1", "model2"])
    sim.add_argument("--hypothesis", choices=["null", "alternative"])
    sim.add_argument("--seed", type=int)
    sim.add_argument("--censor-upper", type=float)
    sim.add_argument("--horizon", type=float)
    sim.add_argument("--replicate", type=int, default=0,
                     help="nonnegative integer r: write the cohort that experiment evaluates as replicate r")
    sim.add_argument("--output", type=Path, required=True)

    mat = sub.add_parser("match", help="assign strata and matched sets")
    mat.add_argument("dataset", type=Path)
    mat.add_argument("--scheme", type=Path, required=True)
    mat.add_argument("--horizon", type=float)
    mat.add_argument("--output", type=Path)

    tst = sub.add_parser("test", help="run the weighted log-rank test")
    tst.add_argument("dataset", type=Path)
    tst.add_argument("--scheme", type=Path, help="required for --method cem")
    tst.add_argument("--method", choices=["cem", "iptw"], default="cem")
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--direction", choices=["upper", "lower", "two_sided"], default="two_sided")
    tst.add_argument("--weight-fn", type=Path, help="step-function JSON; constant 1 when absent")
    tst.add_argument("--horizon", type=float)
    tst.add_argument("--features", default="x1,x2", help="IPTW covariate columns, e.g. x1,x2")
    tst.add_argument("--emit-path", action="store_true", help="include the statistic path")
    tst.add_argument("--output", type=Path)

    exp = sub.add_parser("experiment", help="replicated simulation experiment")
    exp.add_argument("--config", type=Path, required=True, help="experiment JSON (overridden by flags)")
    exp.add_argument("--seed", type=int)
    exp.add_argument("--threads", type=int)
    exp.add_argument("--method", choices=["cem", "iptw", "both"])
    exp.add_argument("--alpha", type=float)
    exp.add_argument("--theta", type=float)
    exp.add_argument("--replications", type=int)
    exp.add_argument("--output-dir", type=Path, default=Path("."))

    return parser


def _emit(payload: dict, output: Path | None) -> None:
    text = dataio.json_text(payload)
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)
        print(f"wrote {output}")


def _given(args, config_type) -> dict:
    """The flags given on the command line that set a field of
    ``config_type``, by field name (the flag's dest).  A command merges them
    into its config file's object before building the config, so a flag
    replaces the file's value, valid or not, and an error names the file."""
    fields = config_type.__dataclass_fields__
    return {name: value for name, value in vars(args).items() if name in fields and value is not None}


def cmd_simulate(args) -> int:
    def build(data: dict) -> Scenario:
        data = {**data, **_given(args, Scenario)}
        if "n" not in data:
            raise ConfigError("simulate needs --n or a config with n")
        return Scenario.from_dict(data)

    scenario = dataio.load_json_object(args.config, "scenario", build) if args.config else build({})
    cohort = generate(scenario, replicate=args.replicate)
    dataio.write_cohort_csv(cohort, args.output)
    print(f"wrote {args.output} ({len(cohort)} subjects)")
    return EXIT_OK


def cmd_match(args) -> int:
    scheme = dataio.load_scheme(args.scheme)
    cohort = dataio.read_cohort_csv(args.dataset, horizon=args.horizon)
    mc = match(cohort, scheme)
    config_source = {
        "command": "match",
        "dataset": str(args.dataset),
        "scheme": scheme.to_dict(),
        "horizon": cohort.horizon,
    }
    report = dataio.match_report(mc, config_source)
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(report, args.output)
    return EXIT_OK


def cmd_test(args) -> int:
    require_real("--alpha", args.alpha, "lie in (0, 1)", 0.0, 1.0)
    # every flag and the files it names are checked before the dataset is read
    weight_fn = dataio.load_weight_fn(args.weight_fn) if args.weight_fn else None
    if args.method == "cem":
        if not args.scheme:
            raise ConfigError("--method cem requires --scheme")
        scheme = dataio.load_scheme(args.scheme)
    else:
        features = _parse_features(args.features)
    cohort = dataio.read_cohort_csv(args.dataset, horizon=args.horizon)
    config_source = {
        "command": "test",
        "dataset": str(args.dataset),
        "method": args.method,
        "alpha": args.alpha,
        "direction": args.direction,
        "horizon": cohort.horizon,
        "weight_fn": weight_fn.to_dict() if weight_fn else None,
    }
    if args.method == "cem":
        config_source["scheme"] = scheme.to_dict()
        result = run_test(
            match(cohort, scheme),
            weight_fn=weight_fn,
            alpha=args.alpha,
            direction=args.direction,
            include_path=args.emit_path,
        )
        report = dataio.result_report(result, config_source, scheme=scheme)
    else:
        config_source["features"] = list(features)
        model = fit_logistic(cohort, features)
        result = iptw_logrank(
            cohort,
            iptw_weights(model, cohort),
            weight_fn=weight_fn,
            alpha=args.alpha,
            direction=args.direction,
            include_path=args.emit_path,
        )
        report = dataio.result_report(result, config_source, model=model.to_dict())
    _emit(report, args.output)
    return EXIT_OK


def _parse_features(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not (part.startswith("x") and part[1:].isdigit()):
            raise ConfigError(f"bad feature column {part!r}; use x1,x2,...")
        out.append(int(part[1:]) - 1)
    if not out:
        raise ConfigError("feature list is empty")
    return tuple(out)


def cmd_experiment(args) -> int:
    def build(data: dict) -> ExperimentConfig:
        data = {**data, **_given(args, ExperimentConfig)}
        # a scenario that is not an object is left for from_dict to name
        if args.seed is not None and isinstance(data.get("scenario"), dict):
            data["scenario"] = {**data["scenario"], "seed": args.seed}
        return ExperimentConfig.from_dict(data)

    config = dataio.load_json_object(args.config, "experiment config", build)
    # the output directory is made before the first replicate, so an unusable
    # one fails at once, and removed again, deepest first, if the run fails
    made = [path for path in (args.output_dir, *args.output_dir.parents) if not path.exists()]
    args.output_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_experiment(config)
    except BaseException:
        for path in made:
            path.rmdir()
        raise
    summary_path, samples_path = dataio.write_experiment_outputs(result, args.output_dir)
    print(f"wrote {summary_path} and {samples_path}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "match": cmd_match,
    "test": cmd_test,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DatasetFormatError, ConfigError, OSError) as exc:
        # an OSError names the file it could not open, read or write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SeparationError, WeightOverflowError, RankDeficiencyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

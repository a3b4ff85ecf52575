"""Command-line interface.

Subcommands mirror the paper's workflow:

* ``repro collect``     — simulate the suite and write the section dataset
* ``repro train``       — fit an M5' tree (or, with ``--bagging``, a
  compiled-arena forest with optional ``--refine`` leaf re-weighting)
* ``repro analyze``     — classify sections and print what/how-much reports
* ``repro evaluate``    — cross-validate one learner on a dataset
* ``repro compare``     — the full method comparison table
* ``repro experiments`` — run registered paper-artifact experiments
* ``repro lint``        — statically verify models, datasets, compatibility
* ``repro verify``      — abstract interpretation over compiled tree arenas
* ``repro serve``       — batched HTTP model server over the registry
* ``repro workloads``   — list the synthetic suite
* ``repro bench``       — time the hot paths, write a BENCH_<date>.json
* ``repro cache``       — inspect or clear the on-disk artifact cache
* ``repro faults``      — describe the active fault-injection spec
* ``repro conformance`` — oracle differential + metamorphic conformance run
* ``repro fuzz``        — deterministic mutation fuzzing of the parsers
* ``repro fastsim``     — analytical+ML fast suite engine: ``calibrate``
  the residual model against the trace oracle, ``predict`` a section
  dataset without replaying traces, ``check`` drift (FAST00x gates)

Commands with repeated independent fits take ``--jobs N`` (``-1`` for
all cores); the ``REPRO_JOBS`` environment variable sets the default.
Results are bit-identical at any worker count.

The long-running commands (``collect``, ``evaluate``, ``compare``) are
fault-tolerant: failing units (workloads, folds) are retried with
backoff, ``--fail-policy`` decides what exhausted units mean, every
completed unit is checkpointed, and ``--resume`` reuses checkpoints
from an interrupted run — bit-identically (see ``docs/resilience.md``).

Example::

    repro collect --out sections.csv --sections 120 --jobs 4
    repro train --data sections.csv --min-instances 25
    repro evaluate --data sections.csv --learner m5p --jobs 4 --resume
    repro compare --data sections.csv --fail-policy min_success:0.8
    repro lint --model model.json --data sections.csv --strict
    repro experiments --id F2 --preset quick
    repro bench --preset quick --jobs 4
    repro train --data sections.csv --publish cpi-tree
    repro serve --model cpi-tree@latest --port 8377
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError


def _add_jobs_argument(command_parser: argparse.ArgumentParser) -> None:
    command_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel workers (-1 = all cores; default: $REPRO_JOBS or 1). "
        "Results are bit-identical at any worker count.",
    )


def _add_resilience_arguments(command_parser: argparse.ArgumentParser) -> None:
    command_parser.add_argument(
        "--resume", action="store_true",
        help="reuse per-unit checkpoints from an interrupted run "
        "(results are bit-identical to an uninterrupted run)",
    )
    command_parser.add_argument(
        "--fail-policy", default="fail_fast", metavar="POLICY",
        help="what exhausted retries mean: fail_fast (abort, default), "
        "collect_errors (record and continue), or min_success:FRACTION "
        "(continue unless fewer than FRACTION of units succeed)",
    )
    command_parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock budget; a unit past it counts as failed "
        "(and is retried)",
    )
    command_parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="attempts per unit before it counts as failed (default 3)",
    )


def _build_policy(args: argparse.Namespace, run_key: str):
    """The :class:`~repro.resilience.RunPolicy` the flags describe."""
    from repro.resilience import (
        CheckpointStore,
        FailPolicy,
        RetryPolicy,
        RunPolicy,
    )

    return RunPolicy(
        retry=RetryPolicy(max_attempts=args.retries),
        fail_policy=FailPolicy.parse(args.fail_policy),
        task_timeout=args.task_timeout,
        checkpoint=CheckpointStore(),
        run_key=run_key,
        resume=args.resume,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Model trees for computer architecture performance "
        "analysis (ISPASS 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    collect = sub.add_parser("collect", help="simulate the suite, write a dataset")
    collect.add_argument("--out", required=True, help="output CSV path")
    collect.add_argument("--sections", type=int, default=120,
                         help="sections per workload (default 120)")
    collect.add_argument("--instructions", type=int, default=2048,
                         help="instructions per section (default 2048)")
    collect.add_argument("--seed", type=int, default=2007)
    collect.add_argument("--arff", action="store_true",
                         help="also write a WEKA .arff next to the CSV")
    _add_jobs_argument(collect)
    _add_resilience_arguments(collect)

    train = sub.add_parser(
        "train",
        help="fit an M5' tree (or a bagged forest) and print it",
    )
    train.add_argument("--data", required=True, help="dataset CSV path")
    train.add_argument("--min-instances", type=int, default=25)
    train.add_argument("--no-prune", action="store_true")
    train.add_argument("--smoothing", action="store_true")
    train.add_argument("--bagging", action="store_true",
                       help="fit a BaggedM5 forest instead of a single "
                       "tree (served through the compiled arena)")
    train.add_argument("--trees", type=int, default=10, metavar="N",
                       help="forest size with --bagging (default 10)")
    train.add_argument("--refine", action="store_true",
                       help="with --bagging: run the global leaf "
                       "re-weighting + prune-and-refit pass")
    train.add_argument("--prune-pct", type=float, default=0.1,
                       metavar="FRACTION",
                       help="with --refine: leaf fraction pruned per "
                       "round (default 0.1)")
    train.add_argument("--n-prunings", type=int, default=2, metavar="N",
                       help="with --refine: prune-and-refit rounds "
                       "(default 2)")
    train.add_argument("--seed", type=int, default=0,
                       help="bootstrap seed with --bagging (default 0)")
    train.add_argument("--save", help="write the fitted model to this JSON path")
    train.add_argument("--rules", action="store_true",
                       help="print the tree as an ordered rule list")
    train.add_argument("--dot", help="write GraphViz DOT source to this path")
    train.add_argument("--publish", metavar="NAME",
                       help="publish the fitted model to the registry under "
                       "this name (serve it with `repro serve --model NAME`)")
    train.add_argument("--registry", metavar="DIR", default=None,
                       help="registry directory for --publish "
                       "(default: <cache>/registry)")
    _add_jobs_argument(train)

    analyze = sub.add_parser("analyze", help="what/how-much report for sections")
    analyze.add_argument("--data", required=True, help="dataset CSV to analyze")
    analyze.add_argument("--train", help="training CSV (default: same as --data)")
    analyze.add_argument("--model", help="load a saved model JSON instead of training")
    analyze.add_argument("--min-instances", type=int, default=25)
    analyze.add_argument("--section", type=int,
                         help="analyze a single section index in detail")
    analyze.add_argument("--top", type=int, default=3,
                         help="events listed per class in the summary")

    evaluate = sub.add_parser("evaluate", help="cross-validate one learner")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--learner", default="m5p",
                          choices=["m5p", "cart", "ols", "knn", "mlp", "svr", "naive"])
    evaluate.add_argument("--folds", type=int, default=10)
    evaluate.add_argument("--min-instances", type=int, default=25)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--residuals", action="store_true",
                          help="break residuals down by workload and class")
    evaluate.add_argument("--format", default="text", choices=["text", "json"],
                          help="output format (json shares the repro-report "
                          "envelope with `repro lint`)")
    _add_jobs_argument(evaluate)
    _add_resilience_arguments(evaluate)

    lint = sub.add_parser(
        "lint",
        help="statically verify a saved model and/or a dataset",
        description="Run the tree, dataset, and compatibility rule "
        "families over a saved model and/or a section dataset. "
        "Exit codes: 0 clean, 1 warnings with --strict, 2 errors.",
    )
    lint.add_argument("--model", help="saved model JSON to verify")
    lint.add_argument("--data", help="dataset CSV to verify")
    lint.add_argument("--cache-dir", help="artifact cache directory to verify")
    lint.add_argument("--registry", metavar="DIR", nargs="?", const="",
                      default=None,
                      help="model registry directory to verify (no value: "
                      "the default registry); with --data, also checks "
                      "entries' feature sets against the dataset")
    lint.add_argument("--calibration", metavar="PATH", default=None,
                      help="fastsim calibration artifact JSON to audit "
                      "(the FASTSIM rule family)")
    lint.add_argument("--format", default="text", choices=["text", "json"])
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 when warnings are the worst finding")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    verify = sub.add_parser(
        "verify",
        help="static verification of compiled tree arenas",
        description="Abstract interpretation over the compiled tree "
        "arena: structural well-formedness, dead branches, domain "
        "coverage, and certified per-leaf output bounds.  Targets: a "
        "saved model JSON, registry entries (stored certificates must "
        "match recomputation), and/or the conformance corpus (certified "
        "bounds cross-checked against empirical predictions).  "
        "Exit codes: 0 clean, 1 warnings with --strict, 2 errors.",
    )
    verify.add_argument("--model", help="saved model JSON to verify")
    verify.add_argument("--registry", metavar="DIR", nargs="?", const="",
                        default=None,
                        help="verify every model in this registry "
                        "directory (no value: the default registry)")
    verify.add_argument("--corpus", metavar="TIER", default=None,
                        choices=["quick", "deep"],
                        help="fit, verify, and empirically bound-check "
                        "every model of this conformance corpus tier")
    verify.add_argument("--seed", type=int, default=2007,
                        help="corpus master seed (default 2007)")
    verify.add_argument("--rows", type=int, default=10000,
                        help="rows per empirical bound-check batch "
                        "(default 10000)")
    verify.add_argument("--max-cases", type=int, default=None, metavar="N",
                        help="truncate the corpus (debugging convenience)")
    verify.add_argument("--format", default="text", choices=["text", "json"])
    verify.add_argument("--strict", action="store_true",
                        help="exit 1 when warnings are the worst finding")

    compare = sub.add_parser("compare", help="method comparison table")
    compare.add_argument("--data", required=True)
    compare.add_argument("--folds", type=int, default=10)
    compare.add_argument("--min-instances", type=int, default=25)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--format", default="text", choices=["text", "json"],
                         help="output format (json lists failed units in a "
                         "repro-report envelope)")
    _add_jobs_argument(compare)
    _add_resilience_arguments(compare)

    bench = sub.add_parser(
        "bench",
        help="time the hot paths, write a BENCH_<date>.json",
        description="Run the fixed micro-benchmark set (fit, predict, "
        "cross validation, suite simulation) and emit a stable-schema "
        "JSON document for regression tracking.",
    )
    bench.add_argument("--preset", default="quick",
                       choices=["tiny", "quick", "paper"])
    bench.add_argument("--rounds", type=int, default=3,
                       help="timing rounds per benchmark (default 3)")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default BENCH_<date>.json)")
    _add_jobs_argument(bench)

    cache = sub.add_parser(
        "cache",
        help="inspect or clear the on-disk artifact cache",
        description="The artifact cache stores simulated section "
        "datasets and fitted-model JSON, content-addressed by "
        "configuration and code fingerprints.  Location: "
        "$REPRO_CACHE_DIR or ~/.cache/repro.",
    )
    cache.add_argument("action", choices=["info", "clear"],
                       help="info: list entries; clear: delete them all")

    faults = sub.add_parser(
        "faults",
        help="describe the active fault-injection spec",
        description="Fault injection makes deliberately-broken runs "
        "reproducible: $REPRO_FAULTS names sites and failure rates "
        "(e.g. 'sim:0.2,cache_read:0.1,seed=7') and every decision is "
        "a pure function of the spec's seed.",
    )
    faults.add_argument("--spec", default=None,
                        help="describe this spec instead of $REPRO_FAULTS")

    experiments = sub.add_parser("experiments", help="run paper-artifact experiments")
    experiments.add_argument("--id", action="append", dest="ids",
                             help="experiment id (repeatable); default: all")
    experiments.add_argument("--preset", default="quick",
                             choices=["tiny", "quick", "paper"])
    experiments.add_argument("--list", action="store_true",
                             help="list experiment ids and exit")

    describe = sub.add_parser("describe", help="profile a dataset's distributions")
    describe.add_argument("--data", required=True, help="dataset CSV path")

    report = sub.add_parser(
        "report", help="run all experiments, write a markdown report"
    )
    report.add_argument("--out", required=True, help="output markdown path")
    report.add_argument("--preset", default="quick",
                        choices=["tiny", "quick", "paper"])

    serve = sub.add_parser(
        "serve",
        help="serve registry models over batched JSON HTTP",
        description="Answer /predict, /explain, /models, /healthz and "
        "/metrics from published registry models, coalescing concurrent "
        "requests into compiled-tree batches.  Publish with "
        "`repro train --publish NAME` first.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="bind port (default 8377; 0 picks a free port)")
    serve.add_argument("--model", metavar="SPEC", default=None,
                       help="model spec to load at startup and use when "
                       "requests name none (e.g. cpi-tree@latest)")
    serve.add_argument("--registry", metavar="DIR", default=None,
                       help="registry directory (default: <cache>/registry)")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="rows per coalesced predictor batch (default 256)")
    serve.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock budget; past it the "
                       "request fails with 503 (default: none)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       metavar="SECONDS",
                       help="how long SIGTERM lets in-flight requests "
                       "finish before exiting (default 5)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       metavar="N",
                       help="shed requests beyond this many in flight "
                       "with 503 + Retry-After (default: unlimited)")
    serve.add_argument("--check", action="store_true",
                       help="run the startup preflight (registry, "
                       "integrity, compiled-vs-interpreted parity) and "
                       "exit instead of serving")
    _add_jobs_argument(serve)

    conformance = sub.add_parser(
        "conformance",
        help="differential + metamorphic conformance run",
        description="Fit a deliberately naive reference M5' and the "
        "production implementation on a seeded corpus, assert "
        "bit-identical trees/predictions/leaf ids across every "
        "execution path (compiled, interpreted, JSON round trip, "
        "parallel CV), then check the metamorphic relations.  "
        "Exit codes: 0 fully conformant, 2 on any divergence.",
    )
    conformance.add_argument("--tier", default="quick",
                             choices=["quick", "deep"],
                             help="corpus size (quick: PR budget, "
                             "deep: dispatch budget)")
    conformance.add_argument("--seed", type=int, default=2007,
                             help="master seed (every case derives "
                             "from it; default 2007)")
    conformance.add_argument("--max-cases", type=int, default=None,
                             metavar="N",
                             help="truncate the differential corpus "
                             "(debugging convenience)")
    conformance.add_argument("--skip-metamorphic", action="store_true",
                             help="run only the differential corpus")
    conformance.add_argument("--skip-certified", action="store_true",
                             help="skip the certified-bounds cross-check "
                             "(static verification + empirical interval "
                             "containment on every corpus model)")
    conformance.add_argument("--format", default="text",
                             choices=["text", "json"],
                             help="output format (json shares the "
                             "repro-report envelope with `repro lint`)")

    fuzz = sub.add_parser(
        "fuzz",
        help="deterministic mutation fuzzing of the parsers",
        description="Mutate valid ARFF/CSV/model-JSON documents with "
        "seeded edits and hold the loaders to their contract: bad "
        "input raises ParseError, never anything else.  Crashing "
        "inputs are quarantined under the artifact cache.  "
        "Exit codes: 0 no crashes, 2 otherwise.",
    )
    fuzz.add_argument("--target", action="append", dest="targets",
                      choices=["arff", "csv", "model"],
                      help="loader to fuzz (repeatable; default: all)")
    fuzz.add_argument("--iterations", type=int, default=None, metavar="N",
                      help="per-target iteration budget (default 200 "
                      "when no --seconds)")
    fuzz.add_argument("--seconds", type=float, default=None,
                      help="wall-clock budget across all targets")
    fuzz.add_argument("--seed", type=int, default=2007,
                      help="master seed; fully determines every "
                      "mutated document (default 2007)")
    fuzz.add_argument("--format", default="text", choices=["text", "json"])

    sub.add_parser("workloads", help="list the synthetic SPEC-like suite")

    fastsim = sub.add_parser(
        "fastsim",
        help="analytical+ML fast suite engine (calibrate/predict/check)",
        description="The fast engine predicts per-section Table I rates "
        "and CPI from closed-form cache/branch/pipeline models plus a "
        "trace-calibrated residual correction — orders of magnitude "
        "faster than replaying traces.  Calibrate once against the "
        "trace oracle, then predict datasets or gate drift in CI.",
    )
    fastsub = fastsim.add_subparsers(dest="fastsim_command", required=True)

    fcal = fastsub.add_parser(
        "calibrate",
        help="fit the calibration against the trace oracle",
        description="Measure per-phase anchors and fit the M5' residual "
        "tree against the noise-free trace simulator, then store the "
        "artifact content-addressed in the artifact cache.",
    )
    fcal.add_argument("--seed", type=int, default=2007,
                      help="calibration sweep master seed (default 2007)")
    fcal.add_argument("--out", metavar="PATH", default=None,
                      help="also write the artifact JSON to this path "
                      "(audit it with `repro lint --calibration`)")
    fcal.add_argument("--publish", metavar="NAME", nargs="?", const="",
                      default=None,
                      help="publish the residual model to the registry "
                      "under this name (default: fastsim-residual)")
    fcal.add_argument("--registry", metavar="DIR", default=None,
                      help="registry directory for --publish "
                      "(default: <cache>/registry)")
    fcal.add_argument("--no-cache", action="store_true",
                      help="refit even if a cached artifact exists, and "
                      "do not store the result")
    fcal.add_argument("--format", default="text", choices=["text", "json"],
                      help="output format (json shares the repro-report "
                      "envelope with `repro lint`)")

    fpred = fastsub.add_parser(
        "predict",
        help="predict a section dataset without replaying traces",
        description="Run the fast engine over the suite and write the "
        "predicted section dataset; the calibration is loaded from the "
        "artifact cache (fitting it on a miss).",
    )
    fpred.add_argument("--out", required=True, help="output CSV path")
    fpred.add_argument("--sections", type=int, default=120,
                       help="sections per workload (default 120)")
    fpred.add_argument("--instructions", type=int, default=2048,
                       help="instructions per section (default 2048)")
    fpred.add_argument("--seed", type=int, default=2007)
    fpred.add_argument("--jitter", type=float, default=0.08,
                       help="per-section parameter jitter (default 0.08)")
    fpred.add_argument("--arff", action="store_true",
                       help="also write a WEKA .arff next to the CSV")

    fchk = fastsub.add_parser(
        "check",
        help="FAST00x drift gates against the trace oracle",
        description="Run the fastsim conformance harness: calibration "
        "freshness, determinism, Table I invariants, and per-section / "
        "per-workload CPI drift against noise-averaged trace oracle "
        "runs on the seeded phase corpus.  "
        "Exit codes: 0 within tolerance, 2 on any divergence.",
    )
    fchk.add_argument("--tier", default="quick", choices=["quick", "deep"],
                      help="oracle replication budget (deep doubles it)")
    fchk.add_argument("--seed", type=int, default=2007,
                      help="master seed (default 2007)")
    fchk.add_argument("--format", default="text", choices=["text", "json"])
    return parser


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.datasets.arff import save_arff
    from repro.datasets.csvio import save_csv
    from repro.experiments.data import collect_run_key
    from repro.workloads import simulate_suite

    policy = _build_policy(args, collect_run_key(
        args.sections, args.instructions, args.seed
    ))
    result = simulate_suite(
        sections_per_workload=args.sections,
        instructions_per_section=args.instructions,
        seed=args.seed,
        n_jobs=args.jobs,
        policy=policy,
    )
    save_csv(result.dataset, args.out)
    print(result.summary())
    print(f"wrote {result.dataset.n_instances} sections to {args.out}")
    if args.arff:
        arff_path = args.out.rsplit(".", 1)[0] + ".arff"
        save_arff(result.dataset, arff_path)
        print(f"wrote WEKA dataset to {arff_path}")
    if result.failures:
        print(f"{len(result.failures)} workload(s) failed; the dataset "
              "is partial (rerun with --resume to fill it in)",
              file=sys.stderr)
        return 1
    return 0


def _load(path: str):
    from repro.datasets.csvio import load_csv

    return load_csv(path)


def _load_tree(path: str):
    """A saved single tree; a forest document is refused."""
    from repro.core.tree import M5Prime, load_model
    from repro.errors import ParseError

    model = load_model(path)
    if not isinstance(model, M5Prime):
        raise ParseError(f"{path}: expected a repro-m5prime tree, got a forest")
    return model


def _set_default_jobs(n_jobs) -> None:
    """Make ``--jobs`` the process-wide default via ``REPRO_JOBS``.

    Commands whose parallelism lives below the direct call (ensemble
    members, future nested fits) pick the value up through
    :func:`repro.parallel.resolve_jobs`.
    """
    import os

    from repro.parallel import JOBS_ENV, resolve_jobs

    if n_jobs is not None:
        os.environ[JOBS_ENV] = str(resolve_jobs(n_jobs))


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.core.analysis import render_rules
    from repro.core.tree import M5Prime, save_model

    _set_default_jobs(args.jobs)
    dataset = _load(args.data)
    if args.bagging:
        return _train_forest(args, dataset)
    if args.refine:
        raise ReproError("--refine requires --bagging")
    model = M5Prime(
        min_instances=args.min_instances,
        prune=not args.no_prune,
        smoothing=args.smoothing,
    )
    model.fit(dataset)
    if args.rules:
        print(render_rules(model))
    else:
        print(model.to_text())
    print()
    print(f"{model.n_leaves} leaves, depth {model.depth}, "
          f"{dataset.n_instances} training sections")
    if args.save:
        save_model(model, args.save)
        print(f"saved model to {args.save}")
    if args.publish:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(Path(args.registry) if args.registry else None)
        record = registry.publish(args.publish, model)
        print(f"published {record.spec} to {registry.directory}")
    if args.dot:
        from repro.core.tree import render_dot

        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(render_dot(model))
        print(f"wrote GraphViz source to {args.dot}")
    return 0


def _train_forest(args: argparse.Namespace, dataset) -> int:
    """The ``repro train --bagging`` path: fit, refine, save, publish."""
    from repro.baselines.bagging import BaggedM5

    for flag, name in ((args.rules, "--rules"), (args.dot, "--dot"),
                       (args.smoothing, "--smoothing"),
                       (args.no_prune, "--no-prune")):
        if flag:
            raise ReproError(f"{name} is a single-tree option; it does "
                             "not combine with --bagging")
    if args.trees < 1:
        raise ReproError("--trees must be at least 1")
    forest = BaggedM5(
        n_estimators=args.trees,
        min_instances=args.min_instances,
        seed=args.seed,
        n_jobs=args.jobs,
    ).fit(dataset)
    compiled = forest.compiled_
    print(f"bagged forest: {compiled.n_trees} trees, "
          f"{compiled.n_nodes} arena nodes, "
          f"{compiled.n_leaves} leaves "
          f"(mean {forest.mean_leaves_:.1f}/tree), "
          f"{dataset.n_instances} training sections")
    if args.refine:
        from repro.serve.refine import RefinedForest

        refinement = RefinedForest(
            forest, prune_pct=args.prune_pct, n_prunings=args.n_prunings
        ).fit(dataset)
        refined = refinement.refined_
        print(f"refined: {refined.n_active}/{compiled.n_leaves} "
              f"active leaves after {refined.n_prunings} pruning "
              f"round(s), training MAE {refined.train_mae:.5f}")
    if args.save:
        from repro.core.tree import save_model

        save_model(forest, args.save)
        print(f"saved forest to {args.save}")
    if args.publish:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(Path(args.registry) if args.registry else None)
        record = registry.publish(args.publish, forest)
        print(f"published {record.spec} to {registry.directory}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analysis import PerformanceAnalyzer
    from repro.core.tree import M5Prime

    dataset = _load(args.data)
    if args.model:
        model = _load_tree(args.model)
    else:
        training = _load(args.train) if args.train else dataset
        model = M5Prime(min_instances=args.min_instances).fit(training)
    analyzer = PerformanceAnalyzer(model)
    if args.section is not None:
        if not 0 <= args.section < dataset.n_instances:
            raise ReproError(
                f"section {args.section} out of range "
                f"(dataset has {dataset.n_instances})"
            )
        print(analyzer.analyze_section(dataset.X[args.section]).render())
    else:
        print(analyzer.summarize_dataset(dataset, top=args.top))
    return 0


def _make_learner(name: str, min_instances: int, seed: int):
    import functools

    from repro.baselines import (
        EpsilonSVR,
        KNNRegressor,
        LinearRegressionBaseline,
        MLPRegressor,
        NaiveFixedPenaltyModel,
        RegressionTree,
    )
    from repro.core.tree import M5Prime

    # functools.partial (not lambda) keeps every factory picklable, so
    # cross-validation folds can run in a process pool.
    factories = {
        "m5p": functools.partial(M5Prime, min_instances=min_instances),
        "cart": functools.partial(RegressionTree, min_instances=min_instances),
        "ols": LinearRegressionBaseline,
        "knn": functools.partial(KNNRegressor, k=5),
        "mlp": functools.partial(MLPRegressor, seed=seed),
        "svr": functools.partial(EpsilonSVR, seed=seed),
        "naive": NaiveFixedPenaltyModel,
    }
    return factories[name]


def _evaluation_run_key(prefix: str, dataset, args: argparse.Namespace) -> str:
    """Checkpoint namespace for one CV identity over one dataset.

    Content-fingerprinted (not path-based): the same data under a new
    filename still resumes, and edited data never reuses stale folds.
    """
    from repro._util import stable_hash
    from repro.resilience import dataset_fingerprint

    return prefix + "-" + stable_hash([
        dataset_fingerprint(dataset),
        getattr(args, "learner", "all"),
        args.folds,
        args.seed,
        args.min_instances,
    ])


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.evaluation import cross_validate, residual_report

    dataset = _load(args.data)
    factory = _make_learner(args.learner, args.min_instances, args.seed)
    policy = _build_policy(args, _evaluation_run_key("evaluate", dataset, args))
    result = cross_validate(
        factory, dataset, n_folds=args.folds, rng=args.seed,
        n_jobs=args.jobs, policy=policy,
    )
    if args.format == "json":
        from repro.lint import json_document

        print(json_document("evaluate", {
            "learner": args.learner,
            "data": args.data,
            "folds": result.n_folds,
            "seed": args.seed,
            "mean": result.mean.to_dict(),
            "pooled": result.pooled.to_dict(),
            "per_fold": [fold.to_dict() for fold in result.folds],
            "failed_units": [failure.to_dict() for failure in result.failures],
        }))
        return 0
    print(result.describe())
    if args.residuals:
        model = factory()
        model.fit(dataset)
        tree = model if hasattr(model, "leaf_ids") else None
        print()
        print(residual_report(dataset, result.predictions, model=tree).render())
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        all_rules,
        load_table,
        render_json,
        render_text,
        run_lint,
    )

    if args.list_rules:
        for lint_rule in all_rules():
            print(f"{lint_rule.rule_id:<10} {lint_rule.family:<8} "
                  f"{lint_rule.severity.value:<8} {lint_rule.summary}")
        return 0
    if (not args.model and not args.data and not args.cache_dir
            and args.registry is None and not args.calibration):
        raise ReproError(
            "lint needs --model, --data, --cache-dir, --registry, "
            "and/or --calibration (or --list-rules)"
        )
    model = None
    if args.model:
        model = _load_tree(args.model)
    # load_table, not _load: lint must *report* NaN/Inf cells, not crash
    # on the validating Dataset constructor.
    dataset = load_table(args.data) if args.data else None
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    registry_dir = None
    if args.registry is not None:
        if args.registry:
            registry_dir = Path(args.registry)
        else:
            from repro.serve import ModelRegistry

            registry_dir = ModelRegistry().directory
    calibration = Path(args.calibration) if args.calibration else None
    report = run_lint(
        model=model, dataset=dataset, cache_dir=cache_dir,
        registry_dir=registry_dir, calibration=calibration,
    )
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code(strict=args.strict)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.lint import json_document
    from repro.verify import verify_model

    if not args.model and args.registry is None and args.corpus is None:
        raise ReproError("verify needs --model, --registry, and/or --corpus")
    targets = []
    failures = []
    if args.model:
        from repro.core.tree import load_model

        targets.append((args.model, verify_model(load_model(args.model))))
    if args.registry is not None:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(Path(args.registry) if args.registry else None)
        names = sorted(registry.names())
        if not names:
            failures.append((str(registry.directory), "registry is empty"))
        for name in names:
            spec = f"{name}@latest"
            try:
                model, record = registry.resolve(spec)
            except ReproError as exc:
                failures.append((spec, str(exc)))
                continue
            result = verify_model(model)
            try:
                stored = registry.load_certificate(record)
            except ReproError as exc:
                failures.append((record.spec, str(exc)))
            else:
                if stored is not None and stored != result.certificate:
                    failures.append((
                        record.spec,
                        "stored certificate disagrees with the recomputed "
                        "one; the blob or certificate changed after "
                        "publish — republish the model",
                    ))
            targets.append((record.spec, result))
    corpus_report = None
    if args.corpus is not None:
        from repro.conformance import run_certified

        corpus_report = run_certified(
            seed=args.seed, tier=args.corpus, rows=args.rows,
            max_cases=args.max_cases,
        )
    any_errors = (
        bool(failures)
        or any(not result.ok for _, result in targets)
        or (corpus_report is not None and corpus_report.exit_code() != 0)
    )
    any_warnings = any(
        result.report.n_warnings > 0 for _, result in targets
    )
    if args.format == "json":
        payload = {
            "targets": [
                {
                    "target": label,
                    "ok": result.ok,
                    "diagnostics": [
                        d.to_dict() for d in result.diagnostics
                    ],
                    "certificate": (
                        result.certificate.to_dict()
                        if result.certificate is not None else None
                    ),
                }
                for label, result in targets
            ],
            "failures": [
                {"target": label, "message": message}
                for label, message in failures
            ],
        }
        if corpus_report is not None:
            payload["corpus"] = corpus_report.to_dict()
        print(json_document("verify", payload))
    else:
        for label, result in targets:
            print(f"{label}:")
            for diagnostic in result.diagnostics:
                print(f"  {diagnostic.render()}")
            print(f"  {result.summary()}")
        for label, message in failures:
            print(f"{label}: FAIL {message}")
        if corpus_report is not None:
            print(corpus_report.render_text())
    if any_errors:
        return 2
    if args.strict and any_warnings:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation import compare_estimators

    dataset = _load(args.data)
    names = ["m5p", "cart", "ols", "knn", "mlp", "svr", "naive"]
    factories = {
        name: _make_learner(name, args.min_instances, args.seed) for name in names
    }
    policy = _build_policy(args, _evaluation_run_key("compare", dataset, args))
    result = compare_estimators(
        factories, dataset, n_folds=args.folds, seed=args.seed,
        n_jobs=args.jobs, policy=policy,
    )
    if args.format == "json":
        from repro.lint import json_document

        print(json_document("compare", result.to_payload()))
        return 0
    print(result.to_table())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, ExperimentConfig, run_experiment

    if args.list:
        for eid in EXPERIMENTS:
            print(eid)
        return 0
    config = ExperimentConfig.by_name(args.preset)
    ids = [i.upper() for i in args.ids] if args.ids else list(EXPERIMENTS)
    failures = 0
    for eid in ids:
        report = run_experiment(eid, config)
        print(report.render())
        print()
        if not report.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing shape checks", file=sys.stderr)
    return 1 if failures else 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.datasets import profile_dataset

    dataset = _load(args.data)
    print(profile_dataset(dataset).render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import EXPERIMENTS, ExperimentConfig, run_experiment

    config = ExperimentConfig.by_name(args.preset)
    lines = [
        "# Reproduction report",
        "",
        f"preset: `{config.name}` — {config.sections_per_workload} sections "
        f"per workload, {config.instructions_per_section} instructions per "
        f"section, min_instances {config.min_instances}, "
        f"{config.n_folds}-fold CV, seed {config.seed}",
        "",
    ]
    failures = 0
    for eid in EXPERIMENTS:
        print(f"running {eid}...", flush=True)
        result = run_experiment(eid, config)
        status = "PASS" if result.all_checks_pass else "**FAIL**"
        lines.append(f"## {eid}: {result.title} — {status}")
        lines.append("")
        lines.append(f"*Paper:* {result.paper_claim}")
        lines.append("")
        for key, value in result.measured.items():
            lines.append(f"* {key}: {value}")
        lines.append("")
        for key, passed in result.checks.items():
            lines.append(f"* [{'x' if passed else ' '}] {key}")
        lines.append("")
        if result.body:
            lines.append("```")
            lines.append(result.body)
            lines.append("```")
            lines.append("")
        if not result.all_checks_pass:
            failures += 1
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    print(f"wrote {args.out} ({len(EXPERIMENTS)} experiments, "
          f"{failures} with failing checks)")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        default_output_path,
        render_document,
        run_bench,
        write_document,
    )

    document = run_bench(
        preset=args.preset, n_jobs=args.jobs, rounds=args.rounds
    )
    print(render_document(document))
    out = args.out or default_output_path()
    write_document(document, out)
    print(f"wrote {out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.data import artifact_cache
    from repro.resilience import CheckpointStore

    cache = artifact_cache()
    store = CheckpointStore()
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.directory}")
        cleared = store.clear()
        print(f"removed {cleared} checkpoint(s) from {store.directory}")
        return 0
    print(cache.info().render())
    runs = store.runs()
    if runs:
        print(f"checkpoint runs in {store.directory}:")
        for run_key, n_units in runs.items():
            print(f"  {run_key}  ({n_units} unit(s))")
    else:
        print(f"no checkpoint runs in {store.directory}")
    from repro.serve import ModelRegistry

    registry = ModelRegistry()
    if registry.manifest_path.exists():
        print(registry.render())
    else:
        print(f"no model registry at {registry.directory}")
    return 0


class _DrainRequested(BaseException):
    """Raised from the SIGTERM handler to unwind ``serve_forever``.

    A ``BaseException``, like ``KeyboardInterrupt``: the signal can land
    while the serve loop is starting a request thread, and
    ``socketserver`` logs any ``Exception`` raised there and keeps
    serving, which would lose the drain.
    """


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        ModelRegistry,
        ModelServer,
        preflight,
        render_preflight,
    )

    _set_default_jobs(args.jobs)
    registry = ModelRegistry(Path(args.registry) if args.registry else None)
    if args.check:
        results = preflight(registry, model_spec=args.model)
        print(render_preflight(results))
        return 0 if all(r.ok for r in results) else 2
    server = ModelServer(
        registry=registry,
        default_model=args.model,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        task_timeout=args.task_timeout,
        max_inflight=args.max_inflight,
    )
    server.start()
    # SIGTERM (systemd, docker stop, CI cleanup) means drain: stop
    # accepting, let in-flight requests finish within --drain-timeout,
    # exit 0.  Ctrl-C (SIGINT) stays the abrupt path with exit 130.
    import signal

    def _terminate(signum: int, frame: object) -> None:
        raise _DrainRequested

    signal.signal(signal.SIGTERM, _terminate)
    if args.model is not None:
        # Fail at startup, not on the first request.
        served = server.get_model(args.model)
        print(f"serving {served.label} ({served.model.n_leaves} leaves)")
    print(f"listening on http://{args.host}:{server.bound_port} "
          "(endpoints: /predict /explain /models /healthz /metrics; "
          "SIGTERM drains, Ctrl-C stops)", flush=True)
    try:
        server.serve_forever()
    except _DrainRequested:
        drained = server.shutdown(drain_timeout=args.drain_timeout)
        print(
            "drained and stopped" if drained
            else f"drain timeout ({args.drain_timeout:g}s) expired; stopped",
            file=sys.stderr,
        )
        return 0
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        server.shutdown(drain_timeout=0.0)
        return 130
    server.shutdown()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import os

    from repro.resilience.faults import FAULTS_ENV, KNOWN_SITES, FaultSpec

    text = args.spec if args.spec is not None else os.environ.get(FAULTS_ENV, "")
    if not text.strip():
        print("fault injection is inactive (set $REPRO_FAULTS or pass --spec)")
        print("known sites:")
        for site, description in KNOWN_SITES.items():
            print(f"  {site:<18} {description}")
        return 0
    print(FaultSpec.parse(text).describe())
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.conformance import (
        run_certified,
        run_differential,
        run_metamorphic,
    )

    report = run_differential(
        seed=args.seed, tier=args.tier, max_cases=args.max_cases
    )
    if not args.skip_metamorphic:
        report.merge(run_metamorphic(seed=args.seed))
    if not args.skip_certified:
        certified = run_certified(
            seed=args.seed, tier=args.tier, max_cases=args.max_cases
        )
        # run_certified counts the same corpus cases; merging them again
        # would double the case total in the summary line.
        certified.n_cases = 0
        report.merge(certified)
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code()


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.conformance import run_fuzz
    from repro.conformance.fuzz import TARGETS

    result = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        seconds=args.seconds,
        targets=tuple(args.targets) if args.targets else TARGETS,
    )
    report = result.to_report()
    if args.format == "json":
        print(report.render_json())
        return report.exit_code()
    if report.diagnostics:
        print(report.render_text())
    print(
        f"{result.n_iterations} iteration(s) in "
        f"{result.elapsed_seconds:.1f}s: {result.n_parse_errors} "
        f"ParseError(s), {result.n_valid} still-valid parse(s), "
        f"{len(result.crashes)} crash(es)"
    )
    return report.exit_code()


def _cmd_fastsim(args: argparse.Namespace) -> int:
    if args.fastsim_command == "calibrate":
        return _cmd_fastsim_calibrate(args)
    if args.fastsim_command == "predict":
        return _cmd_fastsim_predict(args)
    return _cmd_fastsim_check(args)


def _cmd_fastsim_calibrate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.experiments.data import artifact_cache
    from repro.fastsim import RESIDUAL_MODEL_NAME, calibrate, get_calibration

    if args.no_cache:
        calibration = calibrate(seed=args.seed)
    else:
        calibration = get_calibration(artifact_cache(), seed=args.seed)
    payload = {
        "seed": calibration.seed,
        "digest": calibration.digest,
        "machine_fingerprint": calibration.machine_fingerprint,
        "workload_fingerprint": calibration.workload_fingerprint,
        "n_samples": calibration.n_samples,
        "n_anchors": len(calibration.anchors),
        "stats": dict(calibration.stats),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            _json.dump(calibration.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        payload["artifact"] = args.out
    if args.publish is not None:
        from repro.serve import ModelRegistry

        registry = ModelRegistry(Path(args.registry) if args.registry else None)
        name = args.publish or RESIDUAL_MODEL_NAME
        record = registry.publish(name, calibration.model)
        payload["published"] = record.spec
    if args.format == "json":
        from repro.lint import json_document

        print(json_document("fastsim-calibrate", payload))
        return 0
    stats = calibration.stats
    print(f"calibrated {len(calibration.anchors)} phase anchor(s) from "
          f"{calibration.n_samples} oracle sample(s), seed {calibration.seed}")
    print(f"digest {calibration.digest}  "
          f"residual tree: {int(stats.get('n_leaves', 0))} leaves")
    print(f"in-sample relative error: mean {stats.get('rel_err_mean', 0):.4f}  "
          f"p95 {stats.get('rel_err_p95', 0):.4f}  "
          f"max {stats.get('rel_err_max', 0):.4f}")
    if args.out:
        print(f"wrote artifact to {args.out}")
    if "published" in payload:
        print(f"published residual model as {payload['published']}")
    return 0


def _cmd_fastsim_predict(args: argparse.Namespace) -> int:
    from repro.datasets.arff import save_arff
    from repro.datasets.csvio import save_csv
    from repro.experiments.data import artifact_cache
    from repro.fastsim import get_calibration
    from repro.workloads import simulate_suite

    calibration = get_calibration(artifact_cache(), seed=args.seed)
    result = simulate_suite(
        sections_per_workload=args.sections,
        instructions_per_section=args.instructions,
        seed=args.seed,
        jitter=args.jitter,
        engine="fast",
        calibration=calibration,
    )
    save_csv(result.dataset, args.out)
    print(result.summary())
    print(f"wrote {result.dataset.n_instances} predicted sections to "
          f"{args.out} (calibration {calibration.digest})")
    if args.arff:
        arff_path = args.out.rsplit(".", 1)[0] + ".arff"
        save_arff(result.dataset, arff_path)
        print(f"wrote WEKA dataset to {arff_path}")
    return 0


def _cmd_fastsim_check(args: argparse.Namespace) -> int:
    from repro.conformance import run_fastsim
    from repro.experiments.data import artifact_cache
    from repro.fastsim import load_calibration

    # Check the artifact a fast run would actually use: the cached one
    # (run_fastsim fits a fresh calibration only on a cache miss).
    calibration = load_calibration(artifact_cache(), seed=args.seed)
    report = run_fastsim(
        seed=args.seed, tier=args.tier, calibration=calibration
    )
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return report.exit_code()


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import spec_like_suite

    for profile in spec_like_suite():
        print(f"{profile.name:<14} {len(profile.schedule)} phase(s)  "
              f"{profile.description}")
    return 0


_COMMANDS = {
    "collect": _cmd_collect,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "evaluate": _cmd_evaluate,
    "lint": _cmd_lint,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "describe": _cmd_describe,
    "experiments": _cmd_experiments,
    "report": _cmd_report,
    "workloads": _cmd_workloads,
    "bench": _cmd_bench,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "faults": _cmd_faults,
    "conformance": _cmd_conformance,
    "fuzz": _cmd_fuzz,
    "fastsim": _cmd_fastsim,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted — completed units are checkpointed; rerun "
              "with --resume to continue", file=sys.stderr)
        return 130
    except (ReproError, OSError) as error:
        message = " ".join(str(error).split())
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

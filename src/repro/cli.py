"""Command-line interface.

::

    python -m repro tables 1           # render a paper table
    python -m repro decide hardened    # decision document for a site profile
    python -m repro scenarios --jobs 4 # run the §6.6 comparison, sharded
    python -m repro startup            # cross-engine startup comparison
    python -m repro trace kubelet_in_allocation --out trace.json
                                       # Perfetto timeline of one scenario
    python -m repro chaos kubelet_in_allocation --seed 42
                                       # same scenario under a seeded fault plan
    python -m repro chaos kubelet_in_allocation --seeds 0..15 --jobs 4 \
        --out report.json              # sharded chaos seed sweep + JSON report
    python -m repro fleet --tenants 2000 --nodes 10000 --starts 1000000 \
        --jobs 8                       # trace-driven multi-tenant fleet run
    python -m repro fleet --chaos --seed 7 --slo --slo-out scorecard.json
                                       # fleet run under a seeded node-crash /
                                       # registry-outage plan, scored against
                                       # the fleet SLO rules
    python -m repro slo kubelet_in_allocation --seed 42 --out scorecard.json
                                       # chaos run sampled in virtual time and
                                       # scored against declarative SLO rules

Each flag group is declared once (``_*_flags``) and attached to the verbs
that take it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import typing as _t

from repro.core.requirements import SiteRequirements
from repro.obs.timeseries import DEFAULT_INTERVAL

_PROFILES = {
    "conservative": SiteRequirements.conservative_center,
    "hardened": SiteRequirements.security_hardened_center,
    "cloud": SiteRequirements.cloud_converged_center,
}

#: artifact-note layouts: ``{name}``, ``{label}`` (``name:``) and ``{path}``
_CHAOS_NOTE = "  {label:<17}{path}"
_FLEET_NOTE = "  {label:<12}{path}"


class _UsageError(Exception):
    """Bad input found after parsing: one line on stderr, exit status 2."""


# -- shared handler helpers ---------------------------------------------------


def _note(fmt: str, name: str, path: str) -> None:
    print(fmt.format(name=name, label=f"{name}:", path=path))


def _artifact(fmt: str, name: str, path: str, text: str) -> None:
    """Write one text artifact (newline-terminated) and note its path."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")
    _note(fmt, name, path)


def _obs_tail(args: argparse.Namespace, fmt: str) -> None:
    """The verbs' shared ending: ``--timeseries``, then ``--metrics`` and
    ``--metrics-out``; afterwards the recorder is disarmed and it and the
    registry are emptied.  The sim-core profile counters are left as the
    run set them."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import timeseries as obs_timeseries

    if getattr(args, "timeseries", None):
        _artifact(fmt, "timeseries", args.timeseries, obs_timeseries.recorder.to_json())
    obs_timeseries.disable()
    obs_timeseries.reset()
    if args.metrics:
        print()
        print(obs_metrics.registry.render_table())
    if args.metrics_out:
        _artifact(fmt, "metrics", args.metrics_out, json.dumps(
            {"schema": "repro-metrics/1", "series": obs_metrics.registry.snapshot()},
            indent=2, sort_keys=True))
    obs_metrics.registry.reset()


def _arm_merge(args: argparse.Namespace, interval: float | None) -> bool:
    """Empty what a sharded run merges into — the registry and sim-core
    counters when metrics are wanted, the recorder when sampling — and
    return whether metrics are wanted."""
    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.obs import metrics as obs_metrics
        from repro.sim import profile as sim_profile

        sim_profile.counters.reset()
        obs_metrics.registry.reset()
    if interval is not None:
        from repro.obs import timeseries as obs_timeseries

        obs_timeseries.reset()
    return want_metrics


def _sample_interval(args: argparse.Namespace, sample: bool = False) -> float | None:
    """``--sample-interval``, else the default when ``--timeseries`` (or
    ``sample``) asks for samples without naming a grid; None: no sampling."""
    if args.sample_interval is not None:
        return args.sample_interval
    return DEFAULT_INTERVAL if sample or args.timeseries else None


def _scenario(args: argparse.Namespace) -> type:
    from repro.shard.cells import resolve_scenario

    if args.scenario is None:
        raise _UsageError("a scenario name is required (or --list)")
    try:
        return resolve_scenario(args.scenario)
    except KeyError as exc:
        raise _UsageError(exc.args[0]) from None


def _load(cls: type, path: str, flag: str):
    """``cls.from_file(path)``; a missing or malformed file is a usage error."""
    try:
        return cls.from_file(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"{flag} {path}: {exc}") from None


def _seeded_plan(args: argparse.Namespace):
    """The default scenario fault plan for ``--seed`` on ``--nodes`` nodes."""
    from repro.faults.plan import FaultPlan

    node_names = [f"nid{i:04}" for i in range(args.nodes)]
    return FaultPlan.generate(seed=args.seed, horizon=600.0, node_names=node_names)


def _plan(args: argparse.Namespace, generate=None):
    """The run's fault plan: ``--faults FILE``, else ``generate(args)``, else
    None; written to ``--save-plan`` when the verb takes it and it is set."""
    from repro.faults.plan import FaultPlan

    if args.faults:
        plan = _load(FaultPlan, args.faults, "--faults")
    else:
        plan = generate(args) if generate else None
    if getattr(args, "save_plan", None):
        if plan is None:
            raise _UsageError("--save-plan needs --chaos or --faults")
        plan.to_file(args.save_plan)
        print(f"fault plan ({len(plan)} events) written to {args.save_plan}")
    return plan


def _fleet_config(args: argparse.Namespace):
    from repro.workload.fleet import FleetConfig

    try:
        return FleetConfig(
            tenants=args.tenants, nodes=args.nodes, starts=args.starts,
            images=args.images, zipf_s=args.zipf, seed=args.seed,
            shards=args.shards, day=args.day,
        )
    except ValueError as exc:
        raise _UsageError(f"bad {args.command} config: {exc}") from None


def _trace_invalid(doc: str) -> bool:
    """Validate an exported Chrome trace; report each problem on stderr."""
    from repro.obs.export import validate_chrome_trace

    problems = validate_chrome_trace(json.loads(doc))
    for p in problems:
        print(f"invalid trace: {p}", file=sys.stderr)
    return bool(problems)


def _print_scenario_list() -> int:
    from repro.shard.cells import scenario_table

    for name in sorted({cls.name for cls in scenario_table().values()}):
        print(name)
    return 0


# -- verb handlers ------------------------------------------------------------


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.core import tables as t

    renderers = {
        1: ("Table 1 — engines: overview, rootless, OCI", t.table1_engines),
        2: ("Table 2 — engines: formats, caching, signing", t.table2_formats),
        3: ("Table 3 — engines: HPC integrations, community", t.table3_integrations),
        4: ("Table 4 — registries: overview, proxy, auth", t.table4_registries),
        5: ("Table 5 — registries: tenancy, quota, deployment", t.table5_registry_features),
    }
    numbers = [args.number] if args.number else sorted(renderers)
    for number in numbers:
        title, fn = renderers[number]
        print(t.render_table(fn(), title))
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    from repro.core.decision import DecisionReport

    site = _PROFILES[args.profile]()
    print(DecisionReport(site).render(include_tables=args.tables))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.core.tables import render_table
    from repro.scenarios.evaluate import summary_rows
    from repro.shard import ObsConfig, run_cells, scenario_matrix

    want_metrics = _arm_merge(args, None)
    result = run_cells(
        scenario_matrix(n_nodes=args.nodes, n_pods=args.pods),
        jobs=args.jobs,
        obs=ObsConfig(metrics=want_metrics),
    )
    metrics = result.values()
    print(render_table(summary_rows(metrics),
                       f"§6.6 comparison ({args.pods} pods on {args.nodes} nodes)"))
    for m in metrics:
        for note in m.notes:
            print(f"  [{m.scenario}] {note}")
    _obs_tail(args, "  {label} {path}")
    return 0


def _cmd_startup(args: argparse.Namespace) -> int:
    from repro.cluster import HostNode
    from repro.engines import ALL_ENGINES, DockerEngine, EnrootEngine
    from repro.obs import metrics as obs_metrics
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog
    from repro.registry import OCIDistributionRegistry

    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        obs_metrics.enable()
    registry = OCIDistributionRegistry(name="cli")
    image = Builder(BaseImageCatalog()).build_dockerfile(
        "FROM ubuntu:22.04\nRUN write /opt/app 50000000\nENTRYPOINT /opt/app"
    )
    registry.push_image("cli/app", "v1", image)
    print(f"{'engine':>15} {'cold':>9} {'warm':>9}  rootfs")
    for engine_cls in ALL_ENGINES:
        node = HostNode(name="cli-node")
        engine = engine_cls(node)
        if isinstance(engine, DockerEngine):
            engine.start_daemon()
        user = node.kernel.spawn(uid=1000)
        pulled = engine.pull("cli/app", "v1", registry)
        if isinstance(engine, EnrootEngine):
            engine.import_image("cli/app:v1", pulled.image)
        cold = engine.run(pulled, user)
        warm = engine.run(engine.pull("cli/app", "v1", registry), user)
        print(f"{engine.info.name:>15} {cold.startup_seconds:8.3f}s "
              f"{warm.startup_seconds:8.3f}s  {cold.container.rootfs.driver.name}")
    if want_metrics:
        obs_metrics.disable()
    _obs_tail(args, "{name} written to {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.scenarios.evaluate import run_scenario

    scenario_cls = _scenario(args)
    obs_trace.enable(wall_clock=args.wall)
    obs_metrics.enable()
    try:
        metrics = run_scenario(scenario_cls, n_nodes=args.nodes, n_pods=args.pods)
        doc = obs_trace.export_json(args.out, indent=2 if args.pretty else None)
    finally:
        obs_metrics.disable()
        obs_trace.disable()
    tracer = obs_trace.tracer
    cats = ", ".join(sorted(tracer.categories()))
    print(f"{args.out}: {len(tracer)} span records across "
          f"{len(tracer.categories())} subsystems ({cats})")
    print(f"  scenario={metrics.scenario} pods={metrics.pods_completed}/"
          f"{metrics.pods_submitted} provision={metrics.provision_time:.1f}s")
    _obs_tail(args, "  {name} written to {path}")
    if _trace_invalid(doc):
        return 1
    print("  open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _chaos_tail(args: argparse.Namespace, trace_doc: str, report_doc: dict) -> int:
    """Artifacts and exit status shared by single-seed chaos and sweeps."""
    _note(_CHAOS_NOTE, "trace", args.trace)
    if args.out:
        _artifact(_CHAOS_NOTE, "report", args.out, json.dumps(report_doc, indent=2))
    _obs_tail(args, _CHAOS_NOTE)
    if _trace_invalid(trace_doc):
        return 1
    return 0 if report_doc["aggregate"]["clean"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import chaos_report_document, run_chaos
    from repro.obs import metrics as obs_metrics
    from repro.obs import timeseries as obs_timeseries
    from repro.obs import trace as obs_trace

    scenario_cls = _scenario(args)
    if args.seeds is not None:
        return _chaos_sweep(args, scenario_cls)
    plan = _plan(args, _seeded_plan)
    interval = _sample_interval(args)
    obs_trace.enable()
    obs_metrics.enable()
    if interval is not None:
        obs_timeseries.enable(interval=interval)
    try:
        _metrics, report = run_chaos(
            scenario_cls, plan, n_nodes=args.nodes, n_pods=args.pods, seed=args.seed
        )
        doc = obs_trace.export_json(args.trace, indent=2 if args.pretty else None)
    finally:
        obs_metrics.disable()
        obs_trace.disable()
        obs_timeseries.disable()
    print(report.render())
    return _chaos_tail(args, doc, chaos_report_document([report], scenario_cls.name))


def _chaos_sweep(args: argparse.Namespace, scenario_cls: type) -> int:
    """``chaos --seeds A..B [--jobs N]``: the sharded chaos seed sweep.

    Stdout never mentions the worker count, and the runner's merge rules
    are placement-independent, so ``--jobs 1`` and ``--jobs N`` produce
    byte-identical output, trace files and report JSON.
    """
    from repro.faults.chaos import chaos_report_document
    from repro.obs import trace as obs_trace
    from repro.shard import ObsConfig, chaos_seed_sweep, parse_seed_range, run_cells
    import dataclasses as _dc

    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as exc:
        raise _UsageError(f"bad --seeds: {exc}") from None
    if args.save_plan:
        raise _UsageError("--save-plan needs a single-seed run (drop --seeds)")
    cells = chaos_seed_sweep(
        scenario_cls.name, seeds, n_nodes=args.nodes, n_pods=args.pods
    )
    plan = _plan(args)
    if plan is not None:
        plan_json = plan.to_json()
        cells = [_dc.replace(cell, plan_json=plan_json) for cell in cells]
    interval = _sample_interval(args)
    want_metrics = _arm_merge(args, interval)
    obs_trace.tracer.reset()
    result = run_cells(
        cells,
        jobs=args.jobs,
        obs=ObsConfig(metrics=want_metrics, trace=True, timeseries=interval),
    )
    reports = result.values()
    doc_text = obs_trace.export_json(args.trace, indent=2 if args.pretty else None)
    report_doc = chaos_report_document(reports, scenario_cls.name)

    print(f"chaos sweep: {scenario_cls.name} "
          f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)} run(s))")
    for report in reports:
        injected = sum(report.injected.values())
        retries = sum(report.retries.values())
        status = "clean" if report.clean else f"LEAKS={len(report.leaks)}"
        print(f"  seed {report.seed:>4}: injected={injected} retries={retries} "
              f"requeued={report.jobs_requeued} "
              f"pods {report.pods_completed}/{report.pods_submitted} {status}")
    agg = report_doc["aggregate"]
    parts = ", ".join(f"{k}={v}" for k, v in agg["injected"].items()) or "none"
    print(f"aggregate:         faults injected: {parts}")
    print(f"  pods:            {agg['pods_completed']} completed, "
          f"{agg['pods_failed']} failed, {agg['pods_submitted']} submitted")
    if agg["leaks"]:
        print(f"  LEAKS:           {agg['leaks']} across {agg['runs']} run(s)")
    else:
        print(f"  leaks:           none across {agg['runs']} run(s)")
    return _chaos_tail(args, doc_text, report_doc)


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: the trace-driven multi-tenant fleet workload.

    Stdout (and ``--out`` / ``--slo-out`` JSON) depends only on the
    merged shard results, so ``--jobs 1`` and ``--jobs N`` are
    byte-identical — the CI fleet-smoke and fleet-chaos steps ``cmp``
    exactly that.  ``--chaos`` / ``--faults`` deliver a fault plan into
    every shard; ``--slo`` scores the sampled ``fleet.*`` series.
    """
    from repro.obs.slo import SloRuleSet
    from repro.workload.fleet import (fleet_report_document, generate_fleet_plan,
                                      render_fleet_summary, run_fleet, score_fleet_slo)

    config = _fleet_config(args)
    if args.faults and args.chaos:
        raise _UsageError("--faults and --chaos are mutually exclusive")
    plan = _plan(args, (lambda a: generate_fleet_plan(config, seed=a.seed))
                 if args.chaos else None)
    want_slo = args.slo or bool(args.slo_out)
    rules = _load(SloRuleSet, args.rules, "--rules") if want_slo and args.rules else None
    interval = _sample_interval(args, sample=want_slo)
    want_metrics = _arm_merge(args, interval)
    result = run_fleet(
        config, jobs=args.jobs, metrics=want_metrics, sample_interval=interval,
        plan=plan,
    )
    print(render_fleet_summary(result))
    if want_slo:
        scorecard = score_fleet_slo(result, rules=rules)
        print()
        print(scorecard.render())
        if args.slo_out:
            _artifact(_FLEET_NOTE, "scorecard", args.slo_out, scorecard.to_json())
    if args.out:
        _artifact(_FLEET_NOTE, "report", args.out,
                  json.dumps(fleet_report_document(result), indent=2))
    _obs_tail(args, _FLEET_NOTE)
    return 0 if not result.leaks else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """``replay``: fleet traces through the real §6.5 control plane.

    Same byte-identity contract as ``fleet``: stdout and ``--out`` JSON
    depend only on the merged shard results, so ``--jobs 1`` and
    ``--jobs N`` produce identical output.
    """
    from repro.scenarios.fleet_replay import (render_replay_summary,
                                              replay_report_document, run_fleet_replay)

    config = _fleet_config(args)
    plan = _plan(args)
    interval = _sample_interval(args)
    want_metrics = _arm_merge(args, interval)
    result = run_fleet_replay(
        config, jobs=args.jobs, metrics=want_metrics, sample_interval=interval,
        plan=plan,
    )
    print(render_replay_summary(result))
    if args.out:
        _artifact(_FLEET_NOTE, "report", args.out,
                  json.dumps(replay_report_document(result), indent=2))
    _obs_tail(args, _FLEET_NOTE)
    return 0 if not result.leaks else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """``slo``: a chaos run sampled in virtual time and scored against
    declarative SLO rules.

    Everything printed or written is a pure function of ``(scenario,
    plan, rules, seed, interval)``, so double runs — and the CI
    slo-smoke step's ``cmp`` — agree byte for byte.
    """
    from repro.faults.chaos import run_slo
    from repro.obs import metrics as obs_metrics
    from repro.obs.slo import SloRuleSet

    scenario_cls = _scenario(args)
    plan = _plan(args, _seeded_plan)
    rules = _load(SloRuleSet, args.rules, "--rules") if args.rules else None
    obs_metrics.enable()
    try:
        _metrics, report, scorecard = run_slo(
            scenario_cls, plan, rules=rules, n_nodes=args.nodes,
            n_pods=args.pods, seed=args.seed, sample_interval=args.sample_interval,
        )
    finally:
        obs_metrics.disable()
    print(scorecard.render())
    if args.out:
        _artifact(_FLEET_NOTE, "scorecard", args.out, scorecard.to_json())
    _obs_tail(args, _FLEET_NOTE)
    return 0 if report.clean else 1


# -- parser ---------------------------------------------------------------------


def _positive(kind: type) -> _t.Callable[[str], _t.Any]:
    """An argparse ``type``: a finite ``kind`` value above zero."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # "invalid int value: ..." stays as it was
    return parse


_POSITIVE_INT = _positive(int)
_POSITIVE_FLOAT = _positive(float)


def _obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", action="store_true",
                   help="print the labeled metrics registry afterwards")
    p.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                   help="write the metrics registry snapshot as JSON "
                        "(schema repro-metrics/1)")


def _sampling_flags(p: argparse.ArgumentParser, interval: float | None = None) -> None:
    p.add_argument("--sample-interval", type=_POSITIVE_FLOAT, default=interval,
                   metavar="SECONDS",
                   help="sample time-series every SECONDS of virtual time"
                        + (" (default %(default)s)" if interval else ""))
    p.add_argument("--timeseries", default=None, metavar="SERIES.json",
                   help="write the sampled time-series as JSON (schema "
                        "repro-timeseries/1; implies sampling at the "
                        "default interval)")


def _scenario_flags(p: argparse.ArgumentParser, named: bool = True,
                    listing: bool = True) -> None:
    if named:
        p.add_argument("scenario", metavar="scenario", nargs="?" if listing else None,
                       help="scenario name (hyphens or underscores)")
    p.add_argument("--nodes", type=_POSITIVE_INT, default=4)
    p.add_argument("--pods", type=_POSITIVE_INT, default=8)
    if listing:
        p.add_argument("--list", action="store_true",
                       help="list scenario names and exit")


def _jobs_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=_POSITIVE_INT, default=1,
                   help="worker processes (output is byte-identical to --jobs 1)")


def _fleet_flags(p: argparse.ArgumentParser, tenants: int, nodes: int,
                 starts: int, images: int, shards: int) -> None:
    p.add_argument("--tenants", type=int, default=tenants)
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--starts", type=int, default=starts,
                   help="total container starts across the fleet")
    p.add_argument("--images", type=int, default=images,
                   help="catalog size tenants mirror and pull from")
    p.add_argument("--zipf", type=float, default=1.2,
                   help="image-popularity Zipf skew (the §4 knob)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=shards,
                   help="tenant partitions (fixed per config; NOT the "
                        "worker count — see --jobs)")
    p.add_argument("--day", type=float, default=1800.0,
                   help="diurnal period in virtual seconds")
    _jobs_flag(p)


def _plan_flags(p: argparse.ArgumentParser, seed: bool = True, save: bool = True,
                faults_help: str = "load the fault plan from a JSON file "
                                   "instead of generating one") -> None:
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for plan generation and the workload")
    p.add_argument("--faults", default=None, metavar="PLAN.json", help=faults_help)
    if save:
        p.add_argument("--save-plan", default=None, metavar="PLAN.json",
                       help="write the effective fault plan to a JSON file")


def _verb(sub, name: str, fn: _t.Callable[[argparse.Namespace], int],
          **kwargs) -> argparse.ArgumentParser:
    """Add sub-parser ``name`` running ``fn``: ``--list`` (scenario flags)
    short-circuits it, and a :class:`_UsageError` exits 2."""
    @functools.wraps(fn)
    def run(args: argparse.Namespace) -> int:
        if getattr(args, "list", False):
            return _print_scenario_list()
        try:
            return fn(args)
        except _UsageError as exc:
            print(exc, file=sys.stderr)
            return 2

    p = sub.add_parser(name, **kwargs)
    p.set_defaults(fn=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of the SC23 HPC-containerization survey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "tables", _cmd_tables, help="render paper tables from the implementation")
    p.add_argument("number", nargs="?", type=int, choices=range(1, 6))

    p = _verb(sub, "decide", _cmd_decide, help="decision document for a site profile")
    p.add_argument("profile", choices=sorted(_PROFILES))
    p.add_argument("--tables", action="store_true")

    p = _verb(sub, "scenarios", _cmd_scenarios, help="run the §6.6 scenario comparison")
    _scenario_flags(p, named=False)
    _jobs_flag(p)
    _obs_flags(p)

    p = _verb(sub, "startup", _cmd_startup, help="cross-engine startup comparison")
    _obs_flags(p)

    p = _verb(sub, "trace", _cmd_trace,
              help="run one scenario and export a Perfetto timeline")
    _scenario_flags(p, listing=False)
    p.add_argument("--out", default="trace.json",
                   help="output path for the Chrome trace JSON")
    p.add_argument("--wall", action="store_true",
                   help="also record wall-clock span durations "
                        "(non-deterministic args; off by default)")
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    _obs_flags(p)

    p = _verb(
        sub, "chaos", _cmd_chaos,
        help="run one scenario under a deterministic fault plan",
        description="Arm the fault injector with a seeded (or file-supplied) "
                    "plan, run the scenario, and report injections, retries, "
                    "requeues, pod outcomes, and the leak audit.  Same seed "
                    "and plan produce a byte-identical trace.",
    )
    _scenario_flags(p)
    _plan_flags(p)
    p.add_argument("--seeds", default=None, metavar="A..B",
                   help="run a seed sweep over the inclusive range "
                        "(or a single seed) instead of one --seed run")
    _jobs_flag(p)
    p.add_argument("--trace", default="chaos-trace.json",
                   help="output path for the Chrome trace JSON")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="also write the chaos report document as JSON "
                        "(schema repro-chaos-report/2)")
    p.add_argument("--pretty", action="store_true", help="indent the trace JSON output")
    _sampling_flags(p)
    _obs_flags(p)

    p = _verb(
        sub, "slo", _cmd_slo,
        help="score a chaos run against declarative SLO rules",
        description="Run one scenario under a deterministic fault plan with "
                    "virtual-time time-series sampling on, evaluate "
                    "threshold / error-ratio / burn-rate SLO rules over the "
                    "sampled series, and print a scorecard with per-rule "
                    "breach time, per-entity health, and per-fault-kind "
                    "detection latency.  Double runs agree byte for byte.",
    )
    _scenario_flags(p)
    _plan_flags(p, save=False)
    p.add_argument("--rules", default=None, metavar="RULES.json",
                   help="load SLO rules from a JSON file (default: the "
                        "built-in chaos rule set)")
    p.add_argument("--out", default=None, metavar="SCORECARD.json",
                   help="write the scorecard as JSON (schema "
                        "repro-slo-scorecard/1)")
    _sampling_flags(p, interval=DEFAULT_INTERVAL)
    _obs_flags(p)

    p = _verb(
        sub, "fleet", _cmd_fleet,
        help="run the trace-driven multi-tenant fleet workload",
        description="Simulate a fleet of tenants pulling Zipf-distributed "
                    "images through per-tenant registries onto a shared node "
                    "pool (diurnal Poisson arrivals, content-addressed node "
                    "caches).  The run is partitioned into deterministic "
                    "shard cells; output is byte-identical for any --jobs.",
    )
    _fleet_flags(p, tenants=64, nodes=128, starts=5000, images=24, shards=8)
    p.add_argument("--chaos", action="store_true",
                   help="generate a fleet-sized fault plan from --seed "
                        "(node crashes + registry windows) and deliver "
                        "it into every shard")
    _plan_flags(p, seed=False, faults_help="load the fault plan from a JSON "
                                           "file instead of generating one "
                                           "with --chaos")
    p.add_argument("--slo", action="store_true",
                   help="sample fleet.* time-series and score them "
                        "against the fleet SLO rules (pending depth, "
                        "warm-rate floor, wait budgets, chaos symptoms)")
    p.add_argument("--slo-out", default=None, metavar="SCORECARD.json",
                   help="write the SLO scorecard as JSON (schema "
                        "repro-slo-scorecard/1; implies --slo)")
    p.add_argument("--rules", default=None, metavar="RULES.json",
                   help="load SLO rules from a JSON file (default: the "
                        "built-in fleet rule set)")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="also write the fleet report document as JSON "
                        "(schema repro-fleet-report/2)")
    _sampling_flags(p)
    _obs_flags(p)

    p = _verb(
        sub, "replay", _cmd_replay,
        help="replay fleet traces through the real §6.5 control plane",
        description="Feed the fleet workload's arrival traces (diurnal "
                    "Poisson, Zipf tenants/images) through the real "
                    "apiserver → scheduler → kubelet → engine → registry "
                    "path: each shard is an independent §6.5 sub-cluster "
                    "(kubelets in a WLM allocation).  Output is "
                    "byte-identical for any --jobs.",
    )
    _fleet_flags(p, tenants=16, nodes=32, starts=400, images=12, shards=4)
    _plan_flags(p, seed=False, save=False,
                faults_help="deliver a fault plan's registry windows into "
                            "the replay pull path (node crashes in the "
                            "plan are ignored — fleet node ids don't name "
                            "replay sub-cluster nodes)")
    p.add_argument("--out", default=None, metavar="REPORT.json",
                   help="also write the replay report document as "
                        "JSON (schema repro-fleet-replay-report/1)")
    _sampling_flags(p)
    _obs_flags(p)
    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

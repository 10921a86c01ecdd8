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
"""

from __future__ import annotations

import argparse
import functools
import sys
import typing as _t

from repro.core.requirements import SiteRequirements

_PROFILES = {
    "conservative": SiteRequirements.conservative_center,
    "hardened": SiteRequirements.security_hardened_center,
    "cloud": SiteRequirements.cloud_converged_center,
}


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
    from repro.shard import ObsConfig, WarmSnapshot, run_cells, scenario_matrix

    if args.list:
        return _print_scenario_list()
    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.obs import metrics as obs_metrics
        from repro.sim import profile as sim_profile

        sim_profile.counters.reset()
        obs_metrics.registry.reset()
    result = run_cells(
        scenario_matrix(n_nodes=args.nodes, n_pods=args.pods),
        jobs=args.jobs,
        obs=ObsConfig(metrics=want_metrics),
        snapshot=WarmSnapshot.for_scenario_prefix(args.nodes),
    )
    metrics = result.values()
    print(render_table(summary_rows(metrics),
                       f"§6.6 comparison ({args.pods} pods on {args.nodes} nodes)"))
    for m in metrics:
        for note in m.notes:
            print(f"  [{m.scenario}] {note}")
    if want_metrics:
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"  metrics: {args.metrics_out}")
        obs_metrics.registry.reset()
    return 0


def _cmd_startup(args: argparse.Namespace) -> int:
    from repro.cluster import HostNode
    from repro.engines import ALL_ENGINES, DockerEngine, EnrootEngine
    from repro.oci import Builder
    from repro.oci.catalog import BaseImageCatalog
    from repro.registry import OCIDistributionRegistry

    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.obs import metrics as obs_metrics

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
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        obs_metrics.disable()
    return 0


@functools.lru_cache(maxsize=1)
def _scenario_classes() -> dict[str, type]:
    """Scenario lookup accepting both hyphen and underscore spellings.

    Memoized: the table is rebuilt from ``ALL_SCENARIOS`` once per
    process instead of once per command invocation."""
    from repro.shard.cells import scenario_table

    return scenario_table()


def _print_scenario_list() -> int:
    for name in sorted({cls.name for cls in _scenario_classes().values()}):
        print(name)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.export import validate_chrome_trace
    from repro.scenarios.evaluate import run_scenario
    import json as _json

    scenarios = _scenario_classes()
    scenario_cls = scenarios.get(args.scenario)
    if scenario_cls is None:
        names = ", ".join(sorted(c.name for c in set(scenarios.values())))
        print(f"unknown scenario {args.scenario!r}; one of: {names}", file=sys.stderr)
        return 2
    obs_trace.enable(wall_clock=args.wall)
    obs_metrics.enable()
    try:
        metrics = run_scenario(scenario_cls, n_nodes=args.nodes, n_pods=args.pods)
        doc = obs_trace.export_json(args.out, indent=2 if args.pretty else None)
    finally:
        obs_metrics.disable()
        obs_trace.disable()
    problems = validate_chrome_trace(_json.loads(doc))
    tracer = obs_trace.tracer
    cats = ", ".join(sorted(tracer.categories()))
    print(f"{args.out}: {len(tracer)} span records across "
          f"{len(tracer.categories())} subsystems ({cats})")
    print(f"  scenario={metrics.scenario} pods={metrics.pods_completed}/"
          f"{metrics.pods_submitted} provision={metrics.provision_time:.1f}s")
    if args.metrics:
        print()
        print(obs_metrics.registry.render_table())
    if args.metrics_out:
        _write_metrics_json(args.metrics_out)
        print(f"  metrics written to {args.metrics_out}")
    if problems:
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 1
    print("  open in https://ui.perfetto.dev (or chrome://tracing)")
    return 0


def _write_chaos_report(reports: list, scenario: str, path: str) -> None:
    import json as _json

    from repro.faults.chaos import chaos_report_document

    with open(path, "w") as fh:
        fh.write(_json.dumps(chaos_report_document(reports, scenario), indent=2))
        fh.write("\n")


def _write_metrics_json(path: str) -> None:
    """``--metrics-out``: the registry snapshot as a schema-tagged JSON doc."""
    import json as _json

    from repro.obs import metrics as obs_metrics

    with open(path, "w") as fh:
        fh.write(_json.dumps(
            {"schema": "repro-metrics/1", "series": obs_metrics.registry.snapshot()},
            indent=2, sort_keys=True))
        fh.write("\n")


def _write_timeseries_json(path: str) -> None:
    """``--timeseries``: the sampled rings as a schema-tagged JSON doc."""
    from repro.obs import timeseries as obs_timeseries

    with open(path, "w") as fh:
        fh.write(obs_timeseries.recorder.to_json())
        fh.write("\n")


def _sample_interval(args: argparse.Namespace):
    """Effective sampling interval: ``--sample-interval``, or the default
    when ``--timeseries PATH`` asks for an export without naming one."""
    if args.sample_interval is not None:
        return args.sample_interval
    if getattr(args, "timeseries", None):
        from repro.obs.timeseries import DEFAULT_INTERVAL

        return DEFAULT_INTERVAL
    return None


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlan
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.export import validate_chrome_trace
    import json as _json

    if args.list:
        return _print_scenario_list()
    if args.scenario is None:
        print("a scenario name is required (or --list)", file=sys.stderr)
        return 2
    scenarios = _scenario_classes()
    scenario_cls = scenarios.get(args.scenario)
    if scenario_cls is None:
        names = ", ".join(sorted(c.name for c in set(scenarios.values())))
        print(f"unknown scenario {args.scenario!r}; one of: {names}", file=sys.stderr)
        return 2

    if args.seeds is not None:
        return _chaos_sweep(args, scenario_cls)

    from repro.faults.chaos import run_chaos

    if args.faults:
        plan = FaultPlan.from_file(args.faults)
    else:
        node_names = [f"nid{i:04}" for i in range(args.nodes)]
        plan = FaultPlan.generate(seed=args.seed, horizon=600.0, node_names=node_names)
    if args.save_plan:
        plan.to_file(args.save_plan)
        print(f"fault plan ({len(plan)} events) written to {args.save_plan}")
    from repro.obs import timeseries as obs_timeseries

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
    print(f"  trace:           {args.trace}")
    if args.out:
        _write_chaos_report([report], scenario_cls.name, args.out)
        print(f"  report:          {args.out}")
    if args.timeseries:
        _write_timeseries_json(args.timeseries)
        print(f"  timeseries:      {args.timeseries}")
    if interval is not None:
        obs_timeseries.reset()
    if args.metrics:
        print()
        print(obs_metrics.registry.render_table())
    if args.metrics_out:
        _write_metrics_json(args.metrics_out)
        print(f"  metrics:         {args.metrics_out}")
    problems = validate_chrome_trace(_json.loads(doc))
    if problems:
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 1
    return 0 if report.clean else 1


def _chaos_sweep(args: argparse.Namespace, scenario_cls: type) -> int:
    """``chaos --seeds A..B [--jobs N]``: the sharded chaos seed sweep.

    Stdout never mentions the worker count, and the runner's merge rules
    are placement-independent, so ``--jobs 1`` and ``--jobs N`` produce
    byte-identical output, trace files and report JSON.
    """
    from repro.faults.chaos import chaos_report_document
    from repro.faults.plan import FaultPlan
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.obs.export import validate_chrome_trace
    from repro.shard import (
        ObsConfig,
        WarmSnapshot,
        chaos_seed_sweep,
        parse_seed_range,
        run_cells,
    )
    import dataclasses as _dc
    import json as _json

    try:
        seeds = parse_seed_range(args.seeds)
    except ValueError as exc:
        print(f"bad --seeds: {exc}", file=sys.stderr)
        return 2
    if args.save_plan:
        print("--save-plan needs a single-seed run (drop --seeds)", file=sys.stderr)
        return 2
    cells = chaos_seed_sweep(
        scenario_cls.name, seeds, n_nodes=args.nodes, n_pods=args.pods
    )
    if args.faults:
        plan_json = FaultPlan.from_file(args.faults).to_json()
        cells = [_dc.replace(cell, plan_json=plan_json) for cell in cells]
    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.sim import profile as sim_profile

        sim_profile.counters.reset()
        obs_metrics.registry.reset()
    interval = _sample_interval(args)
    if interval is not None:
        from repro.obs import timeseries as obs_timeseries

        obs_timeseries.reset()
    obs_trace.tracer.reset()
    result = run_cells(
        cells,
        jobs=args.jobs,
        obs=ObsConfig(metrics=want_metrics, trace=True, timeseries=interval),
        snapshot=WarmSnapshot.for_scenario_prefix(args.nodes),
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
    print(f"  trace:           {args.trace}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json.dumps(report_doc, indent=2))
            fh.write("\n")
        print(f"  report:          {args.out}")
    if args.timeseries:
        _write_timeseries_json(args.timeseries)
        print(f"  timeseries:      {args.timeseries}")
    if interval is not None:
        obs_timeseries.reset()
    if want_metrics:
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"  metrics:         {args.metrics_out}")
        obs_metrics.registry.reset()
    problems = validate_chrome_trace(_json.loads(doc_text))
    if problems:
        for p in problems:
            print(f"invalid trace: {p}", file=sys.stderr)
        return 1
    return 0 if agg["clean"] else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet``: the trace-driven multi-tenant fleet workload.

    Stdout (and ``--out`` / ``--slo-out`` JSON) depends only on the
    merged shard results, so ``--jobs 1`` and ``--jobs N`` are
    byte-identical — the CI fleet-smoke and fleet-chaos steps ``cmp``
    exactly that.  ``--chaos`` / ``--faults`` deliver a fault plan into
    every shard; ``--slo`` scores the sampled ``fleet.*`` series.
    """
    from repro.faults.plan import FaultPlan
    from repro.obs import metrics as obs_metrics
    from repro.obs import timeseries as obs_timeseries
    from repro.workload.fleet import (
        FleetConfig,
        fleet_report_document,
        generate_fleet_plan,
        render_fleet_summary,
        run_fleet,
        score_fleet_slo,
    )
    import json as _json

    try:
        config = FleetConfig(
            tenants=args.tenants,
            nodes=args.nodes,
            starts=args.starts,
            images=args.images,
            zipf_s=args.zipf,
            seed=args.seed,
            shards=args.shards,
            day=args.day,
        )
    except ValueError as exc:
        print(f"bad fleet config: {exc}", file=sys.stderr)
        return 2
    if args.faults and args.chaos:
        print("--faults and --chaos are mutually exclusive", file=sys.stderr)
        return 2
    plan = None
    if args.faults:
        plan = FaultPlan.from_file(args.faults)
    elif args.chaos:
        plan = generate_fleet_plan(config, seed=args.seed)
    if args.save_plan:
        if plan is None:
            print("--save-plan needs --chaos or --faults", file=sys.stderr)
            return 2
        plan.to_file(args.save_plan)
        print(f"fault plan ({len(plan)} events) written to {args.save_plan}")
    want_slo = args.slo or bool(args.slo_out)
    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.sim import profile as sim_profile

        sim_profile.counters.reset()
        obs_metrics.registry.reset()
    interval = _sample_interval(args)
    if want_slo and interval is None:
        from repro.obs.timeseries import DEFAULT_INTERVAL

        interval = DEFAULT_INTERVAL
    if interval is not None:
        obs_timeseries.reset()
    result = run_fleet(
        config, jobs=args.jobs, metrics=want_metrics, sample_interval=interval,
        plan=plan,
    )
    print(render_fleet_summary(result))
    if want_slo:
        from repro.obs.slo import SloRuleSet

        rules = SloRuleSet.from_file(args.rules) if args.rules else None
        # the cell merge appends points but not the interval — pin it so
        # the scorecard names the grid the cells actually sampled on
        obs_timeseries.recorder.enable(interval=interval, reset=False)
        scorecard = score_fleet_slo(result, rules=rules)
        obs_timeseries.disable()
        print()
        print(scorecard.render())
        if args.slo_out:
            with open(args.slo_out, "w") as fh:
                fh.write(scorecard.to_json())
                fh.write("\n")
            print(f"  scorecard:  {args.slo_out}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json.dumps(fleet_report_document(result), indent=2))
            fh.write("\n")
        print(f"  report:     {args.out}")
    if args.timeseries:
        _write_timeseries_json(args.timeseries)
        print(f"  timeseries: {args.timeseries}")
    if interval is not None:
        obs_timeseries.reset()
    if want_metrics:
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"  metrics:    {args.metrics_out}")
        obs_metrics.registry.reset()
    return 0 if not result.leaks else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    """``replay``: fleet traces through the real §6.5 control plane.

    Same byte-identity contract as ``fleet``: stdout and ``--out`` JSON
    depend only on the merged shard results, so ``--jobs 1`` and
    ``--jobs N`` produce identical output.
    """
    from repro.obs import metrics as obs_metrics
    from repro.scenarios.fleet_replay import (
        render_replay_summary,
        replay_report_document,
        run_fleet_replay,
    )
    from repro.workload.fleet import FleetConfig
    import json as _json

    try:
        config = FleetConfig(
            tenants=args.tenants,
            nodes=args.nodes,
            starts=args.starts,
            images=args.images,
            zipf_s=args.zipf,
            seed=args.seed,
            shards=args.shards,
            day=args.day,
        )
    except ValueError as exc:
        print(f"bad replay config: {exc}", file=sys.stderr)
        return 2
    plan = None
    if args.faults:
        from repro.faults.plan import FaultPlan

        plan = FaultPlan.from_file(args.faults)
    want_metrics = args.metrics or bool(args.metrics_out)
    if want_metrics:
        from repro.sim import profile as sim_profile

        sim_profile.counters.reset()
        obs_metrics.registry.reset()
    interval = _sample_interval(args)
    if interval is not None:
        from repro.obs import timeseries as obs_timeseries

        obs_timeseries.reset()
    result = run_fleet_replay(
        config, jobs=args.jobs, metrics=want_metrics, sample_interval=interval,
        plan=plan,
    )
    print(render_replay_summary(result))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(_json.dumps(replay_report_document(result), indent=2))
            fh.write("\n")
        print(f"  report:     {args.out}")
    if args.timeseries:
        _write_timeseries_json(args.timeseries)
        print(f"  timeseries: {args.timeseries}")
    if interval is not None:
        obs_timeseries.reset()
    if want_metrics:
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"  metrics:    {args.metrics_out}")
        obs_metrics.registry.reset()
    return 0 if not result.leaks else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """``slo``: a chaos run sampled in virtual time and scored against
    declarative SLO rules.

    Everything printed or written is a pure function of ``(scenario,
    plan, rules, seed, interval)``, so double runs — and the CI
    slo-smoke step's ``cmp`` — agree byte for byte.
    """
    from repro.faults.chaos import run_slo
    from repro.faults.plan import FaultPlan
    from repro.obs import metrics as obs_metrics
    from repro.obs import timeseries as obs_timeseries
    from repro.obs.slo import SloRuleSet

    if args.list:
        return _print_scenario_list()
    if args.scenario is None:
        print("a scenario name is required (or --list)", file=sys.stderr)
        return 2
    scenarios = _scenario_classes()
    scenario_cls = scenarios.get(args.scenario)
    if scenario_cls is None:
        names = ", ".join(sorted(c.name for c in set(scenarios.values())))
        print(f"unknown scenario {args.scenario!r}; one of: {names}", file=sys.stderr)
        return 2
    if args.faults:
        plan = FaultPlan.from_file(args.faults)
    else:
        node_names = [f"nid{i:04}" for i in range(args.nodes)]
        plan = FaultPlan.generate(seed=args.seed, horizon=600.0, node_names=node_names)
    rules = SloRuleSet.from_file(args.rules) if args.rules else None
    obs_metrics.enable()
    try:
        _metrics, report, scorecard = run_slo(
            scenario_cls,
            plan,
            rules=rules,
            n_nodes=args.nodes,
            n_pods=args.pods,
            seed=args.seed,
            sample_interval=args.sample_interval,
        )
        print(scorecard.render())
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(scorecard.to_json())
                fh.write("\n")
            print(f"  scorecard:  {args.out}")
        if args.timeseries:
            _write_timeseries_json(args.timeseries)
            print(f"  timeseries: {args.timeseries}")
        if args.metrics:
            print()
            print(obs_metrics.registry.render_table())
        if args.metrics_out:
            _write_metrics_json(args.metrics_out)
            print(f"  metrics:    {args.metrics_out}")
    finally:
        obs_metrics.disable()
        obs_metrics.registry.reset()
        obs_timeseries.disable()
        obs_timeseries.reset()
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of the SC23 HPC-containerization survey.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="render paper tables from the implementation")
    p_tables.add_argument("number", nargs="?", type=int, choices=range(1, 6))
    p_tables.set_defaults(fn=_cmd_tables)

    p_decide = sub.add_parser("decide", help="decision document for a site profile")
    p_decide.add_argument("profile", choices=sorted(_PROFILES))
    p_decide.add_argument("--tables", action="store_true")
    p_decide.set_defaults(fn=_cmd_decide)

    p_scen = sub.add_parser("scenarios", help="run the §6.6 scenario comparison")
    p_scen.add_argument("--nodes", type=int, default=4)
    p_scen.add_argument("--pods", type=int, default=8)
    p_scen.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the matrix (output is "
                             "byte-identical to --jobs 1)")
    p_scen.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    p_scen.add_argument("--metrics", action="store_true",
                        help="print the labeled metrics registry afterwards")
    p_scen.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                        help="write the metrics registry snapshot as JSON "
                             "(schema repro-metrics/1)")
    p_scen.set_defaults(fn=_cmd_scenarios)

    p_start = sub.add_parser("startup", help="cross-engine startup comparison")
    p_start.add_argument("--metrics", action="store_true",
                         help="print the labeled metrics registry afterwards")
    p_start.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                         help="write the metrics registry snapshot as JSON "
                              "(schema repro-metrics/1)")
    p_start.set_defaults(fn=_cmd_startup)

    p_trace = sub.add_parser(
        "trace", help="run one scenario and export a Perfetto timeline"
    )
    p_trace.add_argument("scenario", metavar="scenario",
                         help="scenario name (hyphens or underscores)")
    p_trace.add_argument("--out", default="trace.json",
                         help="output path for the Chrome trace JSON")
    p_trace.add_argument("--nodes", type=int, default=4)
    p_trace.add_argument("--pods", type=int, default=8)
    p_trace.add_argument("--wall", action="store_true",
                         help="also record wall-clock span durations "
                              "(non-deterministic args; off by default)")
    p_trace.add_argument("--pretty", action="store_true",
                         help="indent the JSON output")
    p_trace.add_argument("--metrics", action="store_true",
                         help="print the labeled metrics registry afterwards")
    p_trace.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                         help="write the metrics registry snapshot as JSON "
                              "(schema repro-metrics/1)")
    p_trace.set_defaults(fn=_cmd_trace)

    p_chaos = sub.add_parser(
        "chaos",
        help="run one scenario under a deterministic fault plan",
        description="Arm the fault injector with a seeded (or file-supplied) "
                    "plan, run the scenario, and report injections, retries, "
                    "requeues, pod outcomes, and the leak audit.  Same seed "
                    "and plan produce a byte-identical trace.",
    )
    p_chaos.add_argument("scenario", metavar="scenario", nargs="?",
                         help="scenario name (hyphens or underscores)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seed for plan generation and the workload")
    p_chaos.add_argument("--seeds", default=None, metavar="A..B",
                         help="run a seed sweep over the inclusive range "
                              "(or a single seed) instead of one --seed run")
    p_chaos.add_argument("--jobs", type=int, default=1,
                         help="worker processes for a --seeds sweep (output "
                              "is byte-identical to --jobs 1)")
    p_chaos.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="load the fault plan from a JSON file instead "
                              "of generating one from the seed(s)")
    p_chaos.add_argument("--save-plan", default=None, metavar="PLAN.json",
                         help="write the effective fault plan to a JSON file")
    p_chaos.add_argument("--nodes", type=int, default=4)
    p_chaos.add_argument("--pods", type=int, default=8)
    p_chaos.add_argument("--trace", default="chaos-trace.json",
                         help="output path for the Chrome trace JSON")
    p_chaos.add_argument("--out", default=None, metavar="REPORT.json",
                         help="also write the chaos report document as JSON "
                              "(schema repro-chaos-report/2)")
    p_chaos.add_argument("--list", action="store_true",
                         help="list scenario names and exit")
    p_chaos.add_argument("--pretty", action="store_true",
                         help="indent the trace JSON output")
    p_chaos.add_argument("--sample-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="sample time-series every SECONDS of virtual "
                              "time (enables SLO evaluation and detection "
                              "latency in the report)")
    p_chaos.add_argument("--timeseries", default=None, metavar="SERIES.json",
                         help="write the sampled time-series as JSON (schema "
                              "repro-timeseries/1; implies sampling at the "
                              "default interval)")
    p_chaos.add_argument("--metrics", action="store_true",
                         help="print the labeled metrics registry afterwards")
    p_chaos.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                         help="write the metrics registry snapshot as JSON "
                              "(schema repro-metrics/1)")
    p_chaos.set_defaults(fn=_cmd_chaos)

    p_slo = sub.add_parser(
        "slo",
        help="score a chaos run against declarative SLO rules",
        description="Run one scenario under a deterministic fault plan with "
                    "virtual-time time-series sampling on, evaluate "
                    "threshold / error-ratio / burn-rate SLO rules over the "
                    "sampled series, and print a scorecard with per-rule "
                    "breach time, per-entity health, and per-fault-kind "
                    "detection latency.  Double runs agree byte for byte.",
    )
    p_slo.add_argument("scenario", metavar="scenario", nargs="?",
                       help="scenario name (hyphens or underscores)")
    p_slo.add_argument("--seed", type=int, default=0,
                       help="seed for plan generation and the workload")
    p_slo.add_argument("--faults", default=None, metavar="PLAN.json",
                       help="load the fault plan from a JSON file instead of "
                            "generating one from the seed")
    p_slo.add_argument("--rules", default=None, metavar="RULES.json",
                       help="load SLO rules from a JSON file (default: the "
                            "built-in chaos rule set)")
    p_slo.add_argument("--nodes", type=int, default=4)
    p_slo.add_argument("--pods", type=int, default=8)
    p_slo.add_argument("--sample-interval", type=float, default=5.0,
                       metavar="SECONDS",
                       help="virtual-time sampling interval (default 5.0)")
    p_slo.add_argument("--out", default=None, metavar="SCORECARD.json",
                       help="write the scorecard as JSON (schema "
                            "repro-slo-scorecard/1)")
    p_slo.add_argument("--timeseries", default=None, metavar="SERIES.json",
                       help="write the sampled time-series as JSON (schema "
                            "repro-timeseries/1)")
    p_slo.add_argument("--list", action="store_true",
                       help="list scenario names and exit")
    p_slo.add_argument("--metrics", action="store_true",
                       help="print the labeled metrics registry afterwards")
    p_slo.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                       help="write the metrics registry snapshot as JSON "
                            "(schema repro-metrics/1)")
    p_slo.set_defaults(fn=_cmd_slo)

    p_fleet = sub.add_parser(
        "fleet",
        help="run the trace-driven multi-tenant fleet workload",
        description="Simulate a fleet of tenants pulling Zipf-distributed "
                    "images through per-tenant registries onto a shared node "
                    "pool (diurnal Poisson arrivals, content-addressed node "
                    "caches).  The run is partitioned into deterministic "
                    "shard cells; output is byte-identical for any --jobs.",
    )
    p_fleet.add_argument("--tenants", type=int, default=64)
    p_fleet.add_argument("--nodes", type=int, default=128)
    p_fleet.add_argument("--starts", type=int, default=5000,
                         help="total container starts across the fleet")
    p_fleet.add_argument("--images", type=int, default=24,
                         help="catalog size tenants mirror and pull from")
    p_fleet.add_argument("--zipf", type=float, default=1.2,
                         help="image-popularity Zipf skew (the §4 knob)")
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument("--shards", type=int, default=8,
                         help="tenant partitions (fixed per config; NOT the "
                              "worker count — see --jobs)")
    p_fleet.add_argument("--day", type=float, default=1800.0,
                         help="diurnal period in virtual seconds")
    p_fleet.add_argument("--jobs", type=int, default=1,
                         help="worker processes (output is byte-identical "
                              "to --jobs 1)")
    p_fleet.add_argument("--chaos", action="store_true",
                         help="generate a fleet-sized fault plan from --seed "
                              "(node crashes + registry windows) and deliver "
                              "it into every shard")
    p_fleet.add_argument("--faults", default=None, metavar="PLAN.json",
                         help="load the fault plan from a JSON file instead "
                              "of generating one with --chaos")
    p_fleet.add_argument("--save-plan", default=None, metavar="PLAN.json",
                         help="write the effective fault plan to a JSON file")
    p_fleet.add_argument("--slo", action="store_true",
                         help="sample fleet.* time-series and score them "
                              "against the fleet SLO rules (pending depth, "
                              "warm-rate floor, wait budgets, chaos symptoms)")
    p_fleet.add_argument("--slo-out", default=None, metavar="SCORECARD.json",
                         help="write the SLO scorecard as JSON (schema "
                              "repro-slo-scorecard/1; implies --slo)")
    p_fleet.add_argument("--rules", default=None, metavar="RULES.json",
                         help="load SLO rules from a JSON file (default: the "
                              "built-in fleet rule set)")
    p_fleet.add_argument("--out", default=None, metavar="REPORT.json",
                         help="also write the fleet report document as JSON "
                              "(schema repro-fleet-report/2)")
    p_fleet.add_argument("--sample-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="sample per-shard/per-tenant time-series every "
                              "SECONDS of virtual time")
    p_fleet.add_argument("--timeseries", default=None, metavar="SERIES.json",
                         help="write the sampled time-series as JSON (schema "
                              "repro-timeseries/1; implies sampling at the "
                              "default interval)")
    p_fleet.add_argument("--metrics", action="store_true",
                         help="print the labeled metrics registry afterwards")
    p_fleet.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                         help="write the metrics registry snapshot as JSON "
                              "(schema repro-metrics/1)")
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_replay = sub.add_parser(
        "replay",
        help="replay fleet traces through the real §6.5 control plane",
        description="Feed the fleet workload's arrival traces (diurnal "
                    "Poisson, Zipf tenants/images) through the real "
                    "apiserver → scheduler → kubelet → engine → registry "
                    "path: each shard is an independent §6.5 sub-cluster "
                    "(kubelets in a WLM allocation).  Output is "
                    "byte-identical for any --jobs.",
    )
    p_replay.add_argument("--tenants", type=int, default=16)
    p_replay.add_argument("--nodes", type=int, default=32)
    p_replay.add_argument("--starts", type=int, default=400,
                          help="total pod starts across the fleet")
    p_replay.add_argument("--images", type=int, default=12,
                          help="catalog size tenants mirror and pull from")
    p_replay.add_argument("--zipf", type=float, default=1.2,
                          help="image-popularity Zipf skew (the §4 knob)")
    p_replay.add_argument("--seed", type=int, default=0)
    p_replay.add_argument("--shards", type=int, default=4,
                          help="sub-clusters (fixed per config; NOT the "
                               "worker count — see --jobs)")
    p_replay.add_argument("--day", type=float, default=1800.0,
                          help="diurnal period in virtual seconds")
    p_replay.add_argument("--jobs", type=int, default=1,
                          help="worker processes (output is byte-identical "
                               "to --jobs 1)")
    p_replay.add_argument("--faults", default=None, metavar="PLAN.json",
                          help="deliver a fault plan's registry windows into "
                               "the replay pull path (node crashes in the "
                               "plan are ignored — fleet node ids don't name "
                               "replay sub-cluster nodes)")
    p_replay.add_argument("--out", default=None, metavar="REPORT.json",
                          help="also write the replay report document as "
                               "JSON (schema repro-fleet-replay-report/1)")
    p_replay.add_argument("--sample-interval", type=float, default=None,
                          metavar="SECONDS",
                          help="sample per-shard replay time-series every "
                               "SECONDS of virtual time")
    p_replay.add_argument("--timeseries", default=None, metavar="SERIES.json",
                          help="write the sampled time-series as JSON (schema "
                               "repro-timeseries/1; implies sampling at the "
                               "default interval)")
    p_replay.add_argument("--metrics", action="store_true",
                          help="print the labeled metrics registry afterwards")
    p_replay.add_argument("--metrics-out", default=None, metavar="METRICS.json",
                          help="write the metrics registry snapshot as JSON "
                               "(schema repro-metrics/1)")
    p_replay.set_defaults(fn=_cmd_replay)
    return parser


def main(argv: _t.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

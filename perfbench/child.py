"""Runs one ``python -m repro`` invocation in a fresh process and stamps
its phases for ``run.py``::

    python perfbench/child.py STAMP.json MODE OUTDIR RUN_ID -- VERB ARGS...

It does what ``python -m repro`` does — import ``repro.cli``, parse argv,
call the verb handler — and writes ``time.monotonic()`` stamps (a
system-wide clock on Linux, so the parent can subtract its own spawn
time) to ``STAMP.json`` before exiting with the handler's code.
``MODE`` is ``plain`` (nothing installed), ``trace`` or ``profile``
(see ``instrument.py``, installed after argv is parsed and timed as part
of the run).
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    stamp_path, mode, outdir, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py STAMP MODE OUTDIR RUN_ID -- VERB ARGS...")
    modules_before = len(sys.modules)
    t_import = time.monotonic()
    import repro.cli

    t_imported = time.monotonic()
    modules_imported = len(sys.modules) - modules_before
    args = repro.cli.build_parser().parse_args(cli_argv)
    t_parsed = time.monotonic()
    instruments = None
    if mode != "plain":
        import instrument

        instruments = instrument.Instruments(mode, outdir, run_id, verb=cli_argv[0])
        instruments.install()
    rc = args.fn(args)
    t_done = time.monotonic()
    stamp = {
        "t_parsed": t_parsed,
        "t_done": t_done,
        "import_s": t_imported - t_import,
        "modules_imported": modules_imported,
        "rc": rc,
    }
    if instruments is not None:
        from repro.obs import metrics as obs_metrics
        from repro.sim import profile as sim_profile

        stamp["layers"] = instruments.finish()
        stamp["sim_counters"] = sim_profile.counters.snapshot()
        stamp["metric_series"] = len(obs_metrics.registry.snapshot())
    with open(stamp_path, "w") as fh:
        json.dump(stamp, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

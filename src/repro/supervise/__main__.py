"""CLI: crash-bundle forensics.

    python -m repro.supervise list
    python -m repro.supervise replay results/crashes/<bundle>.json
    python -m repro.supervise replay <bundle> --minimize
    python -m repro.supervise inject FIB --iterations 12

``list`` shows captured bundles; ``replay`` re-executes one
deterministically (exit 0 when the failure reproduces, 1 when it does
not) and ``--minimize`` shrinks the reproducer to minimal iterations
and fault-plan entries.  ``inject`` is the CI/test driver for the
divergence sentinel: it arms the ``REPRO_CHAOS_AUDIT`` corruption hook
(``block`` site), runs one benchmark under audit, and asserts demotion
plus bundle capture — printing the bundle path on its last stdout line.
With ``--trace`` the corruption lands in a compiled *trace* shadow
(``trace`` site) instead, asserting the trace tier demotes too.  With
``--continuation`` the chaos lands in a *continuation dispatch* audit
(``dispatch`` site): the run executes under its canonical fault plan so
deopts actually dispatch, the first dispatch audit is forced to report
the guard fact as still holding, and the sentinel must refuse it,
poison the function's continuations and capture a
``continuation-divergence`` bundle.  With ``--version`` the corruption
lands in a *block version* audit shadow (``version`` site,
``repro.machine.lbbv``), asserting a version divergence demotes the
whole version table along with its block table.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .bundles import bundle_dir, list_bundles, load_bundle


def _cmd_list(args) -> int:
    root = Path(args.bundle_dir) if args.bundle_dir else bundle_dir()
    paths = list_bundles(root)
    if not paths:
        print(f"no crash bundles under {root}")
        return 0
    for path in paths:
        try:
            record = load_bundle(path)
        except (OSError, ValueError) as reason:
            print(f"{path.name}: unreadable ({reason})")
            continue
        benchmark = record.get("benchmark", "?")
        mismatches = record.get("mismatch") or record.get("mismatches") or []
        detail = record.get("error") or ",".join(mismatches[:2])
        print(f"{path.name}: {record.get('kind')} {benchmark}"
              + (f" — {detail}" if detail else ""))
    return 0


def _cmd_replay(args) -> int:
    from .replay import replay_bundle

    path = Path(args.bundle)
    if not path.exists():
        candidate = bundle_dir() / args.bundle
        if candidate.exists():
            path = candidate
        else:
            print(f"no such bundle: {args.bundle}", file=sys.stderr)
            return 2
    result = replay_bundle(path, minimize=args.minimize)
    status = "REPRODUCED" if result.reproduced else "NOT REPRODUCED"
    print(f"{status}: {result.detail}")
    if result.minimized is not None:
        print(f"minimized bundle: {result.minimized}")
    return 0 if result.reproduced else 1


def _cmd_inject(args) -> int:
    # Arm the sentinel and its corruption hook before any engine exists.
    os.environ["REPRO_AUDIT"] = str(args.interval)
    if args.trace:
        # Corrupt a *trace* audit shadow instead of a block one, and
        # drop the promotion thresholds so an auditable trace actually
        # forms within a short CI run.
        os.environ["REPRO_CHAOS_AUDIT"] = "trace"
        os.environ.setdefault("REPRO_TRACEJIT_BUDGET", "400")
        os.environ.setdefault("REPRO_TRACEJIT_HOT", "8")
        os.environ.setdefault("REPRO_TRACEJIT_ENTRY", "8")
    elif args.continuation:
        os.environ["REPRO_CHAOS_AUDIT"] = "dispatch"
    elif args.version:
        os.environ["REPRO_CHAOS_AUDIT"] = "version"
    else:
        os.environ["REPRO_CHAOS_AUDIT"] = "block"
    if args.bundle_dir:
        os.environ["REPRO_BUNDLE_DIR"] = args.bundle_dir

    from .bundles import bundle_dir as resolved_bundle_dir
    from ..suite.runner import BenchmarkRunner, NoiseModel
    from ..suite.spec import get_benchmark

    injector = None
    if args.continuation:
        # Continuation audits only run when a deopt is about to
        # dispatch; the benchmark's canonical fault plan forces trips.
        from ..resilience.faults import FaultInjector, plan_for

        injector = FaultInjector(
            plan_for(args.benchmark, 0, args.iterations)
        )

    before = set(list_bundles(resolved_bundle_dir()))
    runner = BenchmarkRunner(get_benchmark(args.benchmark))
    runner.run(iterations=args.iterations, injector=injector)
    engine = runner.last_engine
    assert engine is not None
    sentinel = engine.executor._audit
    if sentinel is None:
        print("sentinel was not armed (tier below block?)", file=sys.stderr)
        return 1
    if args.continuation:
        if sentinel.cont_audits == 0:
            print(
                "no continuation dispatch was audited (no deopt reached "
                "the dispatch path; raise --iterations)",
                file=sys.stderr,
            )
            return 1
        if not sentinel.cont_demoted:
            print(
                f"chaos did not force a spurious dispatch "
                f"({sentinel.cont_audits} dispatch audits ran)",
                file=sys.stderr,
            )
            return 1
        fresh = [
            path for path in list_bundles(resolved_bundle_dir())
            if path not in before
            and path.name.startswith("continuation-divergence-")
        ]
        if not fresh:
            print(
                "spurious dispatch was refused but no "
                "continuation-divergence bundle was captured",
                file=sys.stderr,
            )
            return 1
        for name, pc in sentinel.cont_demoted:
            print(
                f"refused spurious dispatch in {name or '<anonymous>'} "
                f"at bytecode pc {pc}; continuations poisoned",
                file=sys.stderr,
            )
        print(fresh[-1])
        return 0
    if args.version and sentinel.version_audits == 0:
        print(
            "no version audit ran (no block version was executed under "
            "audit; pick a typed-plan-heavy benchmark such as AES2 or "
            "raise --iterations)",
            file=sys.stderr,
        )
        return 1
    if args.trace and sentinel.trace_audits == 0:
        print(
            "no trace audit ran (no auditable trace formed; pick a "
            "loop-heavy, call-free benchmark such as MANDEL or raise "
            "--iterations)",
            file=sys.stderr,
        )
        return 1
    if not sentinel.demotions:
        print(
            f"chaos corruption did not trigger a demotion "
            f"({sentinel.audits} audits ran; raise --iterations or lower "
            f"--interval)",
            file=sys.stderr,
        )
        return 1
    fresh = [
        path for path in list_bundles(resolved_bundle_dir())
        if path not in before and path.name.startswith("divergence-")
    ]
    if not fresh:
        print("demotion happened but no divergence bundle was captured",
              file=sys.stderr)
        return 1
    for name, block in sentinel.demotions:
        print(f"demoted {name or '<anonymous>'} block {block} "
              f"after audit {sentinel.audits}", file=sys.stderr)
    print(fresh[-1])
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.supervise",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("list", help="list captured crash bundles")
    cmd.add_argument("--bundle-dir", default=None)
    cmd.set_defaults(func=_cmd_list)

    cmd = sub.add_parser("replay", help="re-execute one bundle")
    cmd.add_argument("bundle")
    cmd.add_argument("--minimize", action="store_true",
                     help="shrink iterations and fault-plan entries while "
                          "the failure still reproduces")
    cmd.set_defaults(func=_cmd_replay)

    cmd = sub.add_parser(
        "inject",
        help="seed a deliberate fused-tier divergence via REPRO_CHAOS_AUDIT "
             "and assert demotion + bundle capture (CI/test driver)",
    )
    cmd.add_argument("benchmark")
    cmd.add_argument("--iterations", type=int, default=12)
    cmd.add_argument("--interval", type=int, default=25,
                     help="mean audit gap in retired instructions")
    cmd.add_argument("--trace", action="store_true",
                     help="seed the divergence in a compiled *trace* "
                          "shadow instead of a fused block, asserting "
                          "trace demotion")
    cmd.add_argument("--continuation", action="store_true",
                     help="seed a spurious continuation dispatch "
                          "under the benchmark's canonical fault plan, "
                          "asserting refusal, poisoning and bundle "
                          "capture")
    cmd.add_argument("--version", action="store_true",
                     help="seed the divergence in a *block version* "
                          "audit shadow, asserting the version table "
                          "demotes with its block table")
    cmd.add_argument("--bundle-dir", default=None)
    cmd.set_defaults(func=_cmd_inject)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

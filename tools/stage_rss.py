"""Show which stage of a benchmark workload sets its peak resident memory.

Runs one pass of a ``perfbench`` workload in this process: ``import
ikmig.cli``, the workload's setup, then its CLI commands, all taken from
``perfbench/workloads.py`` unchanged.  Every function that
``perfbench/tracing.py`` spans is wrapped, under the same module
attributes, to read the process's ``ru_maxrss`` as it enters and leaves.
A stage's growth is how far its calls raised the peak, in the setup or in
the commands; its self growth leaves out the stages it called.  The peak
only rises, so the start, the import, the self growths and the growth
outside any stage add up to the pass's peak, which ``perfbench`` reports
as ``peak_rss_mb``.

    PYTHONPATH=src python tools/stage_rss.py WORKLOAD [--seed SEED]

Run it as a fresh process: the peak of a process only rises, so a second
pass in the same process would show no growth.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_mib() -> float:
    """The process's peak resident memory so far, in MiB (Linux counts KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class StageRss:
    """Per stage: calls, growth of the peak, and growth outside nested stages."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.growth: dict[str, float] = {}
        self.self_growth: dict[str, float] = {}
        self._nested: list[float] = []

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            before = peak_mib()
            self._nested.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                grown = peak_mib() - before
                inner = self._nested.pop()
                if self._nested:
                    self._nested[-1] += grown
                self.calls[name] = self.calls.get(name, 0) + 1
                self.growth[name] = self.growth.get(name, 0.0) + grown
                self.self_growth[name] = self.self_growth.get(name, 0.0) + grown - inner

        return wrapper

    def install(self) -> None:
        """Wrap each spanned function under its ``tracing.SPANS`` attribute
        and, where that is another module's binding, under its defining
        module's too: the workloads' setup imports from there."""
        for module_name, attr, _ in tracing.SPANS:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                continue
            for name in dict.fromkeys((module_name, fn.__module__)):
                module = importlib.import_module(name)
                if getattr(module, attr, None) is fn:
                    setattr(module, attr, self.wrap(attr, fn))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1,
                        help="benchmark seed, which picks noisy_ingest's stochastic seeds")
    args = parser.parse_args(argv)
    rows = [("start", peak_mib())]
    import ikmig.cli

    rows.append(("import ikmig.cli", peak_mib() - rows[0][1]))
    seeds = workloads.pass_seeds(args.workload, args.seed, 1)[0]
    stages = StageRss()
    stages.install()
    with tempfile.TemporaryDirectory() as work:
        before = peak_mib()
        workloads.setup(args.workload, work, seeds, lambda name: contextlib.nullcontext())
        rows.append(("setup", peak_mib() - before))
        before = peak_mib()
        start = time.monotonic()
        for argv_ in workloads.commands(args.workload, work, seeds):
            if ikmig.cli.main(argv_) != 0:
                print(f"ikmig {' '.join(argv_)} failed", file=sys.stderr)
                return 1
        seconds = time.monotonic() - start
        rows.append(("commands", peak_mib() - before))
    print(f"{args.workload}: seeds {seeds}, commands {seconds:.2f} s, "
          f"peak {peak_mib():.2f} MiB")
    print(f"{'growth of the peak':28s} {'MiB':>8s}")
    for name, mib in rows:
        print(f"{name:28s} {mib:8.2f}")
    print(f"{'stage':28s} {'self':>8s} {'growth':>8s} {'calls':>6s}")
    for name in stages.calls:
        print(f"{name:28s} {stages.self_growth[name]:8.2f} {stages.growth[name]:8.2f} "
              f"{stages.calls[name]:6d}")
    outside = rows[-2][1] + rows[-1][1] - sum(stages.self_growth.values())
    print(f"{'outside any stage':28s} {outside:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Record the stdout digest of every job of every input variant.

Usage, from the root of a checkout:

    python3 perfbench/record_digests.py

Each distinct job of every workload in all jobs.VARIANTS input variants
runs once, cold, as in a benchmark pass. The outputs must pass the
correctness gate, which also holds them to the digests already recorded;
only then is digests.json rewritten with the digest of every job. The
benchmark later requires every job to print byte-identical output.
"""

import json
import sys

import isolate
import run


def main():
    forker = run.job_forker(run.load_program())
    try:
        record(forker)
    finally:
        forker.close()


def record(forker):
    import jobs as workloads
    import oracle

    known = oracle.load_digests()
    recorded = {}
    for workload in workloads.WORKLOADS:
        unique = {}
        for variant in range(workloads.VARIANTS):
            built = isolate.run_forked(lambda: workloads.build(workload, variant), 120)
            if built.status != "ok":
                sys.exit("building the %s jobs of variant %d failed" % (workload, variant))
            for job in built.value:
                unique.setdefault(oracle.argv_key(job["argv"]), job)
        bench = run.Bench(forker, list(unique.values()))
        bench.run_pass()
        if bench.failed:
            sys.exit("%s: %d failed jobs; nothing recorded" % (workload, bench.failed))
        found = {key: oracle.digest(stdout)
                 for key, (_, stdout) in zip(unique, bench.reference)}
        bench.gate(dict(found, **known))
        if bench.problems:
            for problem in bench.problems:
                print("INCORRECT %s" % problem, file=sys.stderr)
            sys.exit("%s: incorrect outputs; nothing recorded" % workload)
        recorded.update(found)
        print("%s: %d distinct jobs" % (workload, len(unique)), file=sys.stderr)
    with open(oracle.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

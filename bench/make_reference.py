"""Write the reference outputs the default-seed check compares against.

    python3 bench/make_reference.py

Runs every op of every workload once at the default seed, checks the
invariants, and stores the parsed outputs in ``bench/reference/``. The
files in the repository were taken at the commit that added the
benchmark; rewriting them moves the correctness gate, so do it only when
outputs are meant to change, and say why.
"""

import json
import sys

from run import pin_threads

if __name__ == "__main__":
    threads = pin_threads()
    import harness
    import workloads
    from checks import check_outputs, parsed

    harness.import_package()
    env = harness.environment(threads)
    harness.REFERENCE.mkdir(exist_ok=True)
    work = harness.OUT / "reference"
    for name in workloads.NAMES:
        workload = workloads.make(name, workloads.DEFAULT_SEED)
        runner = harness.Runner(workload, work)
        runner.write_inputs()
        ops = {}
        for i, op in enumerate(workload.ops):
            _, outputs, problem = runner.call(i)
            problems = [problem] if problem else check_outputs(op, outputs, None)
            if problems:
                sys.exit(f"{name} {op.name}: {'; '.join(problems)}")
            ops[op.name] = parsed(op, outputs)
        doc = {"seed": workloads.DEFAULT_SEED, "environment": env, "ops": ops}
        (harness.REFERENCE / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote reference for {name}")

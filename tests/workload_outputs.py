"""Print one line per request of the benchmark's workloads at seeds 1 and 7:
the workload, the seed, the exit code, the sha256 of stdout and stderr
together, and the label.  Each request runs through ``mobzero.cli.main`` in
this process, with its operand files in a temporary directory.

CI compares the lines with ``tests/workload_outputs.txt``, so a change that
alters any output shows there.  To write that file again, from the root of
the repository::

    PYTHONPATH=src:bench python tests/workload_outputs.py > tests/workload_outputs.txt
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import workloads
from mobzero import cli


def main():
    for seed in (1, 7):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                for request in workloads.build(name, seed, Path(workdir)):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(out):
                        try:
                            code = cli.main(request.argv)
                        except SystemExit as exc:   # argparse refused it
                            code = exc.code
                    digest = hashlib.sha256(out.getvalue().encode())
                    print(name, seed, code, digest.hexdigest(), request.label)


if __name__ == "__main__":
    main()

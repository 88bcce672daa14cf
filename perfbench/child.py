"""One command process: ``python3 child.py STAMP TRACE [CLI ARGS...]``.

Does what ``python -m cubicgeom.cli CLI ARGS`` does, and also writes to STAMP
the CLOCK_MONOTONIC time at which ``import cubicgeom.cli`` returned, the
scalar backend and the path the package was imported from.  With TRACE other
than ``-`` the tracer is installed before ``main`` runs and its record is
written to TRACE at exit.  With no CLI ARGS it only imports and stamps.
"""

import json
import sys
import time


def main():
    stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import cubicgeom.cli
    imported = time.monotonic()
    from cubicgeom import field
    with open(stamp_path, "w") as fh:
        json.dump({"imported": imported,
                   "backend": f"{field.mpq.__module__}.{field.mpq.__qualname__}",
                   "package": cubicgeom.__file__}, fh)
    if not argv:
        return 0
    if trace_path == "-":
        return cubicgeom.cli.main(argv)
    import tracer
    recorder = tracer.install()
    try:
        return cubicgeom.cli.main(argv)
    finally:
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())

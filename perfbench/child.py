"""One benchmark run in a fresh process: ``tourflow build``, then ``analyze``.

    python3 child.py SRC --probe FILE [--trace FILE] KEY=VALUE ...

SRC is the directory holding the ``tourflow`` package; every KEY=VALUE
pair is passed to both commands as ``--set KEY=VALUE``.  The host-speed
probe (see probe.py) runs through both commands, and its samples are
written to the ``--probe`` FILE after both commands succeed.  With
``--trace`` the public functions the pipeline calls are wrapped in
spans (see spans.py), which are written to FILE after both commands
succeed.  The exit code is the first non-zero exit code of the two
commands, or 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from probe import Probe


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src")
    parser.add_argument("--probe", required=True)
    parser.add_argument("--trace")
    parser.add_argument("overrides", nargs="+")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import tourflow.cli

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    sets = [part for pair in args.overrides for part in ("--set", pair)]
    probe = Probe().start()
    for command in ("build", "analyze"):
        code = tourflow.cli.main([command, *sets])
        if code:
            return code
    Path(args.probe).write_text(json.dumps(probe.stop()), encoding="utf-8")
    if recorder is not None:
        recorder.dump(Path(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())

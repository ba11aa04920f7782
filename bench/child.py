"""One grid point in a fresh process: import kasamilab, build the field, then
run `kasamilab.cli.main(["verify", ...])`, optionally traced.

Writes a JSON result to --result:
  setup_end    time.monotonic() when import and build_field had finished
  exit_code    verify's return value, or null if it raised
  error        the traceback if verify raised
  maxrss_kb    the process's peak resident set size at the end
  layer_parts  per-layer metric parts (traced runs only)
With --setup-only it stops after the set-up. The process exits non-zero only
when kasamilab cannot be imported from the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--modulus", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    sys.path.insert(0, str(src))
    import kasamilab.cli
    from kasamilab.field import build_field

    if not Path(kasamilab.__file__).resolve().is_relative_to(src):
        sys.exit(f"kasamilab imported from {kasamilab.__file__}, not {src}")
    build_field(args.n, int(args.modulus, 0) if args.modulus else None)
    result = {"setup_end": time.monotonic()}

    if not args.setup_only:
        argv = ["verify", "--n", str(args.n), "--k", str(args.k),
                "--workers", str(args.workers), "--out", args.out]
        if args.modulus:
            argv += ["--modulus", args.modulus]
        block = contextlib.nullcontext()
        if args.trace:
            import layers
            import tracer
            t = tracer.Tracer()
            block = tracer.installed(t, layers.modules(), *layers.targets())
        try:
            with block:
                result["exit_code"] = kasamilab.cli.main(argv)
        except Exception:
            result["exit_code"] = None
            result["error"] = traceback.format_exc()
        if args.trace:
            result["layer_parts"] = layers.run_parts(t.spans)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()

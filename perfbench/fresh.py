"""One fresh-interpreter sample: set-up time and, optionally, peak memory.

Usage: python3 fresh.py SRC CONFIG XI0 OUT_DIR [CLI ARG ...]

Times importing ``shockbeta.cli`` plus ``parse_config_file``,
``apply_overrides`` and ``build_model`` on CONFIG; with CLI arguments it then
runs that one invocation.  Prints one JSON line with ``setup_s`` and the
process's peak resident set size in KiB.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    src, config, xi0, out_dir, *cli_args = sys.argv[1:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from shockbeta import cli
    from shockbeta.config import apply_overrides, build_model, parse_config_file

    rc = apply_overrides(parse_config_file(config), {"xi0": xi0, "out_dir": out_dir})
    build_model(rc)
    setup_s = time.perf_counter() - t0
    code = 0
    if cli_args:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(cli_args)
            except Exception as exc:  # reported to the parent as a failure
                code = f"{type(exc).__name__}: {exc}"
    print(json.dumps({
        "setup_s": setup_s,
        "code": code,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

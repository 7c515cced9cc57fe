"""One repetition of a workload in a fresh interpreter.

Reads a JSON spec on stdin:
``{"argv": [[...], ...], "trace": bool, "calibrate": bool}``, ``{"argv": []}``
for an import-only start, or ``{"copy_mib": n}`` to measure memory bandwidth
with ``np.copyto`` on an n MiB array instead.  Times ``import sqrw.cli`` (the
set-up every CLI run pays), then calls ``sqrw.cli.main(argv)`` for each
command with stdout captured, and prints one JSON line: set-up time,
per-command and total wall times, CPU time, peak RSS, per-command exit codes
and stdout, and with tracing the span summary.  With ``calibrate`` it also
times ``Calibration.run`` right after the import and after every command, so
that the parent can scale each time to the host's speed around it.  Nothing
but the standard library is imported before the timed import.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def _maxrss_mib() -> float:
    """Peak RSS of this process image, from VmHWM.

    ``ru_maxrss`` is not used: Linux keeps it across exec, so it would report
    the parent's RSS at the time it started this child whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def copy_gbps(mib: int, repeats: int = 5) -> float:
    """Bytes read plus bytes written per second by ``np.copyto``, median of repeats."""
    import statistics

    import numpy as np

    src = np.ones((mib << 20) // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # first touch of every page
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


class Calibration:
    """A fixed amount of interpreter work and of memory traffic, to gauge the host's speed.

    The host's speed moves by up to half over seconds to minutes, and not
    by the same share for every kind of work.  ``run`` times a pure-Python
    loop and a 64 MiB ``np.copyto`` and returns both times.  The 2 x 64 MiB
    copy buffers stay allocated for the whole start, so peak RSS is measured
    in starts without calibration.
    """

    LOOP = 100_000
    COPY_MIB = 64

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.src = np.ones((self.COPY_MIB << 20) // 8)
        self.dst = np.empty_like(self.src)
        np.copyto(self.dst, self.src)  # first touch of every page

    def run(self) -> list[float]:
        t0 = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        t1 = time.perf_counter()
        self.np.copyto(self.dst, self.src)
        t2 = time.perf_counter()
        return [t1 - t0, t2 - t1]


def main() -> None:
    spec = json.load(sys.stdin)
    if "copy_mib" in spec:
        print(json.dumps({"copy_gbps": copy_gbps(spec["copy_mib"])}))
        return
    t0 = time.perf_counter()
    import sqrw.cli

    setup_s = time.perf_counter() - t0
    out = {"setup_s": setup_s, "rss_import_mib": _maxrss_mib(), "module": sqrw.cli.__file__}
    calibration = Calibration() if spec.get("calibrate") else None
    cal_s = [calibration.run()] if calibration else []
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
    results = []
    cmd_s = []
    cpu0 = time.process_time()
    for argv in spec["argv"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = sqrw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects flags this way
            code = exc.code
        except Exception:  # a crash fails this command, not the benchmark
            code = "exception: " + traceback.format_exc(limit=3)
        cmd_s.append(time.perf_counter() - t0)
        if calibration:
            cal_s.append(calibration.run())
        results.append({"code": code, "stdout": buf.getvalue()})
    out["cmd_s"] = cmd_s
    out["cal_s"] = cal_s
    out["wall_s"] = sum(cmd_s)
    out["cpu_s"] = time.process_time() - cpu0
    out["peak_rss_mib"] = _maxrss_mib()
    out["results"] = results
    if tracer is not None:
        out["spans"] = tracer.summary()
    print(json.dumps(out))


if __name__ == "__main__":
    main()

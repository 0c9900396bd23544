"""Serve one database file on a loopback port for the benchmark.

    python3 perfbench/server.py DATABASE_FILE [CPU]

Once listening it prints one JSON line (port, pid, import_s, load_ms) and
then serves until its standard input closes, so it also stops when the
benchmark that started it dies.  With CPU given it runs on that CPU only.
"""

import json
import os
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    if len(sys.argv) > 2:
        os.sched_setaffinity(0, {int(sys.argv[2])})
    t0 = perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pircsi import Database, wire

    t1 = perf_counter()
    db = Database.load(sys.argv[1])
    t2 = perf_counter()
    server = wire.PirServer(db, host="127.0.0.1", port=0).start()
    try:
        ready = {
            "port": server.address[1],
            "pid": os.getpid(),
            "import_s": t1 - t0,
            "load_ms": (t2 - t1) * 1e3,
        }
        print(json.dumps(ready), flush=True)
        sys.stdin.buffer.read()
    finally:
        server.stop()


if __name__ == "__main__":
    main()

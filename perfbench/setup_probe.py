"""Child process behind ``setup_s``: import ncross from the checkout and run
one one-trial ``verify`` through ``ncross.cli.main``.

    python3 perfbench/setup_probe.py <src dir> verify --suite ... --trials 1

Prints ``time.monotonic()`` at the moment the call returned; the parent took
the same clock just before launching this interpreter.  Exits 3 when
``ncross`` would be imported from anywhere but the given source tree, and 4
when the report is not valid JSON.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

import ncross  # noqa: E402
from ncross.cli import main  # noqa: E402

if src not in Path(ncross.__file__).resolve().parents:
    sys.exit(3)
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    main(sys.argv[2:])
done = time.monotonic()
try:
    json.loads(buf.getvalue())
except ValueError:
    sys.exit(4)
print(repr(done))

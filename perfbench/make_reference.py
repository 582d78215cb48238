"""Regenerate ``reference_traces.json``: the visibility traces of
revival_scan's fixed set, against which that workload checks those ops.

    python3 perfbench/make_reference.py

Run it from the root of a checkout, and only at a commit whose engine output
is the intended reference: the benchmark then holds later commits to these
traces at 1e-8.
"""

import json

from run import check_source, use_checkout_source

use_checkout_source()
check_source()

import revival_scan  # noqa: E402
from revivalsim import lindblad  # noqa: E402

references = {}
for name, point in revival_scan.FIXED_POINTS.items():
    trace = lindblad.run_protocol(revival_scan.protocol_config(point))
    references[name] = {"point": point, "visibility": trace.visibility.tolist()}
    print(f"{name}: {len(trace.times)} samples, V(end) = {trace.visibility[-1]:.12f}")
revival_scan.REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")

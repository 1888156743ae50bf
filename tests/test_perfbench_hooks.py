"""The benchmark's per-layer timing patches named attributes in place.

``perfbench/layers.py`` wraps every attribute listed in ``LAYERS`` for
a traced run and restores it with a plain ``setattr``, so each one must
be defined on its owner itself (``vars(owner)``), not inherited.  A
refactor that moves, say, a layer's ``forward`` into a shared base
would leave the library working and break
``perfbench/run.py --trace 1`` with a ``KeyError``; this test catches
that without running the benchmark.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench.layers import LAYERS, resolve  # noqa: E402


def test_every_hook_target_is_defined_on_its_owner():
    missing = [
        f"{owner}.{attr}"
        for owner, attrs, _key, _calls in LAYERS
        for attr in attrs
        if attr not in vars(resolve(owner))
    ]
    assert LAYERS
    assert missing == []

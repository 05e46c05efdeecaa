"""Demo output: the SHA-256 of what each script under ``demos/`` prints.

Each demo runs in-process as ``__main__`` with its stdout captured, and
the digest of that text is compared with the value pinned in
``STDOUT_SHA256``.  The demos narrate the simulator's behaviour (estimate
accuracy per bandwidth tier, a fault-handling timeline, the four variants
side by side, a contract's life under requirement changes), so a change
that alters any number they print fails here.  The four demos take about
0.4 s together inside a full run on a 2-core host, and this file
1.2-1.7 s alone, most of it ``delay_estimation_accuracy`` and
``variant_comparison``.

A change that alters a demo's output on purpose re-pins it from
``python3 demos/<name>.py | sha256sum`` and says why.
"""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "contract_lifecycle":
        "9730ccf89559df015202ca9279bad67594e3a15d2814e0949082743eaaae3a24",
    "delay_estimation_accuracy":
        "949329f604b7e1096f177205bdcf15c77b1e9b6fb38b8f75520a95cf516dde40",
    "fault_restoration_timeline":
        "bc43b12a166959ea9a6c9e7a27f79e97568064aee7b058e1543ec8004f79354b",
    "variant_comparison":
        "5c6fff5491ae7fa07b64687febfda8ce72a0937572912cbb57ee8ceff7bfe69d",
}


def test_every_demo_is_pinned():
    assert sorted(path.stem for path in DEMOS.glob("*.py")) == \
        sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_output(name, monkeypatch):
    # The demos put src/ at the front of sys.path; undo that.
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == STDOUT_SHA256[name], \
        text

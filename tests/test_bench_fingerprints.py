"""Round 0 of each benchmark workload on seed 1 gives its pinned
fingerprints: the inputs it generates, the verdicts it reaches, and the
scan workload's diagonal digest.  The pins are in
``round0_fingerprints.txt``, which CI's benchmark smoke run also reads."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINS = Path(__file__).with_name("round0_fingerprints.txt")


def pinned() -> dict[str, str]:
    lines = (line for line in PINS.read_text().splitlines() if line and not line.startswith("#"))
    return dict(line.split(" ", 1) for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_0_fingerprints_are_as_pinned(name, monkeypatch):
    # Not run.load: it re-imports every combinekit module, which would leave
    # the rest of the session holding stale classes.  The workload is built
    # from the modules already imported, as run.load builds it from its own.
    monkeypatch.delenv("COMBINEKIT_CONFIG", raising=False)
    ck = SimpleNamespace(**{m: importlib.import_module(f"combinekit.{m}") for m in run.MODULES})
    workload = WORKLOADS[name](ck, ck.registry.load_registry(), 1)
    p = run.run_pass(workload, rounds=1)
    diagonal = getattr(workload, "diagonal_digest", lambda: None)()
    fingerprint = {**p.fingerprint(), "diagonal": diagonal[:16] if diagonal else "-"}
    assert p.failed == 0, p.errors
    assert " ".join(f"{k}={v}" for k, v in fingerprint.items()) == pinned()[name]

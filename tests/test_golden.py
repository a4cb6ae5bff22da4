"""Committed CLI artefacts, compared byte for byte.

``tests/golden/`` holds the ``ts --members`` JSON, the ``ts`` DOT and the
``rg`` JSON of every bundled model and of the generated shared-memory model
with three processors, abstract (``shm3a``) and concrete (``shm3c``).  They
pin the state keys, the class members, the steps and the targets of both
semantics.  None of them goes through a LAPACK call, so their bits do not
depend on the BLAS build.

A change that means to move them regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dtsipbc.cli import main
from dtsipbc.models import bundled_model_names

from conftest import shm_text

GOLDEN = Path(__file__).resolve().parent / "golden"

MODELS = bundled_model_names() + ["shm3a", "shm3c"]

# artefact file name, command and options
ARTEFACTS = (
    ("ts.json", "ts", ("--members",)),
    ("ts.dot", "ts", ("--format", "dot")),
    ("rg.json", "rg", ()),
)


def generate(model: str, artefact: tuple, work: Path) -> bytes:
    """The bytes that ``cli.main`` writes for one artefact of one model."""
    name, command, options = artefact
    if model.startswith("shm3"):
        path = work / ("%s.dtsi" % model)
        path.write_text(shm_text(3, abstract=model == "shm3a"), encoding="utf-8")
        model_arg = str(path)
    else:
        model_arg = model
    out = work / model / name
    assert main([command, model_arg, *options, "--out", str(out)]) == 0
    return (out / name).read_bytes()


@pytest.mark.parametrize("artefact", ARTEFACTS, ids=[a[0] for a in ARTEFACTS])
@pytest.mark.parametrize("model", MODELS)
def test_artefact_matches_golden(model, artefact, tmp_path, capsys):
    expected = (GOLDEN / ("%s.%s" % (model, artefact[0]))).read_bytes()
    assert generate(model, artefact, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for model in MODELS:
            for artefact in ARTEFACTS:
                (GOLDEN / ("%s.%s" % (model, artefact[0]))).write_bytes(generate(model, artefact, Path(work)))
    sys.exit(0)

"""The package root: every exported name resolves, and the weight-archive
module loads without the training loop."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sliceset

SRC = str(Path(sliceset.__file__).resolve().parents[1])


def test_every_name_in_all_resolves():
    missing = [name for name in sliceset.__all__ if not hasattr(sliceset, name)]
    assert missing == []


def _run_fresh(code: str):
    """Run ``code`` in a new interpreter that imports the package from this tree."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("code", [
    # weights first: the training loop stays unloaded until pretrain_2d is asked for
    "import sys, sliceset.weights as w\n"
    "assert 'sliceset.train' not in sys.modules, 'weights loaded train'\n"
    "assert not hasattr(w, 'no_such_name')\n"
    "import sliceset.train as t\n"
    "assert w.pretrain_2d is t.pretrain_2d\n",
    # train first: it imports weights, and every pretraining name resolves
    "import sliceset.train as t, sliceset.weights as w, sliceset\n"
    "assert w.pretrain_2d is t.pretrain_2d is sliceset.pretrain_2d\n",
])
def test_weights_loads_without_the_training_loop(code):
    _run_fresh(code)

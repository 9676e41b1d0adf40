"""Every script under ``examples/`` runs to the end.

Nothing else imports the examples, so an API change that breaks one
would go unnoticed.  Each script's ``main()`` runs here with its output
captured, once on each storage backend (``CONDORJ2_STORAGE_ENGINE``
names the one the pool it builds uses).
"""

import importlib.util
from pathlib import Path

import pytest

from repro.condorj2.storage import ENGINE_ENV_VAR

ENGINES = ("sqlite", "memory", "wal")

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(path, engine, capsys, monkeypatch):
    monkeypatch.setenv(ENGINE_ENV_VAR, engine)
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out

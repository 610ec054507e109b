import doctest
import importlib
import pkgutil

import taupoly


def test_every_docstring_example_passes():
    attempted = 0
    for info in pkgutil.iter_modules(taupoly.__path__, taupoly.__name__ + "."):
        if info.name.endswith(".__main__"):
            continue  # importing the entry point runs the CLI
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0

"""Every artifact format is written and read by ``experiments``: the
modules that compute (``protocol``, ``optics``, ``metrics``) import no
file format, and each reader and writer is defined in ``experiments``."""

import ast
import inspect

import pytest

from optics_coverage import experiments, metrics, optics, protocol

FORMATS = [
    "write_trace",
    "read_trace",
    "write_reachability_csv",
    "_csv_field",
    "write_table_csv",
    "write_coverage_grid_csv",
]


def imported_modules(module) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", [protocol, optics, metrics], ids=lambda m: m.__name__)
def test_computing_modules_import_no_file_format(module):
    assert not imported_modules(module) & {"csv", "json"}
    assert not set(FORMATS) & vars(module).keys()


@pytest.mark.parametrize("name", FORMATS)
def test_every_reader_and_writer_is_defined_in_experiments(name):
    assert getattr(experiments, name).__module__ == "optics_coverage.experiments"

"""Every configuration field is read somewhere under ``src/``.

A field of :class:`FabConfig`, :class:`FheParams` or :class:`HostConfig`
that no code reads is a knob that changes no reported number: setting it
does nothing, yet it reads like part of the model.  The scan collects
every attribute name loaded anywhere in the package's source and
requires each field name among them.  It matches by name only, so a
field shadowed by a same-named attribute of another object passes; the
check catches knobs nothing reads at all.
"""

import ast
import dataclasses
import pathlib

import pytest

import repro
from repro.core import FabConfig, FheParams, HostConfig

SRC = pathlib.Path(repro.__file__).parent


def _attribute_reads():
    reads = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    return reads


@pytest.mark.parametrize("config_class", [FabConfig, FheParams, HostConfig])
def test_every_field_is_read(config_class):
    reads = _attribute_reads()
    unread = [
        field.name
        for field in dataclasses.fields(config_class)
        if field.name not in reads
    ]
    assert unread == [], f"{config_class.__name__} fields no code reads: {unread}"

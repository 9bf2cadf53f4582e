import ast
from pathlib import Path

import bohrlab


def test_every_exported_name_resolves():
    assert len(set(bohrlab.__all__)) == len(bohrlab.__all__)
    for name in bohrlab.__all__:
        getattr(bohrlab, name)


def test_deleted_names_are_not_exported():
    for name in ("LqVector", "lq_norm", "build", "Preset", "PRESETS"):
        assert name not in bohrlab.__all__
        assert not hasattr(bohrlab, name)
        assert not hasattr(bohrlab.family, name)


def test_only_the_cli_writes_to_the_terminal():
    # the library returns values; cli.py alone prints or touches sys.stdout/stderr
    package = Path(bohrlab.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "cli.py")
    assert len(modules) >= 8
    writes = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and node.id == "print":
                writes.append((path.name, node.lineno, "print"))
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and isinstance(node.value, ast.Name)
                and node.value.id == "sys"
            ):
                writes.append((path.name, node.lineno, f"sys.{node.attr}"))
    assert writes == []

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "lines.py"


def _lines():
    spec = importlib.util.spec_from_file_location("lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_each_kind_of_line(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        '"""Module.\n'
        "\n"
        'More."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """One line."""\n'
        "\n"
        "    def f(self):\n"
        '        """Two\n'
        '        lines."""\n'
        '        "not a docstring"\n'
        "        return 2\n"
    )
    assert _lines().count(source) == {"code": 5, "docstring": 5, "comment": 1, "blank": 5, "total": 16}


def test_options_are_the_defaulted_public_parameters_and_fields(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from dataclasses import dataclass\n"
        "LIMIT: int = 3\n"
        "\n"
        "def f(a, b=1, *args, c, d=2, _e=3, **kw):\n"
        "    def inner(x=1):\n"
        "        return x\n"
        "\n"
        "def _private(a=1):\n"
        "    pass\n"
        "\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    _z: int = 0\n"
        "\n"
        "    def __init__(self, w=1):\n"
        "        pass\n"
        "\n"
        "    def m(self, p, /, q=2):\n"
        "        pass\n"
        "\n"
        "class _Hidden:\n"
        "    v: int = 1\n"
    )
    assert _lines().options(source) == ["f.b", "f.d", "C.y", "C.m.q"]


def test_a_field_the_constructor_does_not_take_is_no_option(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "\n"
        "@dataclass\n"
        "class C:\n"
        "    a: list = field(default_factory=list)\n"
        "    b: int = field(init=False)\n"
        "    c: list = field(init=False, default_factory=list)\n"
        "    d: int = dataclasses.field(default=0, init=False)\n"
        "    e: int = field(default=0, init=True)\n"
        "    f: int = other(init=False)\n"
    )
    assert _lines().options(source) == ["C.a", "C.e", "C.f"]


def test_the_package_has_at_most_forty_two_options():
    # a new option is a choice every caller may make; adding one should show up here, and in review
    root = TOOL.parent.parent / "src" / "qelicit"
    found = [name for path in sorted(root.glob("*.py")) for name in _lines().options(path)]
    assert len(found) <= 42, found

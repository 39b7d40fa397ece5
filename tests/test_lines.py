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

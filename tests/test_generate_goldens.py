"""scripts/generate_goldens.py gates every golden before it touches the
frozen files."""
import importlib.util
import pathlib

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "scripts"
          / "generate_goldens.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("generate_goldens", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failed_gate_leaves_goldens_untouched(tmp_path, monkeypatch):
    gg = _load_script()
    monkeypatch.setattr(gg, "GOLDEN", tmp_path)
    sentinel = tmp_path / "table3-d1-m1.json"
    sentinel.write_text("sentinel\n")
    # one wrong coefficient in the last row of table 2; table 1 passes
    # its gates first, table 3, table 4 and the polygons never run
    key = max(gg.rt.TABLE2)
    row = gg.rt.TABLE2[key]
    (terms, power), *rest = row["factors"]
    e_c, e_x, coef = terms[0]
    bad = dict(row, factors=[([(e_c, e_x, coef + 1)] + terms[1:], power)]
               + rest)
    monkeypatch.setitem(gg.rt.TABLE2, key, bad)
    with pytest.raises(SystemExit, match="table2"):
        gg.main()
    assert [p.name for p in tmp_path.iterdir()] == ["table3-d1-m1.json"]
    assert sentinel.read_text() == "sentinel\n"

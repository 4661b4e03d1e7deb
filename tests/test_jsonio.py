import os

import pytest

from treedefect import jsonio


def test_failed_write_leaves_previous_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "model.json"
    jsonio.write(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        jsonio.write(path, {"a": object()})  # not serializable
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    # the new text is on disk but the rename fails
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        jsonio.write(path, {"a": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


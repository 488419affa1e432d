"""Every artifact of every experiment kind, and the ``semlab synth`` output,
byte for byte against the committed digests of ``golden.py``."""

import json

import golden


def test_artifacts_match_the_committed_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = golden.digest()
    want = json.loads(golden.TABLE.read_text())
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []

"""Golden transcripts: every record in ``tests/golden/`` replayed through
``cli.main`` in process must print the recorded stdout and stderr, exit
with the recorded code and write the recorded files, none for most.
``tests/record_golden.py`` writes the records."""

import json

import pytest

from record_golden import GOLDEN, ROOT, readme_commands, run, written

RECORDS = sorted(GOLDEN.glob("*.json"))


def test_corpus_holds_every_readme_command():
    recorded = [json.loads(path.read_text(encoding="utf-8"))["argv"]
                for path in RECORDS]
    assert readme_commands()
    assert all(argv in recorded for argv in readme_commands())


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_replay_matches_the_record(path, monkeypatch, tmp_path):
    rec = json.loads(path.read_text(encoding="utf-8"))
    monkeypatch.chdir(ROOT)
    for key in ("LAMTOOL_SIZE_CAP", *rec["env"]):
        monkeypatch.delenv(key, raising=False)
    code, out, err = run(rec["argv"], rec["env"], tmp_path)
    assert (code, out.split("\n"), err.split("\n")) == \
        (rec["exit"], rec["stdout"], rec["stderr"])
    assert written(tmp_path) == rec.get("files", {})

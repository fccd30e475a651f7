"""The incremental cache: correct reuse, correct invalidation.

The cache must never change *what* is reported — only whether the work
is redone.  Every test therefore compares cached output against a
cold run, and the invalidation tests check both directions: an
effect-shifting edit re-lints dependents, a local edit does not.
"""

import json

from repro.analysis import run
from repro.analysis.config import SimlintConfig

COMM = '''
def deliver(net, part):
    net.broadcast(0, part, 4)
'''

DRIVER = '''
from helpers import deliver

def fan_out(net, frontier):
    for part in frontier:
        deliver(net, part)
'''


def _tree(tmp_path):
    (tmp_path / "helpers.py").write_text(COMM)
    (tmp_path / "driver.py").write_text(DRIVER)
    return tmp_path


def _run(tmp_path, **kw):
    config = SimlintConfig(root=str(tmp_path))
    return run(
        [str(tmp_path)], config=config, use_cache=True,
        cache_dir=str(tmp_path / ".simlint_cache"), **kw,
    )


def test_second_run_is_all_hits_and_identical(tmp_path):
    tree = _tree(tmp_path)
    first = _run(tree)
    second = _run(tree)
    assert first.cache_hits == 0
    assert second.cache_hits == 2
    assert second.findings == first.findings
    assert second.suppressions_used == first.suppressions_used


def test_cache_file_is_json_under_cache_dir(tmp_path):
    tree = _tree(tmp_path)
    _run(tree)
    payload = json.load(open(tree / ".simlint_cache" / "cache.json"))
    assert payload["schema"] >= 2
    assert set(payload["summaries"]) == {"driver.py", "helpers.py"}
    # The cache dir ships its own .gitignore so it can never be committed.
    assert (tree / ".simlint_cache" / ".gitignore").exists()


def test_effect_shifting_edit_invalidates_every_file(tmp_path):
    tree = _tree(tmp_path)
    first = _run(tree)
    assert [f.code for f in first.findings] == ["SIM004"]
    # Phase the send inside the callee: fan_out's chain becomes phased.
    (tree / "helpers.py").write_text('''
def deliver(net, part):
    with net.ledger.phase("deliver"):
        net.broadcast(0, part, 4)
''')
    second = _run(tree)
    # driver.py itself is unchanged, but its cached *finding* depended
    # on the project effect table — it must be re-derived, and cleared.
    assert second.findings == []


def test_local_edit_reuses_unchanged_files(tmp_path):
    tree = _tree(tmp_path)
    _run(tree)
    # A comment-only edit to driver.py shifts no effects.
    (tree / "driver.py").write_text(DRIVER + "\n# trailing comment\n")
    second = _run(tree)
    # helpers.py is served from cache (summary and findings).
    assert second.cache_hits >= 1
    assert [f.code for f in second.findings] == ["SIM004"]


def test_no_cache_flag_isolates_runs(tmp_path):
    tree = _tree(tmp_path)
    report = run([str(tree)], config=SimlintConfig(root=str(tree)))
    assert report.cache_hits == 0
    assert not (tree / ".simlint_cache").exists()

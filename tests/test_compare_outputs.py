"""``tools/compare_outputs.py``: exit code and difference list, with stand-in runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

RESULT = {"result.json": "{}\n"}


def _compare(tmp_path, monkeypatch, files, versions, exits=None):
    """Exit code of the tool on two trees whose op writes ``files[side]`` at every seed,
    and exits with ``exits[side]`` (default 0)."""
    for side in ("base", "head"):
        (tmp_path / side).mkdir()
    (tmp_path / "head" / "bench").mkdir()
    ops = [{"name": "op", "pipeline": "simulate", "config": "op.json"}]
    (tmp_path / "head" / "bench" / "workloads.json").write_text(json.dumps({"w": {"ops": ops}}))

    def fake_write_outputs(tree, bench, ops, out):
        for op in ops:
            for seed in compare_outputs.SEEDS:
                outdir = out / op["name"] / f"seed{seed}"
                outdir.mkdir(parents=True)
                (outdir / "exit").write_text(f"{(exits or {}).get(tree.name, 0)}\n")
                for name, text in files[tree.name].items():
                    (outdir / name).write_text(text)

    monkeypatch.setattr(compare_outputs, "write_outputs", fake_write_outputs)
    monkeypatch.setattr(compare_outputs, "schema_version", lambda tree, cwd: versions[tree.name])
    return compare_outputs.main([str(tmp_path / "base"), str(tmp_path / "head")])


def _versioned(version, value):
    return {"result.json": json.dumps({"schema_version": version, "x": value}, sort_keys=True, indent=2) + "\n"}


@pytest.mark.parametrize(
    "base_files,head_files,head_version,code,listed",
    [
        (RESULT, RESULT, "1", 0, []),
        (RESULT, {"result.json": "{1}\n"}, "1", 1, ["op/seed0/result.json", "op/seed7/result.json"]),
        (RESULT, {**RESULT, "series_mass.csv": "n\n"}, "1", 1, ["op/seed1/series_mass.csv (only in one tree)"]),
        (RESULT, {"result.json": "{1}\n"}, "2", 0, ["op/seed0/result.json"]),
        (_versioned(1, 0.5), _versioned(2, 0.5), "2", 0, []),
        (_versioned(1, 0.5), _versioned(2, 0.25), "2", 0, ["op/seed1/result.json"]),
        (_versioned(1, float("nan")), _versioned(2, float("nan")), "2", 0, []),
        (_versioned(1, 0.5), _versioned(2, 0.5), "1", 1, ["op/seed7/result.json"]),
    ],
    ids=[
        "equal",
        "differs",
        "only-in-one-tree",
        "schema-bump",
        "schema-bump-only-the-version-differs",
        "schema-bump-a-value-differs",
        "schema-bump-nan-equals-nan",
        "same-version-the-version-key-counts",
    ],
)
def test_exit_code_and_listed_differences(
    tmp_path, monkeypatch, capsys, base_files, head_files, head_version, code, listed
):
    files = {"base": base_files, "head": head_files}
    assert _compare(tmp_path, monkeypatch, files, {"base": "1", "head": head_version}) == code
    out = capsys.readouterr().out
    assert "1 ops x 3 seeds: 3 output files and 3 exit codes" in out
    assert f"{3 if listed else 0} differ" in out
    for path in listed:
        assert f"differs: {path}\n" in out
    if head_version != "1" and listed:
        assert "SCHEMA_VERSION 1 -> 2: differences expected" in out


def test_schema_bump_names_the_keys_that_moved(tmp_path, monkeypatch, capsys):
    def result(version, payload):
        return {"result.json": json.dumps({"schema_version": version, **payload}, sort_keys=True, indent=2)}

    base = result(1, {"results": {"kept": 1, "moved": 0.5, "old": True, "nested": {"a": "nan"}}})
    head = result(2, {"results": {"kept": 1, "moved": 0.25, "nested": {"a": "nan", "b": []}}, "verdicts": []})
    assert _compare(tmp_path, monkeypatch, {"base": base, "head": head}, {"base": "1", "head": "2"}) == 0
    out = capsys.readouterr().out
    for seed in compare_outputs.SEEDS:
        assert (
            f"differs: op/seed{seed}/result.json\n"
            "  added: results.nested.b, verdicts\n"
            "  removed: results.old\n"
            "  changed: results.moved\n"
        ) in out


def test_same_version_lists_no_keys(tmp_path, monkeypatch, capsys):
    files = {"base": _versioned(1, 0.5), "head": _versioned(1, 0.25)}
    assert _compare(tmp_path, monkeypatch, files, {"base": "1", "head": "1"}) == 1
    assert "changed:" not in capsys.readouterr().out


@pytest.mark.parametrize("head_version", ["1", "2"])
def test_changed_exit_codes_and_verdicts_are_named_on_their_own_lines(
    tmp_path, monkeypatch, capsys, head_version
):
    def result(version, verdicts):
        payload = {"schema_version": version, "verdicts": verdicts}
        return {"result.json": json.dumps(payload, sort_keys=True, indent=2)}

    files = {"base": result(1, ["holds"]), "head": result(int(head_version), ["fails"])}
    exits = {"base": 0, "head": 3}
    code = _compare(tmp_path, monkeypatch, files, {"base": "1", "head": head_version}, exits)
    assert code == (0 if head_version == "2" else 1)  # the exit status is the byte check's
    out = capsys.readouterr().out
    for seed in compare_outputs.SEEDS:
        assert f"exit code changed: op/seed{seed}: 0 -> 3\n" in out
        assert f'verdicts changed: op/seed{seed}: ["holds"] -> ["fails"]\n' in out


def test_equal_outcomes_are_not_named(tmp_path, monkeypatch, capsys):
    def result(version, value):
        payload = {"schema_version": version, "verdicts": ["holds"], "x": value}
        return {"result.json": json.dumps(payload, sort_keys=True, indent=2)}

    files = {"base": result(1, 0.5), "head": result(2, 0.25)}
    assert _compare(tmp_path, monkeypatch, files, {"base": "1", "head": "2"}) == 0
    out = capsys.readouterr().out
    assert "differs: op/seed0/result.json" in out
    assert "exit code changed" not in out and "verdicts changed" not in out

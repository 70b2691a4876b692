"""Tests for kernel derivation, the tier-sync rule and horizon-purity.

The kernel tier is derived from the python tier, so the contract is:
an edit to a stage statement reaches the derived kernel with no other
file touched; an edit that breaks the derivation (an inlined call
site, a stage binding that restates no kernel hoist, a constant fold
no stage reads any more) raises :class:`SubstitutionError` naming the
``core/pipeline.py`` line, at run time and as a ``repro lint`` finding.
Seeded edits run against full copies of the real package, so the
fixtures drift together with the code they check.
"""

from __future__ import annotations

import ast
import json
import os
import shutil

import pytest

import repro
from repro.analysis import LintOptions, run_lint
from repro.analysis.astutil import iter_functions
from repro.analysis.cli import lint_main
from repro.analysis.hotpath import check_function
from repro.core.astrewrite import SubstitutionError
from repro.core.kernel_gen import TIERSYNC_KEY, KernelDeriver

PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: The hot-path functions the FRAGMENTS table must keep covered: the
#: four pipeline stages plus the event drain.  A
#: fragment removal that drops one of these is a gate regression, not a
#: declaration detail.
REQUIRED_COVERAGE = (
    "core/pipeline.py:SMTPipeline._process_events",
    "core/pipeline.py:SMTPipeline._commit_stage",
    "core/pipeline.py:SMTPipeline._commit_thread",
    "core/pipeline.py:SMTPipeline._issue_stage",
    "core/pipeline.py:SMTPipeline._issue_load",
    "core/pipeline.py:SMTPipeline._dispatch_stage",
    "core/pipeline.py:SMTPipeline._fetch_stage",
)


@pytest.fixture()
def package_copy(tmp_path):
    copy_root = str(tmp_path / "repro")
    shutil.copytree(PACKAGE_ROOT, copy_root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy_root


def _edit(root, relpath, old, new):
    path = os.path.join(root, *relpath.split("/"))
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    assert old in text, f"{old!r} not found in {relpath}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new, 1))


# ---------------------------------------------------------------------------
# The shipped declarations derive and cover what they claim.

def test_shipped_fragments_pass_tier_sync():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)
    assert report.exit_code() == 0


def test_fragment_coverage_includes_every_stage():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    coverage = report.fragment_coverage
    assert coverage is not None
    assert coverage["fragments"] >= 6
    for required in REQUIRED_COVERAGE:
        assert required in coverage["functions"], \
            f"fragment coverage lost {required}"


def test_fragment_coverage_counts_all_claimed_lines():
    # ``lines_covered`` must equal the full body span of every claimed
    # function — 100% of the claimed lines, recomputed here from the
    # real tree so the pin cannot drift silently.
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["tier-sync"]))
    coverage = report.fragment_coverage
    expected = 0
    trees = {}
    for entry in coverage["functions"]:
        relpath, qualname = entry.split(":", 1)
        if relpath not in trees:
            path = os.path.join(PACKAGE_ROOT, *relpath.split("/"))
            with open(path, "r", encoding="utf-8") as handle:
                trees[relpath] = ast.parse(handle.read())
        node = dict(iter_functions(trees[relpath]))[qualname]
        expected += (node.end_lineno or node.lineno) - node.lineno + 1
    assert coverage["lines_covered"] == expected
    assert expected > 500   # the hot tier is not a token sample


def test_horizon_purity_clean_on_real_tree():
    report = run_lint(PACKAGE_ROOT, LintOptions(rules=["horizon-purity"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


# ---------------------------------------------------------------------------
# Seeded edits: stage statements flow through, broken derivations stop.

def _derive(root, key=TIERSYNC_KEY):
    """Derive ``key``'s kernel from the sources under ``root``."""
    def source_of(relpath):
        path = os.path.join(root, *relpath.split("/"))
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return ast.parse(handle.read())
    return KernelDeriver(source_of).source(key)


def _def_line(root, qualname):
    path = os.path.join(root, "core", "pipeline.py")
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return dict(iter_functions(tree))[qualname].lineno


def test_stage_edit_flows_into_derived_kernel(package_copy):
    # One semantic line in the fetch hot loop (count += 1 -> += 2): the
    # kernel derived from the edited tree carries it, and the lint
    # stays clean.
    assert "count += 2" not in _derive(package_copy)
    _edit(package_copy, "core/pipeline.py",
          "                inst.counted = True\n"
          "                append(inst)\n"
          "                count += 1",
          "                inst.counted = True\n"
          "                append(inst)\n"
          "                count += 2")
    for key in (TIERSYNC_KEY, TIERSYNC_KEY._replace(uses_runahead=False,
                                                    num_threads=1)):
        source = _derive(package_copy, key)
        assert "count += 2" in source and "count += 1" not in source
        compile(source, "<derived>", "exec")
    report = run_lint(package_copy, LintOptions(rules=["tier-sync"]))
    assert report.findings == []


def test_new_stage_statement_flows_into_derived_kernel(package_copy):
    _edit(package_copy, "core/pipeline.py",
          "            count = 0\n"
          "            icache_done = now + self._icache_latency",
          "            count = 0\n"
          "            fetched_n = 0\n"
          "            icache_done = now + self._icache_latency")
    source = _derive(package_copy)
    assert "fetched_n = 0" in source
    # ...with the surrounding folds still applied around it.
    assert "icache_done = now + 3" in source


def _assert_stops_at(root, line):
    """Derivation from ``root`` raises at ``core/pipeline.py:<line>``,
    and the tier-sync lint reports exactly that line."""
    with pytest.raises(SubstitutionError) as info:
        _derive(root)
    assert f"core/pipeline.py:{line}:" in str(info.value)
    report = run_lint(root, LintOptions(rules=["tier-sync"]))
    assert report.exit_code() == 1
    (finding,) = report.findings
    assert (finding.path, finding.line) == ("core/pipeline.py", line)
    assert f"core/pipeline.py:{line}:" in finding.message
    return str(info.value)


def _line_of(root, text):
    path = os.path.join(root, "core", "pipeline.py")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    (line,) = [number for number, content in enumerate(lines, 1)
               if content.strip() == text]
    return line


def test_prologue_binding_without_hoist_raises(package_copy):
    # A stage binding of a ``self`` chain that the kernel template does
    # not hoist under that name would be a per-cycle load in the kernel.
    _edit(package_copy, "core/pipeline.py",
          "        available = self.fus._available\n",
          "        fus = self.fus\n"
          "        available = self.fus._available\n")
    message = _assert_stops_at(package_copy,
                               _line_of(package_copy, "fus = self.fus"))
    assert "no matching kernel hoist" in message


def test_unread_fold_raises(package_copy):
    # The fetch stage stops reading the hoisted fetch-buffer scalar: its
    # fold table entry matches nothing, reported where it is defined.
    _edit(package_copy, "core/pipeline.py",
          "            buffer_room = self._fetch_buffer_size - "
          "len(fetch_queue)",
          "            buffer_room = self.config.fetch_buffer_size - "
          "len(fetch_queue)")
    line = _line_of(package_copy, "self._fetch_buffer_size = "
                    "config.fetch_buffer_size")
    message = _assert_stops_at(package_copy, line)
    assert "self._fetch_buffer_size" in message
    assert "matches no stage" in message


def test_broken_inline_call_site_raises(package_copy):
    # The events stage calls _src_ready differently from the declared
    # inline call site: the stage is named, never silently left calling.
    _edit(package_copy, "core/pipeline.py",
          "self._src_ready(waiter, now, preg,\n"
          "                                                    invalid)",
          "self._src_ready(waiter, now, preg, True)")
    message = _assert_stops_at(
        package_copy, _def_line(package_copy, "SMTPipeline._process_events"))
    assert "inline of SMTPipeline._src_ready" in message
    assert "no longer matches" in message


def test_inlined_helper_edit_flows_into_derived_kernel(package_copy):
    # _issue_runahead_load is spliced in by an inline op: its current
    # body is what the kernel runs.
    _edit(package_copy, "core/pipeline.py",
          "                # Prefetch dropped (MSHRs full): bogus value, "
          "no retry.\n"
          "                inst.invalid = True\n"
          "                ccycle = now + self._dcache_latency",
          "                # Prefetch dropped (MSHRs full): bogus value, "
          "no retry.\n"
          "                inst.invalid = True\n"
          "                ccycle = now + self._dcache_latency + 1")
    assert "ccycle = now + 2 + 1" in _derive(package_copy)


def test_side_effecting_skip_horizon_fails(package_copy):
    _edit(package_copy, "policies/dcra.py",
          "        remainder = now % self._interval",
          "        self._last_skip = now\n"
          "        remainder = now % self._interval")
    report = run_lint(package_copy, LintOptions(rules=["horizon-purity"]))
    assert report.exit_code() == 1
    message = report.findings[0].message
    assert "self._last_skip" in message and "skip_horizon" in message
    assert "must be pure" in message


# ---------------------------------------------------------------------------
# Derived kernels ride through hot-path-hygiene.

def test_generated_kernels_pass_hot_path_hygiene():
    report = run_lint(PACKAGE_ROOT,
                      LintOptions(rules=["hot-path-hygiene"]))
    assert report.findings == [], \
        "\n".join(f.render() for f in report.findings)


def test_check_function_flags_kernel_style_violations():
    # The module-level checker used for generated source: a try block
    # and a twice-resolved loop-invariant chain are both findings; the
    # same chain on a base rebound inside the loop is not (the hoist
    # advice would be wrong — `file` names a new object per iteration).
    code = (
        "def kern(pipeline):\n"
        "    for inst in pipeline.window:\n"
        "        try:\n"
        "            a = pipeline.mem.table[inst.addr]\n"
        "        except KeyError:\n"
        "            a = None\n"
        "        b = pipeline.mem.table[0]\n"
        "        file = pipeline.files[inst.klass]\n"
        "        file._free.append(inst.old)\n"
        "        file._free.append(inst.dest)\n"
    )
    node = ast.parse(code).body[0]
    findings = check_function("hot-path-hygiene", "core/kernel_gen.py",
                              "generated kernel [test] kern", node)
    messages = [f.message for f in findings]
    assert any("try block" in m for m in messages)
    assert any("pipeline.mem.table" in m for m in messages)
    assert not any("file._free" in m for m in messages)


# ---------------------------------------------------------------------------
# CLI surface: unknown rules, re-pin reporting, JSON summary.

def test_unknown_rule_exits_2_and_lists_rules(capsys):
    assert lint_main(["--rules", "no-such-rule"]) == 2
    err = capsys.readouterr().err
    assert "unknown lint rule 'no-such-rule'" in err
    for name in ("tier-sync", "horizon-purity", "hot-path-hygiene",
                 "salt-fingerprint"):
        assert name in err


def test_accept_fingerprints_names_repinned_modules(package_copy, capsys):
    # A semantic edit in exactly one salt-scoped module:
    _edit(package_copy, "core/fu.py",
          "def next_release_cycle(self, now: int) -> int:",
          "def next_release_cycle(self, now: int, _w: int = 0) -> int:")
    assert lint_main(["--root", package_copy, "--rules",
                      "salt-fingerprint", "--accept-fingerprints"]) == 0
    out = capsys.readouterr().out
    assert "re-pinned: core/fu.py" in out
    assert "(1 changed)" in out
    # The report object carries the same names for programmatic callers.
    report = run_lint(package_copy,
                      LintOptions(rules=["salt-fingerprint"],
                                  accept_fingerprints=True))
    assert report.repinned["changed"] == []


def test_json_summary_reports_rule_stats_and_coverage(capsys):
    assert lint_main(["--rules", "tier-sync,horizon-purity",
                      "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    summary = document["summary"]
    assert set(summary["rules"]) == {"tier-sync", "horizon-purity"}
    for stats in summary["rules"].values():
        assert stats["findings"] == 0
        assert stats["seconds"] >= 0
    coverage = summary["fragment_coverage"]
    assert coverage["fragments"] >= 6
    assert coverage["lines_covered"] > 500

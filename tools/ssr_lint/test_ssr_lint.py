#!/usr/bin/env python3
"""Fixture tests for ssr_lint: every rule must flag its known-bad fixture
and pass the clean twin. Run directly or via ctest (lint_selftest)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ssr_lint  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
CONFIG = os.path.join(FIXTURES, "fixtures.json")


def run_lint(*files):
    """Returns (exit_code, violations) for the given fixture files."""
    import json
    with open(CONFIG, encoding="utf-8") as f:
        cfg = json.load(f)
    out = []
    for relpath in files:
        out.extend(ssr_lint.lint_file(FIXTURES, relpath, cfg))
    return out


class HotPathAllocRule(unittest.TestCase):
    def test_flags_every_violation_class(self):
        violations = run_lint("hot_bad.cpp")
        rules = {v.rule for v in violations}
        self.assertEqual(rules, {"hot-path-alloc"})
        messages = "\n".join(v.message for v in violations)
        self.assertIn("operator new", messages)
        self.assertIn("C allocation", messages)
        self.assertIn("std::function", messages)
        self.assertIn("growing-container", messages)
        self.assertEqual(len(violations), 4)

    def test_clean_twin_passes(self):
        self.assertEqual(run_lint("hot_good.cpp"), [])

    def test_comments_and_strings_do_not_fire(self):
        # hot_good.cpp mentions new/malloc/std::function/push_back in a
        # comment and a string literal; covered by the clean-twin test, but
        # assert the reason explicitly: stripping removed them.
        with open(os.path.join(FIXTURES, "hot_good.cpp")) as f:
            text = f.read()
        self.assertIn("new std::function malloc push_back", text)
        self.assertEqual(run_lint("hot_good.cpp"), [])

    def test_annotation_must_name_a_real_rule(self):
        with self.assertRaises(SystemExit):
            ssr_lint.collect_suppressions(
                ["int x;  // ssr-lint: allow(no-such-rule)"])


class UncheckedDecodeRule(unittest.TestCase):
    def test_flags_unchecked_reader(self):
        violations = run_lint("decode_bad.cpp")
        self.assertEqual(len(violations), 1)
        v = violations[0]
        self.assertEqual(v.rule, "unchecked-decode")
        self.assertIn("decode_unchecked", v.message)
        self.assertIn("never checks .ok()", v.message)

    def test_checked_twin_and_subdecoder_pass(self):
        self.assertEqual(run_lint("decode_good.cpp"), [])


class MemoInvalidateRule(unittest.TestCase):
    def test_flags_unbumped_mutations(self):
        violations = run_lint("memo_bad.cpp")
        self.assertEqual({v.rule for v in violations}, {"memo-invalidate"})
        fields = "\n".join(v.message for v in violations)
        self.assertIn("records_", fields)
        self.assertIn("fd_self_", fields)
        self.assertEqual(len(violations), 2)

    def test_bumping_twin_passes(self):
        self.assertEqual(run_lint("memo_good.cpp"), [])

    def test_flags_unversioned_store_writes(self):
        # The PairStore shape: a version keys memoized steps, not a cache.
        violations = run_lint("memo_store_bad.cpp")
        self.assertEqual({v.rule for v in violations}, {"memo-invalidate"})
        fields = "\n".join(v.message for v in violations)
        for field in ("max_", "stored_", "members_"):
            self.assertIn(f"'{field}'", fields)
        self.assertEqual(len(violations), 3)

    def test_versioned_store_twin_passes(self):
        self.assertEqual(run_lint("memo_store_good.cpp"), [])


class RepoIsClean(unittest.TestCase):
    def test_whole_repo_lints_clean(self):
        # The acceptance gate: the shipped config over the real tree.
        root = os.path.abspath(os.path.join(FIXTURES, "..", "..", ".."))
        rc = ssr_lint.main(["--root", root])
        self.assertEqual(rc, 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""TARDIS-specific lint rules that clang-tidy cannot express.

Usage:
    python3 tools/lint/tardis_lint.py [--root REPO_ROOT]

Scans the C++ sources under src/ and fuzz/ and enforces the rules below;
the tests under tests/ are scanned for fixed-temp-path only:

  raw-mutex      No raw std::mutex / std::condition_variable /
                 std::lock_guard / std::unique_lock / std::scoped_lock /
                 std::shared_mutex outside src/common/thread_annotations.h.
                 Use tardis::Mutex / MutexLock / CondVar so Clang Thread
                 Safety Analysis sees every lock (DESIGN.md §11).

  unguarded-mutex-member
                 Every `Mutex`-typed *member* declared in a header must be
                 referenced by a TARDIS_GUARDED_BY / TARDIS_PT_GUARDED_BY /
                 TARDIS_REQUIRES / TARDIS_ACQUIRED_* annotation somewhere in
                 the same file — a mutex that guards nothing is either dead
                 or (worse) guarding members the analysis cannot check.

  direct-write   No direct file-writing primitives (std::ofstream in write
                 mode, std::fopen "w"/"a", open() with O_WRONLY/O_CREAT)
                 outside the storage layer's temp+rename/CRC-frame
                 discipline (src/storage/partition_store.cc,
                 src/storage/block_store.cc, src/common/file_util.cc).
                 Everything else must go through WriteFileAtomic so a crash
                 mid-write can never leave a torn file behind.

  void-discard   A statement-position `(void)expr;` cast (the escape hatch
                 for [[nodiscard]] Status values) must carry a comment on
                 the same line or the line above justifying why dropping
                 the value is correct.

  fixed-temp-path
                 No fixed temporary paths: std::filesystem::
                 temp_directory_path() outside tests/test_util.h, and no
                 string literal starting with "/tmp/". ctest runs every test
                 case as its own process, in parallel under -j, so a shared
                 fixed directory lets one case delete another's files. Use
                 ScopedTempDir (tests/test_util.h), which is unique per
                 process and instance.

Suppression: append `// tardis-lint: allow(<rule>) <reason>` to the
offending line (or the line above it). The reason is mandatory — a bare
allow() is itself an error.
"""

import argparse
import re
import sys
from pathlib import Path

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock|"
    r"shared_mutex|shared_lock|recursive_mutex)\b")
# A Mutex member declaration: optional `mutable`, the type, an identifier
# that looks like a member (trailing underscore or inside a struct), `;` or
# `=`-init. Kept deliberately loose; false negatives are acceptable, false
# positives get an allow().
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:tardis::)?Mutex\s+(\w+)\s*(?:;|=|\{)")
ANNOTATION_USE_RE = re.compile(
    r"TARDIS_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED|"
    r"ACQUIRE|RELEASE|ACQUIRED_BEFORE|ACQUIRED_AFTER|EXCLUDES)\s*\(")
DIRECT_WRITE_RES = [
    re.compile(r"std::ofstream\b"),
    re.compile(r"\bofstream\s+\w+\("),
    re.compile(r"std::fopen\s*\([^)]*,\s*\"[wa]b?\""),
    re.compile(r"\bfopen\s*\([^)]*,\s*\"[wa]b?\""),
    re.compile(r"\bopen\s*\([^)]*O_WRONLY"),
    re.compile(r"\bopen\s*\([^)]*O_CREAT"),
    re.compile(r"\bfwrite\s*\("),
]
VOID_DISCARD_RE = re.compile(r"^\s*\(void\)\s*\w")
FIXED_TEMP_RES = [
    re.compile(r"\btemp_directory_path\s*\("),
    re.compile(r"\"/tmp/"),
]
ALLOW_RE = re.compile(r"tardis-lint:\s*allow\((?P<rule>[\w,-]+)\)\s*(?P<reason>.*)")

# Files owning the temp+rename/CRC-frame write discipline.
DIRECT_WRITE_ALLOWLIST = {
    "src/storage/partition_store.cc",
    "src/storage/block_store.cc",
    "src/common/file_util.cc",
}
# The wrapper header itself defines the annotated types over the std ones.
RAW_MUTEX_ALLOWLIST = {"src/common/thread_annotations.h"}
# ScopedTempDir builds its unique directory under the system temp dir.
FIXED_TEMP_ALLOWLIST = {"tests/test_util.h"}


def allowed(lines, idx, rule):
    """True if line idx (0-based) or the line above carries an allow(rule).

    Returns (allowed, error) where error is set for a reasonless allow().
    """
    for probe in (idx, idx - 1):
        if probe < 0:
            continue
        m = ALLOW_RE.search(lines[probe])
        if m and rule in m.group("rule").split(","):
            if not m.group("reason").strip():
                return True, "allow() without a reason"
            return True, None
    return False, None


def lint_temp_paths(lines, rel: str, findings: list):
    if rel in FIXED_TEMP_ALLOWLIST:
        return
    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # ignore matches inside comments
        if not any(r.search(code) for r in FIXED_TEMP_RES):
            continue
        ok, err = allowed(lines, i, "fixed-temp-path")
        if err:
            findings.append((rel, i + 1, "fixed-temp-path", err))
        elif not ok:
            findings.append(
                (rel, i + 1, "fixed-temp-path",
                 "fixed temporary path; use ScopedTempDir "
                 "(tests/test_util.h)"))


def lint_file(path: Path, rel: str, findings: list, tests_only: bool):
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        findings.append((rel, 0, "io", f"cannot read: {e}"))
        return
    lines = text.split("\n")
    lint_temp_paths(lines, rel, findings)
    if tests_only:
        return
    file_has_annotation = ANNOTATION_USE_RE.search(text) is not None

    for i, line in enumerate(lines):
        code = line.split("//", 1)[0]  # ignore matches inside comments

        if rel not in RAW_MUTEX_ALLOWLIST:
            m = RAW_MUTEX_RE.search(code)
            if m:
                ok, err = allowed(lines, i, "raw-mutex")
                if err:
                    findings.append((rel, i + 1, "raw-mutex", err))
                elif not ok:
                    findings.append(
                        (rel, i + 1, "raw-mutex",
                         f"raw std::{m.group(1)}; use tardis::Mutex/MutexLock/"
                         "CondVar from common/thread_annotations.h"))

        if rel.endswith(".h") and rel not in RAW_MUTEX_ALLOWLIST:
            m = MUTEX_MEMBER_RE.match(code)
            if m and not file_has_annotation:
                ok, err = allowed(lines, i, "unguarded-mutex-member")
                if err:
                    findings.append((rel, i + 1, "unguarded-mutex-member", err))
                elif not ok:
                    findings.append(
                        (rel, i + 1, "unguarded-mutex-member",
                         f"Mutex member '{m.group(1)}' but no TARDIS_GUARDED_BY/"
                         "REQUIRES annotation anywhere in this header"))

        if rel not in DIRECT_WRITE_ALLOWLIST:
            for wre in DIRECT_WRITE_RES:
                if wre.search(code):
                    ok, err = allowed(lines, i, "direct-write")
                    if err:
                        findings.append((rel, i + 1, "direct-write", err))
                    elif not ok:
                        findings.append(
                            (rel, i + 1, "direct-write",
                             "direct file write outside the storage layer; "
                             "use WriteFileAtomic (common/file_util.h)"))
                    break

        if VOID_DISCARD_RE.match(code):
            has_comment = "//" in line or (i > 0 and lines[i - 1].strip().startswith("//"))
            if not has_comment:
                ok, err = allowed(lines, i, "void-discard")
                if err:
                    findings.append((rel, i + 1, "void-discard", err))
                elif not ok:
                    findings.append(
                        (rel, i + 1, "void-discard",
                         "(void) discard of a value without a justifying "
                         "comment on this line or the line above"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None, help="repo root (default: auto)")
    args = ap.parse_args()

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    scan_dirs = [(root / "src", False), (root / "fuzz", False),
                 (root / "tests", True)]
    findings = []
    n_files = 0
    for d, tests_only in scan_dirs:
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*")):
            if path.suffix not in (".h", ".cc"):
                continue
            n_files += 1
            lint_file(path, str(path.relative_to(root)), findings, tests_only)

    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
    if findings:
        print(f"\ntardis_lint: {len(findings)} finding(s) in {n_files} files",
              file=sys.stderr)
        return 1
    print(f"tardis_lint: OK ({n_files} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""fibbing-lint: determinism & concurrency checks the compiler can't make.

The repo's headline guarantee is that any shard count replays bit-identically
(tests/shard_test.cpp). The dynamic tests sweep a handful of shard counts;
this linter closes the gaps they can't: sources of nondeterminism that only
bite on some machine, hash seed, or schedule.

Checks (waive a line with `// lint:<check>-ok(<reason>)`, same line or the
line directly above; the reason is mandatory):

  wall-clock      wall-clock reads (std::chrono clocks' now(), gettimeofday,
                  clock_gettime, std::time). Simulated components take time
                  from util::Scheduler::now(); wall-clock reads make replays
                  machine-dependent.
  randomness      rand()/srand(), std::random_device, raw std::mt19937 (and
                  friends) anywhere outside src/util/rng.*. All randomness
                  flows through util::Rng, seeded explicitly, so whole-system
                  runs are reproducible and fork() keeps streams independent.
  unordered-iter  range-for / .begin() iteration over std::unordered_map or
                  std::unordered_set in the ordering-sensitive directories
                  (src/igp, src/proto, src/core, src/util/shard_pool*).
                  Explicit iterator for-loops are caught too: a for-header
                  naming the container through std::begin/std::end or
                  `.end()` counts as iteration (membership tests like
                  `m.find(k) != m.end()` outside for-headers do not).
                  Iteration order there can reach floods, wire encodings,
                  callbacks, or counters -- all surfaces the shard-determinism
                  property tests compare bit-for-bit.
  nodiscard       header declarations returning util::Status / util::Result<T>
                  must carry [[nodiscard]]: a dropped Status is a silently
                  ignored failure (the class-level [[nodiscard]] covers the
                  type; the per-declaration attribute keeps the API surface
                  greppable and survives aliasing through auto&&).
  obs-registered  counter-ish members (`*_count_` / `*counters_`) declared in
                  src/ outside src/obs/ must flow into the telemetry
                  snapshot: annotate the declaration (same line or the line
                  above) with `// obs:registered(<key>)` where <key> is a
                  prefix of a metric key in the telemetry table (a
                  `{"<ns>.<name>", <value>}` entry under src/, as in
                  FibbingService::telemetry_snapshot), or waive with a
                  written reason. Every such annotation in src/ outside
                  src/obs/ is checked against the table, whatever the
                  member it covers is called. Keeps
                  FibbingService::telemetry_json the one complete snapshot
                  instead of re-scattering ad-hoc counters.

Exit status: 0 clean, 1 findings, 2 usage error. --github emits findings as
GitHub Actions `::error` annotations in addition to the human lines.
"""

import argparse
import os
import re
import sys

SENSITIVE_PREFIXES = ("src/igp/", "src/proto/", "src/core/", "src/util/shard_pool")
RANDOMNESS_ALLOWED = ("src/util/rng.",)
NODISCARD_ALLOWED = ("src/util/result.hpp",)  # defines the [[nodiscard]] classes
DEFAULT_PATHS = ("src", "tests", "bench", "examples")
CXX_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".cxx")

WAIVER_RE = re.compile(r"lint:([a-z-]+)-ok\(([^)]*)\)")

WALL_CLOCK_RES = [
    re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
    re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\b"),
    re.compile(r"\bstd::time\s*\("),
    re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&)"),
]
RANDOMNESS_RES = [
    re.compile(r"\brand\s*\("),
    re.compile(r"\bsrand\b"),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bmt19937(?:_64)?\b"),
    re.compile(r"\b(?:default_random_engine|minstd_rand0?|ranlux\w+|knuth_b)\b"),
]
UNORDERED_DECL_RES = [
    # `std::unordered_map<K, V> name;` / `= ...` / `{...}` member and locals.
    re.compile(r"unordered_(?:map|set|multimap|multiset)<.*>\s+(\w+)\s*[;={]"),
    # `const std::unordered_map<K, V>& name,` parameters.
    re.compile(r"unordered_(?:map|set|multimap|multiset)<.*>\s*[&*]\s*(\w+)\s*[,)]"),
]
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*[^:]:([^:].*)")
BEGIN_ITER_RE = re.compile(r"(\w+)(?:\.|->)c?begin\s*\(")
# Explicit iterator loops: a classic for-header that names the container via
# the free-function iterators or its own `.end()` (the begin call may sit on
# an earlier line or behind std::begin). Only for-headers are considered, so
# membership tests (`m.find(k) != m.end()` in an if/while) never match.
FOR_HEADER_RE = re.compile(r"\bfor\s*\((.*)")
STD_BEGIN_END_RE = re.compile(r"\bstd::c?r?(?:begin|end)\s*\(\s*(\w+)\s*\)")
MEMBER_END_RE = re.compile(r"(\w+)(?:\.|->)c?r?end\s*\(")
# `friend` is excluded: attributes may not appear on friend declarations.
NODISCARD_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|constexpr|inline|explicit)\s+)*"
    r"(?:util::)?(?:Status|Result<[^;=]*>)\s+[\w:]+\s*\("
)
# A member *declaration* `<type> name`, optionally guarded/initialized.
# Anchored on the type words so accessor calls and usages never match.
OBS_MEMBER_RE = re.compile(
    r"^\s*(?:[\w:<>,]+(?:\s*[&*])?\s+)+(\w+)\s*"
    r"(?:FIB_GUARDED_BY\([^)]*\)\s*)?(?:=[^;{]*)?[;{]"
)
# A member name that says "I am a counter": `foo_count_` or `...counters_`.
OBS_COUNTER_NAME_RE = re.compile(r"\w+_count_|\w*counters_")
OBS_ANNOTATION_RE = re.compile(r"obs:registered\(([^)]*)\)")
# A telemetry-table entry: `{"<ns>.<name>", <value>}` in an initializer.
REGISTER_METRIC_RES = [
    re.compile(r'\{\s*"([a-z]\w*(?:\.\w+)+)"\s*,'),
]

STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
LINE_COMMENT_RE = re.compile(r"//.*$")


class Finding:
    def __init__(self, rel, line_no, check, message):
        self.rel, self.line_no, self.check, self.message = rel, line_no, check, message

    def human(self):
        return f"{self.rel}:{self.line_no}: [{self.check}] {self.message}"

    def github(self):
        return (f"::error file={self.rel},line={self.line_no},"
                f"title=fibbing-lint {self.check}::{self.message}")


def strip_code(line, in_block_comment):
    """Return (code-only text, still-in-block-comment). Strings are blanked so
    words inside log messages never match; comments are removed entirely
    (waivers are parsed from the raw line separately)."""
    out, i = [], 0
    while i < len(line):
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i, in_block_comment = end + 2, False
            continue
        if line.startswith("/*", i):
            i, in_block_comment = i + 2, True
            continue
        if line.startswith("//", i):
            break
        if line[i] == '"':
            m = STRING_RE.match(line, i)
            if m:
                out.append('""')
                i = m.end()
                continue
        out.append(line[i])
        i += 1
    return "".join(out), in_block_comment


def waivers_for(lines, idx):
    """Waivers covering line idx (0-based): same line or the line above."""
    found = {}
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            for m in WAIVER_RE.finditer(lines[j]):
                found[m.group(1)] = m.group(2).strip()
    return found


def collect_unordered_symbols(files):
    """Identifiers declared as unordered containers anywhere in the scanned
    tree (members, locals, parameters). A name-level table, not a type
    resolver: good enough because the codebase keeps one declaration per line
    and unique member names."""
    symbols = set()
    for _, _, lines in files:
        in_block = False
        for line in lines:
            code, in_block = strip_code(line, in_block)
            if "unordered_" not in code:
                continue
            for decl_re in UNORDERED_DECL_RES:
                for m in decl_re.finditer(code):
                    symbols.add(m.group(1))
    return symbols


def collect_registered_metrics(files):
    """Metric keys of the telemetry table: `{"<ns>.<name>", <value>}`
    entries in the scanned src/ files (tests may spell keys too, but only
    the program's own table feeds the snapshot). Parsed from RAW lines on
    purpose: the keys live inside string literals, which strip_code
    blanks."""
    names = set()
    for _, rel, lines in files:
        if not rel.startswith("src/"):
            continue
        for line in lines:
            for metric_re in REGISTER_METRIC_RES:
                for m in metric_re.finditer(line):
                    names.add(m.group(1))
    return names


def obs_key_for(lines, idx, code, above_code):
    """The `obs:registered(<key>)` annotation covering line idx, or None. An
    annotation covers its own line when that line holds code, else the line
    below it, so every annotation is checked exactly once."""
    m = OBS_ANNOTATION_RE.search(lines[idx])
    if m and code.strip():
        return m.group(1).strip()
    if idx > 0 and not above_code.strip():
        m = OBS_ANNOTATION_RE.search(lines[idx - 1])
        if m:
            return m.group(1).strip()
    return None


def check_line(rel, code, symbols, metrics, obs_key):
    """Yield (check, message) pairs for one comment/string-stripped line."""
    for clock_re in WALL_CLOCK_RES:
        m = clock_re.search(code)
        if m:
            yield ("wall-clock",
                   f"wall-clock read `{m.group(0).strip()}`: simulated components "
                   "take time from util::Scheduler::now()")
            break
    if not rel.startswith(RANDOMNESS_ALLOWED):
        for rand_re in RANDOMNESS_RES:
            m = rand_re.search(code)
            if m:
                yield ("randomness",
                       f"raw randomness `{m.group(0).strip()}` outside util/rng: "
                       "take a seeded util::Rng (or fork() one) instead")
                break
    if rel.startswith(SENSITIVE_PREFIXES):
        iterated = None
        range_for = RANGE_FOR_RE.search(code)
        if range_for:
            seq = range_for.group(1)
            if "unordered_" in seq:
                iterated = seq.strip().rstrip(") {")
            else:
                # A name followed by `(` is a call whose return value has its
                # own ordering contract, not the container itself.
                for name in re.findall(r"\b\w+\b(?!\s*\()", seq):
                    if name in symbols:
                        iterated = name
                        break
        if iterated is None:
            for m in BEGIN_ITER_RE.finditer(code):
                if m.group(1) in symbols:
                    iterated = m.group(1)
                    break
        if iterated is None and not range_for:
            for_header = FOR_HEADER_RE.search(code)
            if for_header:
                header = for_header.group(1)
                for end_re in (STD_BEGIN_END_RE, MEMBER_END_RE):
                    for m in end_re.finditer(header):
                        if m.group(1) in symbols:
                            iterated = m.group(1)
                            break
                    if iterated is not None:
                        break
        if iterated is not None:
            yield ("unordered-iter",
                   f"iteration over unordered container `{iterated}` in an "
                   "ordering-sensitive directory: use a deterministic order "
                   "(sort, or std::map) or waive with the reason order cannot "
                   "escape")
    if (rel.startswith("src/") and rel.endswith((".hpp", ".h"))
            and not rel.startswith(NODISCARD_ALLOWED)):
        if (NODISCARD_DECL_RE.search(code) and "[[nodiscard]]" not in code
                and "operator" not in code and "using " not in code):
            yield ("nodiscard",
                   "declaration returning util::Status/util::Result must be "
                   "[[nodiscard]]: a dropped status is a silently ignored failure")
    if rel.startswith("src/") and not rel.startswith("src/obs/"):
        m = OBS_MEMBER_RE.match(code)
        member = m.group(1) if m else None
        if obs_key is not None:
            if not any(name.startswith(obs_key) for name in metrics):
                yield ("obs-registered",
                       f"`obs:registered({obs_key})` on "
                       f"`{member or code.strip()}` matches no telemetry key: "
                       "add it to the telemetry table or fix the prefix")
        elif member is not None and OBS_COUNTER_NAME_RE.fullmatch(member):
            yield ("obs-registered",
                   f"counter member `{member}` is not in the telemetry "
                   "snapshot: annotate the declaration with "
                   "`// obs:registered(<metric prefix>)` (and add its key "
                   "to the telemetry table in "
                   "FibbingService::telemetry_snapshot) or waive with the "
                   "reason it is not a metric")


def lint_files(files, symbols, metrics):
    findings = []
    for _, rel, lines in files:
        in_block = False
        prev_code = ""
        above_code = ""
        for idx, line in enumerate(lines):
            code, in_block = strip_code(line, in_block)
            waived = waivers_for(lines, idx)
            obs_key = obs_key_for(lines, idx, code, above_code)
            above_code = code
            for check, message in check_line(rel, code, symbols, metrics, obs_key):
                if check == "nodiscard" and "[[nodiscard]]" in prev_code:
                    continue  # attribute on its own line above the declaration
                if check in waived:
                    if not waived[check]:
                        findings.append(Finding(
                            rel, idx + 1, check,
                            f"waiver `lint:{check}-ok(...)` needs a written reason"))
                    continue
                findings.append(Finding(rel, idx + 1, check, message))
            if code.strip():
                prev_code = code
    return findings


def gather(root, paths):
    files = []
    for path in paths:
        abs_path = os.path.join(root, path)
        if os.path.isfile(abs_path):
            candidates = [abs_path]
        else:
            candidates = [os.path.join(dirpath, name)
                          for dirpath, _, names in os.walk(abs_path)
                          for name in names]
        for candidate in sorted(candidates):
            if not candidate.endswith(CXX_EXTENSIONS):
                continue
            rel = os.path.relpath(candidate, root).replace(os.sep, "/")
            with open(candidate, encoding="utf-8", errors="replace") as fh:
                files.append((candidate, rel, fh.read().splitlines()))
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories relative to --root "
                             f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=".",
                        help="repository root the paths (and the sensitive-"
                             "directory rules) are resolved against")
    parser.add_argument("--github", action="store_true",
                        help="also emit GitHub Actions ::error annotations")
    args = parser.parse_args(argv)

    if not os.path.isdir(args.root):
        print(f"fibbing-lint: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2
    files = gather(args.root, args.paths)
    symbols = collect_unordered_symbols(files)
    metrics = collect_registered_metrics(files)
    findings = lint_files(files, symbols, metrics)

    for finding in findings:
        print(finding.human())
        if args.github:
            print(finding.github())
    scanned = len(files)
    if findings:
        print(f"fibbing-lint: {len(findings)} finding(s) in {scanned} file(s)")
        return 1
    print(f"fibbing-lint: clean ({scanned} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())

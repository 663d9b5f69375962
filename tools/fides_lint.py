#!/usr/bin/env python3
"""fides_lint -- repo-invariant linter for the Fides codebase.

Checks invariants that the compiler cannot (or that we only enforce under
clang, but want diagnosed everywhere):

  raw-mutex        std::mutex / std::unique_lock / std::condition_variable &
                   friends outside the sanctioned wrapper (src/common/mutex.hpp).
                   Raw primitives are invisible to clang's thread-safety
                   analysis; everything must go through common::Mutex /
                   common::MutexLock / common::CondVar.
  nondeterminism   std::random_device, rand()/srand(), time()/std::time(),
                   gettimeofday, std::chrono::system_clock, and std:: random
                   engines. All randomness flows through common/rng.hpp
                   (seeded xoshiro256**) so runs reproduce from a seed;
                   wall-clock time is allowed only via steady_clock for
                   measurement, never as an input to protocol logic.
  sim-wallclock    any clock read (steady_clock included) inside src/sim/ --
                   the simulator runs on a virtual clock; reading the host
                   clock there breaks schedule reproducibility.
  decode-bounds    a .cpp file that defines a decode function must reference
                   DecodeError or include common/serde.hpp (whose Reader
                   throws it on truncation). Wire decoding that can fail any
                   other way -- assert, UB, silent truncation -- is a
                   protocol-boundary bug.
  serde-pairing    every free function encode_X has a decode_X counterpart
                   somewhere in the tree and vice versa; a header declaring a
                   member `encode(` also declares `decode(`. One-way codecs
                   drift silently.
  assert-effects   assert() whose argument has side effects (++/--/
                   assignment/mutating container calls) -- vanishes under
                   NDEBUG and changes behavior between build types.
  guarded-fields   in the annotated concurrency layer (GUARDED_FIELD_FILES),
                   every member field named with a trailing underscore must
                   either be GUARDED_BY(a mutex), a std::atomic, one of the
                   wrapper types, or carry a `confined(...)` tag naming the
                   thread-confinement story:
                     confined(actor)      only ever touched from one logical
                                          thread of control
                     confined(ctor)       written in the constructor, read-only
                                          after
                     confined(ctor/dtor)  touched only in ctor/dtor (no
                                          concurrent access exists yet/anymore)
                     confined(setup)      written during single-threaded setup,
                                          read-only while rounds run
                     confined(driver)     touched only by the run()/collect()
                                          driver thread
                     confined(shared-atomics)  aggregate whose every field is
                                          itself an atomic
                   Nested plain-struct fields (no trailing underscore) are
                   guarded transitively through their containers and are out
                   of scope for the heuristic.
  cosi-roles       in src/, a call to a CoSi role primitive (cosi_commit,
                   cosi_nonce, cosi_respond, cosi_aggregate_*,
                   cosi_find_faulty) outside src/crypto/ and the two role
                   classes, commit::CosiWitness (src/commit/cosi_witness.*)
                   and commit::CosiLeader (src/commit/cosi_leader.*). Nonce
                   secrets stay in the witness, and aggregation, sealing and
                   attribution stay in the leader; cosi_challenge and
                   cosi_verify stay open to every checker.
  block-effects    in src/, a call to a shard-state mutator (apply_write,
                   update_read_ts) outside src/store/ and src/txn/occ.hpp.
                   A decided block reaches shard state only through the one
                   apply rule, txn::apply_committed, whether the state is the
                   shard or a cohort's speculative store::ShardOverlay.

Suppressions (always give a reason after `--`):

  // fides-lint: allow(rule) -- reason        suppress `rule` for this line
  // fides-lint: allow-file(rule) -- reason   suppress `rule` for this file
  // fides-lint: off(rule)                    suppress until on(rule)
  // fides-lint: on(rule)

Usage:
  fides_lint.py [--root DIR] [paths...]   # default paths: src tests tools bench examples
  fides_lint.py --self-check              # run the embedded fixture suite
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".hpp", ".cpp", ".h", ".cc")

# The concurrency layer covered by the thread-safety annotation pass: every
# trailing-underscore member here must be annotated or carry a confined() tag.
GUARDED_FIELD_FILES = [
    "src/common/thread_pool.hpp",
    "src/common/thread_pool.cpp",
    "src/engine/inproc_scheduler.hpp",
    "src/engine/inproc_scheduler.cpp",
    "src/engine/pipeline.cpp",
    "src/engine/round_dispatcher.hpp",
    "src/engine/round_dispatcher.cpp",
    "src/ordserv/sequencer.hpp",
    "src/ordserv/sequencer.cpp",
    "src/ordserv/group_engine.cpp",
    "src/fides/transport.hpp",
    "src/crypto/key_registry.hpp",
    "src/crypto/key_registry.cpp",
    "src/net/poller.hpp",
    "src/net/poller.cpp",
    "src/net/socket_scheduler.hpp",
]

# The one file allowed to name the raw std primitives (it wraps them).
RAW_MUTEX_SANCTIONED = "src/common/mutex.hpp"

ALL_RULES = (
    "raw-mutex",
    "nondeterminism",
    "sim-wallclock",
    "decode-bounds",
    "serde-pairing",
    "assert-effects",
    "guarded-fields",
    "cosi-roles",
    "block-effects",
)

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|timed_|shared_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)

NONDET_RE = re.compile(
    r"std::random_device\b"
    r"|(?<![\w.:>])s?rand\s*\("
    r"|std::time\s*\("
    r"|(?<![\w.:>])time\s*\("
    r"|\bgettimeofday\b"
    r"|std::chrono::system_clock\b"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b"
)

SIM_WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|\bclock_gettime\b"
)

# A decode function *definition* (has a body) -- approximated by name + "(",
# which in practice only appears in files that implement or declare codecs.
DECODE_FN_RE = re.compile(r"\bdecode\w*\s*\(")
SERDE_INCLUDE_RE = re.compile(r'#\s*include\s+"common/serde\.hpp"')

ENCODE_FREE_RE = re.compile(r"\bencode_(\w+)\s*\(")
DECODE_FREE_RE = re.compile(r"\bdecode_(\w+)\s*\(")
ENCODE_MEMBER_RE = re.compile(r"\b(?:Bytes|void)\s+encode\s*\(")

ASSERT_RE = re.compile(r"(?<!static_)(?<!\w)assert\s*\((?P<body>.*)")
ASSERT_EFFECT_RE = re.compile(
    r"\+\+|--"
    r"|(?<![=!<>+\-*/&|^])=(?![=])"
    r"|\.(?:push_back|pop_back|pop_front|insert|erase|emplace\w*|clear|reset|swap)\s*\("
    r"|\bfetch_(?:add|sub|and|or|xor)\b"
)

# A single-line trailing-underscore member declaration. Multi-line
# declarations (type on one line, GUARDED_BY(...) + ';' on the next) never
# match -- those are annotated by construction or they wouldn't be split.
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|const\s+)*"
    r"[A-Za-z_][\w:]*(?:<[^;]*>)?[&*\s]+"
    r"(?:[A-Za-z_][\w:]*(?:<[^;]*>)?[&*\s]+)*"
    r"([a-z][a-z0-9_]*_)\s*(?:\{[^{};]*\})?\s*;"
)
MEMBER_DECL_EXCLUDE_RE = re.compile(
    r"^\s*(?:return|using|throw|delete|typedef|case|goto|else|if|while|for|do|switch)\b"
)
MEMBER_OK_TYPE_RE = re.compile(r"std::atomic\b|common::Mutex\b|common::CondVar\b")
CONFINED_TAG_RE = re.compile(r"\bconfined\([^)]+\)")

# CoSi role primitives and the files that may call them (src/ only).
COSI_ROLE_RE = re.compile(
    r"\bcosi_(?:commit|nonce|respond|aggregate_\w+|find_faulty)\s*\("
)
COSI_ROLE_SANCTIONED_RE = re.compile(
    r"^src/crypto/|^src/commit/cosi_(?:witness|leader)\.[^/]+$"
)

# Shard-state mutators and the files that may call them (src/ only): the
# store that defines them and the one apply rule in txn/occ.hpp.
BLOCK_EFFECT_RE = re.compile(r"\b(?:apply_write|update_read_ts)\s*\(")
BLOCK_EFFECT_SANCTIONED_RE = re.compile(r"^src/store/|^src/txn/occ\.hpp$")

SUPPRESS_RE = re.compile(r"fides-lint:\s*(allow|allow-file|off|on)\(([\w-]+)\)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule, self.message)


def split_code_comment(line, in_block_comment):
    """Returns (code, comment, in_block_comment_after). String literals are
    blanked out of `code` so their contents never trip a rule."""
    code = []
    comment = []
    i = 0
    n = len(line)
    in_string = None  # the quote char, or None
    while i < n:
        c = line[i]
        if in_block_comment:
            if line.startswith("*/", i):
                in_block_comment = False
                i += 2
            else:
                comment.append(c)
                i += 1
            continue
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            code.append(" ")
            continue
        if c in "\"'":
            in_string = c
            code.append(" ")
            i += 1
            continue
        if line.startswith("//", i):
            comment.append(line[i + 2 :])
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        code.append(c)
        i += 1
    return "".join(code), "".join(comment), in_block_comment


class FileLinter:
    def __init__(self, path, rel, text):
        self.path = path
        self.rel = rel
        self.lines = text.splitlines()
        self.violations = []
        self.file_allowed = set()
        self.off = set()
        # Pre-scan for allow-file() so position in the file doesn't matter.
        for line in self.lines:
            for kind, rule in SUPPRESS_RE.findall(line):
                if kind == "allow-file":
                    self.file_allowed.add(rule)

    def report(self, lineno, rule, message, line_suppressed):
        if rule in self.file_allowed or rule in self.off or rule in line_suppressed:
            return
        self.violations.append(Violation(self.rel, lineno, rule, message))

    def lint(self):
        rel = self.rel.replace(os.sep, "/")
        in_sim = rel.startswith("src/sim/")
        in_guarded = rel in GUARDED_FIELD_FILES
        raw_mutex_sanctioned = rel == RAW_MUTEX_SANCTIONED
        cosi_roles_checked = rel.startswith("src/") and not COSI_ROLE_SANCTIONED_RE.match(rel)
        block_effects_checked = (
            rel.startswith("src/") and not BLOCK_EFFECT_SANCTIONED_RE.match(rel)
        )

        has_decode_def = False
        decode_def_line = 0
        mentions_decode_error = "DecodeError" in "\n".join(self.lines)
        includes_serde = False
        encode_names = set()
        decode_names = set()
        member_encode_line = 0
        member_decode = False

        in_block = False
        for idx, raw in enumerate(self.lines):
            lineno = idx + 1
            suppressed = set()
            toggles = SUPPRESS_RE.findall(raw)
            for kind, rule in toggles:
                if kind == "allow":
                    suppressed.add(rule)
                elif kind == "off":
                    self.off.add(rule)
                elif kind == "on":
                    self.off.discard(rule)

            code, comment, in_block = split_code_comment(raw, in_block)

            if not raw_mutex_sanctioned and RAW_MUTEX_RE.search(code):
                self.report(
                    lineno,
                    "raw-mutex",
                    "raw std synchronization primitive; use common::Mutex / "
                    "common::MutexLock / common::CondVar (src/common/mutex.hpp) so "
                    "clang thread-safety analysis sees the lock",
                    suppressed,
                )

            m = NONDET_RE.search(code)
            if m:
                self.report(
                    lineno,
                    "nondeterminism",
                    "nondeterministic source %r; all randomness goes through "
                    "common/rng.hpp and protocol logic never reads the wall clock"
                    % m.group(0),
                    suppressed,
                )

            if in_sim and SIM_WALLCLOCK_RE.search(code):
                self.report(
                    lineno,
                    "sim-wallclock",
                    "host clock read inside src/sim/ -- the simulator runs on a "
                    "virtual clock; host time breaks schedule reproducibility",
                    suppressed,
                )

            m = COSI_ROLE_RE.search(code) if cosi_roles_checked else None
            if m:
                self.report(
                    lineno,
                    "cosi-roles",
                    "CoSi role primitive %r outside src/crypto/ and the witness/"
                    "leader classes; co-sign through commit::CosiWitness or "
                    "commit::CosiLeader" % m.group(0).rstrip("( \t"),
                    suppressed,
                )

            m = BLOCK_EFFECT_RE.search(code) if block_effects_checked else None
            if m:
                self.report(
                    lineno,
                    "block-effects",
                    "shard-state mutator %r outside src/store/ and src/txn/occ.hpp; "
                    "apply a committed transaction through txn::apply_committed"
                    % m.group(0).rstrip("( \t"),
                    suppressed,
                )

            if SERDE_INCLUDE_RE.search(raw):
                includes_serde = True
            if DECODE_FN_RE.search(code) and not has_decode_def:
                has_decode_def = True
                decode_def_line = lineno
            for name in ENCODE_FREE_RE.findall(code):
                encode_names.add(name)
            for name in DECODE_FREE_RE.findall(code):
                decode_names.add(name)
            if ENCODE_MEMBER_RE.search(code) and member_encode_line == 0:
                member_encode_line = lineno
            if re.search(r"\bdecode\s*\(", code):
                member_decode = True

            am = ASSERT_RE.search(code)
            if am and ASSERT_EFFECT_RE.search(am.group("body")):
                self.report(
                    lineno,
                    "assert-effects",
                    "assert() argument appears to have side effects; it vanishes "
                    "under NDEBUG -- hoist the effect out of the assert",
                    suppressed,
                )

            if in_guarded:
                annotated = (
                    "GUARDED_BY(" in code
                    or "PT_GUARDED_BY(" in code
                    or MEMBER_OK_TYPE_RE.search(code)
                    or CONFINED_TAG_RE.search(comment)
                )
                if not annotated and not MEMBER_DECL_EXCLUDE_RE.match(code):
                    if "=" not in code and "(" not in code:
                        dm = MEMBER_DECL_RE.match(code)
                        if dm:
                            self.report(
                                lineno,
                                "guarded-fields",
                                "member %r in the annotated concurrency layer has "
                                "neither GUARDED_BY(...) nor a confined(...) tag "
                                "documenting its thread-confinement" % dm.group(1),
                                suppressed,
                            )

        # File-granularity rules (line suppressions don't apply; use
        # allow-file for these).
        if (
            has_decode_def
            and rel.endswith(".cpp")
            and rel.startswith("src/")
            and not mentions_decode_error
            and not includes_serde
        ):
            self.report(
                decode_def_line,
                "decode-bounds",
                "file defines/uses a decode function but neither references "
                "DecodeError nor includes common/serde.hpp -- wire decoding must "
                "fail by throwing DecodeError",
                set(),
            )
        if (
            member_encode_line
            and not member_decode
            and rel.endswith((".hpp", ".h"))
        ):
            self.report(
                member_encode_line,
                "serde-pairing",
                "header declares a member encode() without a matching decode() -- "
                "one-way codecs drift silently",
                set(),
            )
        return self.violations, encode_names, decode_names, self.file_allowed


def lint_tree(root, paths):
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(p)
            continue
        for dirpath, _dirnames, filenames in os.walk(full):
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    files.append(os.path.relpath(os.path.join(dirpath, fn), root))

    violations = []
    # encode_X/decode_X pairing is resolved across the whole tree: the codec
    # halves legitimately live in different files.
    encode_sites = {}  # name -> (rel, line)
    decode_sites = {}
    pairing_allowed_files = set()

    for rel in sorted(set(files)):
        full = os.path.join(root, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            violations.append(Violation(rel, 0, "io", str(e)))
            continue
        linter = FileLinter(full, rel.replace(os.sep, "/"), text)
        vs, enc, dec, allowed = linter.lint()
        violations.extend(vs)
        if "serde-pairing" in allowed:
            pairing_allowed_files.add(rel.replace(os.sep, "/"))
        for name in enc:
            encode_sites.setdefault(name, set()).add(rel.replace(os.sep, "/"))
        for name in dec:
            decode_sites.setdefault(name, set()).add(rel.replace(os.sep, "/"))

    # A codec half is exempt when any file mentioning it carries
    # allow-file(serde-pairing) -- the declaring header speaks for its callers.
    for name, rels in sorted(encode_sites.items()):
        if name not in decode_sites and not (rels & pairing_allowed_files):
            violations.append(
                Violation(
                    min(rels),
                    0,
                    "serde-pairing",
                    "encode_%s has no decode_%s anywhere in the tree" % (name, name),
                )
            )
    for name, rels in sorted(decode_sites.items()):
        if name not in encode_sites and not (rels & pairing_allowed_files):
            violations.append(
                Violation(
                    min(rels),
                    0,
                    "serde-pairing",
                    "decode_%s has no encode_%s anywhere in the tree" % (name, name),
                )
            )
    return violations


# --- self-check ----------------------------------------------------------------

FIXTURES = [
    # (name, rel_path, source, expected rule hits)
    (
        "raw mutex flagged",
        "src/x/a.cpp",
        "#include <mutex>\nstd::mutex m;\n",
        ["raw-mutex"],
    ),
    (
        "raw mutex in comment ignored",
        "src/x/a.cpp",
        "// std::mutex is banned here\nint x;\n",
        [],
    ),
    (
        "raw mutex in string ignored",
        "src/x/a.cpp",
        'const char* s = "std::mutex";\n',
        [],
    ),
    (
        "raw mutex allowed inline",
        "src/x/a.cpp",
        "std::mutex m;  // fides-lint: allow(raw-mutex) -- test fixture\n",
        [],
    ),
    (
        "raw mutex sanctioned file",
        "src/common/mutex.hpp",
        "std::mutex m_;\n",
        [],
    ),
    (
        "off/on block",
        "src/x/a.cpp",
        "// fides-lint: off(raw-mutex)\nstd::mutex a;\n"
        "// fides-lint: on(raw-mutex)\nstd::mutex b;\n",
        ["raw-mutex"],
    ),
    (
        "allow-file",
        "src/x/a.cpp",
        "// fides-lint: allow-file(raw-mutex) -- fixture\nstd::mutex a;\nstd::mutex b;\n",
        [],
    ),
    (
        "random_device and time()",
        "src/x/b.cpp",
        "auto r = std::random_device{}();\nauto t = time(nullptr);\n",
        ["nondeterminism", "nondeterminism"],
    ),
    (
        "cpu_time() call not flagged",
        "src/x/b.cpp",
        "double t = cpu_time();\nauto d = p.time();\n",
        [],
    ),
    (
        "std engine flagged",
        "src/x/b.cpp",
        "std::mt19937 gen(42);\n",
        ["nondeterminism"],
    ),
    (
        "steady_clock fine outside sim",
        "src/workload/c.cpp",
        "auto t0 = std::chrono::steady_clock::now();\n",
        [],
    ),
    (
        "steady_clock banned in sim",
        "src/sim/c.cpp",
        "auto t0 = std::chrono::steady_clock::now();\n",
        ["sim-wallclock"],
    ),
    (
        "decode without DecodeError",
        "src/x/d.cpp",
        "Foo decode_foo(BytesView b) { return Foo{}; }\n"
        "void encode_foo(Writer& w);\n",
        ["decode-bounds"],
    ),
    (
        "decode with serde include",
        "src/x/d.cpp",
        '#include "common/serde.hpp"\n'
        "Foo decode_foo(BytesView b) { return Foo{}; }\n"
        "void encode_foo(Writer& w);\n",
        [],
    ),
    (
        "unpaired encode",
        "src/x/e.cpp",
        "void encode_orphan(Writer& w) {}\n",
        ["serde-pairing"],
    ),
    (
        "member encode without decode",
        "src/x/f.hpp",
        "struct F { Bytes encode() const; };\n",
        ["serde-pairing"],
    ),
    (
        "member encode with decode",
        "src/x/f.hpp",
        "struct F { Bytes encode() const; static F decode(BytesView b); };\n",
        [],
    ),
    (
        "assert with side effect",
        "src/x/g.cpp",
        "void f() { assert(q.push_back(1), true); assert(++n > 0); }\n",
        ["assert-effects"],
    ),
    (
        "assert with comparison fine",
        "src/x/g.cpp",
        "void f() { assert(a == b); assert(n <= m); static_assert(sizeof(int) == 4); }\n",
        [],
    ),
    (
        "unannotated guarded member",
        "src/net/poller.hpp",
        "class P {\n  std::vector<int> entries_;\n};\n",
        ["guarded-fields"],
    ),
    (
        "guarded member ok",
        "src/net/poller.hpp",
        "class P {\n  std::vector<int> entries_ GUARDED_BY(mutex_);\n"
        "  int count_;  // confined(actor)\n"
        "  std::atomic<int> hits_{0};\n  common::Mutex mutex_;\n};\n",
        [],
    ),
    (
        "guarded heuristic skips locals and returns",
        "src/net/poller.hpp",
        "int f() {\n  return entries_;\n}\n",
        [],
    ),
    (
        "file outside guarded list not checked",
        "src/x/h.hpp",
        "class P {\n  std::vector<int> entries_;\n};\n",
        [],
    ),
    (
        "cosi role primitives outside their roles",
        "src/engine/r.cpp",
        "auto v = crypto::cosi_aggregate_commitments(vs);\n"
        "auto r = cosi_respond(kp, secret, c);\nauto x = cosi_nonce (kp, rec, 1);\n",
        ["cosi-roles", "cosi-roles", "cosi-roles"],
    ),
    (
        "cosi role primitives in crypto",
        "src/crypto/cosi.cpp",
        "auto c = cosi_commit(kp, rec, 1);\nauto f = cosi_find_faulty(vs, rs, c, ks);\n",
        [],
    ),
    (
        "cosi role primitives in the witness",
        "src/commit/cosi_witness.cpp",
        "auto v = crypto::cosi_nonce(kp, rec, 1);\n",
        [],
    ),
    (
        "cosi role primitives in the leader",
        "src/commit/cosi_leader.cpp",
        "auto r = crypto::cosi_aggregate_responses(shares);\n",
        [],
    ),
    (
        "cosi role primitive allowed with a reason",
        "src/commit/t.cpp",
        "auto r = cosi_respond(kp, s, c);  // fides-lint: allow(cosi-roles) -- fixture\n",
        [],
    ),
    (
        "cosi checks, comments and tests are not role calls",
        "src/ledger/c.cpp",
        "// cosi_commit(kp, rec, 1) lives in the witness\n"
        "bool ok = crypto::cosi_verify(rec, sig, agg);\n"
        "auto c = crypto::cosi_challenge(v, rec);\nauto n = checkpoint_cosi_round(h);\n",
        [],
    ),
    (
        "cosi role primitives outside src not checked",
        "tests/c_test.cpp",
        "auto v = crypto::cosi_aggregate_commitments(vs);\n",
        [],
    ),
    (
        # The server's own copy of the apply rule, as it stood before
        # Server::apply_block called txn::apply_committed.
        "block effects applied by the server",
        "src/fides/server.cpp",
        "for (const auto& w : t.rw.writes) {\n"
        "  if (!shard_.contains(w.id)) continue;\n"
        "  shard_.apply_write(w.id, w.new_value, t.commit_ts);\n}\n"
        "for (const ItemId id : t.rw.touched_items()) {\n"
        "  if (shard_.contains(id)) shard_.update_read_ts(id, t.commit_ts);\n}\n",
        ["block-effects", "block-effects"],
    ),
    (
        # The cohort's copy of the rule in its speculative base, with the
        # overlay's mutators under their shard names.
        "block effects staged by the cohort",
        "src/commit/tfcommit.cpp",
        "base.apply_write(w.id, w.new_value, t.commit_ts);\n"
        "if (shard_->contains(item)) base.update_read_ts (item, t.commit_ts);\n",
        ["block-effects", "block-effects"],
    ),
    (
        "block effects in the store",
        "src/store/shard.cpp",
        "void ShardOverlay::apply_write(ItemId item, BytesView v, const Timestamp& ts) {}\n"
        "void Shard::update_read_ts(ItemId item, const Timestamp& ts) {}\n",
        [],
    ),
    (
        "block effects in the one apply rule",
        "src/txn/occ.hpp",
        "state.apply_write(w.id, w.new_value, ts);\nstate.update_read_ts(r.id, ts);\n",
        [],
    ),
    (
        "block effects in another txn file",
        "src/txn/occ.cpp",
        "shard.apply_write(w.id, w.new_value, ts);\n",
        ["block-effects"],
    ),
    (
        "apply rule calls, comments and lookalikes are not block effects",
        "src/fides/s.cpp",
        "// shard_.apply_write(id, v, ts) happens in txn::apply_committed\n"
        "txn::apply_committed(shard_, t);\nauto n = overlay_apply_write_count(x);\n"
        "s.apply_write(1, v, ts);  // fides-lint: allow(block-effects) -- fixture\n",
        [],
    ),
    (
        "block effects outside src not checked",
        "tests/s_test.cpp",
        "s.apply_write(10, to_bytes(\"v1\"), ts);\ns.update_read_ts(10, ts);\n",
        [],
    ),
]


def self_check():
    import shutil
    import tempfile

    failures = []
    for name, rel, source, expected in FIXTURES:
        tmp = tempfile.mkdtemp(prefix="fides_lint_check_")
        try:
            full = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "w", encoding="utf-8") as f:
                f.write(source)
            got = sorted(v.rule for v in lint_tree(tmp, [os.path.dirname(rel)]))
            if got != sorted(expected):
                failures.append(
                    "%s: expected %s, got %s" % (name, sorted(expected), got)
                )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        for f in failures:
            print("SELF-CHECK FAIL:", f, file=sys.stderr)
        return 1
    print("fides_lint self-check: %d fixtures passed" % len(FIXTURES))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repo root (default: cwd)")
    ap.add_argument("--self-check", action="store_true", help="run the fixture suite")
    ap.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories relative to --root "
        "(default: src tests tools bench examples)",
    )
    args = ap.parse_args()

    if args.self_check:
        return self_check()

    paths = args.paths or ["src", "tests", "tools", "bench", "examples"]
    paths = [p for p in paths if os.path.exists(os.path.join(args.root, p))]
    violations = lint_tree(args.root, paths)
    for v in violations:
        print(v)
    if violations:
        print(
            "fides_lint: %d violation(s). See tools/fides_lint.py for the rule "
            "catalogue and suppression syntax." % len(violations),
            file=sys.stderr,
        )
        return 1
    print("fides_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

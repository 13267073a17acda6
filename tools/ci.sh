#!/usr/bin/env bash
# The tier-1 gate, as one command: lint (descriptor-only middlebox renderers;
# one batch pipeline; one in-batch identity; one encode identity; one
# refinement kernel; one delivery walk; one first-hop rule; one metrics
# schema; one model reader; one solver flavour; one transfer memo; two
# executors; one worker path; one spec rendering),
# configure, build, run every test suite, then smoke-test the batch modes on
# the shipped enterprise spec - the
# cached rerun, the process executor (verdicts must match the inline
# executor; --backend=process is an alias of --batch, and --backend=thread
# is a usage error), a worker killed mid-batch (the batch must still
# complete with every invariant answered), and the fault-injection harness
# (a deterministic crash-looping job must be quarantined while the
# respawned fleet answers everything else; verdicts may widen to unknown
# but never flip; a torn cache flush loses only the tail record and a 1ms
# deadline exits with the "incomplete" code, with and without --batch) -
# and slice soundness on the shipped segmented spec (disconnected segments,
# identical middlebox configs): its expect clauses encode the whole-network
# truth, so both executors and every symmetry mode must reproduce them, and a cache directory written under a
# previous key-format version must be rejected (0 hits), then upgraded - and
# finally the serve daemon on a Unix socket: an in-place edit confined to one
# segment must re-solve only that segment (counter-asserted) with verdicts
# equal to a cold one-shot run. The end-to-end benchmark project
# (bench/e2e) is configured into [build-dir]/e2e, built, and its
# bench_e2e_smoke run, so a change to the structs it reads fails here.
#
#   tools/ci.sh [build-dir]
#
# Environment knobs (used by .github/workflows/ci.yml):
#   CMAKE_BUILD_TYPE   Debug/Release/... (default RelWithDebInfo)
#   VMN_SANITIZE       ON builds ASan+UBSan (tests run with leak detection
#                      off: system Z3 keeps global contexts alive)
#   CC / CXX           compiler selection, honored by CMake as usual
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
spec="$repo/examples/specs/enterprise.vmn"
segmented="$repo/examples/specs/segmented.vmn"

echo "--- lint: middlebox renderers are final (descriptor-only config) ---"
# policy_fingerprint and encoding_projection are final methods rendered
# from the config_relations() descriptor; a per-box override would reopen
# the raw-address-bits leaks the descriptor exists to prevent. Declaring
# one would not compile (the base methods are non-virtual), but the lint
# catches shadowing attempts and keeps the contract greppable.
if grep -En "(policy_fingerprint|encoding_projection)[^;]*\)[^;]*(const)?[^;]*override" \
    "$repo"/src/mbox/*.hpp "$repo"/src/mbox/*.cpp; then
  echo "ci: a middlebox overrides policy_fingerprint/encoding_projection;" \
       "implement config_relations() instead (src/mbox/config.hpp)" >&2
  exit 1
fi

echo "--- lint: one batch pipeline (single call sites) ---"
# Engine::run_batch is the only code that answers classes from the result
# cache and fans a solved verdict out to its bindings. A second call site
# of either is a second copy of the batch pipeline, and copies drift.
for pattern in '(\.|->)lookup\(' '[^_[:alnum:]]bind_result\('; do
  sites="$(grep -rEn "$pattern" "$repo/src" --include='*.cpp' \
      --include='*.hpp' | grep -Ev ':[0-9]+:[[:space:]]*//|VerifyResult ' \
      || true)"
  if [ "$(echo "$sites" | grep -c .)" -ne 1 ]; then
    echo "ci: want exactly one call site matching $pattern in src/:" >&2
    echo "$sites" >&2
    exit 1
  fi
done

echo "--- lint: one in-batch identity (no slice-key merges) ---"
# The problem key is the only merge identity. canonical_slice_key is a 1-WL
# fingerprint whose converse is heuristic, so no verdict may rest on it: it
# stays a diagnostics function with no call site in the verifier or tools.
if grep -rEn 'canonical_slice_key\(' "$repo/src/verify" "$repo/tools" \
    | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: canonical_slice_key is called from src/verify or tools/;" \
       "merge by slice::canonical_problem_key instead" >&2
  exit 1
fi

echo "--- lint: one encode identity (base keys decide encode reuse) ---"
# plan_jobs rebinds a class representative by one lookup of its
# canonical_base_key (src/slice/symmetry.hpp), rendered by the problem
# key's own renderer. shape_bijection is a cross-check and a diagnostic:
# under src/verify/ only verify::merge_blockers calls it, to name the
# refusals --dedup-report asks for. Another call site, a capped
# representative list (kMaxShapeReps), or merge blockers carried on every
# plan (a merge_blockers member of JobPlan or PoolStats) is the candidate
# search the base key replaced.
verifier="$repo/src/verify/verifier.cpp"
read -r first last <<< "$(awk '
    /^std::vector<MergeBlocker> merge_blockers\(/ {s = NR}
    s && !e && /^}$/ {e = NR} END {print s + 0, e + 0}' "$verifier")"
stray="$(grep -rEn 'shape_bijection\(' "$repo/src/verify" --include='*.cpp' \
    --include='*.hpp' | grep -Ev ':[0-9]+:[[:space:]]*//' \
    | awk -F: -v f="$verifier" -v a="$first" -v b="$last" \
        '!($1 == f && $2 > a && $2 < b)' || true)"
members="$(awk '/^struct (JobPlan|PoolStats) \{/ {inside = 1}
    inside && /merge_blockers/ {print FILENAME ":" FNR ": " $0}
    inside && /^};/ {inside = 0}' "$repo"/src/verify/*.hpp)"
caps="$(grep -rn 'kMaxShapeReps' "$repo/src" || true)"
if [ -n "$stray$members$caps" ]; then
  echo "ci: encode reuse must be one base-key lookup; shape_bijection is" \
       "called only by verify::merge_blockers in src/verify/:" >&2
  printf '%s\n' "$stray" "$members" "$caps" | grep . >&2
  exit 1
fi

echo "--- lint: one refinement kernel (integer colours) ---"
# Policy classes and the canonical shape/slice keys both refine through
# slice/refine.hpp: one exact integer kernel run to the stable colouring.
# A second refinement function is a second copy that drifts, and a string
# colour vector is the per-round string-signature machinery it replaced.
if grep -rEn '^[^[:space:]/#][^=;(]*[[:space:]*&][A-Za-z_:]*refine[A-Za-z_]*\(' \
    "$repo/src" --include='*.cpp' --include='*.hpp' \
    | grep -v "^$repo/src/slice/refine\.[ch]pp:"; then
  echo "ci: colour refinement defined outside src/slice/refine.*;" \
       "build a ColourGraph and call slice::refine instead" >&2
  exit 1
fi
if grep -rEn 'std::vector<std::string>[^;(]*colou?r' "$repo/src/slice"; then
  echo "ci: string colour vector in src/slice; refinement colours are" \
       "std::uint64_t (src/slice/refine.hpp)" >&2
  exit 1
fi

echo "--- lint: one delivery walk (memoised middlebox walk states) ---"
# Policy inference (src/slice/policy.cpp) walks each middlebox entry state
# once per scenario and shares its deliveries across sources. A per-source
# delivery worklist - deliveries_from, or a boxes_at map from walk states to
# box sets - is the |hosts|^2 walk it replaced; the exactness oracle in
# tests/test_slice.cpp is its only copy.
if grep -rEn 'deliveries_from\(|boxes_at' "$repo/src" \
    --include='*.cpp' --include='*.hpp'; then
  echo "ci: per-source delivery worklist in src/; policy inference walks" \
       "each middlebox state once (BoxWalks in src/slice/policy.cpp)" >&2
  exit 1
fi

echo "--- lint: one first-hop rule (TransferFunction::first_hop_ranges) ---"
# Policy inference walks only the seed addresses a host's first hop routes.
# Which neighbour is that first hop, and which of its rules take the host's
# packets, is decided once, in src/dataplane/transfer.cpp, next to the walk
# that follows the same rule. A neighbour or table read in
# src/slice/policy.cpp re-derives it, and the two copies can drift apart.
if grep -En 'neighbors\(|effective_table\(' "$repo/src/slice/policy.cpp"; then
  echo "ci: src/slice/policy.cpp re-derives the first hop; ask" \
       "TransferFunction::first_hop_ranges (src/dataplane/transfer.hpp)" >&2
  exit 1
fi

echo "--- lint: one metrics schema (BatchResult::metrics names every metric) ---"
# The CLI summary, the serve STATS batch object and the bench JSON records
# all render BatchResult::metrics() (src/verify/verifier.cpp). A metric
# name spelled anywhere else in the C++ of src/ or tools/ - as a literal
# or escaped inside a JSON string - is a second hand-written rendering,
# and renderings drift apart. Hand-concatenated JSON in serve.cpp is how
# the STATS reply drifted before.
schema_names="$(sed -n '/^std::vector<Metric> BatchResult::metrics() const {$/,/^}$/p' \
    "$repo/src/verify/verifier.cpp" | grep -oE '\{"[a-z0-9_]+",' | tr -d '{",' \
    || true)"
if [ -z "$schema_names" ]; then
  echo "ci: found no metric names in BatchResult::metrics()" \
       "(src/verify/verifier.cpp)" >&2
  exit 1
fi
for name in $schema_names; do
  spelled="$(grep -rEo "\\\\?\"$name\\\\?\"" "$repo/src" "$repo/tools" \
      --include='*.cpp' --include='*.hpp' | wc -l)"
  if [ "$spelled" -ne 1 ]; then
    echo "ci: metric \"$name\" is spelled $spelled times in src/ and tools/;" \
         "render BatchResult::metrics() instead" >&2
    grep -rEn "\\\\?\"$name\\\\?\"" "$repo/src" "$repo/tools" \
        --include='*.cpp' --include='*.hpp' >&2
    exit 1
  fi
done
if grep -n '<< ",\\"' "$repo/src/verify/serve.cpp"; then
  echo "ci: hand-concatenated JSON in src/verify/serve.cpp;" \
       "render counters through verify::metrics_json" >&2
  exit 1
fi

echo "--- lint: one model reader (the dense probe is the decoder's fallback) ---"
# Z3Solver::model() reads each event relation through
# z3_events::read_events, which decodes the interpretation Z3 returns and
# evaluates every ground atom only when the decoder rejects its shape. A
# second call site of the dense probe is a second model reader, with the
# |Node|^2 x |Packet| x |times| cost the decoder exists to avoid.
sites="$(grep -rEn 'probe_events_dense\(' "$repo/src" --include='*.cpp' \
    --include='*.hpp' \
    | grep -Ev ':[0-9]+:[[:space:]]*//|std::vector<ModelEvent> probe_events_dense\(' \
    || true)"
if [ "$(echo "$sites" | grep -c .)" -ne 1 ] \
    || ! grep -q "^$repo/src/smt/z3_events\.cpp:" <<< "$sites"; then
  echo "ci: want exactly one call site of probe_events_dense in src/," \
       "the decoder's fallback in src/smt/z3_events.cpp:" >&2
  echo "$sites" >&2
  exit 1
fi

echo "--- lint: one solver flavour (the incremental SMT core) ---"
# Z3Solver builds its one z3::solver from z3::solver::simple(), the
# incremental SMT core alone. The default z3::solver(ctx) pairs that core
# with a tactic solver every context builds and tears down unused, and a
# tactic-built solver re-solves from scratch after each push/pop (the PR 20
# entry of CHANGES.md records the measurements). A second z3::solver object
# or temporary, or any tactic solver, is a second solver path.
src_sites() {
  grep -rEn "$1" "$repo/src" --include='*.cpp' --include='*.hpp' \
      | grep -Ev ':[0-9]+:[[:space:]]*//' || true
}
solvers="$(src_sites 'z3::solver([[:space:]]+[A-Za-z_]|[[:space:]]*[({])')"
simple="$(src_sites 'z3::solver::simple\(\)')"
if [ "$(echo "$solvers" | grep -c .)" -ne 1 ] \
    || ! grep -q "^$repo/src/smt/z3_backend\.cpp:" <<< "$solvers" \
    || [ "$(echo "$simple" | grep -c .)" -ne 1 ] \
    || ! grep -q "^$repo/src/smt/z3_backend\.cpp:" <<< "$simple"; then
  echo "ci: want exactly one z3::solver in src/, in src/smt/z3_backend.cpp," \
       "built from z3::solver::simple():" >&2
  echo "$solvers" >&2
  echo "$simple" >&2
  exit 1
fi
tactics="$(src_sites 'z3::tactic\(|mk_solver\(\)')"
if [ -n "$tactics" ]; then
  echo "ci: tactic-built solvers are a second solver path:" >&2
  echo "$tactics" >&2
  exit 1
fi

echo "--- lint: one transfer memo (snapshotted tables, dense walk memo) ---"
# TransferFunction (src/dataplane/transfer.cpp) snapshots each switch's
# effective table in its constructor and memoises walks in a dense
# [edge node x destination class] array. A hash memo keyed by packed
# (node, address) words - an unordered_map<std::uint64_t ...> or the
# cache_key( helper that packed its keys - is the memo it replaced, and an
# effective_table( call outside the constructor is a per-hop table lookup.
if grep -rEn 'unordered_map<std::uint64_t|cache_key\(' "$repo/src/dataplane" \
    | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: a uint64-keyed hash memo in src/dataplane/; TransferFunction" \
       "memoises walks in its dense [edge node x destination class] array" >&2
  exit 1
fi
tables="$(awk '
  /^TransferFunction::TransferFunction\(/ { ctor = 1 }
  /^[[:space:]]*\/\// { next }
  /effective_table\(/ { print (ctor ? "ctor" : "other") ": " FNR ": " $0 }
  ctor && /^}/ { ctor = 0 }
' "$repo/src/dataplane/transfer.cpp")"
if [ "$(echo "$tables" | grep -c .)" -ne 1 ] || ! grep -q '^ctor:' <<< "$tables"; then
  echo "ci: want exactly one effective_table( call in" \
       "src/dataplane/transfer.cpp, in the TransferFunction constructor:" >&2
  echo "$tables" >&2
  exit 1
fi

echo "--- lint: two executors (inline and process) ---"
# EngineOptions::batch means the process executor: forked workers that
# carry the never-flip fault contract. The thread executor (SolverPool,
# Backend::thread) bought nothing over it (the PR 23 entry of CHANGES.md).
# A thread pool in the Engine is a third executor, and
# EngineOptions::backend is kept only because bench/e2e sets it: a read of
# it in src/ or tools/ would make it choose something again.
if grep -En 'SolverPool|Backend::thread|std::thread' \
    "$repo/src/verify/engine.cpp" | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: src/verify/engine.cpp runs a thread executor; a pooled batch" \
       "runs the process executor (src/verify/process_pool.hpp)" >&2
  exit 1
fi
if grep -rEn '(\.|->)backend\b' "$repo/src" "$repo/tools" \
    --include='*.cpp' --include='*.hpp' | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: EngineOptions::backend is read in src/ or tools/; it is a" \
       "leftover for bench/e2e and chooses nothing (ROADMAP item 8)" >&2
  exit 1
fi

echo "--- lint: one worker path (fork the dispatcher, solve its own model) ---"
# Every process-executor worker is a fork() of the dispatcher that solves
# the Engine's own model with its planning transfer memo
# (src/verify/process_pool.cpp). An exec'd worker, a `vmn worker`
# subcommand, a registry of sibling pipe ends held across fork(), or a
# slice projected to a spec for a worker to re-parse is the second worker
# path this replaced. ProcessPoolOptions::worker_command is kept only
# because bench/e2e sets it: a read of it would make it choose again.
if grep -rEn 'execvp|FdRegistry|(\.|->)worker_command\b' "$repo/src" \
    "$repo/tools" --include='*.cpp' --include='*.hpp' \
    | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: an exec'd worker, an fd registry or a read of worker_command" \
       "in src/ or tools/; workers are forks (ROADMAP item 8(a))" >&2
  exit 1
fi
if grep -En '"worker"' "$repo/tools/vmn_cli.cpp"; then
  echo "ci: tools/vmn_cli.cpp has a worker subcommand; workers are forks" >&2
  exit 1
fi
if grep -rEn 'write_projected_spec' "$repo/src/verify" \
    | grep -Ev ':[0-9]+:[[:space:]]*//'; then
  echo "ci: src/verify/ projects a spec; workers solve the dispatcher's" \
       "own model" >&2
  exit 1
fi

echo "--- lint: one spec rendering (a reload compares write_spec text) ---"
# The serve daemon decides a reload by comparing the served generation's
# write_spec rendering with the edit's (io::render_spec): equal text is a
# formatting-only edit. Sorting the rendered lines into a multiset threw
# away the order that ACL first match, link-listed first hops and invariant
# indices depend on, and " (shadowed)" or RouteLine tags patched some of it
# back; a set_difference over lines is that diff again.
if grep -En '\(shadowed\)|RouteLine|set_difference' \
    "$repo/src/io/spec.cpp" "$repo/src/verify/serve.cpp"; then
  echo "ci: a sorted-line spec diff in src/io/spec.cpp or" \
       "src/verify/serve.cpp; compare renderings (io::diff_specs)" >&2
  exit 1
fi

cmake_args=(-DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}"
            -DVMN_SANITIZE="${VMN_SANITIZE:-OFF}")
if command -v ccache > /dev/null; then
  cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
if [ "${VMN_SANITIZE:-OFF}" = "ON" ]; then
  # Z3's global contexts never unwind; leak reports would drown the signal
  # the sanitizers are here for (the forked worker path above all).
  export ASAN_OPTIONS="detect_leaks=0${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
fi

cmake -B "$build" -S "$repo" "${cmake_args[@]}"
# Absolute from here on: the bench smoke below runs binaries from inside a
# temp dir, where a relative [build-dir] argument would no longer resolve.
build="$(cd "$build" && pwd)"
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Pattern checks read captured output from here-strings, not `echo |`
# pipes: grep -q exits at its first match, and under pipefail the echo
# that then hits a closed pipe would fail the check.

# Per-invariant verdict lines, reduced to "<invariant> <outcome>" so runs
# are comparable. Descriptions contain spaces ("kind(a, b)"), so scan for
# the outcome token instead of assuming a column.
verdicts() {
  awk '{ for (i = 2; i <= NF; i++)
           if ($i == "holds" || $i == "violated" || $i == "unknown") {
             print $1, $i; break
           } }'
}

echo "--- smoke: memory (one Z3 context at a time, freed pages kept, huge pages) ---"
# Every Z3 context touches 16.8 MB of tables. A session frees its old
# context before it builds the next, and vmn keeps freed heap pages, so a
# later context reuses them: the enterprise spec peaks at ~33 MB (48 MB
# before). vmn also reserves its heap top and advises it MADV_HUGEPAGE, so
# where the kernel offers transparent huge pages the tables fault in 2 MiB
# at a time: ~0.6k minor faults inline and ~1.6k at --batch --jobs 2
# (5.0k and 10.1k in 4 KB pages; 13.3k inline with tables unmapped on
# free). A second live context, tables unmapped on free, or a heap left in
# 4 KB pages puts a run back above these bounds. wait4 on the dispatcher
# also counts the workers it reaped. Sanitizer runtimes replace the
# allocator, so the smoke needs a plain build.
if [ "${VMN_SANITIZE:-OFF}" = "ON" ]; then
  echo "ci: memory smoke skipped (sanitizer build)" >&2
elif ! command -v python3 > /dev/null; then
  echo "ci: memory smoke skipped (needs python3 to read the child's rusage)" >&2
else
  thp="$(cat /sys/kernel/mm/transparent_hugepage/enabled 2> /dev/null || true)"
  if grep -Eq '\[(always|madvise)\]' <<< "$thp"; then
    bound="huge pages offered"; inline_max=2000; batch_max=4000
  else
    bound="no huge pages"; inline_max=8000; batch_max=16000
  fi
  echo "memory bounds: $bound (THP: ${thp:-absent})"
  for arm in inline batch; do
    args=(verify "$spec"); max="$inline_max"
    if [ "$arm" = batch ]; then
      args+=(--batch --jobs 2); max="$batch_max"
    fi
    # posix_spawn, not fork: a forked Python child's copy-on-write faults
    # before exec would count as the child's.
    read -r rss_kb faults <<< "$(python3 -c '
import os, sys
devnull = os.open(os.devnull, os.O_WRONLY)
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, devnull, 1)])
_, status, usage = os.wait4(pid, 0)
if os.waitstatus_to_exitcode(status) != 0:
    sys.exit("vmn verify failed")
print(usage.ru_maxrss, usage.ru_minflt)' "$build/vmn" "${args[@]}")"
    echo "vmn verify enterprise.vmn ($arm): peak RSS ${rss_kb} KB," \
         "${faults} minor faults (bounds 40 MB, $max faults)"
    if [ "$rss_kb" -gt $((40 * 1024)) ] || [ "$faults" -gt "$max" ]; then
      echo "ci: vmn verify ($arm) peaked above 40 MB or $max minor faults" >&2
      exit 1
    fi
  done
fi

echo "--- smoke: inline verify (enterprise spec, the reference verdicts) ---"
inline_out="$("$build/vmn" verify "$spec")"
echo "$inline_out"
inline_verdicts="$(echo "$inline_out" | verdicts)"

echo "--- smoke: cached batch re-verification (2 workers, persistent cache) ---"
cache_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir"' EXIT
"$build/vmn" verify "$spec" --batch --jobs 2 --cache-dir "$cache_dir"
second="$("$build/vmn" verify "$spec" --batch --jobs 2 --cache-dir "$cache_dir")"
echo "$second"
if ! grep -Eq "^  cache_hits: [1-9][0-9]*$" <<< "$second"; then
  echo "ci: cached rerun reported no cache hits" >&2
  exit 1
fi

echo "--- smoke: process executor agrees with the inline executor ---"
process_out="$("$build/vmn" verify "$spec" --batch --jobs 2)"
echo "$process_out"
if ! diff <(echo "$inline_verdicts") <(echo "$process_out" | verdicts); then
  echo "ci: process executor disagrees with the inline executor" >&2
  exit 1
fi
if ! grep -Eq "^  workers_spawned: [1-9][0-9]*$" <<< "$process_out"; then
  echo "ci: --batch spawned no worker processes" >&2
  exit 1
fi
alias_out="$("$build/vmn" verify "$spec" --backend=process --jobs 2)"
if ! diff <(echo "$inline_verdicts") <(echo "$alias_out" | verdicts) \
    || ! grep -Eq "^  workers_spawned: [1-9][0-9]*$" <<< "$alias_out"; then
  echo "ci: --backend=process is not an alias of --batch" >&2
  exit 1
fi

echo "--- smoke: --backend=thread is a usage error (exit 3) ---"
thread_rc=0
"$build/vmn" verify "$spec" --backend=thread > /dev/null 2>&1 || thread_rc=$?
if [ "$thread_rc" -ne 3 ]; then
  echo "ci: --backend=thread exited $thread_rc, want 3 (usage)" >&2
  exit 1
fi

echo "--- smoke: worker killed mid-batch (requeue, no lost invariants) ---"
kill_out="$("$build/vmn" verify "$spec" --batch --jobs 2 --faults=kill=0)"
echo "$kill_out"
if ! grep -Eq "^  workers_crashed: 1$" <<< "$kill_out"; then
  echo "ci: killed worker was not observed as crashed" >&2
  exit 1
fi
if echo "$kill_out" | verdicts | grep -q unknown; then
  echo "ci: killed worker lost invariants (unknown verdicts)" >&2
  exit 1
fi
if ! diff <(echo "$inline_verdicts") <(echo "$kill_out" | verdicts); then
  echo "ci: verdicts drifted after the worker kill" >&2
  exit 1
fi

echo "--- smoke: crash-looping job is quarantined, fleet survives ---"
# --faults=crash-job=0 kills whichever worker runs plan job 0, twice; the
# dispatcher must quarantine the job (one unknown verdict), respawn the
# lost workers, answer everything else with verdicts equal to the
# fault-free run (never-flip: unknown is the only allowed difference),
# and exit with the distinct "incomplete" code.
fault_rc=0
fault_out="$("$build/vmn" verify "$spec" --batch --jobs 2 \
    --faults=crash-job=0)" || fault_rc=$?
echo "$fault_out"
if [ "$fault_rc" -ne 2 ]; then
  echo "ci: quarantined batch exited $fault_rc, want 2 (incomplete)" >&2
  exit 1
fi
if ! grep -Eq "^  workers_respawned: [1-9][0-9]*$" <<< "$fault_out"; then
  echo "ci: no workers were respawned after the crash loop" >&2
  exit 1
fi
if ! grep -Eq "^  quarantined: 1$" <<< "$fault_out"; then
  echo "ci: the deterministic crasher was not quarantined exactly once" >&2
  exit 1
fi
if ! grep -q "^  degradation: " <<< "$fault_out"; then
  echo "ci: degraded batch printed no degradation reason" >&2
  exit 1
fi
if ! paste -d' ' <(echo "$inline_verdicts") <(echo "$fault_out" | verdicts) \
    | awk '{ if ($2 != $4 && $4 != "unknown") exit 1 }'; then
  echo "ci: a verdict flipped under fault injection" >&2
  exit 1
fi

echo "--- smoke: torn cache flush loses only the tail record ---"
torn_cache="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache"' EXIT
"$build/vmn" verify "$spec" --batch --jobs 2 --cache-dir "$torn_cache" \
    --faults=seed=1,cache-torn-tail=1 > /dev/null
torn_rerun="$("$build/vmn" verify "$spec" --batch --jobs 2 \
    --cache-dir "$torn_cache")"
echo "$torn_rerun"
if ! grep -Eq "^  cache_hits: [1-9][0-9]*$" <<< "$torn_rerun"; then
  echo "ci: torn cache flush lost more than the tail record" >&2
  exit 1
fi

echo "--- smoke: torn cache flush, inline executor (no --batch) ---"
# The cache fault injector rides the one pipeline, so a sequential run
# tears its flush too: the fault-free rerun re-solves the lost tail record
# and answers the rest from the cache.
torn_seq="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq"' EXIT
torn_cold="$("$build/vmn" verify "$spec" --cache-dir "$torn_seq" \
    --faults=seed=1,cache-torn-tail=1)"
torn_seq_rerun="$("$build/vmn" verify "$spec" --cache-dir "$torn_seq")"
echo "$torn_seq_rerun"
cold_calls="$(sed -n 's/^  solver_calls: //p' <<< "$torn_cold")"
rerun_calls="$(sed -n 's/^  solver_calls: //p' <<< "$torn_seq_rerun")"
if [ "$rerun_calls" -eq 0 ]; then
  echo "ci: sequential run ignored the torn-tail cache fault" >&2
  exit 1
fi
if [ "$rerun_calls" -ge "$cold_calls" ]; then
  echo "ci: torn sequential flush lost more than the tail record" >&2
  exit 1
fi

echo "--- smoke: deadline expiry degrades gracefully (exit 2, partial) ---"
deadline_rc=0
deadline_out="$("$build/vmn" verify "$spec" --batch --jobs 2 \
    --deadline 1)" || deadline_rc=$?
echo "$deadline_out"
if [ "$deadline_rc" -ne 2 ]; then
  echo "ci: expired deadline exited $deadline_rc, want 2 (incomplete)" >&2
  exit 1
fi
if ! grep -Eq "^  deadline_expired: 1$" <<< "$deadline_out"; then
  echo "ci: expired deadline not reported in the batch summary" >&2
  exit 1
fi
deadline_rc=0
deadline_out="$("$build/vmn" verify "$spec" --deadline 1)" || deadline_rc=$?
echo "$deadline_out"
if [ "$deadline_rc" -ne 2 ]; then
  echo "ci: expired sequential deadline exited $deadline_rc, want 2" >&2
  exit 1
fi
if ! grep -Eq "^  deadline_expired: 1$" <<< "$deadline_out"; then
  echo "ci: expired sequential deadline not reported" >&2
  exit 1
fi

echo "--- smoke: segmented spec, slice soundness across executors/symmetry ---"
# The spec's expect clauses are the whole-network verdicts (segment 1's
# invariants violated); `vmn verify` exits non-zero on any disagreement, so
# each of these runs is itself a representative-sender soundness assertion.
seg_inline="$("$build/vmn" verify "$segmented")"
echo "$seg_inline"
seg_verdicts="$(echo "$seg_inline" | verdicts)"
seg_process="$("$build/vmn" verify "$segmented" --batch --jobs 2)"
if ! diff <(echo "$seg_verdicts") <(echo "$seg_process" | verdicts); then
  echo "ci: segmented spec: process executor disagrees with inline" >&2
  exit 1
fi
seg_nosym="$("$build/vmn" verify "$segmented" --no-symmetry)"
if ! diff <(echo "$seg_verdicts") <(echo "$seg_nosym" | verdicts); then
  echo "ci: segmented spec: --no-symmetry changed the verdicts" >&2
  exit 1
fi
seg_nosym_proc="$("$build/vmn" verify "$segmented" --batch --jobs 2 \
    --no-symmetry)"
if ! diff <(echo "$seg_verdicts") <(echo "$seg_nosym_proc" | verdicts); then
  echo "ci: segmented spec: --no-symmetry process executor disagrees" >&2
  exit 1
fi

echo "--- smoke: pre-fix cache directory is rejected (stale key version) ---"
seg_cache="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache"' EXIT
"$build/vmn" verify "$segmented" --batch --jobs 2 --cache-dir "$seg_cache" \
    > /dev/null
# Demote the freshly written cache to the previous key-format version: the
# record lines stay byte-identical, only the header says their fingerprints
# were minted under keys that meant something else. A version mismatch is
# the one wholesale rejection v5 retains - spec edits are handled
# per-record by the model-fingerprint stamps each record carries.
sed -i '1s/^# vmn-result-cache v[0-9].*$/# vmn-result-cache v1/' \
    "$seg_cache/vmn-results.cache"
stale_run="$("$build/vmn" verify "$segmented" --batch --jobs 2 \
    --cache-dir "$seg_cache")"
echo "$stale_run"
if ! grep -Eq "^  cache_hits: 0$" <<< "$stale_run"; then
  echo "ci: stale-version cache was not rejected" >&2
  exit 1
fi
# The stale run's flush must have rewritten the file under the current
# version, so the next run hits again.
if head -1 "$seg_cache/vmn-results.cache" | grep -q "v1$"; then
  echo "ci: stale cache file was not rewritten under the current version" >&2
  exit 1
fi
upgraded="$("$build/vmn" verify "$segmented" --batch --jobs 2 \
    --cache-dir "$seg_cache")"
if ! grep -Eq "^  cache_hits: [1-9][0-9]*$" <<< "$upgraded"; then
  echo "ci: cache was not upgraded after the stale-version rejection" >&2
  exit 1
fi

echo "--- smoke: records from another spec never answer a lookup ---"
# Same cache dir, different spec: no record digest can match (0 hits - no
# stale leftovers served), the flush retires the other spec's orphaned
# records, and the new spec's own rerun hits again.
"$build/vmn" verify "$spec" --batch --jobs 2 --cache-dir "$seg_cache" \
    > /dev/null
edited="$("$build/vmn" verify "$spec" --batch --jobs 2 --cache-dir "$seg_cache")"
if ! grep -Eq "^  cache_hits: [1-9][0-9]*$" <<< "$edited"; then
  echo "ci: cache did not restamp for the edited spec" >&2
  exit 1
fi
back="$("$build/vmn" verify "$segmented" --batch --jobs 2 \
    --cache-dir "$seg_cache")"
if ! grep -Eq "^  cache_hits: 0$" <<< "$back"; then
  echo "ci: records from another spec answered a lookup" >&2
  exit 1
fi

echo "--- smoke: renamed isomorphic spec answers from cache, 0 solver calls ---"
# Rename every host, middlebox and switch in the segmented spec AND move
# both segments to new subnets (addresses first; name tokens never contain
# dots). The v6 problem keys are name-blind and address-token-canonical,
# so a warm cache dir populated by the ORIGINAL spec must answer the
# renamed spec's first-ever run completely: full hits, zero misses, zero
# solver calls - on the inline and the process executor alike - with
# verdict outcomes equal to a cold --no-warm baseline.
ren_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache" "$ren_dir"' EXIT
sed -e 's/10\.0\./10.4./g' -e 's/10\.1\./10.5./g' \
    -e 's/srv0/edge0/g' -e 's/srv1/edge1/g' \
    -e 's/h0-0/peer-a/g' -e 's/h0-1/peer-b/g' \
    -e 's/h1-0/peer-c/g' -e 's/h1-1/peer-d/g' \
    -e 's/idps0/watch0/g' -e 's/idps1/watch1/g' \
    -e 's/s0a/t4a/g' -e 's/s0b/t4b/g' -e 's/s1a/t5a/g' -e 's/s1b/t5b/g' \
    -e 's/ idps expect/ watch expect/g' \
    "$segmented" > "$ren_dir/renamed.vmn"
if grep -q 'srv0\|10\.0\.' "$ren_dir/renamed.vmn"; then
  echo "ci: rename recipe left original identifiers behind" >&2
  exit 1
fi
"$build/vmn" verify "$segmented" --batch --jobs 2 \
    --cache-dir "$ren_dir/cache" > /dev/null
for executor in inline process; do
  executor_flags=()
  if [ "$executor" = process ]; then executor_flags=(--batch --jobs 2); fi
  ren_out="$("$build/vmn" verify "$ren_dir/renamed.vmn" \
      ${executor_flags[@]+"${executor_flags[@]}"} --cache-dir "$ren_dir/cache")"
  echo "$ren_out"
  if ! grep -Eq "^  solver_calls: 0$" <<< "$ren_out"; then
    echo "ci: renamed spec still hit the solver ($executor executor)" >&2
    exit 1
  fi
  if ! grep -Eq "^  cache_hits: [1-9][0-9]*$" <<< "$ren_out" \
      || ! grep -Eq "^  cache_misses: 0$" <<< "$ren_out"; then
    echo "ci: renamed spec was not fully answered from cache ($executor)" >&2
    exit 1
  fi
  if ! diff <(echo "$seg_verdicts" | awk '{print $2}') \
      <(echo "$ren_out" | verdicts | awk '{print $2}'); then
    echo "ci: renamed spec's cached verdicts drifted ($executor)" >&2
    exit 1
  fi
done
ren_cold="$("$build/vmn" verify "$ren_dir/renamed.vmn" --batch --jobs 2 \
    --no-warm)"
if ! diff <(echo "$seg_verdicts" | awk '{print $2}') \
    <(echo "$ren_cold" | verdicts | awk '{print $2}'); then
  echo "ci: renamed spec's cold --no-warm baseline disagrees" >&2
  exit 1
fi

echo "--- smoke: cross-isomorphic counters surface in the batch summary ---"
for name in iso_mapped iso_reuses; do
  if ! grep -Eq "^  $name: [0-9]+$" <<< "$process_out"; then
    echo "ci: batch summary lost the cross-isomorphic counter $name" >&2
    exit 1
  fi
done

echo "--- smoke: dedup report names the exact blocking descriptor cell ---"
# Fig 8 multitenant: the vswitch firewalls polices different VM mixes, so
# some shape-isomorphic slices refuse to merge - and the report must say
# exactly which ACL cell differed, not just "projection mismatch".
multitenant="$repo/examples/specs/multitenant.vmn"
dedup_out="$("$build/vmn" verify "$multitenant" --dedup-report)"
echo "$dedup_out"
if ! grep -q "firewall.acl row" <<< "$dedup_out"; then
  echo "ci: multitenant dedup report does not name the firewall ACL cell" >&2
  exit 1
fi

echo "--- smoke: bench JSON trajectory (bounded run, well-formed output) ---"
# The JSON-emitting benches never ran in CI before, which is why the bench
# trajectory stayed empty. A min-time-bounded, filtered run keeps this
# cheap while asserting both documents are produced and parse.
bench_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache" "$ren_dir" "$bench_dir"' EXIT
(cd "$bench_dir" && "$build/bench/bench_parallel_scaling" \
    --benchmark_min_time=0.01 \
    --benchmark_filter='BM_BatchFastPath|BM_IsoWarm|BM_Fig8Batch|BM_Fault' \
    > /dev/null)
(cd "$bench_dir" && "$build/bench/bench_fig7_enterprise" \
    --benchmark_min_time=0.01 > /dev/null)
for doc in BENCH_parallel.json BENCH_fig7.json; do
  if [ ! -s "$bench_dir/$doc" ]; then
    echo "ci: bench smoke did not produce $doc" >&2
    exit 1
  fi
  if command -v python3 > /dev/null; then
    python3 -m json.tool "$bench_dir/$doc" > /dev/null \
      || { echo "ci: $doc is not well-formed JSON" >&2; exit 1; }
  else
    grep -q '"records"' "$bench_dir/$doc" \
      || { echo "ci: $doc looks malformed" >&2; exit 1; }
  fi
done
# Diff the run against the checked-in trajectory snapshot: every
# deterministic counter (solver calls, cache traffic, warm/iso reuse, slice
# sizes) must match bench/trajectory/ exactly - timings are ignored. The
# diff also re-asserts the iso-warm acceptance signals (verdict-level reuse
# saves solver calls when warm, no iso counters when cold), so a jointly
# drifted snapshot cannot hide a regression.
if command -v python3 > /dev/null; then
  python3 "$repo/tools/bench_diff.py" \
      "$repo/bench/trajectory/BENCH_parallel.json" \
      "$bench_dir/BENCH_parallel.json"
  python3 "$repo/tools/bench_diff.py" \
      "$repo/bench/trajectory/BENCH_fig7.json" \
      "$bench_dir/BENCH_fig7.json"
fi

echo "--- smoke: end-to-end benchmark (bench/e2e builds and runs) ---"
# bench/e2e is a CMake project of its own that compiles libvmn from these
# sources and reads engine internals (batch counters, plan statistics,
# binding views), so it is built here, not only when the benchmark runs.
# Its registered smoke runs every workload for about a second, untraced
# and traced, and fails on a missing metric or a wrong verdict.
cmake -B "$build/e2e" -S "$repo/bench/e2e" "${cmake_args[@]}"
cmake --build "$build/e2e" -j "$(nproc)"
if command -v python3 > /dev/null; then
  ctest --test-dir "$build/e2e" -R '^bench_e2e_smoke$' --output-on-failure
else
  echo "ci: bench_e2e smoke skipped (needs python3)" >&2
fi

echo "--- smoke: differential fuzzing (fixed seed, all oracles green) ---"
# 25 random specs through the whole oracle battery (engine agreement,
# warm/cold, iso-verdict merging vs cold, symmetry, slices, static
# decisions vs Z3, witness replay, simulator cross-check), at each spec's
# derived failure budget and again at budget 0, which leaves its failure
# scenarios out of budget. The
# seed is fixed, so this is deterministic CI, not flaky fuzzing; reproducers
# land in $build/fuzz-repro for the workflow to upload on failure.
rm -rf "$build/fuzz-repro"
"$build/vmn" fuzz --seed 1 --count 25 --reproducer-dir "$build/fuzz-repro"

echo "--- smoke: fuzzing under fault injection (never-flip oracle) ---"
# A short sweep with the faults oracle enabled: each spec is re-verified
# under a seeded chaos plan (worker crashes, crash-looping jobs, frame
# corruption, forced solver unknowns), then under solver faults alone, both
# on the process executor; verdicts may widen to unknown but must never
# flip against the fault-free baseline.
"$build/vmn" fuzz --seed 1 --count 3 --faults \
    --reproducer-dir "$build/fuzz-repro"

echo "--- smoke: fuzz fault injection shrinks to a failing reproducer ---"
# The deliberately broken oracle must fail, shrink, and leave a reproducer
# that still fails standalone via --replay (the committable-regression
# workflow, exercised end to end).
inject_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache" "$ren_dir" "$bench_dir" "$inject_dir"' EXIT
if "$build/vmn" fuzz --seed 1 --count 1 --inject-fault \
    --reproducer-dir "$inject_dir"; then
  echo "ci: injected fault did not fail the fuzz run" >&2
  exit 1
fi
repro="$(ls "$inject_dir"/repro-*-injected.vmn 2> /dev/null | head -1)"
if [ -z "$repro" ]; then
  echo "ci: injected failure produced no reproducer file" >&2
  exit 1
fi
if "$build/vmn" fuzz --replay "$repro" --inject-fault; then
  echo "ci: shrunk reproducer no longer fails on replay" >&2
  exit 1
fi
if ! "$build/vmn" fuzz --replay "$repro"; then
  echo "ci: reproducer fails even without the injected fault" >&2
  exit 1
fi

echo "--- smoke: box-free slices are decided statically (no worker, no Z3) ---"
# A slice without a middlebox has no mutable state, so its verdict is a
# fact of the static dataplane: Engine::run_batch reads it off the
# planner's transfer memo (verify::decide_statically) before any executor
# runs. This spec has no middlebox at all: inline, --batch and --no-slices
# must agree, and --batch must fork no worker and call no solver. a reaches
# c only in scenario f1, so budget 1 flips one verdict.
static_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache" "$ren_dir" "$bench_dir" "$inject_dir" "$static_dir"' EXIT
cat > "$static_dir/boxfree.vmn" << 'EOF'
host a 10.0.0.1
host b 10.0.0.2
host c 10.0.0.3
switch s
link a s
link b s
link c s
route s 10.0.0.1 a
route s 10.0.0.2 b
route s from b 10.0.0.3 c
scenario f1 fail b
  route s from a 10.0.0.3 c
end
invariant node-isolation b a
invariant node-isolation c a
invariant reachable c b
EOF
run_static() {
  "$build/vmn" verify "$static_dir/boxfree.vmn" "$@"
}
for budget in 0 1; do
  static_inline="$(run_static --max-failures "$budget")"
  static_batch="$(run_static --max-failures "$budget" --batch --jobs 2)"
  static_whole="$(run_static --max-failures "$budget" --no-slices)"
  echo "$static_batch"
  static_verdicts="$(echo "$static_inline" | verdicts)"
  if ! diff <(echo "$static_verdicts") <(echo "$static_batch" | verdicts) \
      || ! diff <(echo "$static_verdicts") <(echo "$static_whole" | verdicts); then
    echo "ci: box-free spec (budget $budget): inline, --batch and" \
         "--no-slices disagree" >&2
    exit 1
  fi
  if ! grep -Eq "^  workers_spawned: 0$" <<< "$static_batch" \
      || ! grep -Eq "^  solver_calls: 0$" <<< "$static_batch" \
      || ! grep -Eq "^  static_decisions: [1-9][0-9]*$" <<< "$static_batch"; then
    echo "ci: box-free spec (budget $budget): --batch forked a worker or" \
         "called the solver instead of deciding statically" >&2
    exit 1
  fi
  want="violated holds holds"
  if [ "$budget" -eq 1 ]; then want="violated violated holds"; fi
  if [ "$(echo "$static_verdicts" | awk '{print $2}' | xargs)" != "$want" ]; then
    echo "ci: box-free spec (budget $budget): want verdicts '$want'" >&2
    exit 1
  fi
done

echo "--- smoke: serve daemon (unix socket, incremental one-segment edit) ---"
# The daemon loads the segmented spec, answers over its Unix socket, and on
# an in-place edit confined to segment 1 (idps1 flips to monitor mode)
# re-solves only that segment: the STATS batch counters must show cache
# hits for segment 0, fewer solver calls than jobs, and the retired
# orphaned records - with verdicts identical to a cold one-shot run.
if ! command -v python3 > /dev/null; then
  echo "ci: serve smoke skipped (needs python3 as the socket client)" >&2
else
  serve_dir="$(mktemp -d)"
  cp "$segmented" "$serve_dir/segmented.vmn"
  sock="$serve_dir/vmn.sock"
  "$build/vmn" serve "$serve_dir/segmented.vmn" --socket "$sock" \
      --poll-interval 50 &
  serve_pid=$!
  trap 'kill "$serve_pid" 2> /dev/null || true
        rm -rf "$cache_dir" "$torn_cache" "$torn_seq" "$seg_cache" "$ren_dir" \
               "$bench_dir" "$inject_dir" "$static_dir" "$serve_dir"' EXIT

  # One request line -> one response line over the Unix socket.
  ask() {
    python3 -c '
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.settimeout(10)
s.connect(sys.argv[1])
s.sendall((sys.argv[2] + "\n").encode())
buf = b""
while b"\n" not in buf:
    chunk = s.recv(4096)
    if not chunk:
        break
    buf += chunk
sys.stdout.write(buf.decode())' "$sock" "$1"
  }
  # Daemon verdict outcomes in invariant order, one per line.
  daemon_verdicts() {
    n="$(ask STATUS | sed -n 's/.*invariants=\([0-9]*\).*/\1/p')"
    for i in $(seq 0 $((n - 1))); do
      ask "VERDICT $i" | awk '{print $2}'
    done
  }
  wait_for_generation() {
    for _ in $(seq 1 200); do
      if ask STATUS 2> /dev/null | grep -q "generation=$1 "; then return 0; fi
      sleep 0.1
    done
    echo "ci: serve daemon never reached generation $1" >&2
    return 1
  }

  wait_for_generation 1
  if ! diff <(daemon_verdicts) \
      <("$build/vmn" verify "$serve_dir/segmented.vmn" | verdicts \
        | awk '{print $2}'); then
    echo "ci: serve verdicts disagree with one-shot verify" >&2
    exit 1
  fi

  sed -i 's/^idps idps1$/idps idps1 monitor/' "$serve_dir/segmented.vmn"
  wait_for_generation 2
  read -r jobs calls hits dropped <<< "$(ask STATS | python3 -c '
import json, sys
b = json.loads(sys.stdin.read().split(" ", 1)[1])["batch"]
print(b["jobs_executed"], b["solver_calls"], b["cache_hits"],
      b["cache_records_dropped"])')"
  if [ "$hits" -eq 0 ] || [ "$calls" -eq 0 ] || [ "$calls" -ge "$jobs" ]; then
    echo "ci: reload was not incremental ($jobs jobs, $calls solver calls," \
         "$hits cache hits)" >&2
    exit 1
  fi
  if [ "$dropped" -eq 0 ]; then
    echo "ci: reload retired no orphaned cache records" >&2
    exit 1
  fi
  if ! diff <(daemon_verdicts) \
      <("$build/vmn" verify "$serve_dir/segmented.vmn" | verdicts \
        | awk '{print $2}'); then
    echo "ci: post-edit serve verdicts disagree with a cold one-shot" >&2
    exit 1
  fi
  kill "$serve_pid"
  wait "$serve_pid" 2> /dev/null || true
fi
echo "ci: OK"

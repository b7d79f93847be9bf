#!/bin/sh
# CI gate: build, formatting (when ocamlformat is available), `dune runtest`
# (alcotest suites plus the test/cli.t cram test), odoc, and what runtest
# cannot hold: wall-clock budgets, the checker's large search budgets, and
# the bench gates over a fresh BENCH_sim.json.
set -eu

cd "$(dirname "$0")"

# jq validates BENCH_sim.json and runs the perf regression gate below.
command -v jq >/dev/null 2>&1 || {
  echo "ci.sh needs jq (schema validation and the perf regression gate)"
  exit 1
}

echo "== dune build =="
dune build

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== format check =="
  dune build @fmt
else
  echo "== format check skipped (ocamlformat not installed) =="
fi

echo "== dune runtest =="
dune runtest

if command -v odoc >/dev/null 2>&1; then
  echo "== odoc (warnings in lib/obs are fatal) =="
  doc_log=$(mktemp)
  dune build @doc 2>&1 | tee "$doc_log"
  if grep -i "warning" "$doc_log" | grep -q "obs"; then
    echo "odoc warnings in lib/obs"
    rm -f "$doc_log"
    exit 1
  fi
  rm -f "$doc_log"
else
  echo "== odoc skipped (odoc not installed) =="
fi

echo "== n=50 scale smoke (sailfish, 2 s sim, 90 s wall budget, heap cap) =="
# The batched fan-out keeps large-committee runs affordable: a 50-node
# sailfish run processes ~2.6M events in a few seconds. Budget is explicit
# wall-clock — blowing it means the fast path regressed, not just noise.
# The built binary runs directly (dune exec would print dune's own GC
# stats); OCAMLRUNPARAM=v=0x400 prints the run's GC stats to stderr.
smoke_dir=$(mktemp -d)
if ! OCAMLRUNPARAM=v=0x400 timeout 90 _build/default/bin/clanbft_cli.exe sim \
  -n 50 -p full --load 200 --duration 2 --warmup 0.5 --seed 7 \
  >"$smoke_dir/n50" 2>"$smoke_dir/n50.gc"; then
  echo "n=50 smoke failed or exceeded its 90 s wall-clock budget"
  exit 1
fi
# Peak heap is deterministic per seed. It read 20,160,141 words before RBC
# echo shares were released at certification, 14,203,535 after,
# 7,949,912 once events moved into the engine's slot pool and echo
# certificates were aggregated without holding shares, 7,832,652 before
# the engine's calendar ring sized itself from the traffic and 5,335,070
# after (OCaml 5.1.1); the cap is the last plus 10%.
n50_heap_cap=5869000
n50_heap=$(awk '/^top_heap_words:/ { print $2 }' "$smoke_dir/n50.gc")
if [ -z "$n50_heap" ] || [ "$n50_heap" -gt "$n50_heap_cap" ]; then
  echo "n=50 smoke top_heap_words '${n50_heap}' exceeds its cap $n50_heap_cap"
  exit 1
fi
echo "n=50 top_heap_words $n50_heap (cap $n50_heap_cap)"
# The pinned fingerprint covers the dense echo/certificate path at a size
# the n=16 tests under-weight.
for want in "agree=true" "commit fingerprint: 0x6358547d58ba8ed9"; do
  grep -q "$want" "$smoke_dir/n50" ||
    { echo "n=50 smoke lacks '$want'"; cat "$smoke_dir/n50"; exit 1; }
done
n50_txns=$(awk '/^committed/ { print $2 }' "$smoke_dir/n50")
if [ -z "$n50_txns" ] || [ "$n50_txns" -le 0 ]; then
  echo "n=50 smoke committed no transactions"
  cat "$smoke_dir/n50"
  exit 1
fi
echo "n=50 committed $n50_txns txns within budget"
rm -rf "$smoke_dir"

echo "== bench metrics smoke =="
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && CLANBFT_BENCH=quick dune exec --root "$OLDPWD" bench/main.exe -- metrics)
for f in sailfish single-clan_nc_11_ multi-clan_q_2_; do
  test -s "$smoke_dir/bench_metrics/$f.metrics.json" || {
    echo "missing metrics dump: $f.metrics.json"
    exit 1
  }
done
rm -rf "$smoke_dir"

echo "== check: exhaustive schedule exploration (n=4, 2 rounds, both TA-RBC families) =="
# Bounded model checking (docs/CHECKING.md): every delivery reordering
# within the delay budget must keep agreement/validity/no-equivocation/
# totality. Wall cap is a hard gate — the checker regressing past it
# means the stateless-replay fast path broke.
smoke_dir=$(mktemp -d)
for fam in tribe-bracha tribe-signed; do
  if ! timeout 60 dune exec bin/clanbft_cli.exe -- check -p "$fam" -n 4 \
    --rounds 2 --exhaustive >"$smoke_dir/$fam" 2>/dev/null; then
    echo "exhaustive check ($fam) failed or exceeded its 60 s wall cap"
    cat "$smoke_dir/$fam" 2>/dev/null || true
    exit 1
  fi
  grep -q "verdict: ok" "$smoke_dir/$fam" || {
    echo "exhaustive check ($fam) reported a violation"
    cat "$smoke_dir/$fam"
    exit 1
  }
  sed -n 's/^check: /  '"$fam"': /p' "$smoke_dir/$fam"
done

echo "== check: fixed-seed random walks (10k sailfish walks) =="
# Seed 7 is the seed that caught the timeout-path no-vote/vote exclusivity
# bug (EXPERIMENTS.md); 10k walks re-sweep it on every CI run.
timeout 180 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --walks 10000 --steps 300 --seed 7 >"$smoke_dir/walk_sf" 2>/dev/null || {
  echo "sailfish walk budget failed"
  cat "$smoke_dir/walk_sf" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sf" || {
  echo "sailfish walks reported a violation"
  cat "$smoke_dir/walk_sf"
  exit 1
}
echo "== check: strategy adversaries (2500 sailfish walks per strategy) =="
# The checker installs the runner's own Strategy code, so every attack the
# simulator ships is explorable. Each spec takes 9-13 s on a 2-core x86
# host; the 60 s cap is a hard gate.
for adv in 0@grief:0.9 0@censor:1 0@reorder:2ms; do
  timeout 60 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
    --rounds 4 --adversary "$adv" --walks 2500 --steps 300 --seed 7 \
    >"$smoke_dir/walk_adv" 2>/dev/null || {
    echo "strategy walk budget ($adv) failed or exceeded its 60 s wall cap"
    cat "$smoke_dir/walk_adv" 2>/dev/null || true
    exit 1
  }
  grep -q "verdict: ok" "$smoke_dir/walk_adv" || {
    echo "strategy walks ($adv) reported a violation"
    cat "$smoke_dir/walk_adv"
    exit 1
  }
done
echo "== check: sparse edges (exhaustive n=4 + 2500 walks) =="
# The sparse coverage rule (leader + link + sampled parents) replaces the
# dense 2f+1-parents assumption; both search modes must stay violation-free.
timeout 90 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 2 --sparse-k 2 --exhaustive --delay-budget 1 --window 3 \
  --max-actions 120 >"$smoke_dir/sparse_ex" 2>/dev/null || {
  echo "sparse exhaustive check failed or exceeded its 90 s wall cap"
  cat "$smoke_dir/sparse_ex" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/sparse_ex" || {
  echo "sparse exhaustive check reported a violation"
  cat "$smoke_dir/sparse_ex"
  exit 1
}
sed -n 's/^check: /  sparse exhaustive: /p' "$smoke_dir/sparse_ex"
timeout 120 dune exec bin/clanbft_cli.exe -- check --model sailfish -n 4 \
  --rounds 4 --sparse-k 2 --walks 2500 --steps 300 --seed 7 \
  >"$smoke_dir/walk_sparse" 2>/dev/null || {
  echo "sparse walk budget failed"
  cat "$smoke_dir/walk_sparse" 2>/dev/null || true
  exit 1
}
grep -q "verdict: ok" "$smoke_dir/walk_sparse" || {
  echo "sparse walks reported a violation"
  cat "$smoke_dir/walk_sparse"
  exit 1
}
rm -rf "$smoke_dir"

echo "== parallel bench smoke (perf, profile, RBC and micro sections, CLANBFT_JOBS=2) =="
smoke_dir=$(mktemp -d)
bench_sections="perf profile ablation-rbc faults micro"
(cd "$smoke_dir" \
  && CLANBFT_BENCH=quick dune exec --root "$OLDPWD" bench/main.exe -- --jobs 1 $bench_sections >stdout.jobs1 2>/dev/null \
  && CLANBFT_BENCH=quick CLANBFT_JOBS=2 dune exec --root "$OLDPWD" bench/main.exe -- $bench_sections >stdout.jobs2 2>/dev/null)
# Deterministic stdout: parallel dispatch must not change a byte, the
# profiler's call counts, words and heap census included (the profiled
# runs are sequential and shared with perf, so [profile] adds none). The
# standalone RBC ablations and the fault scenarios (~5 s) print simulated
# facts only; [micro] reuses perf's measurements and prints their names.
if ! cmp -s "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2"; then
  echo "bench stdout differs between --jobs 1 and CLANBFT_JOBS=2"
  diff "$smoke_dir/stdout.jobs1" "$smoke_dir/stdout.jobs2" || true
  exit 1
fi
test -s "$smoke_dir/BENCH_sim.json" || {
  echo "missing BENCH_sim.json"
  exit 1
}
jq -e '.schema == "clanbft/bench-sim/v3"
       and .jobs == 2
       and (.scenarios | length) >= 5
       and (.scenarios | all(has("events_per_s") and has("wall_s")
            and has("minor_words") and has("live_words")
            and has("top_heap_words") and has("commit_fingerprint")))
       and (.scenarios | map(.name) | index("sparse-n16-load200") != null)
       and (.micro | has("sha256_mb_per_s") and has("net_send_ops_per_s")
            and has("encode_ops_per_s") and has("decode_ops_per_s"))
       and (.analysis | length == 4
            and all(.[]; (.e2e.count > 0)
                 and (.segments | has("dissemination") and has("echo_wait")
                      and has("quorum_wait") and has("dag_wait")
                      and has("order_wait"))))' \
  "$smoke_dir/BENCH_sim.json" >/dev/null || {
  echo "BENCH_sim.json failed schema validation"
  exit 1
}
# Degradation envelope over the attack corpus: every run safe and live,
# and every attack's damage bounded relative to its same-seed benign
# baseline. Runs are deterministic, so a breach is a behaviour change.
attacks_envelope='.attacks | length == 21
  and all(.[]; .agreement)
  and ([.[] | select(.tput_ratio != null)] | length == 15
       and all(.[]; .tput_ratio >= 0.55 and .tput_ratio <= 1.08
               and .p50_ratio >= 0.85 and .p50_ratio <= 1.3
               and .p99_ratio >= 0.85 and .p99_ratio <= 3.2))'
jq -e "$attacks_envelope" "$smoke_dir/BENCH_sim.json" >/dev/null || {
  echo "BENCH_sim.json attack corpus breached its degradation envelope"
  jq '.attacks' "$smoke_dir/BENCH_sim.json"
  exit 1
}
# Envelope self-test: a synthetic throughput collapse on one attack row
# must trip it.
jq '(.attacks[] | select(.attack == "grief" and .protocol == "dense")
     | .tput_ratio) *= 0.5' \
  "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered_attacks.json"
if jq -e "$attacks_envelope" "$smoke_dir/tampered_attacks.json" >/dev/null 2>&1; then
  echo "attack envelope self-test failed: synthetic collapse not detected"
  exit 1
fi
echo "attack corpus envelope OK (and self-test trips on synthetic collapse)"

echo "== perf regression gate (fresh run vs committed BENCH_sim.json) =="
# Hard gate on simulated-time facts only (throughput, committed txns,
# analyzer latency percentiles) — those are deterministic, so any drift
# is a real behaviour change, not machine noise. Wall-clock and
# events/s vary by machine: warn-only.
perf_gate() {
  # $1 = baseline, $2 = fresh. Prints offences; returns 1 if any.
  jq -rn --slurpfile b "$1" --slurpfile f "$2" '
    def by_name: map({(.name): .}) | add;
    ($b[0].scenarios | by_name) as $bs
    | ($f[0].scenarios | by_name) as $fs
    | [ $bs | keys[] | select($fs[.] != null) | . as $n
        | ($bs[$n]) as $old | ($fs[$n]) as $new
        | (if $old.throughput_ktps > 0
           and $new.throughput_ktps < 0.75 * $old.throughput_ktps then
             "\($n): throughput \($new.throughput_ktps) kTPS < 75% of baseline \($old.throughput_ktps)"
           else empty end),
          (if $old.committed_txns > 0 and $new.committed_txns == 0 then
             "\($n): no transactions committed (baseline \($old.committed_txns))"
           else empty end),
          (($b[0].analysis[$n].e2e.p50_us // 0) as $bp
           | (($f[0].analysis[$n].e2e.p50_us // $bp)) as $fp
           | if $bp > 0 and $fp > 1.25 * $bp then
               "\($n): e2e p50 latency \($fp) us > 125% of baseline \($bp)"
             else empty end)
      ] | .[]' | {
    bad=0
    while IFS= read -r line; do
      [ -n "$line" ] || continue
      echo "PERF REGRESSION: $line"
      bad=1
    done
    return $bad
  }
}
perf_gate BENCH_sim.json "$smoke_dir/BENCH_sim.json" || {
  echo "perf regression gate failed"
  exit 1
}
# Wall-clock drift is machine noise: report, never fail.
jq -rn --slurpfile b BENCH_sim.json --slurpfile f "$smoke_dir/BENCH_sim.json" '
  def by_name: map({(.name): .}) | add;
  ($b[0].scenarios | by_name) as $bs
  | ($f[0].scenarios | by_name) as $fs
  | [ $bs | keys[] | select($fs[.] != null) | . as $n
      | if $fs[$n].wall_s > 2 * $bs[$n].wall_s then
          "warning: \($n) wall-clock \($fs[$n].wall_s)s > 2x baseline \($bs[$n].wall_s)s (not gated)"
        else empty end
    ] | .[]' || true
# Gate self-test: an injected 50% throughput collapse must trip it.
jq '.scenarios[0].throughput_ktps *= 0.5 | .scenarios[0].committed_txns = 0' \
  "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered.json"
if perf_gate BENCH_sim.json "$smoke_dir/tampered.json" >/dev/null 2>&1; then
  echo "perf gate self-test failed: synthetic regression not detected"
  exit 1
fi
jq '.analysis[].e2e.p50_us *= 2' \
  "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered2.json"
if perf_gate BENCH_sim.json "$smoke_dir/tampered2.json" >/dev/null 2>&1; then
  echo "perf gate self-test failed: synthetic latency regression not detected"
  exit 1
fi
# The sparse scenario is gated by name: a collapse confined to the
# sparse-n16 entry must trip the gate on its own.
jq '(.scenarios[] | select(.name == "sparse-n16-load200")
     | .throughput_ktps) *= 0.5
    | (.scenarios[] | select(.name == "sparse-n16-load200")
       | .committed_txns) = 0' \
  "$smoke_dir/BENCH_sim.json" >"$smoke_dir/tampered3.json"
if perf_gate BENCH_sim.json "$smoke_dir/tampered3.json" >/dev/null 2>&1; then
  echo "perf gate self-test failed: sparse-only regression not detected"
  exit 1
fi
echo "perf gate OK (and self-test trips on synthetic regressions)"
rm -rf "$smoke_dir"

echo "CI OK"

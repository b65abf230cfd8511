#!/usr/bin/env bash
# Real-socket smoke test: deploy the full federation as daemons on
# localhost, register a world through hnsctl, and resolve through it.
# Mirrors the deployment section of README.md.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill $(cat "$workdir/pids" 2>/dev/null) 2>/dev/null || true; rm -rf "$workdir"' EXIT

cd "$(dirname "$0")/.."

echo "--- static checks"
go vet ./...
unformatted=$(gofmt -l . | grep -v '^\.bench_build/' || true)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  echo "SMOKE FAILED: gofmt would reformat the files above"; exit 1
fi

echo "--- one wire dialect: no framing knob, serialized serve loop or old-peer latch in non-test sources"
if grep -rnE 'SetMux|muxConfigurable|serveConnSerial|noBatch|noIxfr|ProcUnavailable|Bool(Var)?\([^"]*"mux"' \
        --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build .; then
  echo "SMOKE FAILED: a removed negotiation path is back (see matches above)"; exit 1
fi

echo "--- one stopwatch: no wall-clock experiment in the paper harness, no retired BENCH file"
if grep -rnE 'time\.(Since|Sleep|Now)\(' --include='*.go' --exclude='*_test.go' \
        internal/experiments cmd/hnsbench; then
  echo "SMOKE FAILED: a wall-clock measurement is back in the paper harness (see matches above)"; exit 1
fi
if grep -rnE 'BENCH_(batch|durable|mux|push|scale|shard|wire)' \
        --include='*.go' --include='*.sh' --include='Makefile' --exclude-dir=.git --exclude-dir=.bench_build .; then
  echo "SMOKE FAILED: a retired BENCH file is referenced again (see matches above)"; exit 1
fi

echo "--- one lookup path, one zone history, one on-disk format, one mutation path, one meta-cache, one connection per endpoint, one backoff schedule, one fsync policy, one stub path, one population runner, one connection per endpoint with push on it, one failure vocabulary, one-lock unbounded TTL caches on one read-through rule set that retire expired entries as they insert, one declared 1987 price, no option only tests set: no marshalled-reply cache, refresh-ahead, BIND query batching, cache-shard pin, diff-log knob, snapshot file family, per-record update loop, negative cache, resolved-binding cache, daemon cache-mode knob, preload counter, pool sizing or idle eviction, backoff jitter, fsync knob, unset daemon flag, stub compiler, pre-fleet concurrent runner, private push connection, per-caller failure predicate, string-trace shim, cache shard or entry bound, shared-local placement, hnsd preload flag, cost replay or per-node hand price, fleet gateway tier, gateway serve shim, per-layer flight group, serve-stale check, cache-stats mirror or periodic cache sweep, or test-only admission, breaker, NSM-cache, push-bound, world or churn knob in non-test sources"
# The diff-log, snapshot, update-loop, cache, stub-compiler, runner, push-connection, failure-predicate, trace-shim, cache-bound, preload, cost-replay, test-only-knob, per-layer cache-rule and cache-sweep names are bracketed so a repo-wide grep for them finds none here.
if grep -rnE 'EnableReplyCache|InvalidateReplies|Cacheable|replyCache|RefreshAhead|SetPushCovered|GetWithTTL|LookupBatch|NewBatcher|procQueryBatch|CacheShards|"reply-cache"|"refresh-ahead"|EnableDiff[L]og|diff[W]indow|"ixfr-[w]indow"|Write[S]napshot|Latest[S]napshot|Prune[S]napshots|HNSS[N]AP|CrashOn[R]ename|Snapshots[S]kipped|beginBulk[A]dd|type bulk[A]dd|func apply[R]ecords|\) add[R]ecord\(|\) remove[M]eta\(|Negative[T]TL|NegativeCache[T]TL|Negative[S]tats|BindingCache[T]TL|purge[B]indings|bind[G]en|"neg-[t]tl"|"binding-[c]ache"|"marshalled-[c]ache"|cache_negative_|core_binding_[c]ache|cache_preloads_[t]otal|Pool[C]onfig|Max[C]onns|Max[S]treams|Close[I]dle|jitter[S]cale|Sync[I]nterval|Sync[N]ever|Sync[E]very|ParseSync[P]olicy|Fsync[I]nterval|"conn-[i]dle"|"fsync-[i]nterval"|"push-[m]ax"|"low-[w]atermark"|"max-[c]lients"|"retry-[a]fter"|String\("[f]sync"|Bool\("[n]otify"|Float64\("[b]urst"|hrpc[g]en|internal/[i]dl|gen/[g]reeter|RunCon[c]urrent|Sticky[C]onn|DialSt[i]cky|err[K]ind|timeout[C]lass|hrpc\.Un[a]vailable|transport\.Un[a]vailable|Trace[F]unc|With[T]race\(|NewWith[S]hards|Shard[C]ount|Max[E]ntries|MaxCache[E]ntries|SharedLocal[H]NS|cache_shard_[a]ccesses|cache_[e]victed|Bool\("[p]reload"|charge[I]ndividuals|charge[N]SMHosts|Hand[P]erNode|Node[C]ount\(|Gateway[T]ier|frontWith[G]ateway|Gateway[S]hed|gateway[S]hed|sumReg[C]ounters|Extra[S]ervices|Churn[P]erSlot|\) Set[M]etrics\(|\(g \*Gateway\) Serv[e]\(|Bur[s]t:|Low[W]atermark:|Max[C]lients:|Thres[h]old:|Cache[T]TL:|EnableP[u]sh\([^)]|NewTab[l]e\([^)]*,|\) Fre[s]h\(|\) Meta[C]lient\(\)|Flight[G]roup|stale[L]ookup|Supersede[A]ll|type Cache[S]tats|S[w]eepCache|sweep[E]very|\.S[w]eep\(\)' \
        --include='*.go' --include='*.sh' --include='Makefile' --exclude='*_test.go' --exclude='smoke.sh' \
        --exclude-dir=.git --exclude-dir=.bench_build .; then
  echo "SMOKE FAILED: a removed lookup-path, diff-log, snapshot, update-loop, cache, pool, backoff, fsync, daemon-flag, stub-compiler, concurrent-runner, private push-connection, failure-predicate, trace-shim, cache-shard, cache-bound, preload-flag, cost-replay, per-node hand-price, fleet-gateway, test-only-knob or per-layer flight, serve-stale, cache-stats or cache-sweep copy is back (see matches above)"; exit 1
fi

echo "--- race detector over the full test suite"
go test -race ./...

echo "--- race detector, concurrency stress at -cpu 4"
go test -race -cpu 4 -run 'Stress|Stampede|Concurrent|Shard' \
        ./internal/cache ./internal/bind ./internal/workload
# Callback NOTIFY soundness (its name matches the pattern above), five times.
go test -race -cpu 4 -count=5 -run 'TestCallbackConcurrent' ./internal/bind

# The one-lock cache and its insert-time retirement (the NSM caches'
# too), three times.
go test -race -count=3 -run 'Concurrent|Stress|Retire' ./internal/cache/ ./internal/nsm/

# The shipped daemons through their constructors, three times: resolve,
# crash the durable meta bindd at a seeded write, restart it, resolve the
# acked registration through hnsd; fail over between hnsgw's backends;
# bind HCS services through the Clearinghouse world and restart chd from
# its snapshot; mirror a push primary, and refuse a mirror's zero refresh.
go test -race -count=3 -run 'Federation|FrontDoor|XeroxWorld|Mirror' ./internal/daemon/

echo "--- mux stress tier: multiplexed wire, shared connection, and teardown paths"
go test -race -run Mux -count=3 ./internal/transport ./internal/hrpc

echo "--- fleet scenario tier: one tiny seeded config per scenario, raced"
go test -race -run 'TestScenario' -count=3 ./internal/workload

echo "--- shed tier: 10k-caller crowd against the admission cap, raced"
go test -race -count=1 -run 'TestGatewayCrowdCappedAtMaxInflight' ./internal/gateway

echo "--- crash tier: seeded crash/restart storm of 1-5-op transactions, durable-store suites and registration atomicity, raced"
go test -race -count=1 -run 'TestCrashRecovery|TestDurable|TestCheckpoint|TestFailedCheckpoint|TestSecondaryRestore' ./internal/bind
go test -race -count=1 -run 'TestRegisterNSMIsAtomic|TestUnregisterNSMAllOrNothing' ./internal/core
go test -race -count=1 ./internal/store

echo "--- coverage floors: internal/workload, internal/health, internal/admission, internal/store, internal/push"
cover() {
  local pkg=$1 floor=$2
  local pct
  pct=$(go test -cover "$pkg" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
  awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p+0 >= f+0) }' || {
    echo "SMOKE FAILED: $pkg coverage ${pct}% below floor ${floor}%"; exit 1; }
  echo "$pkg coverage ${pct}% (floor ${floor}%)"
}
cover ./internal/workload 87
cover ./internal/health 83
cover ./internal/admission 80
cover ./internal/store 85
cover ./internal/push 80

echo "--- chaos tier: seeded failure injection (make chaos)"
make chaos

echo "--- allocation gate: warm wire path and warm FindNSM (make bench-alloc)"
make bench-alloc

go build -o "$workdir" ./cmd/...

cat > "$workdir/app.zone" <<'EOF'
fiji.cs.washington.edu  600 A 127.0.0.1
june.cs.washington.edu  600 A 127.0.0.1
EOF

cd "$workdir"

# track records the daemon just started in the background ($!) and its
# log; alive, called after each block of starts has had its beat, fails
# smoke with the log of any tracked daemon that has already exited (one
# that found its port taken, say).
block=()
track() { echo $! >> pids; block+=("$!:$1"); }
alive() {
  local entry
  for entry in "${block[@]}"; do
    kill -0 "${entry%%:*}" 2>/dev/null && continue
    cat "${entry#*:}"
    echo "SMOKE FAILED: the daemon logging to ${entry#*:} exited at start-up (log above)"; exit 1
  done
  block=()
}

./bindd -host tahoma -zone hns -update -hrpc 127.0.0.1:5301 -std "" >meta.log 2>&1 &
meta_pid=$!
track meta.log
# A secondary meta BIND: mirrors the hns zone from tahoma by zone
# transfer, so the federation survives the primary's death (part 3).
./bindd -host tahoma2 -zone hns -secondary 127.0.0.1:5301 -refresh 1s \
        -hrpc 127.0.0.1:5311 -std "" >meta2.log 2>&1 &
track meta2.log
./bindd -host fiji -zone cs.washington.edu -update -records app.zone \
        -hrpc 127.0.0.1:5304 -std 127.0.0.1:5302 >app.log 2>&1 &
track app.log
./chd -host xerox -addr 127.0.0.1:5303 -open >ch.log 2>&1 &
track ch.log
./nsmd -type hostaddr-bind -ns bind-cs -bind-std 127.0.0.1:5302 \
       -addr 127.0.0.1:5320 >nsm.log 2>&1 &
track nsm.log
./hnsd -addr 127.0.0.1:5310 -meta 127.0.0.1:5301 -meta-replica 127.0.0.1:5311 \
       -serve-stale 1h -metrics 127.0.0.1:5390 \
       -link-bind bind-cs=127.0.0.1:5302 >hns.log 2>&1 &
track hns.log
sleep 1
alive

./hnsctl register-ns      -meta 127.0.0.1:5301 bind-cs bind
./hnsctl register-context -meta 127.0.0.1:5301 hostaddr-bind bind-cs
./hnsctl register-nsm     -meta 127.0.0.1:5301 -name hostaddr-bind-1 \
        -ns bind-cs -qclass hostaddress -nsm-host june.cs.washington.edu \
        -hostctx hostaddr-bind -port 5320 -suite udp-net,xdr,sunrpc

echo "--- lookup through the conventional BIND"
./hnsctl lookup -server 127.0.0.1:5302 fiji.cs.washington.edu A

echo "--- resolve through the HNS (FindNSM + remote HostAddress NSM)"
out=$(./hnsctl resolve -hns 127.0.0.1:5310 hostaddr-bind fiji.cs.washington.edu)
echo "$out"
grep -q '127.0.0.1' <<<"$out" || { echo "SMOKE FAILED: unexpected resolve output"; exit 1; }

echo "--- daemon metrics via hnsctl stats"
out=$(./hnsctl stats -from 127.0.0.1:5390)
echo "$out"
grep -q 'core_findnsm_total{state="cold"}' <<<"$out" || { echo "SMOKE FAILED: stats lacks core_findnsm series"; exit 1; }
grep -q 'cache_' <<<"$out" || { echo "SMOKE FAILED: stats lacks cache series"; exit 1; }

echo "--- meta zone dump"
./hnsctl dump -meta 127.0.0.1:5301

# ---- Part 1a: crash-safe bindd. A durable meta BIND takes an update,
# dies by kill -9, and restarts from its data dir with the acked record
# and serial intact.
./bindd -host rainier -zone crash.test -update -data-dir crashdata \
        -hrpc 127.0.0.1:5350 -std "" -metrics 127.0.0.1:5351 >crash.log 2>&1 &
crash_pid=$!
track crash.log
sleep 0.5
alive
./hnsctl register-ns -meta 127.0.0.1:5350 -zone crash.test bind-crash bind
before=$(./hnsctl dump -meta 127.0.0.1:5350 -zone crash.test)
kill -9 "$crash_pid"
sleep 0.3
./bindd -host rainier -zone crash.test -update -data-dir crashdata \
        -hrpc 127.0.0.1:5350 -std "" -metrics 127.0.0.1:5351 >crash2.log 2>&1 &
track crash2.log
sleep 0.5
alive

echo "--- zone dump after kill -9 and restart from the WAL"
after=$(./hnsctl dump -meta 127.0.0.1:5350 -zone crash.test)
echo "$after"
[ "$before" = "$after" ] || { echo "SMOKE FAILED: durable bindd lost state across kill -9"; exit 1; }
grep -q 'bind-crash' <<<"$after" || { echo "SMOKE FAILED: recovered dump lacks the acked record"; exit 1; }

echo "--- durable store counters via hnsctl store"
out=$(./hnsctl store -from 127.0.0.1:5351)
echo "$out"
grep -q 'store "rainier"' <<<"$out" || { echo "SMOKE FAILED: store lacks the rainier row"; exit 1; }

# ---- Part 1b: the admission-controlled front door. Resolve through an
# hnsgw that fronts the hnsd, then read its admission counters back.
./hnsgw -addr 127.0.0.1:5340 -backend 127.0.0.1:5310 \
        -rate 100 -max-inflight 64 -metrics 127.0.0.1:5341 >gw.log 2>&1 &
track gw.log
sleep 0.3
alive

echo "--- resolve through the hnsgw front door"
out=$(./hnsctl resolve -hns 127.0.0.1:5340 hostaddr-bind fiji.cs.washington.edu)
echo "$out"
grep -q '127.0.0.1' <<<"$out" || { echo "SMOKE FAILED: resolve through hnsgw"; exit 1; }

echo "--- admission state via hnsctl admit"
out=$(./hnsctl admit -from 127.0.0.1:5341)
echo "$out"
grep -q 'hnsgw' <<<"$out" || { echo "SMOKE FAILED: admit lacks the hnsgw row"; exit 1; }

# ---- Part 2: the Clearinghouse world + the HCS application services.
./nsmd -type binding-ch -ns ch-uw -ch 127.0.0.1:5303 \
       -ch-principal smoke:cs:uw -ch-secret pw -addr 127.0.0.1:5321 >nsm2.log 2>&1 &
track nsm2.log
./hcsd -host xerox-d0 -ch 127.0.0.1:5303 -ch-principal smoke:cs:uw -ch-secret pw \
       -exec-object compute:cs:uw -files-object bigfiles:cs:uw \
       -exec-addr 127.0.0.1:5330 -files-addr 127.0.0.1:5331 >hcsd.log 2>&1 &
track hcsd.log
sleep 0.5
alive

./hnsctl register-ns      -meta 127.0.0.1:5301 ch-uw clearinghouse
./hnsctl register-context -meta 127.0.0.1:5301 hrpcbinding-ch ch-uw
./hnsctl register-nsm     -meta 127.0.0.1:5301 -name binding-ch-1 \
        -ns ch-uw -qclass hrpcbinding -nsm-host june.cs.washington.edu \
        -hostctx hostaddr-bind -port 5321 -suite tcp-net,courier,courier

echo "--- remote execution on the Xerox world, bound through the HNS"
out=$(./hcs exec -hns 127.0.0.1:5310 'hrpcbinding-ch!compute:cs:uw' echo loose integration works)
echo "$out"
grep -q 'loose integration works' <<<"$out" || { echo "SMOKE FAILED: exec"; exit 1; }

echo "--- filing on the Xerox world"
./hcs file put -hns 127.0.0.1:5310 'hrpcbinding-ch!bigfiles:cs:uw' /notes/smoke "written by the smoke test"
out=$(./hcs file get -hns 127.0.0.1:5310 'hrpcbinding-ch!bigfiles:cs:uw' /notes/smoke)
echo "$out"
grep -q 'smoke test' <<<"$out" || { echo "SMOKE FAILED: filing"; exit 1; }
./hcs file ls -hns 127.0.0.1:5310 'hrpcbinding-ch!bigfiles:cs:uw' /

# ---- Part 3: replica failover. Register one more context, let the
# secondary transfer it, then kill the primary meta BIND: a resolve that
# needs the new (uncached) context record must fail over to the secondary.
./hnsctl register-context -meta 127.0.0.1:5301 hostaddr-bind2 bind-cs
sleep 1.5
kill "$meta_pid"
sleep 0.3

echo "--- resolve with the primary meta BIND dead (failover to the secondary)"
out=$(./hnsctl resolve -hns 127.0.0.1:5310 hostaddr-bind2 fiji.cs.washington.edu)
echo "$out"
grep -q '127.0.0.1' <<<"$out" || { echo "SMOKE FAILED: failover resolve"; exit 1; }

echo "--- breaker state via hnsctl health"
out=$(./hnsctl health -from 127.0.0.1:5390)
echo "$out"
grep -q '127.0.0.1:5311' <<<"$out" || { echo "SMOKE FAILED: health lacks the secondary meta endpoint"; exit 1; }

# ---- Part 5: the push plane. A push-enabled primary (every zone keeps
# its IXFR history), a secondary (which follows its primary's NOTIFY
# stream), and a subscribed hnsd: a
# dynamic update reaches both the moment it lands (no TTL or refresh-tick
# wait), and a subscriber whose server has no push plane degrades to TTL
# polling.
./bindd -host pushp -zone hns -update -push \
        -hrpc 127.0.0.1:5380 -std "" -metrics 127.0.0.1:5381 >pushp.log 2>&1 &
track pushp.log
sleep 0.5
alive
# -refresh 30s: any record the mirror picks up within ~2s of a register
# can only have arrived via the NOTIFY kick, not the poll tick.
./bindd -host pushs -zone hns -secondary 127.0.0.1:5380 -refresh 30s \
        -hrpc 127.0.0.1:5382 -std "" >pushs.log 2>&1 &
track pushs.log
./hnsd -addr 127.0.0.1:5383 -meta 127.0.0.1:5380 -subscribe \
       -metrics 127.0.0.1:5384 -link-bind bind-cs=127.0.0.1:5302 >hns_push.log 2>&1 &
track hns_push.log
sleep 0.5
alive

# A live NOTIFY stream, watched by an operator: start the watch, land an
# update, and the notification must appear before the watch is stopped.
timeout -s INT 6 ./hnsctl watch -meta 127.0.0.1:5380 hns >watch.log 2>&1 &
watch_pid=$!
sleep 1
./hnsctl register-ns      -meta 127.0.0.1:5380 bind-cs bind
./hnsctl register-context -meta 127.0.0.1:5380 hostaddr-bind bind-cs
./hnsctl register-nsm     -meta 127.0.0.1:5380 -name hostaddr-bind-1 \
        -ns bind-cs -qclass hostaddress -nsm-host june.cs.washington.edu \
        -hostctx hostaddr-bind -port 5320 -suite udp-net,xdr,sunrpc
sleep 1.5

echo "--- NOTIFY-driven secondary: the mirror holds the update long before its 30s refresh tick"
out=$(./hnsctl dump -meta 127.0.0.1:5382)
echo "$out"
grep -q 'bind-cs' <<<"$out" || { echo "SMOKE FAILED: NOTIFY-kicked mirror lacks the update"; exit 1; }
grep -Eq 'incremental refreshes so far' pushs.log || { echo "SMOKE FAILED: secondary never refreshed"; exit 1; }

echo "--- live NOTIFY stream via hnsctl watch"
wait $watch_pid || true
cat watch.log
grep -q 'watching zone "hns"' watch.log || { echo "SMOKE FAILED: watch never subscribed"; exit 1; }
grep -Eq 'serial +[0-9]+ +[a-z]' watch.log || { echo "SMOKE FAILED: watch saw no NOTIFY"; exit 1; }

echo "--- resolve through the subscribed hnsd"
out=$(./hnsctl resolve -hns 127.0.0.1:5383 hostaddr-bind fiji.cs.washington.edu)
echo "$out"
grep -q '127.0.0.1' <<<"$out" || { echo "SMOKE FAILED: resolve through subscribed hnsd"; exit 1; }

echo "--- push plane on the primary via hnsctl stats (subscriber table)"
out=$(./hnsctl stats -from 127.0.0.1:5381)
echo "$out"
grep -q 'push plane:' <<<"$out" || { echo "SMOKE FAILED: primary stats lack the push plane section"; exit 1; }
grep -Eq 'subscribers now +[1-9]' <<<"$out" || { echo "SMOKE FAILED: primary counts no subscribers"; exit 1; }

echo "--- the subscriber processed the pushed invalidations"
out=$(./hnsctl stats -from 127.0.0.1:5384 -filter push_client)
echo "$out"
grep -Eq 'push_client_notify_total +[1-9]' <<<"$out" || { echo "SMOKE FAILED: hnsd saw no NOTIFY"; exit 1; }

echo "--- refused subscription: hnsd -subscribe against a bindd without -push degrades to TTL polling and still resolves"
./hnsd -addr 127.0.0.1:5386 -meta 127.0.0.1:5311 -subscribe \
       -metrics 127.0.0.1:5387 -link-bind bind-cs=127.0.0.1:5302 >hns_pushfb.log 2>&1 &
track hns_pushfb.log
sleep 1
alive
out=$(./hnsctl resolve -hns 127.0.0.1:5386 hostaddr-bind fiji.cs.washington.edu)
echo "$out"
grep -q '127.0.0.1' <<<"$out" || { echo "SMOKE FAILED: resolve through degraded hnsd"; exit 1; }
out=$(./hnsctl stats -from 127.0.0.1:5387 -filter push_client)
echo "$out"
grep -Eq 'push_client_degraded_total +[1-9]' <<<"$out" || { echo "SMOKE FAILED: refused subscription did not degrade to polling"; exit 1; }

echo "--- the refused Subscribe is counted under its failure code"
out=$(./hnsctl stats -from 127.0.0.1:5387 -filter hrpc_client_errors_total)
echo "$out"
grep -Eq 'hrpc_client_errors_total\{code="hrpc\.remote_fault"\} +[1-9]' <<<"$out" || { echo "SMOKE FAILED: the refused Subscribe is not counted as hrpc.remote_fault"; exit 1; }

echo "SMOKE OK"

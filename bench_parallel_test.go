// The parallel benchmark tier: throughput beyond the paper. Table 3.1 and
// 3.2 time one caller at a time — the 1987 prototype served one MicroVAX.
// These benchmarks drive the same FindNSM hot path from many goroutines at
// once (b.RunParallel) and report real ops/sec and ns/op alongside the
// simulated figures, plus the meta-cache's lock-contention counter. They
// assert nothing; see EXPERIMENTS.md "Parallel
// benchmarks".
package hns_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/colocate"
	"hns/internal/core"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

// reportOpsPerSec adds real aggregate throughput to a parallel benchmark.
func reportOpsPerSec(b *testing.B) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "ops/sec")
	}
}

// ---- Warm FindNSM under concurrency.
//
// One shared HNS, every goroutine hammering the cache-warm FindNSM (the
// call clients make "on nearly every binding"). lock-waits/op counts
// meta-cache shard-lock acquisitions that had to block.
func BenchmarkParallelFindNSMWarm(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
	name := world.DesiredServiceName()
	if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		b.Fatal(err)
	}
	var totalSim atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var local time.Duration
		for pb.Next() {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
				return err
			})
			if err != nil {
				b.Fail()
				return
			}
			local += cost
		}
		totalSim.Add(int64(local))
	})
	b.StopTimer()
	reportSimMS(b, time.Duration(totalSim.Load()))
	reportOpsPerSec(b)
	b.ReportMetric(float64(h.Stats().Cache.LockWaits)/float64(b.N), "lock-waits/op")
}

// ---- Table 3.1 arrangements, concurrently.
//
// The same warm Import the Table 3.1 columns time, but issued from many
// goroutines against one importer per arrangement. Run under -race this
// doubles as the end-to-end transport/cache safety check for every
// client–HNS–NSM placement the paper evaluates.
func BenchmarkParallelTable31Warm(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	for i, arr := range colocate.Arrangements() {
		arr := arr
		b.Run(fmt.Sprintf("row%d_%s", i+1, sanitize(arr.String())), func(b *testing.B) {
			im, err := colocate.New(w, arr, bind.CacheMarshalled)
			if err != nil {
				b.Fatal(err)
			}
			defer im.Close()
			if _, err := im.Import(ctx, world.DesiredService,
				world.DesiredProgram, world.DesiredVersion, colocate.BindHostName()); err != nil {
				b.Fatal(err)
			}
			var totalSim atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var local time.Duration
				for pb.Next() {
					cost, err := colocate.MeasureImport(ctx, im, world.DesiredService,
						world.DesiredProgram, world.DesiredVersion, colocate.BindHostName())
					if err != nil {
						b.Fail()
						return
					}
					local += cost
				}
				totalSim.Add(int64(local))
			})
			b.StopTimer()
			reportSimMS(b, time.Duration(totalSim.Load()))
			reportOpsPerSec(b)
		})
	}
}

package experiments

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/colocate"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/regbaseline"
	"hns/internal/simtime"
	"hns/internal/world"
)

// The prose measurements of Section 3, each with its paper anchor.

// FindNSMResult is P1: FindNSM at 460 ms uncached, 88 ms cached.
type FindNSMResult struct {
	Miss time.Duration
	Hit  time.Duration
}

// RunFindNSM measures FindNSM cold and warm with the marshalled-form
// cache the prototype's 88 ms figure was taken with.
func RunFindNSM(ctx context.Context, w *world.World) (FindNSMResult, error) {
	h := w.NewHNS(coreMarshalled())
	name := world.DesiredServiceName()
	var res FindNSMResult
	var err error
	res.Miss, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
		return err
	})
	if err != nil {
		return res, err
	}
	res.Hit, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
		return err
	})
	return res, err
}

// NSMCallResult is P2: the remote NSM call at 22–38 ms by RPC system.
type NSMCallResult struct {
	SunRPC  time.Duration
	Courier time.Duration
}

// RunNSMCalls measures the pure remote-call overhead to the two binding
// NSMs (warm caches, warm connections), isolating the call from the NSM's
// internal work.
func RunNSMCalls(ctx context.Context, w *world.World) (NSMCallResult, error) {
	var res NSMCallResult
	measure := func(nsmB hrpc.Binding, service string, prog, vers uint32, name string,
		inner func(ctx context.Context) error) (time.Duration, error) {
		hnsName, err := names.Parse(name)
		if err != nil {
			return 0, err
		}
		// Warm everything.
		if _, err := nsm.CallBindService(ctx, w.RPC, nsmB, service, prog, vers, hnsName); err != nil {
			return 0, err
		}
		total, err := simtime.Measure(ctx, func(ctx context.Context) error {
			_, err := nsm.CallBindService(ctx, w.RPC, nsmB, service, prog, vers, hnsName)
			return err
		})
		if err != nil {
			return 0, err
		}
		internal, err := simtime.Measure(ctx, inner)
		if err != nil {
			return 0, err
		}
		return total - internal, nil
	}

	sunName := world.DesiredServiceName()
	nsmB, err := w.HNS.FindNSM(ctx, sunName, qclass.HRPCBinding)
	if err != nil {
		return res, err
	}
	res.SunRPC, err = measure(nsmB, world.DesiredService, world.DesiredProgram,
		world.DesiredVersion, sunName.String(), func(ctx context.Context) error {
			_, err := w.BindBindingNSM.BindService(ctx, world.DesiredService,
				world.DesiredProgram, world.DesiredVersion, sunName)
			return err
		})
	if err != nil {
		return res, err
	}

	chName := world.CourierServiceName()
	nsmB, err = w.HNS.FindNSM(ctx, chName, qclass.HRPCBinding)
	if err != nil {
		return res, err
	}
	res.Courier, err = measure(nsmB, "fileserver", world.CourierProgram,
		world.CourierVersion, chName.String(), func(ctx context.Context) error {
			_, err := w.CHBindingNSM.BindService(ctx, "fileserver",
				world.CourierProgram, world.CourierVersion, chName)
			return err
		})
	return res, err
}

// UnderlyingResult is P3: BIND 27 ms, Clearinghouse 156 ms.
type UnderlyingResult struct {
	Bind          time.Duration
	Clearinghouse time.Duration
}

// RunUnderlying measures one name→address lookup against each substrate.
func RunUnderlying(ctx context.Context, w *world.World) (UnderlyingResult, error) {
	var res UnderlyingResult
	std := w.BindStdClient()
	defer std.Close()
	var err error
	res.Bind, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := std.Lookup(ctx, world.HostBind, bind.TypeA)
		return err
	})
	if err != nil {
		return res, err
	}
	ch := w.CHClient()
	// Warm the Courier connection (steady state, as the paper measured).
	if _, err := ch.Retrieve(ctx, clearinghouse.MustName(world.HostXerox), clearinghouse.PropAddress); err != nil {
		return res, err
	}
	res.Clearinghouse, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := ch.Retrieve(ctx, clearinghouse.MustName(world.HostXerox), clearinghouse.PropAddress)
		return err
	})
	return res, err
}

// BaselinesResult is P4: binding cost by mechanism. Paper: replicated
// files 200 ms, reregistered Clearinghouse 166 ms, HNS 104–547 ms.
type BaselinesResult struct {
	FileReg  time.Duration
	CHReg    time.Duration
	HNSBest  time.Duration // all colocated, caches warm (Table 3.1 row 1 C)
	HNSWorst time.Duration // all remote, caches cold  (Table 3.1 row 5 A)
}

// PaperBaselineEntries is the registry population at which the file
// baseline was calibrated.
const PaperBaselineEntries = 200

// RunBaselines measures all the binding mechanisms side by side.
func RunBaselines(ctx context.Context, w *world.World) (BaselinesResult, error) {
	var res BaselinesResult

	// Replicated local files.
	fr := regbaseline.NewFileRegistry()
	for i := 0; i < PaperBaselineEntries-1; i++ {
		fr.Add(regbaseline.FileEntry{
			Service: fmt.Sprintf("svc-%d", i), Host: "fiji",
			Binding: hrpc.SuiteSunRPC.Bind("fiji", fmt.Sprintf("fiji:%d", i), uint32(i), 1),
		})
	}
	fr.Add(regbaseline.FileEntry{
		Service: world.DesiredService, Host: "fiji",
		Binding: hrpc.SuiteSunRPC.Bind("fiji", "fiji:svc", world.DesiredProgram, world.DesiredVersion),
	})
	var err error
	res.FileReg, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := fr.Import(ctx, world.DesiredService, "fiji")
		return err
	})
	if err != nil {
		return res, err
	}

	// Reregistered Clearinghouse.
	cr := regbaseline.NewCHRegistry(w.CHClient(), world.CHDomain, world.CHOrg)
	if err := cr.Register(ctx, world.DesiredService,
		hrpc.SuiteSunRPC.Bind("fiji", "fiji:svc", world.DesiredProgram, world.DesiredVersion)); err != nil {
		return res, err
	}
	if _, err := cr.Import(ctx, world.DesiredService); err != nil { // warm connection
		return res, err
	}
	res.CHReg, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := cr.Import(ctx, world.DesiredService)
		return err
	})
	if err != nil {
		return res, err
	}

	// HNS best and worst (Table 3.1 corners).
	best, err := colocate.RunRow(ctx, w, colocate.ClientHNSNSMs, bind.CacheMarshalled)
	if err != nil {
		return res, err
	}
	worst, err := colocate.RunRow(ctx, w, colocate.AllRemote, bind.CacheMarshalled)
	if err != nil {
		return res, err
	}
	res.HNSBest = best.BothHit
	res.HNSWorst = worst.Miss
	return res, nil
}

// PreloadResult is P5: the ~2 KB, ~390 ms cache preload that pays off at
// two or more distinct context/query-class calls.
type PreloadResult struct {
	Records     int
	Bytes       int
	Cost        time.Duration
	HitAfter    time.Duration // FindNSM after preloading
	MissWithout time.Duration // FindNSM cold without preloading
}

// RunPreload measures the preloading experiment.
func RunPreload(ctx context.Context, w *world.World) (PreloadResult, error) {
	var res PreloadResult

	cold := w.NewHNS(coreMarshalled())
	var err error
	res.MissWithout, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := cold.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
		return err
	})
	if err != nil {
		return res, err
	}

	warm := w.NewHNS(coreMarshalled())
	res.Cost, err = simtime.Measure(ctx, func(ctx context.Context) error {
		rep, err := warm.Preload(ctx)
		if err != nil {
			return err
		}
		res.Records = rep.Records
		res.Bytes = rep.Bytes
		return nil
	})
	if err != nil {
		return res, err
	}
	res.HitAfter, err = simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := warm.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
		return err
	})
	return res, err
}

// BreakEvenResult is P6: equation (1)'s break-even extra hit fractions.
// Paper: remote HNS needs +11% hit rate, remote NSMs +42%.
type BreakEvenResult struct {
	RemoteCall time.Duration
	HNSMiss    time.Duration
	HNSHit     time.Duration
	NSMMiss    time.Duration
	NSMHit     time.Duration
	QHNS       float64
	QNSM       float64
}

// RunBreakEven applies equation (1) to measured Table 3.1 values exactly
// as the paper does: the HNS case from row 5's columns A and B, the NSM
// case from row 4's columns B and C, with the remote-call cost estimated
// from the row spreads.
func RunBreakEven(ctx context.Context, w *world.World) (BreakEvenResult, error) {
	table, err := colocate.RunTable31(ctx, w, bind.CacheMarshalled)
	if err != nil {
		return BreakEvenResult{}, err
	}
	r1 := table[colocate.ClientHNSNSMs]
	r4 := table[colocate.RemoteNSMs]
	r5 := table[colocate.AllRemote]
	res := BreakEvenResult{
		// Two remote calls separate rows 5 and 1 in every column.
		RemoteCall: (r5.Miss - r1.Miss) / 2,
		HNSMiss:    r5.Miss,
		HNSHit:     r5.HNSHit,
		NSMMiss:    r4.HNSHit,
		NSMHit:     r4.BothHit,
	}
	res.QHNS = colocate.BreakEven(res.RemoteCall, res.HNSMiss, res.HNSHit)
	res.QNSM = colocate.BreakEven(res.RemoteCall, res.NSMMiss, res.NSMHit)
	return res, nil
}

// coreMarshalled is the HNS configuration the prototype's headline numbers
// were measured with.
func coreMarshalled() core.Config {
	return core.Config{CacheMode: bind.CacheMarshalled}
}

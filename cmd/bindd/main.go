// Command bindd runs a BIND server over real sockets.
//
// It serves both interfaces: the standard DNS-style query interface over
// UDP, and the HRPC interface (Query/Update/Transfer — the "modified BIND"
// of the HNS prototype) over TCP. A bindd with -update enabled and an
// "hns" zone is a complete HNS meta-information repository.
//
// Usage:
//
//	bindd -host fiji -zone cs.washington.edu -update \
//	      -records zone.txt -hrpc 127.0.0.1:5301 -std 127.0.0.1:5302
//
// With -secondary, bindd instead mirrors its (single) zone from another
// bindd's HRPC interface by serial-checked zone transfer, re-checking
// every -refresh. A secondary is the replication arrangement real BIND
// used: point hnsd's -meta-replica at one and the meta-information
// survives the primary's death. Mirrors never accept updates, so
// -secondary excludes -update and -records.
//
//	bindd -host tahoma2 -zone hns -secondary 127.0.0.1:5301 \
//	      -refresh 30s -hrpc 127.0.0.1:5311
//
// With -data-dir, bindd is crash-safe: every acknowledged update (or
// applied transfer) is appended to a write-ahead log under the data
// directory before the reply goes out, checkpointed whenever the journal
// a restart would replay has outgrown the zone image it would load (never
// for less than one WAL segment), and recovered on restart to exactly the
// acknowledged prefix. -fsync picks the flush policy: "always" (default;
// an acked update survives even kill -9), "interval" (flushes every
// -fsync-interval; bounded loss window), or "never" (left to the OS). A
// restarted -secondary with a data dir resumes from its persisted mirror
// and serial — a serial probe instead of a cold full transfer. Without
// -data-dir nothing touches disk, exactly the in-memory BIND the paper
// measured.
//
// Every zone keeps its history: the newest mutations that fit one reply
// frame, from which mirrors and resubscribing clients take only what
// changed since their serial (IXFR). There is nothing to set. A -data-dir
// restart, clean or kill -9, replays the journal past the last checkpoint
// and so keeps that much history; no checkpoint is taken at shutdown,
// because it would leave the restart none. A mirror republishes every
// diff it applies to its own -push subscribers, name by name.
//
// Zone files use the line format of internal/bind.ParseZoneFile:
//
//	name  ttl  type  data...
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/store"
	"hns/internal/transport"
)

// zoneList collects repeated -zone flags.
type zoneList []string

func (z *zoneList) String() string     { return strings.Join(*z, ",") }
func (z *zoneList) Set(v string) error { *z = append(*z, v); return nil }

func main() {
	var (
		host     = flag.String("host", "localhost", "descriptive host name")
		zones    zoneList
		update   = flag.Bool("update", false, "enable dynamic updates on all zones (the modified BIND)")
		records  = flag.String("records", "", "zone file to load at startup")
		hrpcAddr = flag.String("hrpc", "127.0.0.1:5301", "HRPC interface listen address (TCP)")
		stdAddr  = flag.String("std", "127.0.0.1:5302", "standard interface listen address (UDP); empty disables")
		metrAddr = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
		secAddr  = flag.String("secondary", "", "mirror the zone from this primary bindd HRPC address (TCP) instead of serving authoritatively")
		refresh  = flag.Duration("refresh", 30*time.Second, "serial-check interval in -secondary mode")

		dataDir   = flag.String("data-dir", "", "persist zones here (a write-ahead log with in-log checkpoints) and recover on restart; empty keeps everything in memory")
		fsyncMode = flag.String("fsync", "always", "WAL flush policy with -data-dir: always, interval, or never")
		fsyncIntv = flag.Duration("fsync-interval", 100*time.Millisecond, "flush period under -fsync=interval")
	)
	flag.Var(&zones, "zone", "zone origin to be authoritative for (repeatable)")
	pushOn := flag.Bool("push", false, "enable the push plane: clients may Subscribe and every dynamic update fans out NOTIFY invalidations")
	pushMax := flag.Int("push-max", 0, "bound the subscriber table (0 = default 4096); overflow subscribers are refused and poll")
	notify := flag.Bool("notify", false, "-secondary mode: subscribe to the primary's NOTIFY stream and refresh immediately on serial bumps (falls back to -refresh polling)")
	flag.Parse()
	if len(zones) == 0 {
		log.Fatal("bindd: at least one -zone is required")
	}

	if *metrAddr != "" {
		msrv, err := metrics.Serve(*metrAddr, metrics.Default())
		if err != nil {
			log.Fatalf("bindd: metrics listen: %v", err)
		}
		defer msrv.Close()
		log.Printf("bindd: metrics on http://%s/metrics", msrv.Addr())
	}

	net := transport.NewNetwork()

	// Crash safety: open the durable store (recovering any prior state)
	// before any zone exists, so recovered contents overlay the declared
	// zones and every later mutation is journaled.
	var durable *bind.Durable
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncMode)
		if err != nil {
			log.Fatalf("bindd: %v", err)
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("bindd: %v", err)
		}
		fs, err := store.DirFS(*dataDir)
		if err != nil {
			log.Fatalf("bindd: %v", err)
		}
		durable, err = bind.OpenDurable(bind.DurableConfig{
			FS:            fs,
			Name:          *host,
			Fsync:         policy,
			FsyncInterval: *fsyncIntv,
		})
		if err != nil {
			log.Fatalf("bindd: opening %s: %v", *dataDir, err)
		}
		st := durable.Stats()
		log.Printf("bindd: recovered %s in %s (checkpoint lsn %d, %d wal records replayed, %d torn bytes dropped)",
			*dataDir, st.Elapsed.Round(time.Millisecond), st.SnapshotLSN, st.Replayed, st.TornBytes)
	}

	var srv *bind.Server
	if *secAddr != "" {
		// Secondary mode: a read-only mirror of one zone, kept current by
		// serial-checked transfers from the primary.
		if *update {
			log.Fatal("bindd: -secondary excludes -update (mirrors never accept updates)")
		}
		if *records != "" {
			log.Fatal("bindd: -secondary excludes -records (contents come from the primary)")
		}
		if len(zones) != 1 {
			log.Fatal("bindd: -secondary mirrors exactly one -zone")
		}
		rpc := hrpc.NewClient(net)
		rpc.FreshConn = true
		defer rpc.Close()
		primary := bind.NewHRPCClient(rpc,
			hrpc.SuiteRawNet.Bind(*secAddr, *secAddr, bind.HRPCProgram, bind.HRPCVersion))
		sec, err := bind.NewSecondary(primary, zones[0], *host)
		if err != nil {
			log.Fatalf("bindd: %v", err)
		}
		srv = sec.Server()
		if durable != nil {
			// Resume the mirror from disk: the next Refresh is a serial
			// probe, not a cold full transfer, when the primary is where
			// we left it.
			for _, rz := range durable.Zones() {
				if rz.Origin() != srv.Zone(zones[0]).Origin() {
					log.Printf("bindd: ignoring recovered zone %s (not mirrored here)", rz.Origin())
					continue
				}
				if err := sec.Restore(rz); err != nil {
					log.Fatalf("bindd: restoring mirror %s: %v", rz.Origin(), err)
				}
				log.Printf("bindd: restored mirror %s at serial %d (%d records)",
					rz.Origin(), sec.Serial(), srv.Zone(zones[0]).Count())
			}
			durable.Attach(srv)
			sec.SetJournal(durable)
		}
		if _, err := sec.Refresh(context.Background()); err != nil {
			// A dead primary at startup is survivable: keep serving the
			// (empty) zone and keep trying — that is the point of a mirror.
			log.Printf("bindd: initial transfer from %s failed: %v (retrying every %s)",
				*secAddr, err, *refresh)
		} else {
			log.Printf("bindd: mirrored %s from %s at serial %d", zones[0], *secAddr, sec.Serial())
		}
		stop := make(chan struct{})
		defer close(stop)
		kick := make(chan struct{}, 1)
		if *notify {
			// NOTIFY-driven refresh: the primary pushes a serial bump the
			// moment an update lands, and the mirror pulls the diff right
			// away instead of waiting out the ticker. The ticker stays as
			// the backstop — push narrows the lag, polling bounds it.
			sub := primary.Subscribe(bind.SubscribeConfig{
				Zone: zones[0],
				OnNotify: func(push.Notification) {
					select {
					case kick <- struct{}{}:
					default:
					}
				},
				OnReset: func() {
					select {
					case kick <- struct{}{}:
					default:
					}
				},
			})
			defer sub.Close()
			log.Printf("bindd: subscribed to NOTIFY from %s (-refresh %s remains the backstop)",
				*secAddr, *refresh)
		}
		go func() {
			ticker := time.NewTicker(*refresh)
			defer ticker.Stop()
			refreshOnce := func() {
				moved, err := sec.Refresh(context.Background())
				if err != nil {
					log.Printf("bindd: refresh: %v", err)
				} else if moved {
					log.Printf("bindd: transferred %s at serial %d (%d incremental refreshes so far)",
						zones[0], sec.Serial(), sec.DeltaRefreshes())
				}
			}
			for {
				select {
				case <-ticker.C:
					refreshOnce()
				case <-kick:
					refreshOnce()
				case <-stop:
					return
				}
			}
		}()
	} else {
		srv = bind.NewServer(*host)
		for _, origin := range zones {
			z, err := bind.NewZone(origin, *update)
			if err != nil {
				log.Fatalf("bindd: %v", err)
			}
			if err := srv.AddZone(z); err != nil {
				log.Fatalf("bindd: %v", err)
			}
		}
		freshStore := durable == nil || durable.Empty()
		if durable != nil {
			for _, rz := range durable.Zones() {
				z := srv.Zone(rz.Origin())
				if z == nil {
					// State for a zone no -zone flag declares: keep it on
					// disk (a later run may declare it) but don't serve it.
					log.Printf("bindd: recovered zone %s not declared with -zone; not serving it", rz.Origin())
					continue
				}
				if err := z.Adopt(rz); err != nil {
					log.Fatalf("bindd: overlaying recovered zone %s: %v", rz.Origin(), err)
				}
				log.Printf("bindd: zone %s restored at serial %d (%d records)",
					z.Origin(), z.Serial(), z.Count())
			}
			durable.Attach(srv)
		}
		if *records != "" && freshStore {
			t0 := time.Now()
			f, err := os.Open(*records)
			if err != nil {
				log.Fatalf("bindd: %v", err)
			}
			rrs, err := bind.ParseZoneFile(f)
			f.Close()
			if err != nil {
				log.Fatalf("bindd: %v", err)
			}
			if err := srv.LoadRecords(rrs); err != nil {
				log.Fatalf("bindd: %v", err)
			}
			log.Printf("bindd: loaded %d records from %s in %s",
				len(rrs), *records, time.Since(t0).Round(time.Millisecond))
		} else if *records != "" {
			log.Printf("bindd: %s has recovered state; skipping -records (delete the data dir to reseed)", *dataDir)
		}
	}

	if *notify && *secAddr == "" {
		log.Fatal("bindd: -notify requires -secondary (only mirrors subscribe to a primary)")
	}
	if *pushOn {
		srv.EnablePush(*pushMax)
		log.Printf("bindd: push plane enabled (NOTIFY fan-out on update; clients may subscribe)")
	}

	hrpcLn, binding, err := hrpc.Serve(net, srv.HRPCServer(), hrpc.SuiteRawNet, *host, *hrpcAddr)
	if err != nil {
		log.Fatalf("bindd: hrpc listen: %v", err)
	}
	defer hrpcLn.Close()
	log.Printf("bindd: %s serving HRPC interface %s, zones %v, updates=%v",
		*host, binding, zones, *update)

	if *stdAddr != "" {
		stdLn, err := srv.ServeStd(net, "udp-net", *stdAddr)
		if err != nil {
			log.Fatalf("bindd: std listen: %v", err)
		}
		defer stdLn.Close()
		log.Printf("bindd: %s serving standard interface on %s/udp", *host, stdLn.Addr())
	}

	waitForSignal()
	log.Println("bindd: shutting down")
	if durable != nil {
		// No parting checkpoint: the journal past the last one is the
		// history a restart serves deltas from, as after kill -9.
		if err := durable.Close(); err != nil {
			log.Printf("bindd: closing store: %v", err)
		}
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

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
// bindd's HRPC interface by serial-checked zone transfer. It subscribes
// to the primary's NOTIFY stream and pulls each change the moment it
// lands, and re-checks every -refresh regardless; a primary without
// -push refuses the subscription and the -refresh poll alone carries
// the mirror. A secondary is the replication arrangement real BIND
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
// acknowledged prefix: every append is synced before the reply goes out,
// so an acked update survives even kill -9. A restarted -secondary with
// a data dir resumes from its persisted mirror and serial — a serial
// probe instead of a cold full transfer. Without -data-dir nothing
// touches disk, exactly the in-memory BIND the paper measured.
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
		refresh  = flag.Duration("refresh", 30*time.Second, "serial-check interval in -secondary mode, the backstop to the primary's NOTIFY stream")

		dataDir = flag.String("data-dir", "", "persist zones here (a write-ahead log with in-log checkpoints) and recover on restart; empty keeps everything in memory")
		pushOn  = flag.Bool("push", false, "enable the push plane: clients may Subscribe and every dynamic update fans out NOTIFY invalidations")
	)
	flag.Var(&zones, "zone", "zone origin to be authoritative for (repeatable)")
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
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("bindd: %v", err)
		}
		fs, err := store.DirFS(*dataDir)
		if err != nil {
			log.Fatalf("bindd: %v", err)
		}
		durable, err = bind.OpenDurable(bind.DurableConfig{FS: fs, Name: *host})
		if err != nil {
			log.Fatalf("bindd: opening %s: %v", *dataDir, err)
		}
		defer func() {
			// No parting checkpoint: the journal past the last one is the
			// history a restart serves deltas from, as after kill -9.
			if err := durable.Close(); err != nil {
				log.Printf("bindd: closing store: %v", err)
			}
		}()
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
		}
		if _, err := sec.Refresh(context.Background()); err != nil {
			// A dead primary at startup is survivable: keep serving the
			// (empty) zone and keep trying — that is the point of a mirror.
			log.Printf("bindd: initial transfer from %s failed: %v (retrying every %s)",
				*secAddr, err, *refresh)
		} else {
			log.Printf("bindd: mirrored %s from %s at serial %d", zones[0], *secAddr, sec.Serial())
		}
		// Stopped before the store closes (defers run last-in first-out).
		defer sec.Follow(*refresh, func(moved bool, err error) {
			if err != nil {
				log.Printf("bindd: refresh: %v", err)
			} else if moved {
				log.Printf("bindd: transferred %s at serial %d (%d incremental refreshes so far)",
					zones[0], sec.Serial(), sec.DeltaRefreshes())
			}
		})()
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
			text, err := os.ReadFile(*records)
			if err != nil {
				log.Fatalf("bindd: %v", err)
			}
			n, err := srv.LoadZoneFile(text)
			if err != nil {
				log.Fatalf("bindd: %s: %v", *records, err)
			}
			owners, held := 0, 0
			for _, origin := range zones {
				o, b := srv.Zone(origin).Held()
				owners, held = owners+o, held+b
			}
			log.Printf("bindd: loaded %d records (%d owners, %d bytes held) from %s in %s",
				n, owners, held, *records, time.Since(t0).Round(time.Millisecond))
		} else if *records != "" {
			log.Printf("bindd: %s has recovered state; skipping -records (delete the data dir to reseed)", *dataDir)
		}
	}

	if *pushOn {
		srv.EnablePush(0)
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
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

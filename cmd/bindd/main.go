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
// applied transfer) is synced to a write-ahead log under the data
// directory before the reply goes out, so it survives even kill -9, and a
// restart recovers exactly the acknowledged prefix in bind.Boot's order.
// A restarted -secondary resumes from its persisted mirror and serial (a
// serial probe, not a cold full transfer). A data dir holding a zone no
// -zone declares is refused: served without it, the next checkpoint
// would drop it. Without -data-dir nothing touches disk, exactly the
// in-memory BIND the paper measured.
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
	"flag"
	"time"

	"hns/internal/daemon"
)

// flags defines bindd's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.BinddConfig {
	c := &daemon.BinddConfig{}
	fs.StringVar(&c.Host, "host", "localhost", "descriptive host name")
	fs.Var(&c.Zones, "zone", "zone origin to be authoritative for (repeatable)")
	fs.BoolVar(&c.Update, "update", false, "enable dynamic updates on all zones (the modified BIND)")
	fs.StringVar(&c.Records, "records", "", "zone file to load at startup")
	fs.StringVar(&c.HRPC, "hrpc", "127.0.0.1:5301", "HRPC interface listen address (TCP)")
	fs.StringVar(&c.Std, "std", "127.0.0.1:5302", "standard interface listen address (UDP); empty disables")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	fs.StringVar(&c.Secondary, "secondary", "", "mirror the zone from this primary bindd HRPC address (TCP) instead of serving authoritatively")
	fs.DurationVar(&c.Refresh, "refresh", 30*time.Second, "serial-check interval in -secondary mode, the backstop to the primary's NOTIFY stream")
	fs.StringVar(&c.DataDir, "data-dir", "", "persist zones here (a write-ahead log with in-log checkpoints) and recover on restart; empty keeps everything in memory")
	fs.BoolVar(&c.Push, "push", false, "enable the push plane: clients may Subscribe and every dynamic update fans out NOTIFY invalidations")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("bindd", c.Metrics, func() (*daemon.Daemon, error) { return daemon.Bindd(*c) })
}

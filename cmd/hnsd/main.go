// Command hnsd runs the HNS as a network service over real sockets: a
// FindNSM server backed by a meta-BIND (a bindd with an updatable meta
// zone), with HostAddress NSMs linked in per the prototype's arrangement.
//
// Usage:
//
//	hnsd -addr 127.0.0.1:5310 -meta 127.0.0.1:5301 -metazone hns \
//	     -link-bind bind-cs=127.0.0.1:5302 \
//	     -link-ch   ch-uw=127.0.0.1:5303,reader:cs:uw,secret
//
// -link-bind links a BIND-world HostAddress NSM (name service = the
// conventional BIND at the given standard-interface UDP address);
// -link-ch links a Clearinghouse-world one (Courier address plus
// credentials).
//
// Each -meta-replica names a secondary meta-BIND (bindd -secondary) tried
// in order when -meta is unreachable: the per-endpoint breakers take a
// dead replica out of rotation, and -serve-stale rides out losing them
// all.
//
// The meta-cache is the paper's: demarshalled answers kept for their
// records' TTL, each stored once as an immutable entry that every hit
// reads in place. A NotFound is never cached. -subscribe adds one
// invalidation path: a NOTIFY naming records drops those names, and any
// other zone event empties the cache. The subscription asks for callback
// delivery: the meta bindd sends a transaction's NOTIFY only if this hnsd
// has read one of its names since the last NOTIFY naming it, so a NOTIFY
// that would find nothing to drop is never sent. With -meta-replica it
// takes every transaction, since reads may then ride another connection.
// Table 3.2's marshalled mode is measured in-process by hnsbench, not
// served.
package main

import (
	"flag"

	"hns/internal/daemon"
)

// flags defines hnsd's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.HnsdConfig {
	c := &daemon.HnsdConfig{}
	fs.StringVar(&c.Host, "host", "hnsd", "descriptive host name")
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:5310", "FindNSM service listen address (TCP)")
	fs.StringVar(&c.Meta, "meta", "127.0.0.1:5301", "meta-BIND HRPC address (TCP)")
	fs.StringVar(&c.MetaZone, "metazone", "hns", "meta-information zone")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	fs.DurationVar(&c.ServeStale, "serve-stale", 0, "serve expired meta-cache entries up to this long past expiry when every meta-BIND replica is down (0 disables)")
	fs.BoolVar(&c.Subscribe, "subscribe", false, "subscribe to the meta-BIND's push plane: updates invalidate the meta-cache immediately instead of waiting out TTLs, and only updates of names read since their last NOTIFY are sent (every update with -meta-replica); degrades to polling when the server refuses the subscription")
	fs.Var(&c.LinkBind, "link-bind", "ns=stdaddr: link a BIND HostAddress NSM (repeatable)")
	fs.Var(&c.LinkCH, "link-ch", "ns=addr,principal,secret: link a Clearinghouse HostAddress NSM (repeatable)")
	fs.Var(&c.MetaReplica, "meta-replica", "additional meta-BIND HRPC address tried when -meta is unreachable (repeatable, ordered)")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("hnsd", c.Metrics, func() (*daemon.Daemon, error) { return daemon.Hnsd(*c) })
}

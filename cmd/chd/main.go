// Command chd runs a Clearinghouse server over real sockets (the Courier
// suite on TCP), with optional snapshot persistence and replication peers.
//
// Usage:
//
//	chd -host xerox -addr 127.0.0.1:5303 -snapshot ch.json \
//	    -principal admin:cs:uw=secret -peer 127.0.0.1:5304
package main

import (
	"flag"

	"hns/internal/daemon"
)

// flags defines chd's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.ChdConfig {
	c := &daemon.ChdConfig{}
	fs.StringVar(&c.Host, "host", "xerox", "descriptive host name")
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:5303", "listen address (TCP)")
	fs.StringVar(&c.Snapshot, "snapshot", "", "snapshot file to load at startup and save at shutdown")
	fs.BoolVar(&c.Open, "open", false, "admit any principal (demo mode)")
	fs.StringVar(&c.ReplCred, "repl-cred", "", "principal=secret this server presents to peers")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	fs.Var(&c.Principals, "principal", "principal=secret to admit (repeatable)")
	fs.Var(&c.Peers, "peer", "replication peer address (repeatable)")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("chd", c.Metrics, func() (*daemon.Daemon, error) { return daemon.Chd(*c) })
}

// Command nsmd hosts Naming Semantics Managers as network services.
//
// One nsmd serves one NSM over its world's native protocol suite:
//
//	# the BIND-world binding NSM (Sun RPC over UDP)
//	nsmd -type binding-bind -ns bind-cs -bind-std 127.0.0.1:5302 \
//	     -addr 127.0.0.1:5320
//
//	# the Clearinghouse-world binding NSM (Courier over TCP)
//	nsmd -type binding-ch -ns ch-uw -ch 127.0.0.1:5303 \
//	     -ch-principal reader:cs:uw -ch-secret secret -addr 127.0.0.1:5321
//
// Types: binding-bind, binding-ch, hostaddr-bind, hostaddr-ch, mail-bind,
// mail-ch. Registering the served NSM with the HNS is done separately with
// `hnsctl register-nsm` — "registering an NSM with the HNS extends the
// functionality of all machines at once".
//
// The NSM's result cache holds demarshalled answers for their TTL;
// Table 3.2's marshalled mode is measured in-process by hnsbench, not
// served.
package main

import (
	"flag"

	"hns/internal/daemon"
)

// flags defines nsmd's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.NsmdConfig {
	c := &daemon.NsmdConfig{}
	fs.StringVar(&c.Host, "host", "nsmd", "descriptive host name")
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:5320", "listen address")
	fs.StringVar(&c.Type, "type", "", "NSM type: binding-bind binding-ch hostaddr-bind hostaddr-ch mail-bind mail-ch")
	fs.StringVar(&c.Name, "name", "", "registered NSM name (default <type>-1)")
	fs.StringVar(&c.NS, "ns", "", "underlying name service's registered name")
	fs.StringVar(&c.BindStd, "bind-std", "", "standard-interface UDP address of the underlying BIND")
	fs.StringVar(&c.CH, "ch", "", "Courier TCP address of the underlying Clearinghouse")
	fs.StringVar(&c.CHPrincipal, "ch-principal", "", "Clearinghouse principal")
	fs.StringVar(&c.CHSecret, "ch-secret", "", "Clearinghouse secret")
	fs.DurationVar(&c.ServeStale, "serve-stale", 0, "serve expired cache entries up to this long past expiry when the underlying name service is down (0 disables)")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("nsmd", c.Metrics, func() (*daemon.Daemon, error) { return daemon.Nsmd(*c) })
}

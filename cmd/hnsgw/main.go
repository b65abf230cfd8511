// Command hnsgw runs the admission-controlled resolution gateway: an HNS
// front door that forwards FindNSM and FindNSMBatch to a backend hnsd,
// shedding excess load with typed backpressure before it reaches the
// resolver.
//
// Usage:
//
//	hnsgw -addr 127.0.0.1:5320 -backend 127.0.0.1:5310 \
//	      -rate 100 -max-inflight 256 -metrics 127.0.0.1:5321
//
// Repeating -backend lists failover backends in order: every admitted
// call goes to the first live one, and a dead backend is taken out of
// rotation by the same per-endpoint breakers hnsd's -meta-replica uses.
//
// -rate admits that many calls per second per client, with a bucket
// depth of max(1, rate). Batch resolution is classified low priority and
// sheds first, at three quarters of -max-inflight; single-name calls
// keep flowing to the full cap. A budget in a caller's raw call header
// crosses the gateway, so the backend sees the caller's remaining
// deadline, and already-expired work is shed at this hop.
package main

import (
	"flag"

	"hns/internal/daemon"
)

// flags defines hnsgw's flags on fs, one field of the config each.
func flags(fs *flag.FlagSet) *daemon.HnsgwConfig {
	c := &daemon.HnsgwConfig{}
	fs.StringVar(&c.Host, "host", "hnsgw", "descriptive host name")
	fs.StringVar(&c.Addr, "addr", "127.0.0.1:5320", "gateway listen address (TCP)")
	fs.Float64Var(&c.Rate, "rate", 0, "per-client sustained admissions per second (0 disables rate limiting)")
	fs.IntVar(&c.MaxInflight, "max-inflight", 0, "cap on concurrently admitted calls (0 disables the load cap)")
	fs.StringVar(&c.Metrics, "metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	fs.Var(&c.Backends, "backend", "backend HNS FindNSM address (TCP); repeat to add failover backends, tried in order")
	return c
}

func main() {
	c := flags(flag.CommandLine)
	flag.Parse()
	daemon.Run("hnsgw", c.Metrics, func() (*daemon.Daemon, error) { return daemon.Hnsgw(*c) })
}

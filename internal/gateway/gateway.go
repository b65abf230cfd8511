// Package gateway implements hnsgw's core: an admission-controlled
// front door for the HNS resolution service.
//
// A Gateway serves the HNS HRPC program (FindNSM and FindNSMBatch) and
// forwards every admitted call to a backend hnsd (or the first live one
// of an ordered replica list). What the gateway adds is the front-door
// discipline a resolver fleet needs at scale:
//
//   - Admission control: per-client token buckets plus a global inflight
//     cap (internal/admission), applied before any forwarding work, so
//     an overloaded gateway sheds cheap typed Overloaded replies instead
//     of queueing into collapse.
//   - Priority shedding: batch resolution (the throughput path) is
//     classified Low and sheds at the inflight low-watermark; single
//     FindNSM calls (the latency path) are High and admitted up to the
//     full cap.
//   - Deadline-aware forwarding: a budget arriving in a raw call header
//     flows through the gateway's context into its upstream client,
//     which re-encodes the *remaining* budget per attempt — an expired
//     call is shed here, not forwarded upstream to waste backend work.
//     A caller without a budget sends none, and the gateway invents
//     none.
package gateway

import (
	"time"

	"hns/internal/admission"
	"hns/internal/core"
	"hns/internal/hrpc"
)

// Config configures a Gateway.
type Config struct {
	// Name labels the gateway's server and metrics (default "hnsgw").
	Name string
	// Admission, when non-nil, enables the front door with these limits.
	// Config.Server defaults to Name.
	Admission *admission.Config
}

// Gateway is an HNS front door: an HRPC server whose Finder is a remote
// backend.
type Gateway struct {
	srv   *hrpc.Server
	admit *admission.Controller
}

// New builds a gateway forwarding to the HNS service bound at backend.
// The client carries the gateway's upstream connection pool (and its
// retry policy and breakers); replicas installed on it with SetReplicas
// for backend.Addr, as NewFailover does, are the gateway's failover
// backends, tried in order as breakers take endpoints out of rotation.
func New(client *hrpc.Client, backend hrpc.Binding, cfg Config) *Gateway {
	if cfg.Name == "" {
		cfg.Name = "hnsgw"
	}
	srv := core.NewFinderServer(core.NewRemoteHNS(client, backend), cfg.Name)
	g := &Gateway{srv: srv}
	if cfg.Admission != nil {
		ac := *cfg.Admission
		if ac.Server == "" {
			ac.Server = cfg.Name
		}
		g.admit = admission.New(ac)
		srv.EnableAdmission(g.admit)
		srv.AdmitPriority = func(proc uint32) admission.Priority {
			if proc == core.ProcFindNSMBatchID {
				return admission.Low
			}
			return admission.High
		}
	}
	return g
}

// NewFailover builds a gateway forwarding over suite to the first live
// of backends, in order. With more than one, the client's per-endpoint
// breakers take a dead backend out of rotation, and a one-second retry
// budget lets a call move on past a partitioned one, which shows up only
// as a timeout.
func NewFailover(client *hrpc.Client, suite hrpc.Suite, backends []string, cfg Config) *Gateway {
	if len(backends) > 1 {
		client.SetReplicas(backends[0], backends[1:]...)
		client.Policy = hrpc.RetryPolicy{Budget: time.Second}
	}
	return New(client, suite.Bind(backends[0], backends[0], core.HNSProgram, core.HNSVersion), cfg)
}

// Server exposes the underlying HRPC server, for hrpc.Serve to bind and
// for a metrics registry override before it does.
func (g *Gateway) Server() *hrpc.Server { return g.srv }

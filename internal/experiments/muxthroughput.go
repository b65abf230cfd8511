package experiments

import (
	"context"
	"sync"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// MuxThroughputSpec parameterizes the multiplexing throughput
// experiment: two identical HRPC echo deployments over real TCP, one
// whose client holds its connection for the whole round trip (the
// one-call-at-a-time reference), one that multiplexes calls over a
// small connection pool. The handler sleeps
// Handle of real time per call (standing in for server work the kernel
// can overlap — sleeps overlap even on one core, so the result is
// meaningful in a single-CPU container) and charges SimCost of
// simulated time, so the arms' per-call simulated costs can be checked
// for equality while their wall-clock throughput diverges.
type MuxThroughputSpec struct {
	Handle      time.Duration // real time each handler call sleeps
	SimCost     time.Duration // simulated cost each handler call charges
	Calls       int           // total calls per arm per concurrency level
	Concurrency []int         // caller goroutine counts to measure
}

// DefaultMuxThroughputSpec is the hnsbench configuration.
func DefaultMuxThroughputSpec() MuxThroughputSpec {
	return MuxThroughputSpec{
		Handle:      time.Millisecond,
		SimCost:     3 * time.Millisecond,
		Calls:       256,
		Concurrency: []int{1, 8, 64},
	}
}

// MuxThroughputPoint is one concurrency level: ops/sec through a
// single pooled endpoint with serialized vs multiplexed calls, plus
// each arm's warm per-call simulated cost (equal by construction —
// multiplexing changes scheduling, never the cost model).
type MuxThroughputPoint struct {
	Goroutines    int
	SerialOps     float64 // ops/sec, one outstanding call, one connection
	MuxOps        float64 // ops/sec, concurrent calls, pooled connections
	Speedup       float64 // MuxOps / SerialOps
	SimWarmSerial time.Duration
	SimWarmMux    time.Duration
}

// muxBenchProc is the experiment's echo procedure.
var muxBenchProc = hrpc.Procedure{
	Name: "MuxBenchEcho", ID: 1,
	Args:  marshal.TStruct(marshal.TString),
	Ret:   marshal.TStruct(marshal.TString),
	Style: marshal.StyleGenerated,
}

// muxArm is one deployment: an echo server on a real TCP socket and a
// client whose connections to it either serialize or multiplex.
type muxArm struct {
	client *hrpc.Client
	b      hrpc.Binding
	stop   func()
}

// serialTransport is the reference arm's transport: the real one, with
// every connection held for the whole round trip — one outstanding call
// per connection, the discipline multiplexing removes.
type serialTransport struct{ transport.Transport }

func (t serialTransport) Name() string { return t.Transport.Name() + "-serial" }

func (t serialTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &serialConn{Conn: c}, nil
}

type serialConn struct {
	transport.Conn
	mu sync.Mutex
}

func (c *serialConn) Call(ctx context.Context, req []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conn.Call(ctx, req)
}

func newMuxArm(spec MuxThroughputSpec, muxed bool) (*muxArm, error) {
	n := transport.NewNetwork(simtime.Default())
	s := hrpc.NewServer("muxbench", 7100, 1)
	s.Register(muxBenchProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if spec.Handle > 0 {
			time.Sleep(spec.Handle)
		}
		simtime.Charge(ctx, spec.SimCost)
		return args, nil
	})
	ln, b, err := hrpc.Serve(n, s, hrpc.SuiteCourierNet, "bench", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := hrpc.NewClient(n)
	c.Metrics = metrics.NewRegistry() // keep bench metrics out of the process registry
	if muxed {
		c.Pool = hrpc.PoolConfig{MaxConns: 2, MaxStreams: 32}
	} else {
		tr, err := n.Transport(b.Transport)
		if err != nil {
			ln.Close()
			return nil, err
		}
		st := serialTransport{tr}
		n.Register(st)
		b.Transport = st.Name()
	}
	return &muxArm{
		client: c,
		b:      b,
		stop:   func() { c.Close(); ln.Close() },
	}, nil
}

// call places one echo call on the arm.
func (a *muxArm) call(ctx context.Context) error {
	_, err := a.client.Call(ctx, a.b, muxBenchProc, marshal.StructV(marshal.Str("ping")))
	return err
}

// run drives total calls through the arm from g goroutines and reports
// sustained ops/sec.
func (a *muxArm) run(ctx context.Context, g, total int) (float64, error) {
	per := total / g
	if per < 1 {
		per = 1
	}
	var wg sync.WaitGroup
	errs := make([]error, g)
	start := time.Now()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Per-caller meter: simulated charges accumulate per caller,
			// exactly as concurrent application threads would account them.
			mctx := simtime.WithMeter(ctx, simtime.NewMeter())
			for k := 0; k < per; k++ {
				if err := a.call(mctx); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(g*per) / wall.Seconds(), nil
}

// warmCost measures one warm call's simulated cost (the connection is
// already pooled, so no setup cost skews the comparison).
func (a *muxArm) warmCost(ctx context.Context) (time.Duration, error) {
	var callErr error
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		callErr = a.call(ctx)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return cost, callErr
}

// RunMuxThroughput measures head-of-line blocking: the same echo
// workload through one endpoint with the wire serialized (one call per
// connection at a time — each caller waits out every other caller's
// handler) versus multiplexed (tagged frames, concurrent dispatch, a
// two-connection pool). The experiment is self-contained — it builds
// its own networks on real TCP loopback sockets and does not touch the
// world's calibrated tables.
func RunMuxThroughput(ctx context.Context, spec MuxThroughputSpec) ([]MuxThroughputPoint, error) {
	serial, err := newMuxArm(spec, false)
	if err != nil {
		return nil, err
	}
	defer serial.stop()
	mux, err := newMuxArm(spec, true)
	if err != nil {
		return nil, err
	}
	defer mux.stop()

	// Warm both arms: dial, pool, then measure per-call simulated cost
	// on the second (warm) call.
	for _, a := range []*muxArm{serial, mux} {
		if err := a.call(simtime.WithMeter(ctx, simtime.NewMeter())); err != nil {
			return nil, err
		}
	}
	simSerial, err := serial.warmCost(ctx)
	if err != nil {
		return nil, err
	}
	simMux, err := mux.warmCost(ctx)
	if err != nil {
		return nil, err
	}

	var out []MuxThroughputPoint
	for _, g := range spec.Concurrency {
		p := MuxThroughputPoint{Goroutines: g, SimWarmSerial: simSerial, SimWarmMux: simMux}
		if p.SerialOps, err = serial.run(ctx, g, spec.Calls); err != nil {
			return nil, err
		}
		if p.MuxOps, err = mux.run(ctx, g, spec.Calls); err != nil {
			return nil, err
		}
		if p.SerialOps > 0 {
			p.Speedup = p.MuxOps / p.SerialOps
		}
		out = append(out, p)
	}
	return out, nil
}

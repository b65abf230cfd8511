package hrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hns/internal/admission"
	"hns/internal/bufpool"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/transport"
)

// ProcHandler implements one remote procedure. Under the harness, costs
// charged to ctx flow back to the caller's meter through the simulated
// transport; on a real socket ctx carries no meter and they go nowhere.
type ProcHandler func(ctx context.Context, args marshal.Value) (marshal.Value, error)

// Server dispatches HRPC calls for one (program, version). The same Server
// value can be served over several protocol suites at once — the HRPC
// emulation property: one implementation, many wire personalities.
type Server struct {
	name    string
	program uint32
	version uint32

	// Metrics receives the server's hrpc_server_* series. Nil means the
	// process-wide metrics.Default(); metrics.Discard disables them.
	// Set before serving.
	Metrics *metrics.Registry

	mu    sync.RWMutex
	procs map[uint32]serverProc

	// admit, when non-nil, is the server's front door: every decoded
	// call asks it before any work happens, keyed by the transport's
	// peer identity. Installed via EnableAdmission.
	admit *admission.Controller

	// AdmitPriority classifies a procedure for priority shedding; nil
	// means everything is admission.High. Set before serving.
	AdmitPriority func(proc uint32) admission.Priority
}

// EnableAdmission installs an admission controller: calls are admitted
// or shed (with a typed Overloaded reply) before demarshalling. Call
// before serving.
func (s *Server) EnableAdmission(ctl *admission.Controller) { s.admit = ctl }

// registry resolves the effective metrics registry.
func (s *Server) registry() *metrics.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return metrics.Default()
}

type serverProc struct {
	p Procedure
	h ProcHandler
}

// NullProcID is the conventional procedure 0: a no-op used by binding
// protocols to probe server liveness.
const NullProcID = 0

// NullProc is the procedure-0 descriptor shared by all programs.
var NullProc = Procedure{
	Name: "Null", ID: NullProcID,
	Args: marshal.TStruct(), Ret: marshal.TStruct(),
	Style: marshal.StyleNone,
}

// NewServer creates a server for program/version. Procedure 0 (null) is
// pre-registered so binding protocols can always ping it; Register may
// override it.
func NewServer(name string, program, version uint32) *Server {
	s := &Server{
		name:    name,
		program: program,
		version: version,
		procs:   make(map[uint32]serverProc),
	}
	s.procs[NullProcID] = serverProc{
		p: NullProc,
		h: func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
			return marshal.StructV(), nil
		},
	}
	return s
}

// Register installs a procedure handler. Registering a duplicate procedure
// ID (other than overriding the default null proc) panics: the procedure
// table is the program's published interface, and a collision is a
// programming error.
func (s *Server) Register(p Procedure, h ProcHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.procs[p.ID]; dup && p.ID != NullProcID {
		panic(fmt.Sprintf("hrpc: server %s: duplicate procedure %d", s.name, p.ID))
	}
	s.procs[p.ID] = serverProc{p: p, h: h}
}

// Handler adapts the server to a transport.Handler speaking the given data
// representation and control protocol.
func (s *Server) Handler(rep marshal.DataRep, ctl ControlProtocol) transport.Handler {
	reg := s.registry()
	faults := reg.Counter(metrics.Labels("hrpc_server_faults_total", "server", s.name))
	sheds := reg.Counter(metrics.Labels("hrpc_server_budget_shed_total", "server", s.name))
	return func(ctx context.Context, reqFrame []byte) ([]byte, error) {
		ch, argBytes, err := ctl.DecodeCall(reqFrame)
		if err != nil {
			// Unparseable frame: we cannot even form a reply, so the
			// transport's own status byte reports it.
			faults.Inc()
			return nil, err
		}
		// Each reply is a fresh frame the transport takes over, sized for
		// the longest built-in header (Sun RPC's six words).
		reply := func(rh ReplyHeader, results []byte) ([]byte, error) {
			rh.XID = ch.XID
			return ctl.AppendReply(make([]byte, 0, 24+len(rh.Err)+len(results)), rh, results)
		}
		fault := func(msg string) ([]byte, error) {
			faults.Inc()
			return reply(ReplyHeader{Code: ReplyFault, Err: msg}, nil)
		}
		if ch.Program != s.program {
			return fault(fmt.Sprintf("program %d unavailable (this is %d %s)", ch.Program, s.program, s.name))
		}
		if ch.Version != s.version {
			return fault(fmt.Sprintf("program %d version mismatch: have %d, want %d", s.program, s.version, ch.Version))
		}
		s.mu.RLock()
		sp, ok := s.procs[ch.Procedure]
		s.mu.RUnlock()
		if !ok {
			return fault(fmt.Sprintf("procedure %d unavailable on program %d", ch.Procedure, s.program))
		}
		reg.Counter(metrics.Labels("hrpc_server_calls_total",
			"server", s.name, "proc", sp.p.Name)).Inc()

		// Admission first, budget second — both before demarshalling, so
		// shed work costs the server a header parse and nothing more.
		if s.admit != nil {
			pri := admission.High
			if s.AdmitPriority != nil {
				pri = s.AdmitPriority(ch.Procedure)
			}
			peer := transport.PeerFrom(ctx)
			if peer == "" {
				peer = "anon"
			}
			if aerr := s.admit.Admit(peer, pri); aerr != nil {
				var ov *admission.Overloaded
				if errors.As(aerr, &ov) {
					return reply(ReplyHeader{Code: ReplyOverloaded,
						Err: ov.Reason, RetryAfter: ov.RetryAfter}, nil)
				}
				return fault(aerr.Error())
			}
			defer s.admit.Done()
		}
		if ch.HasBudget {
			if ch.Budget <= 0 {
				// The caller's deadline passed before dispatch: computing
				// this reply would be pure waste. Shed it.
				sheds.Inc()
				return reply(ReplyHeader{Code: ReplyExpired}, nil)
			}
			// Hand the budget to the handler so a nested client (a
			// gateway forwarding this call) can propagate what remains.
			ctx = WithBudget(ctx, ch.Budget)
		}

		args, err := marshal.Unmarshal(rep, argBytes, sp.p.Args)
		if err != nil {
			return fault(fmt.Sprintf("garbage arguments for %s: %v", sp.p.Name, err))
		}
		marshal.ChargeValue(ctx, sp.p.Style, paper(sp.p.PaperArgs, sp.p.Args), args)

		ret, err := sp.h(ctx, args)
		if err != nil {
			return fault(err.Error())
		}
		// Marshal into a pooled buffer: the bytes die as soon as the reply
		// frame copies them, so they go back to the pool.
		resBytes, err := rep.Append(bufpool.Get(64), ret, sp.p.Ret)
		if err != nil {
			return fault(fmt.Sprintf("cannot marshal %s result: %v", sp.p.Name, err))
		}
		marshal.ChargeValue(ctx, sp.p.Style, paper(sp.p.PaperRet, sp.p.Ret), ret)
		out, rerr := reply(ReplyHeader{}, resBytes)
		bufpool.Put(resBytes)
		return out, rerr
	}
}

// Serve binds the server to addr on the given network using the suite's
// components, returning the listener and the Binding clients should use.
// The returned binding's Addr is the listener's concrete address (which
// matters for the real-socket transports, where the kernel picks the
// port).
func Serve(net *transport.Network, s *Server, suite Suite, host, addr string) (transport.Listener, Binding, error) {
	tr, err := net.Transport(suite.Transport)
	if err != nil {
		return nil, Binding{}, err
	}
	rep, err := marshal.Lookup(suite.DataRep)
	if err != nil {
		return nil, Binding{}, err
	}
	ctl, err := LookupControl(suite.Control)
	if err != nil {
		return nil, Binding{}, err
	}
	ln, err := tr.Listen(addr, s.Handler(rep, ctl))
	if err != nil {
		return nil, Binding{}, err
	}
	return ln, suite.Bind(host, ln.Addr(), s.program, s.version), nil
}

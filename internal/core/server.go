package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/cache"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/push"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The HNS is "a collection of library routines", so it can be linked with
// any process — including a server process, which is how the remote-HNS
// colocation arrangements of Table 3.1 are built. This file provides that
// wrapping: an HRPC program exposing FindNSM, and a client (RemoteHNS)
// satisfying Finder and ContextFinder.

// HNS service program identification. Version 3 is the program whose
// FindNSM carries (context, query class) and answers a six-field binding
// and how long the caller may keep it, and which has Watch; a caller of an
// older version is refused by version, before any decoding.
const (
	HNSProgram uint32 = 300000
	HNSVersion uint32 = 3
)

// Procedure IDs of the HNS program, exported so fronting services (the
// hnsgw gateway) can classify calls without repeating the IDL.
const (
	ProcFindNSMID      uint32 = 1
	ProcFindNSMBatchID uint32 = 2
	ProcWatchID        uint32 = 3
)

// procFindNSM is the remote FindNSM interface. Only the NSM reads the
// individual name, so it stays with the caller; Table 3.1 prices the 1987
// messages, which also carried it and the NSM's host name.
//
// keep is how many seconds the caller may hold the binding: 0 unless its
// connection watches (procWatch).
//
//	args: {context string, queryClass string}
//	ret:  {nsmBinding, keep uint32}
var procFindNSM = hrpc.Procedure{
	Name: "FindNSM", ID: ProcFindNSMID,
	Args:      marshal.TStruct(marshal.TString, marshal.TString),
	Ret:       marshal.TStruct(nsmBindingType, marshal.TUint32),
	PaperArgs: paperFindArgs,
	PaperRet:  marshal.TStruct(qclass.BindingType),
}

// procWatch registers the calling connection for relays: a NOTIFY frame
// naming the contexts whose answers it read may no longer hold, or none
// for all of them (see DESIGN.md, "The caller keeps what the HNS will
// recall").
//
//	args: {}
//	ret:  {}
var procWatch = hrpc.Procedure{Name: "Watch", ID: ProcWatchID, Args: marshal.TStruct(), Ret: marshal.TStruct()}

// errNoPromise refuses a Watch the finder cannot honour.
var errNoPromise = errors.New("hns: this server cannot promise to relay invalidations")

// paperFindArgs is the 1987 FindNSM call, {context, queryClass, individual}.
var paperFindArgs = marshal.TStruct(marshal.TString, marshal.TString, marshal.TString)

// nsmBindingType is the HNS program's binding, {addr, transport, dataRep,
// control, program, version}: what the caller dials, and no host name.
// (The binding NSMs' replies keep qclass's seven-field shape.)
var nsmBindingType = marshal.TStruct(
	marshal.TString, marshal.TString, marshal.TString, marshal.TString,
	marshal.TUint32, marshal.TUint32,
)

// nsmBindingValue encodes b as an nsmBindingType value; b.Host is dropped.
func nsmBindingValue(b hrpc.Binding) marshal.Value {
	return marshal.StructV(marshal.Str(b.Addr), marshal.Str(b.Transport),
		marshal.Str(b.DataRep), marshal.Str(b.Control), marshal.U32(b.Program), marshal.U32(b.Version))
}

// valueNSMBinding decodes an nsmBindingType value.
func valueNSMBinding(v marshal.Value) (hrpc.Binding, error) {
	if v.Kind != marshal.KindStruct {
		return hrpc.Binding{}, fmt.Errorf("hns: bad NSM binding value %v", v)
	}
	return qclass.DialFields(v.Items)
}

// resolveHostArgs builds the argument record for ProcResolveHost calls.
func resolveHostArgs(context, individual string) marshal.Value {
	return marshal.StructV(marshal.Str(context), marshal.Str(individual))
}

// watchable is a finder that can promise to relay the invalidations of
// what it answers: an *HNS, or a *RemoteHNS.
type watchable interface {
	ContextFinder
	// promise reports whether the finder can promise now; a RemoteHNS
	// first starts its own upstream watch.
	promise(ctx context.Context) bool
	// findKeep is FindContextNSM for a watching caller, with how long it
	// may keep the answer.
	findKeep(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, time.Duration, error)
	// relays is the table of the connections watching the finder.
	relays() *push.Table
}

// finderServer is what the HNS program's handlers share.
type finderServer struct {
	f ContextFinder
	w watchable // nil when f cannot promise
}

// watched re-arms the calling connection's watch for the context it is
// about to read, reporting whether it watches.
func (fs finderServer) watched(ctx context.Context, cx string) bool {
	sink, ok := transport.PusherFrom(ctx)
	return ok && fs.w != nil && fs.w.relays().Rearm(sink, cx)
}

// find resolves one canonical context for the calling connection, with
// the whole seconds it may keep the answer.
func (fs finderServer) find(ctx context.Context, cx, qc string) (hrpc.Binding, uint32, error) {
	if !fs.watched(ctx, cx) {
		b, err := fs.f.FindContextNSM(ctx, cx, qc)
		return b, 0, err
	}
	b, keep, err := fs.w.findKeep(ctx, cx, qc)
	return b, uint32(keep / time.Second), err
}

// NewFinderServer wraps any ContextFinder in the HNS HRPC program — the
// local library, or another remote HNS (which is how the hnsgw gateway
// fronts a backend: its finder is a RemoteHNS pointing upstream). Watch is
// offered only over a finder that could promise: an *HNS, or a
// *RemoteHNS whose every call rides one connection.
func NewFinderServer(f ContextFinder, name string) *hrpc.Server {
	s := hrpc.NewServer(name, HNSProgram, HNSVersion)
	fs := finderServer{f: f}
	if w, ok := f.(watchable); ok {
		if r, remote := f.(*RemoteHNS); !remote || r.c.OneConn(r.b.Addr) {
			fs.w = w
		}
	}
	if fs.w != nil {
		s.Register(procWatch, func(ctx context.Context, _ marshal.Value) (marshal.Value, error) {
			sink, ok := transport.PusherFrom(ctx)
			if !ok || !fs.w.promise(ctx) {
				return marshal.Value{}, errNoPromise
			}
			if _, ok := fs.w.relays().Add(push.Subscription{Callback: true}, sink); !ok {
				return marshal.Value{}, errors.New("hns: watcher table full")
			}
			return marshal.StructV(), nil
		})
	}
	s.Register(procFindNSM, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		cx, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		qc, err := args.Items[1].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		if cx, err = names.CanonicalContext(cx); err != nil {
			return marshal.Value{}, err
		}
		b, keep, err := fs.find(ctx, cx, qc)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(nsmBindingValue(b), marshal.U32(keep)), nil
	})
	fs.registerFindBatch(s)
	return s
}

// NewHNSServer wraps h in its HRPC program.
func NewHNSServer(h *HNS, name string) *hrpc.Server {
	return NewFinderServer(h, name)
}

// ServeHNS binds an HNS server at addr over the Raw suite.
func ServeHNS(net *transport.Network, h *HNS, host, addr string) (transport.Listener, hrpc.Binding, error) {
	return hrpc.Serve(net, NewHNSServer(h, "hns@"+host), hrpc.SuiteRaw, host, addr)
}

// RemoteHNS is a Finder that calls an HNS server over HRPC — the
// "[Client] [HNS ...]" colocation arrangements. When every call rides one
// connection it watches that connection (procWatch) and keeps each answer
// for as long as the reply says, in a memo the server's relays empty.
type RemoteHNS struct {
	c *hrpc.Client
	b hrpc.Binding

	memo     *cache.TTL[memoEntry] // keyed by memoKey
	watchers *push.Table           // the connections watching this finder in turn

	watchMu    sync.Mutex
	dead       atomic.Pointer[atomic.Bool] // the standing watch's, nil before the first
	refused    atomic.Bool                 // the server said no: never ask again
	instrument sync.Once

	mu      sync.Mutex
	changed chan struct{} // closed at the next relay heard; nil until a waiter asks
}

// memoEntry is one kept answer and when the server's promise for it ends.
type memoEntry struct {
	b     hrpc.Binding
	until time.Time
}

// NewRemoteHNS creates a Finder for the HNS served at b.
func NewRemoteHNS(c *hrpc.Client, b hrpc.Binding) *RemoteHNS {
	return &RemoteHNS{c: c, b: b, memo: cache.New[memoEntry](nil, 0), watchers: push.NewTable(c.Metrics)}
}

// FindNSM implements Finder. A malformed name fails here, moving no frame.
func (r *RemoteHNS) FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error) {
	if err := name.Validate(); err != nil {
		return hrpc.Binding{}, err
	}
	return r.FindContextNSM(ctx, name.Context, queryClass)
}

// FindContextNSM implements ContextFinder.
func (r *RemoteHNS) FindContextNSM(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, error) {
	e, err := r.find(ctx, hnsContext, queryClass)
	return e.b, err
}

func (r *RemoteHNS) findKeep(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, time.Duration, error) {
	e, err := r.find(ctx, hnsContext, queryClass)
	return e.b, max(time.Until(e.until), 0), err
}

func (r *RemoteHNS) relays() *push.Table { return r.watchers }

// find answers from the memo while the watch stands, else asks upstream;
// a miss is kept unless a relay overtook it (cache.TTL.Fill). Unwatched,
// an exchange that went through is followed by asking for the watch.
func (r *RemoteHNS) find(ctx context.Context, hnsContext, queryClass string) (memoEntry, error) {
	if !r.live() {
		e, err := r.ask(ctx, hnsContext, queryClass)
		if err == nil {
			r.promise(ctx)
		}
		return e, err
	}
	cx, err := names.CanonicalContext(hnsContext)
	if err != nil {
		return memoEntry{}, err
	}
	key := memoKey(cx, strings.ToLower(queryClass))
	if e, ok := r.memo.Get(key); ok {
		return e, nil
	}
	e, _, err := r.memo.Fill(ctx, key, func(ctx context.Context) (memoEntry, time.Duration, []cache.Entry[memoEntry], error) {
		e, err := r.ask(ctx, cx, queryClass)
		return e, time.Until(e.until), nil, err
	})
	return e, err
}

// memoKey is the memo's key for a canonical context and query class.
func memoKey(cx, qc string) string { return cx + "/" + qc }

// ask sends one FindNSM upstream.
func (r *RemoteHNS) ask(ctx context.Context, hnsContext, queryClass string) (memoEntry, error) {
	ret, err := r.c.Call(ctx, r.b, procFindNSM, marshal.StructV(marshal.Str(hnsContext), marshal.Str(queryClass)))
	if err != nil {
		return memoEntry{}, err
	}
	var e memoEntry
	if keep := ret.Items[1].Num; keep > 0 {
		e.until = time.Now().Add(time.Duration(keep) * time.Second)
	}
	e.b, err = valueNSMBinding(ret.Items[0])
	return e, err
}

// live reports whether the watch stands.
func (r *RemoteHNS) live() bool {
	d := r.dead.Load()
	return d != nil && !d.Load()
}

// promise asks the server, once per connection, to relay what may
// overturn the answers it gives here (procWatch), reporting whether the
// watch stands. Only a client whose every call rides the watched
// connection asks; a refusal is final. The exchange is upkeep, billed to
// no caller's meter.
func (r *RemoteHNS) promise(ctx context.Context) bool {
	if r.live() || r.refused.Load() || r.b.Version != HNSVersion || !r.c.OneConn(r.b.Addr) {
		return r.live()
	}
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	if r.live() || r.refused.Load() {
		return r.live()
	}
	dead := new(atomic.Bool)
	_, _, err := r.c.Listen(simtime.WithMeter(ctx, nil), r.b, procWatch, marshal.StructV(), func(body []byte, err error) {
		if err != nil {
			dead.Store(true)
		}
		r.hear(body, err)
	})
	if err != nil {
		r.refused.Store(transport.CodeOf(err).Answered())
		return false
	}
	r.dead.Store(dead)
	r.instrument.Do(func() { r.memo.Instrument(cmp.Or(r.c.Metrics, metrics.Default()), "hns_memo") })
	return r.live()
}

// hear applies a relay heard on the watched connection, or its death
// (err set): it supersedes the misses in flight for what the frame names
// and drops their answers — every answer for a zone-level frame, one it
// cannot decode, or the death — then relays the frame to its own watchers.
func (r *RemoteHNS) hear(body []byte, err error) {
	var n push.Notification
	if err == nil {
		n, err = push.DecodeNotification(body)
	}
	if err != nil || n.Names == nil {
		r.memo.Purge()
		n.Names = nil
	}
	for _, cx := range n.Names {
		for _, qc := range [...]string{qclass.HostAddress, qclass.HRPCBinding, qclass.MailRoute} {
			r.memo.Invalidate(memoKey(cx, qc))
		}
	}
	r.watchers.Publish(push.Notification{Names: n.Names, Serial: n.Serial})
	r.mu.Lock()
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
	r.mu.Unlock()
}

// Changed returns a channel closed when the memo next hears a relay. A
// waiter takes it, then checks what it wants, and blocks on it only while
// that does not yet hold.
func (r *RemoteHNS) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.changed == nil {
		r.changed = make(chan struct{})
	}
	return r.changed
}

var _ Finder = (*HNS)(nil)
var _ Finder = (*RemoteHNS)(nil)

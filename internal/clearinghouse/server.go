package clearinghouse

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Program identification: the historical Clearinghouse Courier program.
const (
	Program = 2
	Version = 3
)

// credType is the wire shape of Credentials.
var credType = marshal.TStruct(marshal.TString, marshal.TBytes)

// The Clearinghouse procedures. Numbers loosely follow the Courier
// program's procedure space.
var (
	procRetrieveItem = hrpc.Procedure{
		Name: "CHRetrieveItem", ID: 2,
		Args: marshal.TStruct(credType, marshal.TString, marshal.TString),
		Ret:  marshal.TStruct(marshal.TBytes),
	}
	procAddItem = hrpc.Procedure{
		Name: "CHAddItem", ID: 3,
		Args: marshal.TStruct(credType, marshal.TString, marshal.TString, marshal.TBytes, marshal.TBool),
		Ret:  marshal.TStruct(),
	}
	procDeleteItem = hrpc.Procedure{
		Name: "CHDeleteItem", ID: 4,
		Args: marshal.TStruct(credType, marshal.TString, marshal.TString, marshal.TBool),
		Ret:  marshal.TStruct(),
	}
	procDeleteObject = hrpc.Procedure{
		Name: "CHDeleteObject", ID: 5,
		Args: marshal.TStruct(credType, marshal.TString, marshal.TBool),
		Ret:  marshal.TStruct(),
	}
	procListObjects = hrpc.Procedure{
		Name: "CHListObjects", ID: 6,
		Args: marshal.TStruct(credType, marshal.TString, marshal.TString),
		Ret:  marshal.TStruct(marshal.TList(marshal.TString)),
	}
	procListProperties = hrpc.Procedure{
		Name: "CHListProperties", ID: 7,
		Args: marshal.TStruct(credType, marshal.TString),
		Ret:  marshal.TStruct(marshal.TList(marshal.TString)),
	}
)

func credValue(c Credentials) marshal.Value {
	return marshal.StructV(marshal.Str(c.Principal), marshal.BytesV(c.Proof))
}

func valueCred(v marshal.Value) (Credentials, error) {
	if v.Kind != marshal.KindStruct || v.Len() != 2 {
		return Credentials{}, fmt.Errorf("clearinghouse: bad credentials value")
	}
	p, err := v.Items[0].AsString()
	if err != nil {
		return Credentials{}, err
	}
	proof, err := v.Items[1].AsBytes()
	if err != nil {
		return Credentials{}, err
	}
	return Credentials{Principal: p, Proof: proof}, nil
}

// Server is one Clearinghouse server: an authenticated, disk-resident
// store replicating updates to its peers, served over the Courier suite.
type Server struct {
	host  string
	store *Store
	auth  *Authenticator

	mu    sync.RWMutex
	peers []*Client

	replFailures atomic.Int64
}

// NewServer creates a Clearinghouse server on host over the given store
// and principal table.
func NewServer(host string, store *Store, auth *Authenticator) *Server {
	return &Server{host: host, store: store, auth: auth}
}

// Host reports the server's host name.
func (s *Server) Host() string { return s.host }

// Store exposes the underlying store (for daemon persistence).
func (s *Server) Store() *Store { return s.store }

// AddPeer registers a replication peer. Updates received directly from
// clients are forwarded to every peer; updates received from a peer are
// not re-forwarded (one-hop flooding over a full mesh, the classic
// Clearinghouse arrangement).
func (s *Server) AddPeer(peer *Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = append(s.peers, peer)
}

// ReplicationFailures reports how many peer forwards have failed
// (best-effort replication: failures are counted, not fatal).
func (s *Server) ReplicationFailures() int64 { return s.replFailures.Load() }

func (s *Server) replicate(ctx context.Context, fn func(ctx context.Context, peer *Client) error) {
	s.mu.RLock()
	peers := append([]*Client(nil), s.peers...)
	s.mu.RUnlock()
	for _, p := range peers {
		// Replication traffic is background work: it must not inflate the
		// caller's measured cost, so it runs without the request meter.
		if err := fn(context.WithoutCancel(context.Background()), p); err != nil {
			s.replFailures.Add(1)
		}
	}
}

// HRPCServer wraps the server in its Courier program.
func (s *Server) HRPCServer() *hrpc.Server {
	hs := hrpc.NewServer("clearinghouse@"+s.host, Program, Version)

	// guard authenticates and charges baseline server work.
	guard := func(ctx context.Context, args marshal.Value) error {
		simtime.Charge(ctx, simtime.CHServerWork)
		cred, err := valueCred(args.Items[0])
		if err != nil {
			return err
		}
		return s.auth.Verify(ctx, cred)
	}

	hs.Register(procRetrieveItem, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		rawName, _ := args.Items[1].AsString()
		prop, _ := args.Items[2].AsString()
		n, err := ParseName(rawName)
		if err != nil {
			return marshal.Value{}, err
		}
		v, err := s.store.Retrieve(ctx, n, prop)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.BytesV(v)), nil
	})

	hs.Register(procAddItem, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		rawName, _ := args.Items[1].AsString()
		prop, _ := args.Items[2].AsString()
		value, _ := args.Items[3].AsBytes()
		replicated, _ := args.Items[4].AsBool()
		n, err := ParseName(rawName)
		if err != nil {
			return marshal.Value{}, err
		}
		s.store.AddItem(ctx, n, prop, value)
		if !replicated {
			s.replicate(ctx, func(ctx context.Context, p *Client) error {
				return p.addItem(ctx, n, prop, value, true)
			})
		}
		return marshal.StructV(), nil
	})

	hs.Register(procDeleteItem, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		rawName, _ := args.Items[1].AsString()
		prop, _ := args.Items[2].AsString()
		replicated, _ := args.Items[3].AsBool()
		n, err := ParseName(rawName)
		if err != nil {
			return marshal.Value{}, err
		}
		if err := s.store.DeleteItem(ctx, n, prop); err != nil {
			return marshal.Value{}, err
		}
		if !replicated {
			s.replicate(ctx, func(ctx context.Context, p *Client) error {
				return p.deleteItem(ctx, n, prop, true)
			})
		}
		return marshal.StructV(), nil
	})

	hs.Register(procDeleteObject, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		rawName, _ := args.Items[1].AsString()
		replicated, _ := args.Items[2].AsBool()
		n, err := ParseName(rawName)
		if err != nil {
			return marshal.Value{}, err
		}
		if err := s.store.DeleteObject(ctx, n); err != nil {
			return marshal.Value{}, err
		}
		if !replicated {
			s.replicate(ctx, func(ctx context.Context, p *Client) error {
				return p.deleteObject(ctx, n, true)
			})
		}
		return marshal.StructV(), nil
	})

	hs.Register(procListObjects, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		domain, _ := args.Items[1].AsString()
		org, _ := args.Items[2].AsString()
		names := s.store.List(ctx, domain, org)
		items := make([]marshal.Value, 0, len(names))
		for _, n := range names {
			items = append(items, marshal.Str(n.String()))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})

	hs.Register(procListProperties, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		if err := guard(ctx, args); err != nil {
			return marshal.Value{}, err
		}
		rawName, _ := args.Items[1].AsString()
		n, err := ParseName(rawName)
		if err != nil {
			return marshal.Value{}, err
		}
		props, err := s.store.Properties(ctx, n)
		if err != nil {
			return marshal.Value{}, err
		}
		items := make([]marshal.Value, 0, len(props))
		for _, p := range props {
			items = append(items, marshal.Str(p))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})

	return hs
}

// Serve binds the server at addr over the Courier suite.
func (s *Server) Serve(net *transport.Network, addr string) (transport.Listener, hrpc.Binding, error) {
	return hrpc.Serve(net, s.HRPCServer(), hrpc.SuiteCourier, s.host, addr)
}

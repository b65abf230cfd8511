// Package filing implements the heterogeneous filing application built on
// the HNS — one of the HCS core network services, and the "heterogeneous
// file system that mediates access to the set of local file systems
// present in the environment" the paper's conclusions announce.
//
// The structure mirrors the naming design exactly: file *servers* are
// named through the HNS (so a UNIX file server registered in BIND and a
// Xerox file server registered in the Clearinghouse are reached through
// the same client code), bound through the existing HRPCBinding NSMs, and
// then spoken to with a Fetch/Store protocol over whatever suite their
// world uses. Contrast with Jasmine (paper §4), which keeps per-file
// location data in a database: here the HNS holds only server naming, so
// the "location database" never grows with the number of files.
package filing

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// Program identification for the filing protocol.
const (
	Program uint32 = 500001
	Version uint32 = 1
)

// ServiceName is the service name filing clients import.
const ServiceName = "filing"

// The filing procedures.
var (
	procFetch = hrpc.Procedure{
		Name: "FileFetch", ID: 1,
		Args: marshal.TStruct(marshal.TString),
		Ret:  marshal.TStruct(marshal.TBool, marshal.TBytes),
	}
	procStore = hrpc.Procedure{
		Name: "FileStore", ID: 2,
		Args: marshal.TStruct(marshal.TString, marshal.TBytes),
		Ret:  marshal.TStruct(),
	}
	procList = hrpc.Procedure{
		Name: "FileList", ID: 3,
		Args: marshal.TStruct(marshal.TString),
		Ret:  marshal.TStruct(marshal.TList(marshal.TString)),
	}
	procRemove = hrpc.Procedure{
		Name: "FileRemove", ID: 4,
		Args: marshal.TStruct(marshal.TString),
		Ret:  marshal.TStruct(marshal.TBool),
	}
)

// NotFoundError reports a missing file.
type NotFoundError struct {
	Path string
}

// Error implements error.
func (e *NotFoundError) Error() string { return "filing: no such file: " + e.Path }

// Server is one file server: an in-memory file store charging
// disk-realistic simulated costs, servable over any protocol suite.
type Server struct {
	host string

	mu    sync.RWMutex
	files map[string][]byte
}

// NewServer creates an empty file server on host.
func NewServer(host string) *Server {
	return &Server{host: host, files: make(map[string][]byte)}
}

// Fetch reads one file, charging a disk read plus per-KB transfer.
func (s *Server) Fetch(ctx context.Context, path string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	simtime.Charge(ctx, simtime.FSRead)
	data, ok := s.files[path]
	if !ok {
		return nil, &NotFoundError{Path: path}
	}
	chargeKB(ctx, len(data))
	return append([]byte(nil), data...), nil
}

// Store writes one file, charging per-KB write cost.
func (s *Server) Store(ctx context.Context, path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("filing: empty path")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chargeKB(ctx, len(data))
	s.files[path] = append([]byte(nil), data...)
	return nil
}

// List enumerates (sorted) paths with the given prefix, charging one disk
// read.
func (s *Server) List(ctx context.Context, prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	simtime.Charge(ctx, simtime.FSRead)
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Remove deletes a file, reporting whether it existed.
func (s *Server) Remove(ctx context.Context, path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	simtime.Charge(ctx, simtime.FSRead)
	_, ok := s.files[path]
	delete(s.files, path)
	return ok
}

// Len reports the number of stored files.
func (s *Server) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files)
}

func chargeKB(ctx context.Context, n int) {
	kb := (n + 1023) / 1024
	if kb == 0 {
		kb = 1
	}
	simtime.Charge(ctx, time.Duration(kb)*simtime.FSWritePerKB)
}

// HRPCServer wraps the server in the filing program.
func (s *Server) HRPCServer() *hrpc.Server {
	hs := hrpc.NewServer("filing@"+s.host, Program, Version)
	hs.Register(procFetch, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		path, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		data, err := s.Fetch(ctx, path)
		if err != nil {
			var nf *NotFoundError
			if errors.As(err, &nf) {
				return marshal.StructV(marshal.BoolV(false), marshal.BytesV(nil)), nil
			}
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.BoolV(true), marshal.BytesV(data)), nil
	})
	hs.Register(procStore, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		path, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		data, err := args.Items[1].AsBytes()
		if err != nil {
			return marshal.Value{}, err
		}
		if err := s.Store(ctx, path, data); err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(), nil
	})
	hs.Register(procList, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		prefix, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		paths := s.List(ctx, prefix)
		items := make([]marshal.Value, 0, len(paths))
		for _, p := range paths {
			items = append(items, marshal.Str(p))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})
	hs.Register(procRemove, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		path, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.BoolV(s.Remove(ctx, path))), nil
	})
	return hs
}

// Client is the heterogeneous filing client: it names file servers with
// HNS names, binds them through the HNS (FindNSM + the world's binding
// NSM), caches the bindings, and then speaks the filing protocol.
type Client struct {
	finder core.Finder
	rpc    *hrpc.Client

	mu       sync.Mutex
	bindings map[string]hrpc.Binding
}

// NewClient creates a filing client over the given HNS access path.
func NewClient(finder core.Finder, rpc *hrpc.Client) *Client {
	return &Client{finder: finder, rpc: rpc, bindings: make(map[string]hrpc.Binding)}
}

// bind resolves (and caches) the binding for the file server the HNS name
// designates.
func (c *Client) bind(ctx context.Context, server names.Name) (hrpc.Binding, error) {
	key := server.String()
	c.mu.Lock()
	if b, ok := c.bindings[key]; ok {
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()

	nsmB, err := c.finder.FindNSM(ctx, server, qclass.HRPCBinding)
	if err != nil {
		return hrpc.Binding{}, err
	}
	b, err := nsm.CallBindService(ctx, c.rpc, nsmB, ServiceName, Program, Version, server)
	if err != nil {
		return hrpc.Binding{}, err
	}
	c.mu.Lock()
	c.bindings[key] = b
	c.mu.Unlock()
	return b, nil
}

// Fetch reads path from the named file server.
func (c *Client) Fetch(ctx context.Context, server names.Name, path string) ([]byte, error) {
	b, err := c.bind(ctx, server)
	if err != nil {
		return nil, err
	}
	ret, err := c.rpc.Call(ctx, b, procFetch, marshal.StructV(marshal.Str(path)))
	if err != nil {
		return nil, err
	}
	found, _ := ret.Items[0].AsBool()
	if !found {
		return nil, &NotFoundError{Path: path}
	}
	return ret.Items[1].AsBytes()
}

// Store writes path on the named file server.
func (c *Client) Store(ctx context.Context, server names.Name, path string, data []byte) error {
	b, err := c.bind(ctx, server)
	if err != nil {
		return err
	}
	_, err = c.rpc.Call(ctx, b, procStore, marshal.StructV(
		marshal.Str(path), marshal.BytesV(data)))
	return err
}

// List enumerates paths with prefix on the named file server.
func (c *Client) List(ctx context.Context, server names.Name, prefix string) ([]string, error) {
	b, err := c.bind(ctx, server)
	if err != nil {
		return nil, err
	}
	ret, err := c.rpc.Call(ctx, b, procList, marshal.StructV(marshal.Str(prefix)))
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, ret.Items[0].Len())
	for _, it := range ret.Items[0].Items {
		p, err := it.AsString()
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Copy fetches from one named server and stores to another — possibly
// across worlds: a UNIX file server and a Xerox one differ in name
// service, binding protocol, data representation, and transport, and none
// of that appears here.
func (c *Client) Copy(ctx context.Context, from names.Name, fromPath string, to names.Name, toPath string) error {
	data, err := c.Fetch(ctx, from, fromPath)
	if err != nil {
		return err
	}
	return c.Store(ctx, to, toPath, data)
}

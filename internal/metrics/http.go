package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler serves r over HTTP:
//
//	GET /metrics              — plain-text series (expvar-style, one per line)
//	GET /debug/hns            — the full Snapshot as JSON (what `hnsctl stats` reads)
//	GET /debug/pprof/profile  — a CPU profile of the process (?seconds=N, default 30)
//
// Only the CPU profile of net/http/pprof is mounted: its index and other
// handlers register on http.DefaultServeMux, which no daemon serves.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.Snapshot().WriteText(w)
	})
	mux.HandleFunc("/debug/hns", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr reports the bound address (useful when the caller asked for :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve starts Handler's endpoints on addr in a background
// goroutine. The daemons call this when their -metrics flag is set; the
// endpoint is strictly opt-in.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

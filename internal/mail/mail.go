// Package mail implements the electronic mail service built on the HNS —
// the second HCS core network service, and the application domain the
// paper's sendmail comparison (§4) is about.
//
// The structure is the anti-sendmail: the mail agent contains *no*
// name-service-specific code and *no* rewriting rules. Routing a message
// is one MailRoute query (the per-world parsing and semantics live in the
// MailRoute NSMs); delivering it is one HRPCBinding import of the mailbox
// server plus one Deliver call. A new user registry means one new NSM
// registered in one place — not new rewriting rules distributed to every
// host's mailer.
package mail

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/simtime"
)

// Program identification for the mailbox protocol.
const (
	Program uint32 = 500002
	Version uint32 = 1
)

// ServiceName is the service mail agents import on mailbox hosts.
const ServiceName = "mailbox"

// Message is one piece of mail.
type Message struct {
	From    string
	To      names.Name
	Subject string
	Body    string
}

// Stored is a delivered message with its mailbox metadata.
type Stored struct {
	ID      uint32
	From    string
	Subject string
	Body    string
}

// The mailbox procedures.
var (
	procDeliver = hrpc.Procedure{
		Name: "MailDeliver", ID: 1,
		Args: marshal.TStruct(marshal.TString, marshal.TString, marshal.TString, marshal.TString),
		Ret:  marshal.TStruct(marshal.TUint32),
	}
	procList = hrpc.Procedure{
		Name: "MailList", ID: 2,
		Args: marshal.TStruct(marshal.TString),
		Ret: marshal.TStruct(marshal.TList(marshal.TStruct(
			marshal.TUint32, marshal.TString, marshal.TString,
		))),
	}
	procRead = hrpc.Procedure{
		Name: "MailRead", ID: 3,
		Args: marshal.TStruct(marshal.TString, marshal.TUint32),
		Ret:  marshal.TStruct(marshal.TString, marshal.TString, marshal.TString),
	}
)

// Server is one mailbox host: per-user message stores.
type Server struct {
	host string

	mu     sync.Mutex
	nextID uint32
	boxes  map[string][]Stored
}

// NewServer creates an empty mailbox server.
func NewServer(host string) *Server {
	return &Server{host: host, boxes: make(map[string][]Stored)}
}

// Deliver stores a message in user's mailbox, returning its ID.
func (s *Server) Deliver(ctx context.Context, user, from, subject, body string) (uint32, error) {
	if user == "" {
		return 0, fmt.Errorf("mail: empty recipient")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	simtime.Charge(ctx, simtime.FSWritePerKB) // spool write
	s.nextID++
	s.boxes[user] = append(s.boxes[user], Stored{
		ID: s.nextID, From: from, Subject: subject, Body: body,
	})
	return s.nextID, nil
}

// List returns user's mailbox summaries, oldest first.
func (s *Server) List(ctx context.Context, user string) []Stored {
	s.mu.Lock()
	defer s.mu.Unlock()
	simtime.Charge(ctx, simtime.FSRead)
	out := append([]Stored(nil), s.boxes[user]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Read fetches one message by ID.
func (s *Server) Read(ctx context.Context, user string, id uint32) (Stored, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	simtime.Charge(ctx, simtime.FSRead)
	for _, m := range s.boxes[user] {
		if m.ID == id {
			return m, nil
		}
	}
	return Stored{}, fmt.Errorf("mail: %s has no message %d", user, id)
}

// HRPCServer wraps the server in the mailbox program.
func (s *Server) HRPCServer() *hrpc.Server {
	hs := hrpc.NewServer("mailbox@"+s.host, Program, Version)
	hs.Register(procDeliver, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		user, _ := args.Items[0].AsString()
		from, _ := args.Items[1].AsString()
		subject, _ := args.Items[2].AsString()
		body, _ := args.Items[3].AsString()
		id, err := s.Deliver(ctx, user, from, subject, body)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.U32(id)), nil
	})
	hs.Register(procList, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		user, _ := args.Items[0].AsString()
		msgs := s.List(ctx, user)
		items := make([]marshal.Value, 0, len(msgs))
		for _, m := range msgs {
			items = append(items, marshal.StructV(
				marshal.U32(m.ID), marshal.Str(m.From), marshal.Str(m.Subject)))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})
	hs.Register(procRead, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		user, _ := args.Items[0].AsString()
		id, _ := args.Items[1].AsU32()
		m, err := s.Read(ctx, user, id)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.Str(m.From), marshal.Str(m.Subject), marshal.Str(m.Body)), nil
	})
	return hs
}

// Agent is the mail transfer agent: route through the HNS, deliver through
// HRPC, spool failures for retry.
type Agent struct {
	dir *hcs.Directory
	rpc *hrpc.Client
	// worldContext maps a routing discipline (from the MailRoute NSM) to
	// the HRPCBinding context tag of that world — how a mailbox host name
	// becomes an importable HNS name.
	worldContext map[string]string

	mu    sync.Mutex
	spool []Message
}

// NewAgent creates an agent. worldContext maps routing disciplines
// ("smtp", "grapevine") to HRPCBinding contexts.
func NewAgent(dir *hcs.Directory, rpc *hrpc.Client, worldContext map[string]string) *Agent {
	wc := make(map[string]string, len(worldContext))
	for k, v := range worldContext {
		wc[strings.ToLower(k)] = v
	}
	return &Agent{dir: dir, rpc: rpc, worldContext: wc}
}

// Send routes and delivers one message. On delivery failure the message is
// spooled; Flush retries the spool. Routing failures (unknown user) are
// returned immediately — they are bounces, not transient faults.
func (a *Agent) Send(ctx context.Context, m Message) (uint32, error) {
	id, err := a.deliver(ctx, m)
	if err == nil {
		return id, nil
	}
	if isBounce(err) {
		return 0, err
	}
	a.mu.Lock()
	a.spool = append(a.spool, m)
	a.mu.Unlock()
	return 0, fmt.Errorf("mail: spooled after delivery failure: %w", err)
}

// deliver performs the full routed delivery.
func (a *Agent) deliver(ctx context.Context, m Message) (uint32, error) {
	mailHost, discipline, err := a.dir.MailRoute(ctx, m.To)
	if err != nil {
		return 0, &BounceError{To: m.To, Reason: err}
	}
	ctxTag, ok := a.worldContext[strings.ToLower(discipline)]
	if !ok {
		return 0, &BounceError{To: m.To, Reason: fmt.Errorf("mail: no route for discipline %q", discipline)}
	}
	serverName, err := names.New(ctxTag, mailHost)
	if err != nil {
		return 0, &BounceError{To: m.To, Reason: err}
	}
	b, err := a.dir.Import(ctx, ServiceName, Program, Version, serverName)
	if err != nil {
		return 0, err // transient: server down or unbound
	}
	ret, err := a.rpc.Call(ctx, b, procDeliver, marshal.StructV(
		marshal.Str(m.To.Individual), marshal.Str(m.From),
		marshal.Str(m.Subject), marshal.Str(m.Body),
	))
	if err != nil {
		return 0, err
	}
	return ret.Items[0].AsU32()
}

// Flush retries every spooled message, keeping the ones that still fail.
// It reports how many were delivered.
func (a *Agent) Flush(ctx context.Context) (delivered int, err error) {
	a.mu.Lock()
	pending := a.spool
	a.spool = nil
	a.mu.Unlock()

	var kept []Message
	var firstErr error
	for _, m := range pending {
		if _, derr := a.deliver(ctx, m); derr != nil {
			kept = append(kept, m)
			if firstErr == nil {
				firstErr = derr
			}
			continue
		}
		delivered++
	}
	a.mu.Lock()
	a.spool = append(kept, a.spool...)
	a.mu.Unlock()
	return delivered, firstErr
}

// Spooled reports how many messages await retry.
func (a *Agent) Spooled() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spool)
}

// ReadMailbox fetches a user's mailbox from their mailbox server, routed
// through the HNS exactly like delivery.
func (a *Agent) ReadMailbox(ctx context.Context, user names.Name) ([]Stored, error) {
	mailHost, discipline, err := a.dir.MailRoute(ctx, user)
	if err != nil {
		return nil, err
	}
	ctxTag, ok := a.worldContext[strings.ToLower(discipline)]
	if !ok {
		return nil, fmt.Errorf("mail: no route for discipline %q", discipline)
	}
	serverName, err := names.New(ctxTag, mailHost)
	if err != nil {
		return nil, err
	}
	b, err := a.dir.Import(ctx, ServiceName, Program, Version, serverName)
	if err != nil {
		return nil, err
	}
	ret, err := a.rpc.Call(ctx, b, procList, marshal.StructV(marshal.Str(user.Individual)))
	if err != nil {
		return nil, err
	}
	out := make([]Stored, 0, ret.Items[0].Len())
	for _, it := range ret.Items[0].Items {
		id, _ := it.Items[0].AsU32()
		from, _ := it.Items[1].AsString()
		subject, _ := it.Items[2].AsString()
		out = append(out, Stored{ID: id, From: from, Subject: subject})
	}
	return out, nil
}

// BounceError is a permanent routing failure (unknown user, unroutable
// world) — never spooled.
type BounceError struct {
	To     names.Name
	Reason error
}

// Error implements error.
func (e *BounceError) Error() string {
	return fmt.Sprintf("mail: %s bounced: %v", e.To, e.Reason)
}

// Unwrap exposes the underlying reason.
func (e *BounceError) Unwrap() error { return e.Reason }

func isBounce(err error) bool {
	var b *BounceError
	return errors.As(err, &b)
}

package hrpc

import (
	"context"
	"fmt"

	"hns/internal/bufpool"
	"hns/internal/marshal"
	"hns/internal/transport"
)

// StickyConn is a dedicated client connection for subscription-style
// exchanges: calls that register state on a specific connection (bind's
// Subscribe) cannot ride the endpoint's shared connection, because the
// server's push frames flow back over exactly the connection that
// subscribed. A StickyConn performs single-attempt calls — no retries,
// no failover — and exposes the connection's push channel. The caller
// owns its lifecycle: one subscriber, one StickyConn, redial on death.
type StickyConn struct {
	c    *Client
	b    Binding
	conn transport.Conn
	ctl  ControlProtocol
	rep  marshal.DataRep
}

// DialSticky opens a dedicated connection to b's endpoint. The caller
// must Close it; it never becomes the endpoint's shared connection.
func (c *Client) DialSticky(ctx context.Context, b Binding) (*StickyConn, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	tr, err := c.net.Transport(b.Transport)
	if err != nil {
		return nil, err
	}
	rep, err := marshal.Lookup(b.DataRep)
	if err != nil {
		return nil, err
	}
	ctl, err := LookupControl(b.Control)
	if err != nil {
		return nil, err
	}
	conn, err := tr.Dial(ctx, b.Addr)
	if err != nil {
		return nil, err
	}
	return &StickyConn{c: c, b: b, conn: conn, ctl: ctl, rep: rep}, nil
}

// SetPushHandler installs fn as the connection's push handler,
// reporting whether the connection can receive pushes at all (false
// for a transport without a push channel — the caller falls back to
// polling).
func (s *StickyConn) SetPushHandler(fn func(body []byte, err error)) bool {
	pr, ok := s.conn.(transport.PushReceiver)
	if ok {
		pr.SetPushHandler(fn)
	}
	return ok
}

// Call invokes p once over this connection — single attempt, no
// failover. A budget in ctx travels with it, and a non-OK reply surfaces
// as the same typed error Client.Call returns.
func (s *StickyConn) Call(ctx context.Context, p Procedure, args marshal.Value) (marshal.Value, error) {
	argBytes, err := marshalArgs(ctx, s.ctl, s.rep, p, args)
	if err != nil {
		return marshal.Value{}, err
	}
	h := CallHeader{XID: s.c.xid.Add(1), Program: s.b.Program, Version: s.b.Version, Procedure: p.ID}
	h.Budget, h.HasBudget = callBudget(ctx)
	frame, err := appendCall(s.ctl, bufpool.Get(48+len(argBytes)), h, argBytes)
	bufpool.Put(argBytes)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	respFrame, err := s.conn.Call(ctx, frame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, s.b.Addr, err)
	}
	return decodeResult(ctx, s.ctl, s.rep, p, respFrame, s.b.Addr)
}

// Close releases the connection.
func (s *StickyConn) Close() error { return s.conn.Close() }

package hrpc

import (
	"context"
	"fmt"

	"hns/internal/bufpool"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// StickyConn is a dedicated client connection for subscription-style
// exchanges: calls that register state on a specific connection (bind's
// Subscribe) cannot ride the pooled round-robin paths, because the
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
// must Close it; it never enters the client's pool.
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
// failover. Remote procedure errors surface as *RemoteFault, exactly
// like Client.Call.
func (s *StickyConn) Call(ctx context.Context, p Procedure, args marshal.Value) (marshal.Value, error) {
	model := s.c.net.Model()
	simtime.Charge(ctx, s.ctl.Overhead(model))
	argBytes, err := s.rep.Append(bufpool.Get(64), args, p.Args)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: marshal args: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, model, p.Style, args)
	xid := s.c.xid.Add(1)
	frame, err := appendCall(s.ctl, bufpool.Get(48+len(argBytes)), CallHeader{
		XID: xid, Program: s.b.Program, Version: s.b.Version, Procedure: p.ID,
	}, argBytes)
	bufpool.Put(argBytes)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	respFrame, err := s.conn.Call(ctx, frame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, s.b.Addr, err)
	}
	rh, resBytes, err := s.ctl.DecodeReply(respFrame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: %w", p.Name, err)
	}
	if m, ok := s.ctl.(xidMatcher); ok {
		if !m.matchXID(xid, rh.XID) {
			return marshal.Value{}, fmt.Errorf("%w: sent %d, got %d", ErrXIDMismatch, xid, rh.XID)
		}
	} else if rh.XID != xid {
		return marshal.Value{}, fmt.Errorf("%w: sent %d, got %d", ErrXIDMismatch, xid, rh.XID)
	}
	if rh.Err != "" {
		return marshal.Value{}, &RemoteFault{Proc: p.Name, Msg: rh.Err}
	}
	ret, err := marshal.Unmarshal(s.rep, resBytes, p.Ret)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: unmarshal result: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, model, p.Style, ret)
	return ret, nil
}

// Close releases the connection.
func (s *StickyConn) Close() error { return s.conn.Close() }

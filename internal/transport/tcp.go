package transport

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"

	"hns/internal/bufpool"
)

// tcpTransport carries frames over real TCP sockets. It is what the cmd/
// daemons deploy on. It charges no simulated cost and installs no meter:
// a call over a real socket takes the real time it takes.
type tcpTransport struct {
	obs wireObs
}

func newTCPTransport() *tcpTransport {
	return &tcpTransport{obs: newWireObs("tcp-net")}
}

// Name implements Transport.
func (t *tcpTransport) Name() string { return "tcp-net" }

// Dial implements Transport.
func (t *tcpTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	// The preamble is the protocol magic: a listener closes a connection
	// that does not open with it.
	if _, err := c.Write(muxPreamble[:]); err != nil {
		c.Close()
		return nil, err
	}
	return newTCPMux(t.obs, c), nil
}

// newTCPMux wraps an established stream in the tagged-frame client core:
// writes serialized by the core's writer lock, replies demultiplexed by
// the core's reader goroutine. Per-call socket deadlines are impossible
// on a shared stream, so the core enforces waits with per-call timers.
func newTCPMux(obs wireObs, c net.Conn) *muxCore {
	return newMuxCore(obs,
		func(tag uint32, req []byte) error {
			out, err := frameMuxRequest(tag, req)
			if err != nil {
				return err
			}
			_, werr := c.Write(out)
			bufpool.Put(out)
			return werr
		},
		func() (uint32, []byte, error) { return readMuxFramePooled(c) },
		c.Close,
	)
}

// Listen implements Transport.
func (t *tcpTransport) Listen(addr string, h Handler) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &tcpListener{ln: ln, h: h, done: make(chan struct{})}
	go l.acceptLoop()
	return l, nil
}

type tcpListener struct {
	ln   net.Listener
	h    Handler
	done chan struct{}
	once sync.Once
}

// Addr implements Listener.
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// Close implements Listener.
func (l *tcpListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.ln.Close()
}

func (l *tcpListener) acceptLoop() {
	for {
		c, err := l.ln.Accept()
		if err != nil {
			select {
			case <-l.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		go l.serveConn(c)
	}
}

// serveConn serves one connection's tagged frames: every request runs
// in its own goroutine so a slow handler does not block the other
// streams sharing the socket; only the response writes are serialized.
// Each request owns its pooled buffer from read until its reply is
// encoded, so a handler may return a subslice of its request. A
// connection that does not open with the preamble is not speaking this
// protocol and is closed before any handler runs.
func (l *tcpListener) serveConn(c net.Conn) {
	var magic [4]byte
	if _, err := io.ReadFull(c, magic[:]); err != nil || magic != muxPreamble {
		c.Close()
		return
	}
	var (
		wmu sync.Mutex // serializes response writes onto the shared stream
		wg  sync.WaitGroup
	)
	peer := c.RemoteAddr().String()
	pusher := &tcpPusher{wmu: &wmu, c: c, peer: peer, done: make(chan struct{})}
	defer func() {
		// Signal subscribers first so no new pushes start, then drain
		// in-flight handlers before closing so none writes to a closed
		// socket it still believes healthy; their Write errors are
		// ignored either way.
		close(pusher.done)
		wg.Wait()
		c.Close()
	}()
	for {
		tag, req, err := readMuxFramePooled(c)
		if err != nil {
			return
		}
		wg.Add(1)
		go func(tag uint32, req []byte) {
			defer wg.Done()
			resp, herr := l.h(WithPusher(WithPeer(context.Background(), peer), pusher), req)
			out, err := encodeMuxReplyFramed(tag, resp, herr)
			bufpool.Put(req) // after encoding: resp may alias the request
			if err != nil {
				// Answer on the same tag so the caller fails now instead of
				// waiting out its deadline; this short reply always fits.
				out, _ = encodeMuxReplyFramed(tag, nil, errFrameLimit)
			}
			wmu.Lock()
			_, _ = c.Write(out)
			wmu.Unlock()
			bufpool.Put(out)
		}(tag, req)
	}
}

// tcpPusher writes server-initiated tag-0 frames onto a multiplexed
// connection, sharing the response writer lock so pushes interleave
// cleanly with replies. It implements Pusher.
type tcpPusher struct {
	wmu  *sync.Mutex
	c    net.Conn
	peer string
	done chan struct{}
}

// Push implements Pusher.
func (p *tcpPusher) Push(body []byte) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	out, err := frameMuxRequest(pushTag, body)
	if err != nil {
		return err
	}
	p.wmu.Lock()
	_, werr := p.c.Write(out)
	p.wmu.Unlock()
	bufpool.Put(out)
	return werr
}

// Peer implements Pusher.
func (p *tcpPusher) Peer() string { return p.peer }

// Done implements Pusher.
func (p *tcpPusher) Done() <-chan struct{} { return p.done }

package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"

	"hns/internal/bufpool"
)

// udpTransport carries frames over real UDP datagrams: one datagram per
// request, one per reply, no retransmission — faithful to the Sun RPC
// discipline the prototype emulated (callers retry at the RPC layer if they
// care). Payloads are limited to what fits a datagram.
//
// Every request datagram is [preamble][4-byte stream tag][payload], so
// one socket carries many in-flight calls; the reply is the echoed tag
// followed by the reply body of frame.go. A datagram that does not open
// with the preamble and a tag is not this protocol and is dropped unread.
type udpTransport struct {
	obs wireObs
}

func newUDPTransport() *udpTransport {
	return &udpTransport{obs: newWireObs("udp-net")}
}

// Name implements Transport.
func (t *udpTransport) Name() string { return "udp-net" }

// maxDatagram bounds request/reply payloads on the real UDP transport.
const maxDatagram = 60 * 1024

// errDatagramLimit is the handler-error text a caller receives when the
// reply to its request does not fit a datagram.
var errDatagramLimit = errors.New("transport: reply exceeds datagram limit")

// Dial implements Transport.
func (t *udpTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return newUDPMux(t.obs, c), nil
}

// newUDPMux wraps a connected UDP socket in the tagged-frame client
// core. A malformed reply datagram is skipped (and counted) rather than
// killing the socket — datagram corruption is per-packet, unlike a
// broken stream.
func newUDPMux(obs wireObs, c *net.UDPConn) *muxCore {
	return newMuxCore(obs,
		func(tag uint32, req []byte) error {
			if len(req) > maxDatagram-8 {
				return errors.New("transport: request exceeds datagram limit")
			}
			buf := bufpool.Get(8 + len(req))
			buf = append(buf, muxPreamble[:]...)
			buf = binary.BigEndian.AppendUint32(buf, tag)
			buf = append(buf, req...)
			_, err := c.Write(buf)
			bufpool.Put(buf)
			return err
		},
		func() (uint32, []byte, error) {
			buf := bufpool.Get(maxDatagram)[:maxDatagram]
			n, err := c.Read(buf)
			if err != nil {
				bufpool.Put(buf)
				return 0, nil, err
			}
			if n < 4 {
				bufpool.Put(buf)
				return 0, nil, errSkipFrame
			}
			tag := binary.BigEndian.Uint32(buf[:4])
			// Shift the body to the buffer's start instead of subslicing:
			// Put files by capacity, and a subslice would demote this 64 KiB
			// buffer into a smaller pool class, defeating reuse.
			copy(buf, buf[4:n])
			return tag, buf[:n-4], nil
		},
		c.Close,
	)
}

// Listen implements Transport.
func (t *udpTransport) Listen(addr string, h Handler) (Listener, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	l := &udpListener{pc: pc, h: h, done: make(chan struct{})}
	go l.serveLoop()
	return l, nil
}

type udpListener struct {
	pc   *net.UDPConn
	h    Handler
	done chan struct{}
	once sync.Once
}

// Addr implements Listener.
func (l *udpListener) Addr() string { return l.pc.LocalAddr().String() }

// Close implements Listener.
func (l *udpListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return l.pc.Close()
}

func (l *udpListener) serveLoop() {
	for {
		// Each datagram reads into its own pooled buffer: the handler owns
		// it until its reply is encoded, then it goes back to the pool.
		buf := bufpool.Get(maxDatagram)[:maxDatagram]
		n, peer, err := l.pc.ReadFromUDP(buf)
		if err != nil {
			bufpool.Put(buf)
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
		if n < 8 || [4]byte(buf[:4]) != muxPreamble {
			bufpool.Put(buf) // not this protocol: drop, never reaches the handler
			continue
		}
		go func(req []byte, peer *net.UDPAddr) {
			resp, herr := l.h(WithPeer(context.Background(), peer.String()), req[8:])
			body := appendReply(append(bufpool.Get(5+len(resp)), req[4:8]...), resp, herr)
			bufpool.Put(req) // after encoding: resp may alias the request
			if len(body) > maxDatagram {
				// Answer on the same tag so the caller fails now instead of
				// waiting out its deadline for a reply that cannot be sent.
				body = appendReply(body[:4], nil, errDatagramLimit)
			}
			_, _ = l.pc.WriteToUDP(body, peer)
			bufpool.Put(body)
		}(buf[:n], peer)
	}
}

package transport

// Multiplexed connections: many in-flight calls per socket.
//
// Each call is tagged with a per-connection stream ID, the writer lock
// is held only for the Write, a single reader goroutine demultiplexes
// replies by tag into per-call channels, and the server dispatches each
// tagged request to its own goroutine (serializing only the response
// writes), so a slow call never blocks the others sharing its socket.
//
// This is the only wire dialect. A client opens a TCP connection by
// writing the 4-byte preamble "HMUX" before its first frame; every UDP
// request datagram carries the same preamble ahead of its tag. The
// preamble is the protocol magic: a listener closes a connection, and
// drops a datagram, that does not open with it. (Read as a length
// prefix it is 0x484D5558, far above MaxFrame, so no length-prefixed
// stream can spell it by accident.)
//
// Nothing here touches the simulated cost model: a call over a real
// socket costs what the wall clock says it did.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bufpool"
)

// muxPreamble is written once by a TCP client immediately after
// connecting, before any frame, and opens every UDP request datagram.
var muxPreamble = [4]byte{'H', 'M', 'U', 'X'}

// ErrConnBroken is matched (errors.Is) by the error every pending call
// receives when a multiplexed connection dies underneath it. The
// concrete error is a *ConnBrokenError.
var ErrConnBroken error = &sentinel{"transport: connection broken", CodeBroken}

// ConnBrokenError reports that a multiplexed connection failed with
// calls in flight: the reader hit a socket error and every pending call
// was failed with this same value. ConnID identifies the dead
// connection, so retry/breaker machinery can record one endpoint
// failure per broken connection instead of one per in-flight call.
type ConnBrokenError struct {
	ConnID uint64 // process-unique identity of the dead connection
	Cause  error  // the socket error that killed it
}

// Error implements error.
func (e *ConnBrokenError) Error() string {
	return fmt.Sprintf("transport: connection %d broken: %v", e.ConnID, e.Cause)
}

// Unwrap exposes the socket error to errors.Is/As.
func (e *ConnBrokenError) Unwrap() error { return e.Cause }

// Is matches the ErrConnBroken sentinel.
func (e *ConnBrokenError) Is(target error) bool { return target == ErrConnBroken }

// Code reports the failure's code (see CodeOf).
func (e *ConnBrokenError) Code() Code { return CodeBroken }

// CallExpiredError reports a call that gave up waiting for its reply on
// a multiplexed connection — by its context or by the transport's wait
// ceiling. The connection itself is still healthy: the reply, if it
// ever arrives, is discarded by tag; only this call's wait ended.
// Callers (the hrpc pool) must NOT retire the connection for it.
type CallExpiredError struct {
	Cause error // ctx.Err(), or nil for the transport's own ceiling
}

// Error implements error.
func (e *CallExpiredError) Error() string {
	if e.Cause == nil {
		return "transport: mux call timed out awaiting reply"
	}
	return "transport: mux call expired: " + e.Cause.Error()
}

// Unwrap exposes the context error, when there is one.
func (e *CallExpiredError) Unwrap() error { return e.Cause }

// Timeout implements net.Error: a deadline-class expiry is a silent
// loss the caller sat out a timer to detect; a cancellation is not.
func (e *CallExpiredError) Timeout() bool {
	return e.Cause == nil || errors.Is(e.Cause, context.DeadlineExceeded)
}

// Temporary implements net.Error.
func (e *CallExpiredError) Temporary() bool { return true }

// Code reports the failure's code (see CodeOf), by the Timeout class.
func (e *CallExpiredError) Code() Code {
	if e.Timeout() {
		return CodeExpired
	}
	return CodeCanceled
}

// muxConnIDs issues process-unique connection identities for breaker
// deduplication.
var muxConnIDs atomic.Uint64

// errSkipFrame is returned by a mux read function for a frame that is
// malformed but not fatal to the connection (a garbage datagram): the
// reader counts it as a demux error and keeps going.
var errSkipFrame = errors.New("transport: unparseable mux frame")

// defaultMuxWait is the reply-wait ceiling for calls without a context
// deadline.
const defaultMuxWait = 30 * time.Second

// muxResult is one demultiplexed reply: a pooled body (ownership
// transfers to the waiting call) or the connection's fatal error.
type muxResult struct {
	body []byte
	err  error
}

// muxCore is the client half of the tagged-frame protocol over any
// stream or datagram carrier. It implements Conn. The write function is
// serialized by wmu (held only for the Write — never across the round
// trip); the read function is called only from the single reader
// goroutine, which demultiplexes replies by tag into per-call channels.
type muxCore struct {
	obs wireObs
	id  uint64

	write   func(tag uint32, req []byte) error // one request frame; wmu held
	read    func() (uint32, []byte, error)     // one reply frame; reader only
	closeFn func() error                       // underlying socket close

	wmu sync.Mutex // writer lock: guards write ordering on the socket

	mu      sync.Mutex
	pending map[uint32]chan muxResult
	nextTag uint32
	closed  bool
	broken  *ConnBrokenError // set once the reader dies; fails all later calls
	onPush  func(body []byte, err error)
}

func newMuxCore(obs wireObs,
	write func(uint32, []byte) error,
	read func() (uint32, []byte, error),
	closeFn func() error) *muxCore {
	m := &muxCore{
		obs: obs, id: muxConnIDs.Add(1),
		write: write, read: read, closeFn: closeFn,
		pending: make(map[uint32]chan muxResult),
	}
	go m.readLoop()
	return m
}

// readLoop is the connection's single reader: it demultiplexes replies
// by tag into the pending calls' channels. A reply bearing a tag no
// call is waiting on (corruption, or a call that already gave up) is
// dropped and counted in mux_demux_errors_total. A read error is fatal:
// every pending call — and every later one until the pool retires the
// connection — fails with the same *ConnBrokenError.
func (m *muxCore) readLoop() {
	for {
		tag, body, err := m.read()
		if errors.Is(err, errSkipFrame) {
			m.obs.demux()
			continue
		}
		if err != nil {
			m.fail(err)
			return
		}
		if tag == pushTag {
			m.mu.Lock()
			fn := m.onPush
			m.mu.Unlock()
			if fn == nil {
				// No handler installed (nobody subscribed on this conn):
				// drop like any unclaimed tag.
				m.obs.demux()
				bufpool.Put(body)
				continue
			}
			// The handler owns its copy; the pooled read buffer recycles
			// immediately.
			cp := append(make([]byte, 0, len(body)), body...)
			m.obs.rx(len(body))
			bufpool.Put(body)
			fn(cp, nil)
			continue
		}
		m.mu.Lock()
		ch := m.pending[tag]
		delete(m.pending, tag)
		m.mu.Unlock()
		if ch == nil {
			m.obs.demux()
			bufpool.Put(body)
			continue
		}
		ch <- muxResult{body: body} // buffered; never blocks the reader
	}
}

// fail marks the connection broken and flushes every pending call with
// the typed error. Correct teardown is the contract here: no caller may
// be left waiting on a reply that can no longer arrive.
func (m *muxCore) fail(cause error) {
	m.mu.Lock()
	if m.broken == nil {
		m.broken = &ConnBrokenError{ConnID: m.id, Cause: cause}
	}
	broken := m.broken
	for tag, ch := range m.pending {
		delete(m.pending, tag)
		ch <- muxResult{err: broken}
	}
	fn := m.onPush
	m.onPush = nil // one death notice, ever
	m.mu.Unlock()
	_ = m.closeFn()
	if fn != nil {
		fn(nil, broken)
	}
}

// SetPushHandler implements PushReceiver. A handler installed after the
// connection already died receives the death notice immediately.
func (m *muxCore) SetPushHandler(fn func(body []byte, err error)) {
	m.mu.Lock()
	if m.broken != nil {
		broken := m.broken
		m.mu.Unlock()
		if fn != nil {
			fn(nil, broken)
		}
		return
	}
	m.onPush = fn
	m.mu.Unlock()
}

// forget abandons a pending tag (the call gave up). A late reply for it
// is dropped by the reader as a demux miss.
func (m *muxCore) forget(tag uint32) {
	m.mu.Lock()
	delete(m.pending, tag)
	m.mu.Unlock()
}

// allocTagLocked issues the next stream tag. The counter wraps after
// 2^32 calls on a long-lived connection, so it skips the reserved push
// tag and any tag a slow call is still waiting on. mu must be held.
func (m *muxCore) allocTagLocked() uint32 {
	for {
		m.nextTag++
		if m.nextTag == pushTag {
			continue
		}
		if _, busy := m.pending[m.nextTag]; !busy {
			return m.nextTag
		}
	}
}

// Call implements Conn. Many calls may be in flight concurrently.
func (m *muxCore) Call(ctx context.Context, req []byte) ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.broken != nil {
		broken := m.broken
		m.mu.Unlock()
		return nil, broken
	}
	tag := m.allocTagLocked()
	ch := make(chan muxResult, 1)
	m.pending[tag] = ch
	m.mu.Unlock()

	m.wmu.Lock()
	err := m.write(tag, req)
	m.wmu.Unlock()
	if err != nil {
		m.forget(tag)
		return nil, err
	}
	m.obs.tx(len(req))

	wait := defaultMuxWait
	if dl, ok := ctx.Deadline(); ok {
		wait = time.Until(dl)
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()

	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		m.obs.rx(len(res.body))
		payload, err := decodeReply(res.body)
		if payload != nil {
			// The payload escapes to the caller; copy it out so the pooled
			// receive buffer can be recycled.
			payload = append(make([]byte, 0, len(payload)), payload...)
		}
		bufpool.Put(res.body)
		return payload, err
	case <-ctx.Done():
		m.forget(tag)
		return nil, &CallExpiredError{Cause: ctx.Err()}
	case <-timer.C:
		m.forget(tag)
		return nil, &CallExpiredError{}
	}
}

// Close implements Conn.
func (m *muxCore) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	// Closing the socket wakes the reader, whose error path flushes any
	// calls still pending.
	return m.closeFn()
}

// ---- Tagged frame codec (stream transports).
//
// A frame is a 4-byte big-endian stream tag, a 4-byte big-endian length
// and the body: [tag][len][body]. Bodies are the request payload or the
// reply body of frame.go.

// frameMuxRequest builds a complete tagged request frame in one pooled
// buffer. Release with bufpool.Put after writing.
func frameMuxRequest(tag uint32, req []byte) ([]byte, error) {
	if len(req) > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(req))
	}
	buf := bufpool.Get(8 + len(req))
	buf = binary.BigEndian.AppendUint32(buf, tag)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(req)))
	return append(buf, req...), nil
}

// encodeMuxReplyFramed builds a complete tagged reply frame — tag,
// length prefix, and reply body — in one pooled buffer, so the reply
// goes out in a single Write with a single copy.
func encodeMuxReplyFramed(tag uint32, payload []byte, handlerErr error) ([]byte, error) {
	n := 1 + len(payload)
	if handlerErr != nil {
		n = 1 + len(handlerErr.Error())
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := bufpool.Get(8 + n)
	buf = binary.BigEndian.AppendUint32(buf, tag)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	return appendReply(buf, payload, handlerErr), nil
}

// readMuxFramePooled reads one tagged, length-prefixed body into a
// pooled buffer. The caller owns the body and releases it with
// bufpool.Put once the bytes are no longer referenced.
func readMuxFramePooled(r io.Reader) (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	tag := binary.BigEndian.Uint32(hdr[:4])
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := bufpool.Get(int(n))[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		return 0, nil, err
	}
	return tag, body, nil
}

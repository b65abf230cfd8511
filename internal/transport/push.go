package transport

// Server-initiated frames ("push") on multiplexed connections.
//
// Client stream tags are never 0 (muxCore.allocTagLocked skips it), so
// tag 0 is reserved as the push tag. A server may write tag-0 frames
// onto a stream connection at any time; the client's reader goroutine
// recognizes the tag and hands the body to the connection's push
// handler instead of a pending call. A client that installed no handler
// drops tag-0 frames as demux misses.
//
// The server half is a Pusher carried in the handler context: a handler
// that wants to stream (bind's Subscribe) captures it and keeps pushing
// after the call returns, until Done() says the connection died.
// Datagram listeners carry no Pusher, so a subscribe-style handler
// reached over UDP refuses and the client falls back to polling.

import "context"

// pushTag is the reserved stream tag for server-initiated frames.
const pushTag = 0

// PushReceiver is implemented by client connections able to receive
// server-initiated frames. Obtain it by type-asserting a Conn.
type PushReceiver interface {
	// SetPushHandler installs fn as the connection's push handler. fn
	// owns body. When the connection dies, fn is called once with a nil
	// body and the fatal error, so a subscriber knows to redial and
	// resubscribe. fn runs on the connection's reader goroutine and must
	// not block.
	SetPushHandler(fn func(body []byte, err error))
}

// Pusher is the server half of the push channel: the handler-context
// capability for writing server-initiated frames to the calling peer.
// Pushers are safe for concurrent use and remain valid after the
// handler that captured them returns.
type Pusher interface {
	// Push writes one server-initiated frame. body is not retained.
	// Returns ErrClosed once the connection is gone.
	Push(body []byte) error
	// Done is closed when the connection closes — the signal to drop
	// the subscriber.
	Done() <-chan struct{}
}

type pusherCtxKey struct{}

// WithPusher returns a context carrying the connection's push
// capability. Installed by stream-serving transports on handler contexts.
func WithPusher(ctx context.Context, p Pusher) context.Context {
	return context.WithValue(ctx, pusherCtxKey{}, p)
}

// PusherFrom reports the push capability in ctx, if the carrying
// connection supports server-initiated frames.
func PusherFrom(ctx context.Context) (Pusher, bool) {
	p, ok := ctx.Value(pusherCtxKey{}).(Pusher)
	return p, ok
}

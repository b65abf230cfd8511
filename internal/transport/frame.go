package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Wire bodies shared by the real TCP and UDP transports.
//
// Request body:  the payload, verbatim.
// Reply body:    [1-byte status][payload], where status 0 = success
//                (payload is the reply) and status 1 = handler error
//                (payload is the error text).
// Over TCP each body is preceded by a 4-byte stream tag and a 4-byte
// big-endian length; over UDP each body is one datagram behind its tag
// (see mux.go for the tagged framing).

const (
	statusOK  = 0
	statusErr = 1

	// MaxFrame bounds a frame so a corrupt or hostile length prefix
	// cannot force a huge allocation. BIND resource records are ≤256
	// bytes and zone transfers are streamed record-by-record, so 1 MiB is
	// generous.
	MaxFrame = 1 << 20
)

// errFrameLimit is the handler-error text a caller receives when the
// reply to its request does not fit a frame.
var errFrameLimit = errors.New("transport: reply exceeds frame limit")

// encodeReply builds a reply body from a handler outcome. It is the
// reference the pooled appendReply is tested against.
func encodeReply(payload []byte, handlerErr error) []byte {
	if handlerErr != nil {
		msg := handlerErr.Error()
		body := make([]byte, 0, 1+len(msg))
		body = append(body, statusErr)
		return append(body, msg...)
	}
	body := make([]byte, 0, 1+len(payload))
	body = append(body, statusOK)
	return append(body, payload...)
}

// decodeReply splits a reply body into status and payload, converting a
// status-1 body into a *RemoteError.
func decodeReply(body []byte) ([]byte, error) {
	if len(body) < 1 {
		return nil, errors.New("transport: short reply frame (0 bytes)")
	}
	switch status, payload := body[0], body[1:]; status {
	case statusOK:
		return payload, nil
	case statusErr:
		return nil, &RemoteError{Msg: string(payload)}
	default:
		return nil, fmt.Errorf("transport: bad reply status %d", status)
	}
}

// appendReply appends a reply body (status + payload) to buf, producing
// bytes identical to encodeReply. It is the pooled-buffer variant: the
// caller supplies (and later recycles) the destination.
func appendReply(buf []byte, payload []byte, handlerErr error) []byte {
	if handlerErr != nil {
		buf = append(buf, statusErr)
		return append(buf, handlerErr.Error()...)
	}
	buf = append(buf, statusOK)
	return append(buf, payload...)
}

// writeFrame writes a length-prefixed body to a stream. With readFrame it
// is the reference the tagged frame codec is tested against: a tagged
// frame is the tag followed by exactly these bytes.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed body from a stream.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

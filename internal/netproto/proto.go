// Package netproto implements the length-prefixed binary framing the
// TailBench harness uses for its networked and loopback configurations.
// The protocol is intentionally minimal: a fixed header carrying a request
// identifier and the server-measured queue/service times, followed by the
// opaque application payload. Server-side timing travels back to the client
// in the response header so the client-side statistics collector can
// aggregate queue, service, and sojourn time without clock synchronization
// between machines (Sec. IV-A).
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Message types.
const (
	// TypeRequest frames a client-to-server application request.
	TypeRequest = uint8(1)
	// TypeResponse frames a server-to-client application response.
	TypeResponse = uint8(2)
	// TypeShutdown tells the server a client is done; no payload.
	TypeShutdown = uint8(3)
	// TypeError is a server-to-client frame reporting that request
	// processing failed; the payload carries the error text.
	TypeError = uint8(4)
)

// magic identifies TailBench frames and guards against protocol confusion.
// It doubles as the framing version: 0x7B02 added the Depth field to the
// header, so a peer speaking the 0x7B01 layout fails loudly on the magic
// check instead of silently misparsing the stream.
const magic = uint16(0x7B02)

// headerSize is the fixed frame header size in bytes:
// magic(2) + type(1) + id(8) + queueNs(8) + serviceNs(8) + depth(4) +
// payloadLen(4).
const headerSize = 2 + 1 + 8 + 8 + 8 + 4 + 4

// MaxPayload bounds a single frame's payload (16 MiB), protecting against
// corrupted length fields.
const MaxPayload = 16 << 20

// Message is a single framed request or response.
type Message struct {
	Type      uint8
	ID        uint64
	QueueNs   int64 // server-measured queuing time (responses only)
	ServiceNs int64 // server-measured service time (responses only)
	// Depth is the server's outstanding request count (queued plus in
	// service) sampled as the response was written (responses only). It is
	// the queue-depth signal a client-side balancer steers by: the freshest
	// view of the replica's load a client can have without a round trip of
	// its own — and therefore stale by exactly the response's flight time.
	Depth   uint32
	Payload []byte
}

// Errors returned by the codec.
var (
	ErrBadMagic        = errors.New("netproto: bad frame magic")
	ErrPayloadTooLarge = errors.New("netproto: payload exceeds maximum size")
)

// Append appends the encoding of m to dst and returns the extended slice.
// It is the one encoder: Write is Append plus one w.Write, and a connection
// that batches frames appends several before writing them all at once.
func Append(dst []byte, m *Message) ([]byte, error) {
	if len(m.Payload) > MaxPayload {
		return dst, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, len(m.Payload))
	}
	n := len(dst)
	dst = slices.Grow(dst, headerSize+len(m.Payload))[:n+headerSize]
	hdr := dst[n:]
	binary.BigEndian.PutUint16(hdr[0:2], magic)
	hdr[2] = m.Type
	binary.BigEndian.PutUint64(hdr[3:11], m.ID)
	binary.BigEndian.PutUint64(hdr[11:19], uint64(m.QueueNs))
	binary.BigEndian.PutUint64(hdr[19:27], uint64(m.ServiceNs))
	binary.BigEndian.PutUint32(hdr[27:31], m.Depth)
	binary.BigEndian.PutUint32(hdr[31:35], uint32(len(m.Payload)))
	return append(dst, m.Payload...), nil
}

// Write encodes and writes one message to w.
func Write(w io.Writer, m *Message) error {
	buf, err := Append(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Read reads one message from r. It returns io.EOF (possibly wrapped as
// io.ErrUnexpectedEOF mid-frame) when the stream ends. It is the one-shot
// reference decoder: every call allocates the message and its payload, and
// it reads no further into r than the frame. A connection that reads frame
// after frame uses a Decoder, which parses with the same code.
func Read(r io.Reader) (*Message, error) {
	var hdr [headerSize]byte
	m := new(Message)
	if _, err := decode(r, &hdr, m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// decode reads one frame from r into m: the header through hdr, the payload
// into buf when it is large enough and into a new slice otherwise. It
// returns the buffer the payload went to, so a caller that owns buf can keep
// the larger one. An empty payload decodes as nil.
func decode(r io.Reader, hdr *[headerSize]byte, m *Message, buf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != magic {
		return buf, ErrBadMagic
	}
	*m = Message{
		Type:      hdr[2],
		ID:        binary.BigEndian.Uint64(hdr[3:11]),
		QueueNs:   int64(binary.BigEndian.Uint64(hdr[11:19])),
		ServiceNs: int64(binary.BigEndian.Uint64(hdr[19:27])),
		Depth:     binary.BigEndian.Uint32(hdr[27:31]),
	}
	n := binary.BigEndian.Uint32(hdr[31:35])
	if n > MaxPayload {
		return buf, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, n)
	}
	if n == 0 {
		return buf, nil
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	m.Payload = buf[:n]
	_, err := io.ReadFull(r, m.Payload)
	return buf, err
}

// decoderBufferSize is the read-ahead of a Decoder: one read system call
// brings in every frame the peer has batched, up to this many bytes.
const decoderBufferSize = 64 << 10

// Decoder reads a stream of frames through a read-ahead buffer, so that a
// burst of frames costs one read system call and not two per frame, and
// decodes each into storage it reuses. It parses with the same code as Read.
type Decoder struct {
	r       *bufio.Reader
	hdr     [headerSize]byte
	msg     Message
	payload []byte
}

// NewDecoder returns a Decoder reading frames from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, decoderBufferSize)}
}

// Next decodes the next frame. The message and its Payload belong to the
// Decoder and are valid only until the next call to Next: a caller that
// keeps the payload past that copies it. Errors are those of Read.
func (d *Decoder) Next() (*Message, error) {
	var err error
	d.payload, err = decode(d.r, &d.hdr, &d.msg, d.payload)
	if err != nil {
		return nil, err
	}
	return &d.msg, nil
}

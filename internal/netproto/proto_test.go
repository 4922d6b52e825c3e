package netproto

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypeRequest, ID: 42, Payload: []byte("hello tailbench")}
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestResponseTimingFields(t *testing.T) {
	var buf bytes.Buffer
	in := &Message{Type: TypeResponse, ID: 7, QueueNs: 1234, ServiceNs: 567890, Depth: 13, Payload: []byte{1}}
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.QueueNs != 1234 || out.ServiceNs != 567890 || out.Depth != 13 {
		t.Fatalf("timing fields lost: %+v", out)
	}
}

func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: TypeShutdown, ID: 1}); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.Type != TypeShutdown {
		t.Fatalf("shutdown frame mangled: %+v", out)
	}
}

func TestBadMagic(t *testing.T) {
	raw := make([]byte, headerSize)
	raw[0] = 0xFF
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("expected ErrBadMagic, got %v", err)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	if err := Write(io.Discard, &Message{Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("expected ErrPayloadTooLarge on write, got %v", err)
	}
	// A frame advertising an oversized payload must be rejected on read.
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: TypeRequest, ID: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[31], raw[32], raw[33], raw[34] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("expected ErrPayloadTooLarge on read, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: TypeRequest, ID: 9, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated frame of %d bytes decoded successfully", cut)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream should return io.EOF, got %v", err)
	}
}

func TestMultipleFramesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		if err := Write(&buf, &Message{Type: TypeRequest, ID: i, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		m, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.ID != i || m.Payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: %+v", i, m)
		}
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(typ uint8, id uint64, q, s int64, depth uint32, payload []byte) bool {
		var buf bytes.Buffer
		in := &Message{Type: typ, ID: id, QueueNs: q, ServiceNs: s, Depth: depth, Payload: payload}
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		return out.Type == typ && out.ID == id && out.QueueNs == q && out.ServiceNs == s &&
			out.Depth == depth && bytes.Equal(out.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		m, err := Read(conn)
		if err != nil {
			done <- err
			return
		}
		m.Type = TypeResponse
		m.ServiceNs = 999
		done <- Write(conn, m)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Write(conn, &Message{Type: TypeRequest, ID: 77, Payload: []byte("over tcp")}); err != nil {
		t.Fatal(err)
	}
	resp, err := Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 77 || resp.Type != TypeResponse || resp.ServiceNs != 999 {
		t.Fatalf("unexpected response %+v", resp)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// FuzzRead checks the frame decoder on arbitrary bytes: no panic, and a
// decoded message re-encodes to exactly the bytes Read consumed. Run with
//
//	go test ./internal/netproto -run '^$' -fuzz FuzzRead -fuzztime 30s
func FuzzRead(f *testing.F) {
	for _, m := range []*Message{
		{Type: TypeRequest, ID: 42, Payload: []byte("hello tailbench")},
		{Type: TypeResponse, ID: 7, QueueNs: 1234, ServiceNs: 567890, Depth: 13, Payload: []byte{1}},
		{Type: TypeShutdown, ID: 1},
		{Type: TypeError, ID: 9, Payload: []byte("payload")},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(make([]byte, headerSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		m, err := Read(r)
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write of a decoded message: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Errorf("re-encoded %x, consumed %x", buf.Bytes(), consumed)
		}
	})
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// fuzzKey is an arbitrary fixed session key; the fuzzers exercise the
// framing layer below the handshake, so sessions are constructed directly.
var fuzzKey = []byte("fuzz-session-key-0123456789abcdef")

// readOnly adapts a reader to the Session's io.ReadWriter; the receive
// path never writes.
type readOnly struct{ *bytes.Reader }

func (readOnly) Write(p []byte) (int, error) { return len(p), nil }

// FuzzSession flips one bit of one encoded frame and requires the receiver
// to reject it with an error — never a panic, and never silent acceptance
// of tampered bytes. An untouched frame must still round-trip, anchoring
// the oracle.
func FuzzSession(f *testing.F) {
	f.Add([]byte("2010-02-19T12:10:00Z OK d41d8cd9\n"), byte(1), uint16(0), byte(0))
	f.Add([]byte{}, byte(0), uint16(4), byte(7))
	f.Add(bytes.Repeat([]byte{0xA5}, 300), byte(9), uint16(5), byte(3))
	f.Add([]byte("x"), byte(255), uint16(37), byte(6)) // inside the MAC

	f.Fuzz(func(t *testing.T, payload []byte, frameType byte, pos uint16, bit byte) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		sender := newSession(&buf, fuzzKey, "")
		if err := sender.Send(frameType, payload); err != nil {
			t.Fatalf("Send: %v", err)
		}
		clean := append([]byte(nil), buf.Bytes()...)

		// Sanity: the untouched frame is accepted.
		recv := newSession(readOnly{bytes.NewReader(clean)}, fuzzKey, "")
		ft, pl, err := recv.Recv()
		if err != nil || ft != frameType || !bytes.Equal(pl, payload) {
			t.Fatalf("clean frame rejected: type %d payload %d bytes, err %v", ft, len(pl), err)
		}

		// Flip one bit anywhere in the frame: length, type, payload, or MAC.
		mutated := append([]byte(nil), clean...)
		mutated[int(pos)%len(mutated)] ^= 1 << (bit % 8)
		recv = newSession(readOnly{bytes.NewReader(mutated)}, fuzzKey, "")
		if ft, pl, err := recv.Recv(); err == nil {
			t.Fatalf("tampered frame accepted: type %d, payload %q", ft, pl)
		} else if !errors.Is(err, ErrTampered) && !errors.Is(err, ErrTooLarge) &&
			!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("tampered frame error %v, want a typed wire/io error", err)
		}
	})
}

// FuzzRecvArbitrary feeds raw attacker-controlled bytes to Recv. It must
// never panic; acceptance is only legitimate if re-encoding the decoded
// frame reproduces exactly the bytes consumed (i.e. the input really was a
// validly MACed frame, which unkeyed fuzzing cannot forge).
func FuzzRecvArbitrary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// An oversized header must be refused before allocation.
	var huge [5]byte
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, raw []byte) {
		r := bytes.NewReader(raw)
		recv := newSession(readOnly{r}, fuzzKey, "")
		ft, pl, err := recv.Recv()
		if err != nil {
			return
		}
		consumed := raw[:len(raw)-r.Len()]
		var buf bytes.Buffer
		sender := newSession(&buf, fuzzKey, "")
		if err := sender.Send(ft, pl); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("accepted %d bytes that do not re-encode to a valid frame", len(consumed))
		}
	})
}

func TestRecvOversizedHeaderRejected(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	recv := newSession(readOnly{bytes.NewReader(hdr[:])}, fuzzKey, "")
	if _, _, err := recv.Recv(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized header error = %v, want ErrTooLarge", err)
	}
}

func TestRecvTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	sender := newSession(&buf, fuzzKey, "")
	if err := sender.Send(1, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		recv := newSession(readOnly{bytes.NewReader(whole[:cut])}, fuzzKey, "")
		if _, _, err := recv.Recv(); err == nil {
			t.Fatalf("frame truncated at %d/%d accepted", cut, len(whole))
		}
	}
}

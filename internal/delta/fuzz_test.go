package delta

import (
	"bytes"
	"crypto/md5"
	"testing"
)

// FuzzUnmarshalDelta hardens the wire decoder and Apply behind it:
// arbitrary bytes must never panic, any delta that does decode must
// round-trip through Marshal, and applying it to a fixed old file must
// end in a reconstruction of NewLen bytes or an error.
func FuzzUnmarshalDelta(f *testing.F) {
	old := randBytes(8 << 10)
	new := append(append([]byte(nil), old...), []byte("tail data")...)
	sig, err := NewSignature(old, 1024)
	if err != nil {
		f.Fatal(err)
	}
	d, err := Compute(sig, new, md5.Sum(new))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(d.Marshal())
	hostile := *d
	hostile.NewLen = 1 << 50
	f.Add(hostile.Marshal())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Add(bytes.Repeat([]byte{0xff}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := UnmarshalDelta(data)
		if err != nil {
			return
		}
		re, err := UnmarshalDelta(parsed.Marshal())
		if err != nil {
			t.Fatalf("re-unmarshal of valid delta failed: %v", err)
		}
		if re.NewLen != parsed.NewLen || len(re.Ops) != len(parsed.Ops) {
			t.Fatal("marshal round trip changed the delta")
		}
		got, err := Apply(nil, old, parsed, runningOf(old))
		if err == nil && len(got) != parsed.NewLen {
			t.Fatalf("applied %d bytes, delta claims %d", len(got), parsed.NewLen)
		}
	})
}

// FuzzUnmarshalSignature does the same for signatures.
func FuzzUnmarshalSignature(f *testing.F) {
	sig, err := NewSignature(randBytes(4096), 512)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sig.Marshal())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := UnmarshalSignature(data)
		if err != nil {
			return
		}
		if _, err := UnmarshalSignature(parsed.Marshal()); err != nil {
			t.Fatalf("re-unmarshal of valid signature failed: %v", err)
		}
	})
}

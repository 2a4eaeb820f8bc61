package delta

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"math/rand"
	"testing"
)

func TestSignatureMarshalRoundTrip(t *testing.T) {
	data := randBytes(10*1024 + 300)
	sig, err := NewSignature(data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.BlockSize != sig.BlockSize || back.FileLen != sig.FileLen || len(back.Blocks) != len(sig.Blocks) {
		t.Fatalf("header mismatch: %+v vs %+v", back, sig)
	}
	for i := range sig.Blocks {
		if back.Blocks[i] != sig.Blocks[i] {
			t.Fatalf("block %d differs", i)
		}
	}
	// The round-tripped signature must drive a working delta.
	new := append(append([]byte(nil), data...), []byte("tail")...)
	d, err := Compute(back, new, md5.Sum(new))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(nil, data, d, runningOf(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Error("reconstruction via marshalled signature differs")
	}
}

func TestSignatureMarshalEmpty(t *testing.T) {
	sig, err := NewSignature(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blocks) != 0 || back.FileLen != 0 {
		t.Errorf("empty signature round trip: %+v", back)
	}
}

func TestUnmarshalSignatureRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0xee}, 48), // implausible sizes
	}
	for _, c := range cases {
		if _, err := UnmarshalSignature(c); err == nil {
			t.Errorf("garbage of %d bytes accepted", len(c))
		}
	}
	// Trailing bytes.
	sig, _ := NewSignature(randBytes(2048), 1024)
	if _, err := UnmarshalSignature(append(sig.Marshal(), 0x00)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// TestSignatureMarshalGolden pins the wire bytes of Signature.Marshal, so
// a change to how signatures are built or serialised cannot move a byte
// of an append request.
func TestSignatureMarshalGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		bs   int
		want string // md5 of Marshal's output
	}{
		{"empty", nil, 2048, "5a73458d8ef227cb1dfdafe4d3db5cf1"},
		{"short-tail", bytesOf(1006), 2048, "974ab388d8f1827d09c530403ee6b196"},
		{"one-byte", bytesOf(1), 512, "7b9ca9fe09c22e0e47c20bb6586552ed"},
		{"whole-blocks", bytesOf(4 << 10), 1024, "0fb28e31a92347b7e5679ce00e4fd00e"},
		{"multi-block", bytesOf(10<<10 + 300), 2048, "d86bd25fc2ed7d791b411d31db315c87"},
	}
	for _, c := range cases {
		sig, err := NewSignature(c.data, c.bs)
		if err != nil {
			t.Fatal(err)
		}
		sum := md5.Sum(sig.Marshal())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: Marshal md5 %s, want %s", c.name, got, c.want)
		}
	}
}

package delta

import (
	"bytes"
	"crypto/md5"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeakSumRolling(t *testing.T) {
	// Rolling the window one byte must equal recomputing from scratch.
	data := []byte("the quick brown fox jumps over the lazy dog, repeatedly and at length")
	n := 16
	sum := WeakSum(data[:n])
	for i := 1; i+n <= len(data); i++ {
		sum = roll(sum, data[i-1], data[i+n-1], n)
		if want := WeakSum(data[i : i+n]); sum != want {
			t.Fatalf("rolled sum at %d = %08x, want %08x", i, sum, want)
		}
	}
}

func TestWeakSumRollingProperty(t *testing.T) {
	f := func(data []byte, winSeed uint8) bool {
		n := int(winSeed)%30 + 2
		if len(data) < n+2 {
			return true
		}
		sum := WeakSum(data[:n])
		for i := 1; i+n <= len(data); i++ {
			sum = roll(sum, data[i-1], data[i+n-1], n)
			if sum != WeakSum(data[i:i+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignatureBlocks(t *testing.T) {
	data := make([]byte, 10*100+37) // 10 full blocks + short tail
	sig, err := NewSignature(data, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Blocks) != 11 {
		t.Errorf("blocks %d, want 11", len(sig.Blocks))
	}
	if sig.FileLen != len(data) {
		t.Errorf("file len %d", sig.FileLen)
	}
	if _, err := NewSignature(data, 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestIdenticalFilesTransferNoLiterals(t *testing.T) {
	data := randBytes(64 << 10)
	got, literals, err := Sync(data, data, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction differs")
	}
	if literals != 0 {
		t.Errorf("identical files moved %d literal bytes, want 0", literals)
	}
}

func TestAppendOnlyTransfersTail(t *testing.T) {
	// The monitoring use case: sensor logs only grow. Only the appended
	// tail (plus at most a block of slack) should travel.
	old := randBytes(64 << 10)
	tail := randBytes(3 << 10)
	new := append(append([]byte(nil), old...), tail...)
	got, literals, err := Sync(old, new, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Fatal("reconstruction differs")
	}
	if literals > len(tail)+DefaultBlockSize {
		t.Errorf("append moved %d literal bytes, want ≈ %d", literals, len(tail))
	}
}

func TestMiddleEditTransfersLocally(t *testing.T) {
	old := randBytes(128 << 10)
	new := append([]byte(nil), old...)
	copy(new[60<<10:], []byte("EDITED REGION"))
	got, literals, err := Sync(old, new, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Fatal("reconstruction differs")
	}
	if literals > 3*DefaultBlockSize {
		t.Errorf("13-byte edit moved %d literal bytes", literals)
	}
}

func TestEmptyOldFallsBackToLiterals(t *testing.T) {
	new := randBytes(10 << 10)
	got, literals, err := Sync(nil, new, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Fatal("reconstruction differs")
	}
	if literals != len(new) {
		t.Errorf("empty old: literals %d, want full %d", literals, len(new))
	}
}

func TestEmptyNew(t *testing.T) {
	got, literals, err := Sync(randBytes(4096), nil, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || literals != 0 {
		t.Errorf("empty new: got %d bytes, %d literals", len(got), literals)
	}
}

func TestSyncRandomEditsProperty(t *testing.T) {
	f := func(seed int64, nEdits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		old := make([]byte, 8<<10)
		rng.Read(old)
		new := append([]byte(nil), old...)
		for e := 0; e < int(nEdits)%8; e++ {
			pos := rng.Intn(len(new))
			new[pos] ^= byte(1 + rng.Intn(255))
		}
		got, _, err := Sync(old, new, 512)
		return err == nil && bytes.Equal(got, new)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestShuffledBlocksCopied(t *testing.T) {
	// Reordered content must still be found via the block map.
	blockA := bytes.Repeat([]byte("A"), DefaultBlockSize)
	blockB := bytes.Repeat([]byte("B"), DefaultBlockSize)
	blockC := bytes.Repeat([]byte("C"), DefaultBlockSize)
	old := bytes.Join([][]byte{blockA, blockB, blockC}, nil)
	new := bytes.Join([][]byte{blockC, blockA, blockB}, nil)
	got, literals, err := Sync(old, new, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Fatal("reconstruction differs")
	}
	if literals != 0 {
		t.Errorf("shuffle moved %d literal bytes, want 0", literals)
	}
}

func TestCopyRunCoalescing(t *testing.T) {
	old := randBytes(16 * DefaultBlockSize)
	sig, err := NewSignature(old, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(sig, old, md5.Sum(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ops) != 1 || d.Ops[0].Kind != OpCopy || d.Ops[0].NumBlocks != 16 {
		t.Errorf("identical file delta not coalesced to one copy run: %+v", d.Ops)
	}
}

func TestApplyRejectsCorruptDelta(t *testing.T) {
	old := randBytes(8 << 10)
	sig, _ := NewSignature(old, 1024)
	d, err := Compute(sig, old, md5.Sum(old))
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range copy.
	bad := *d
	bad.Ops = []Op{{Kind: OpCopy, Block: 100, NumBlocks: 1}}
	if _, err := Apply(nil, old, &bad, runningOf(old)); err == nil {
		t.Error("out-of-range copy accepted")
	}
	// Wrong digest.
	bad = *d
	bad.NewMD5[0] ^= 0xff
	if _, err := Apply(nil, old, &bad, runningOf(old)); err == nil {
		t.Error("digest mismatch accepted")
	}
	// Wrong length.
	bad = *d
	bad.NewLen++
	if _, err := Apply(nil, old, &bad, runningOf(old)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Apply(nil, old, nil, runningOf(old)); err == nil {
		t.Error("nil delta accepted")
	}
}

// TestApplyRejectsHostileLengths: a decoded delta whose NewLen or copy
// runs are far past what the ops can reconstruct from old is an error,
// neither a panic nor an allocation of the claimed size.
func TestApplyRejectsHostileLengths(t *testing.T) {
	old := randBytes(8 << 10)
	sig, _ := NewSignature(old, 1024)
	d, err := Compute(sig, old, md5.Sum(old))
	if err != nil {
		t.Fatal(err)
	}
	huge := 1 << 50
	for name, mutate := range map[string]func(*Delta){
		"NewLen 2^50":          func(d *Delta) { d.NewLen = huge },
		"NewLen 2^50, literal": func(d *Delta) { d.NewLen = huge; d.Ops = []Op{{Kind: OpLiteral, Data: []byte("x")}} },
		"block past old":       func(d *Delta) { d.Ops = []Op{{Kind: OpCopy, Block: huge, NumBlocks: 1}} },
		"count past old":       func(d *Delta) { d.Ops = []Op{{Kind: OpCopy, Block: 1, NumBlocks: huge}} },
		"product overflows":    func(d *Delta) { d.Ops = []Op{{Kind: OpCopy, Block: 1 << 62, NumBlocks: 1 << 62}} },
		"negative block":       func(d *Delta) { d.Ops = []Op{{Kind: OpCopy, Block: -1, NumBlocks: 1}} },
		"block size 2^62":      func(d *Delta) { d.BlockSize = 1 << 62 },
		"zero block size":      func(d *Delta) { d.BlockSize = 0 },
	} {
		bad := *d
		mutate(&bad)
		// Through the wire: lengths and block numbers arrive as uint64s.
		wire, err := UnmarshalDelta(bad.Marshal())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Apply(nil, old, wire, runningOf(old)); err == nil {
			t.Errorf("%s: applied", name)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	old := randBytes(32 << 10)
	new := append([]byte(nil), old...)
	copy(new[10<<10:], []byte("CHANGED"))
	new = append(new, randBytes(500)...)
	sig, err := NewSignature(old, 1024)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(sig, new, md5.Sum(new))
	if err != nil {
		t.Fatal(err)
	}
	wire := d.Marshal()
	back, err := UnmarshalDelta(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply(nil, old, back, runningOf(old))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Error("marshalled delta reconstruction differs")
	}
}

// TestApplyAppendsToDst: Apply appends the reconstruction after dst's
// bytes, and a destination with room for it is filled without an
// allocation.
func TestApplyAppendsToDst(t *testing.T) {
	old := randBytes(8 << 10)
	new := append(append([]byte(nil), old...), "appended tail"...)
	sig, _ := NewSignature(old, 1024)
	d, err := Compute(sig, new, md5.Sum(new))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Apply([]byte("head:"), old, d, runningOf(old))
	if err != nil || string(got[:5]) != "head:" || !bytes.Equal(got[5:], new) {
		t.Fatalf("Apply after a 5-byte head: %d bytes, err %v", len(got), err)
	}
	buf := make([]byte, 0, len(new))
	var sum Running
	allocs := testing.AllocsPerRun(20, func() {
		sum.Reset()
		sum.Write(old)
		if buf, err = Apply(buf[:0], old, d, &sum); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || !bytes.Equal(buf, new) {
		t.Errorf("Apply into a reused buffer: %v allocs, equal %v", allocs, bytes.Equal(buf, new))
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0xff}, 64), // implausible op count
	}
	for _, c := range cases {
		if _, err := UnmarshalDelta(c); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
	// Trailing bytes after a valid delta.
	old := randBytes(2048)
	sig, _ := NewSignature(old, 1024)
	d, _ := Compute(sig, old, md5.Sum(old))
	wire := append(d.Marshal(), 0xAA)
	if _, err := UnmarshalDelta(wire); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// runningOf returns a running summary of p, as Apply takes of its old file.
func runningOf(p []byte) *Running {
	var r Running
	r.Write(p)
	return &r
}

func randBytes(n int) []byte {
	rng := rand.New(rand.NewSource(42))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func BenchmarkSignature(b *testing.B) {
	data := randBytes(1 << 20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSignature(data, DefaultBlockSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeAppend(b *testing.B) {
	old := randBytes(1 << 20)
	new := append(append([]byte(nil), old...), randBytes(16<<10)...)
	sig, err := NewSignature(old, DefaultBlockSize)
	if err != nil {
		b.Fatal(err)
	}
	sum := md5.Sum(new)
	b.SetBytes(int64(len(new)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compute(sig, new, sum); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRollingWindow(b *testing.B) {
	data := randBytes(1 << 16)
	n := DefaultBlockSize
	sum := WeakSum(data[:n])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (len(data) - n - 1)
		sum = roll(sum, data[j], data[j+n], n)
	}
	_ = sum
}

package workload

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/quick"
	"time"

	"frostlab/internal/simkernel"
)

var t0 = time.Date(2010, time.February, 19, 12, 0, 0, 0, time.UTC)

// decompressFBZ expands an FBZ stream, verifying every block checksum.
func decompressFBZ(w io.Writer, r io.Reader) error {
	blocks, err := ScanFBZ(r)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		if !b.OK {
			return fmt.Errorf("workload: block %d corrupt: %s", b.Index, b.Err)
		}
		if _, err := w.Write(b.Data); err != nil {
			return err
		}
	}
	return nil
}

func smallTree(t testing.TB) *SourceTree {
	t.Helper()
	tree, err := GenerateTree("kernel-2.6", 40, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestGenerateTreeDeterministic(t *testing.T) {
	a, err := GenerateTree("seed", 20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTree("seed", 20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumFiles() != b.NumFiles() || a.TotalBytes() != b.TotalBytes() {
		t.Fatal("same seed produced different trees")
	}
	for i := range a.Files() {
		fa, fb := a.Files()[i], b.Files()[i]
		if fa.Path != fb.Path || !bytes.Equal(fa.Data, fb.Data) {
			t.Fatalf("file %d differs between identical seeds", i)
		}
	}
	c, err := GenerateTree("other", 20, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if ares, cres := mustPack(t, a), mustPack(t, c); ares.MD5 == cres.MD5 {
		t.Error("different seeds produced identical archives")
	}
}

func TestGenerateTreeValidation(t *testing.T) {
	if _, err := GenerateTree("s", 0, 1000); err == nil {
		t.Error("zero files accepted")
	}
	if _, err := GenerateTree("s", 10, 0); err == nil {
		t.Error("zero bytes accepted")
	}
	if _, err := GenerateTree("s", 100, 10); err == nil {
		t.Error("more files than bytes accepted")
	}
}

func TestGenerateTreeShape(t *testing.T) {
	tree := smallTree(t)
	if tree.NumFiles() != 40 {
		t.Errorf("files %d, want 40", tree.NumFiles())
	}
	total := tree.TotalBytes()
	if total < 128<<10 || total > 512<<10 {
		t.Errorf("total bytes %d not near requested 256KiB", total)
	}
	// Paths must be sorted and kernel-ish.
	files := tree.Files()
	for i := 1; i < len(files); i++ {
		if files[i-1].Path >= files[i].Path {
			t.Fatal("files not sorted by path")
		}
	}
}

func mustPack(t testing.TB, tree *SourceTree) ArchiveResult {
	t.Helper()
	_, res, err := Pack(tree, DefaultBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPackDeterministic(t *testing.T) {
	tree := smallTree(t)
	a, b := mustPack(t, tree), mustPack(t, tree)
	if a.MD5 != b.MD5 {
		t.Error("same tree packed to different digests")
	}
	if a.Blocks != b.Blocks || a.CompressedBytes != b.CompressedBytes {
		t.Error("pack not bit-reproducible")
	}
}

func TestPackCompresses(t *testing.T) {
	tree := smallTree(t)
	res := mustPack(t, tree)
	if res.CompressedBytes >= res.TarBytes {
		t.Errorf("no compression: %d -> %d", res.TarBytes, res.CompressedBytes)
	}
	// Source-code-like text should compress at least 2.5x.
	if ratio := float64(res.TarBytes) / float64(res.CompressedBytes); ratio < 2.5 {
		t.Errorf("compression ratio %.2f, want source-like >= 2.5", ratio)
	}
}

func TestBlockCountMatchesBlockSize(t *testing.T) {
	tree := smallTree(t)
	var tarBuf bytes.Buffer
	if err := WriteTar(&tarBuf, tree); err != nil {
		t.Fatal(err)
	}
	tarLen := tarBuf.Len()
	blockSize := 32 << 10
	var out bytes.Buffer
	blocks, err := CompressFBZ(&out, &tarBuf, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := (tarLen + blockSize - 1) / blockSize
	if blocks != want {
		t.Errorf("blocks %d, want ceil(%d/%d) = %d", blocks, tarLen, blockSize, want)
	}
}

func TestCompressFBZValidation(t *testing.T) {
	var out bytes.Buffer
	if _, err := CompressFBZ(&out, bytes.NewReader([]byte("x")), 0); err == nil {
		t.Error("zero block size accepted")
	}
	// Headers store lengths as uint32; a larger block size must fail
	// before anything is allocated or written.
	big := uint64(math.MaxUint32)
	big++ // wraps to 0 where int is 32 bits, which is rejected too
	if _, err := CompressFBZ(&out, bytes.NewReader([]byte("x")), int(big)); err == nil {
		t.Error("block size beyond uint32 accepted")
	}
	if out.Len() != 0 {
		t.Error("rejected block size still wrote output")
	}
}

func TestFBZRoundTrip(t *testing.T) {
	tree := smallTree(t)
	var tarBuf bytes.Buffer
	if err := WriteTar(&tarBuf, tree); err != nil {
		t.Fatal(err)
	}
	original := append([]byte(nil), tarBuf.Bytes()...)
	var comp bytes.Buffer
	if _, err := CompressFBZ(&comp, &tarBuf, 16<<10); err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := decompressFBZ(&back, bytes.NewReader(comp.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), original) {
		t.Error("FBZ round trip lost data")
	}
}

func TestFBZRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		var comp bytes.Buffer
		if _, err := CompressFBZ(&comp, bytes.NewReader(data), 1024); err != nil {
			return false
		}
		var back bytes.Buffer
		if err := decompressFBZ(&back, bytes.NewReader(comp.Bytes())); err != nil {
			return false
		}
		return bytes.Equal(back.Bytes(), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScanRejectsNonFBZ(t *testing.T) {
	if _, err := ScanFBZ(bytes.NewReader([]byte("definitely not an archive"))); err == nil {
		t.Error("non-FBZ accepted")
	}
	if _, err := ScanFBZ(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestCorruptionDetectedInExactlyOneBlock(t *testing.T) {
	// The §4.2.2 forensics: one flipped bit -> hash mismatch -> recovery
	// scan finds exactly one bad block out of many.
	tree := smallTree(t)
	archive, res, err := Pack(tree, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks < 10 {
		t.Fatalf("want a multi-block archive, got %d blocks", res.Blocks)
	}
	clean := md5.Sum(archive)
	target := res.Blocks / 2
	calls := 0
	if err := CorruptBit(archive, target, func(n int) int { calls++; return n / 3 }); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("pick called %d times, want 2 (byte + bit)", calls)
	}
	if md5.Sum(archive) == clean {
		t.Fatal("bit flip did not change the digest")
	}
	blocks, err := ScanFBZ(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	var bad []int
	for _, b := range blocks {
		if !b.OK {
			bad = append(bad, b.Index)
		}
	}
	if len(bad) != 1 || bad[0] != target {
		t.Errorf("bad blocks %v, want exactly [%d]", bad, target)
	}
	if len(blocks) != res.Blocks {
		t.Errorf("scan saw %d blocks, want %d", len(blocks), res.Blocks)
	}
}

func TestCorruptBitValidation(t *testing.T) {
	tree := smallTree(t)
	archive, res, err := Pack(tree, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := CorruptBit(archive, res.Blocks+5, func(n int) int { return 0 }); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := CorruptBit([]byte("nope"), 0, func(n int) int { return 0 }); err == nil {
		t.Error("non-FBZ accepted")
	}
}

func newRunner(t testing.TB) *Runner {
	t.Helper()
	rng := simkernel.NewRNG("runner")
	r, err := NewRunner("01", "kernel-2.6", 40, 256<<10, 16<<10, rng)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerCleanCycle(t *testing.T) {
	r := newRunner(t)
	res, err := r.RunCycle(t0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Error("clean cycle mismatched the reference hash")
	}
	if res.MD5 != r.Reference() {
		t.Error("clean digest differs from reference")
	}
	if len(res.BadBlocks) != 0 {
		t.Errorf("clean cycle reported bad blocks %v", res.BadBlocks)
	}
	if len(r.storedArchives) != 0 {
		t.Error("clean cycle stored its tarball; §3.5 overwrites it")
	}
}

func TestRunnerCorruptCycle(t *testing.T) {
	r := newRunner(t)
	res, err := r.RunCycle(t0, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("corrupt cycle passed verification")
	}
	if len(res.BadBlocks) != 1 {
		t.Errorf("bad blocks %v, want exactly one (§4.2.2)", res.BadBlocks)
	}
	if len(r.storedArchives) != 1 {
		t.Error("failing tarball not stored")
	}
	if got := len(r.Results()); got != 1 {
		t.Errorf("results %d", got)
	}
}

func TestRunnerPageAccounting(t *testing.T) {
	r := newRunner(t)
	if r.pages <= 0 {
		t.Fatal("no page traffic accounted")
	}
	// Pages must cover at least the tar stream twice and archive twice.
	_, res, err := Pack(smallTree(t), 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := PagesTouched(res)
	if r.pages != want {
		t.Errorf("pages %d, want %d", r.pages, want)
	}
	if want < res.TarBytes/PageSize {
		t.Error("accounting below single-pass traffic")
	}
}

func TestStartFuzzRange(t *testing.T) {
	rng := simkernel.NewRNG("fuzz")
	f := StartFuzz(rng, "01")
	seen := map[time.Duration]bool{}
	for i := 0; i < 2000; i++ {
		d := f()
		if d < 0 || d > MaxStartFuzz {
			t.Fatalf("fuzz %v outside [0, 119s]", d)
		}
		seen[d] = true
	}
	if len(seen) < 60 {
		t.Errorf("only %d distinct fuzz values; want spread over 0..119s", len(seen))
	}
}

func TestRunnerValidation(t *testing.T) {
	rng := simkernel.NewRNG("bad")
	if _, err := NewRunner("01", "s", 0, 1000, 1024, rng); err == nil {
		t.Error("invalid tree accepted")
	}
}

func BenchmarkPack(b *testing.B) {
	tree := smallTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Pack(tree, DefaultBlockSize); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanFBZ(b *testing.B) {
	tree := smallTree(b)
	archive, _, err := Pack(tree, 16<<10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanFBZ(bytes.NewReader(archive)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCycle(b *testing.B) {
	rng := simkernel.NewRNG("bench")
	r, err := NewRunner("01", "kernel-2.6", 40, 256<<10, 16<<10, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunCycle(t0.Add(time.Duration(i)*CyclePeriod), false); err != nil {
			b.Fatal(err)
		}
	}
}

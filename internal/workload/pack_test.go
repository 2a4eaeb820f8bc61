package workload

import (
	"bytes"
	"compress/flate"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"
)

// referenceFBZ is the straight-line FBZ encoder the pooled CompressFBZ is
// pinned against: a fresh flate.Writer for every block.
func referenceFBZ(t testing.TB, data []byte, blockSize int) []byte {
	t.Helper()
	out := append([]byte(nil), fbzFileMagic...)
	for off := 0; off < len(data); off += blockSize {
		chunk := data[off:min(off+blockSize, len(data))]
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, fbzBlockMagic...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(chunk)))
		out = binary.BigEndian.AppendUint32(out, uint32(comp.Len()))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(chunk))
		out = append(out, comp.Bytes()...)
	}
	return out
}

type fbzCase struct {
	name      string
	data      []byte
	blockSize int
	want      []byte // referenceFBZ of data
}

// fbzCases are the inputs pooled compression is compared on: a partial
// last block, 1-byte blocks, an empty input and a block larger than the
// input.
func fbzCases(t testing.TB) []fbzCase {
	t.Helper()
	tree, err := GenerateTree("pool", 6, 20<<10)
	if err != nil {
		t.Fatal(err)
	}
	var tarBuf bytes.Buffer
	if err := WriteTar(&tarBuf, tree); err != nil {
		t.Fatal(err)
	}
	src := tarBuf.Bytes()
	cases := []fbzCase{
		{name: "partial-last-block", data: src, blockSize: 3000},
		{name: "one-byte-blocks", data: src[:700], blockSize: 1},
		{name: "empty", data: nil, blockSize: 4 << 10},
		{name: "block-exceeds-input", data: src, blockSize: len(src) * 2},
	}
	for i := range cases {
		cases[i].want = referenceFBZ(t, cases[i].data, cases[i].blockSize)
	}
	return cases
}

// checkPooledMatchesReference reports, without stopping the test, any
// case where CompressFBZ differs from the fresh-writer reference.
func checkPooledMatchesReference(t *testing.T, cases []fbzCase) {
	for _, c := range cases {
		var got bytes.Buffer
		if _, err := CompressFBZ(&got, bytes.NewReader(c.data), c.blockSize); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if !bytes.Equal(got.Bytes(), c.want) {
			t.Errorf("%s: pooled archive differs from the fresh-writer reference (%d vs %d bytes)", c.name, got.Len(), len(c.want))
		}
	}
}

func TestCompressFBZMatchesReference(t *testing.T) {
	checkPooledMatchesReference(t, fbzCases(t))
}

// TestCompressFBZConcurrent shares the writer pool between goroutines, so
// the race detector sees it used the way concurrent campaign replicates
// use it.
func TestCompressFBZConcurrent(t *testing.T) {
	cases := fbzCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			checkPooledMatchesReference(t, cases)
		}()
	}
	wg.Wait()
}

// TestPackGolden pins the generated tree and its archive to digests
// captured before the generator and compressor reused their buffers.
func TestPackGolden(t *testing.T) {
	tree, err := GenerateTree("pin", 30, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	h := md5.New()
	for _, f := range tree.Files() {
		h.Write([]byte(f.Path))
		h.Write([]byte{0})
		h.Write(f.Data)
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "4a510e3bade026c5bbeaabe591c94621"; got != want {
		t.Errorf("tree digest %s, want %s", got, want)
	}
	_, res, err := Pack(tree, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.MD5.String(), "ba3c8d67d95101bbd9a0a1f05be758c1"; got != want {
		t.Errorf("archive digest %s, want %s", got, want)
	}
}

// avgAllocBytes reports the mean heap bytes allocated per call of f over
// n calls, after one warm-up call.
func avgAllocBytes(n int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestCompressFBZWriterSurvivesGC checks that a GC does not cost the
// next CompressFBZ its compressor: with the writers in a sync.Pool, two
// collections emptied it and the call rebuilt an 0.8 MB flate.Writer.
func TestCompressFBZWriterSurvivesGC(t *testing.T) {
	data := bytes.Repeat([]byte("frostlab "), 1000)
	compress := func() {
		if _, err := CompressFBZ(io.Discard, bytes.NewReader(data), 4<<10); err != nil {
			t.Fatal(err)
		}
	}
	compress()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	compress()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 100<<10 {
		t.Errorf("CompressFBZ after two GCs allocates %d bytes, want <= 100 KB", got)
	}
}

// TestPackAllocations bounds the garbage of the install-time pack and the
// forensic scan. Before the compressor was pooled, Pack allocated 14.9 MB
// and ScanFBZ 1.33 MB per call on this tree; the bounds leave room for a
// pool miss after a GC.
func TestPackAllocations(t *testing.T) {
	tree, err := GenerateTree("pin", 30, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	var archive []byte
	pack := avgAllocBytes(20, func() {
		if archive, _, err = Pack(tree, 8<<10); err != nil {
			t.Fatal(err)
		}
	})
	if pack > 3<<20 {
		t.Errorf("Pack allocates %.2f MB per call, want <= 3 MB", pack/(1<<20))
	}
	scan := avgAllocBytes(20, func() {
		if _, err := ScanFBZ(bytes.NewReader(archive)); err != nil {
			t.Fatal(err)
		}
	})
	if scan > 0.6*(1<<20) {
		t.Errorf("ScanFBZ allocates %.2f MB per call, want <= 0.6 MB", scan/(1<<20))
	}
}

// FuzzScanFBZ feeds arbitrary streams to the forensic scan. It must not
// panic, must not allocate in proportion to a header's claimed lengths,
// and must only call a block OK when its data matches the header's length
// and CRC.
func FuzzScanFBZ(f *testing.F) {
	tree, err := GenerateTree("fuzz", 4, 6<<10)
	if err != nil {
		f.Fatal(err)
	}
	archive, _, err := Pack(tree, 2<<10)
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), archive...)
	if err := CorruptBit(flipped, 1, func(n int) int { return n / 2 }); err != nil {
		f.Fatal(err)
	}
	noMagic := append([]byte(nil), archive...)
	noMagic[4] ^= 0xff
	forged := append([]byte(nil), fbzFileMagic...)
	forged = append(forged, fbzBlockMagic...)
	forged = binary.BigEndian.AppendUint32(forged, 0xFFFFFFFF)
	forged = binary.BigEndian.AppendUint32(forged, 10)
	forged = binary.BigEndian.AppendUint32(forged, 0)
	forged = append(forged, make([]byte, 10)...)
	f.Add(archive)
	f.Add(flipped)
	f.Add(archive[:len(archive)-7])
	f.Add(noMagic)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blocks, _ := ScanFBZ(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// Decoded output can legitimately reach maxDeflateRatio times the
		// input; anything beyond that (plus the decompressor's own state)
		// was sized from a header.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+3*maxDeflateRatio*len(data)); got > limit {
			t.Fatalf("scan of %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		pos := len(fbzFileMagic)
		for _, b := range blocks {
			if pos+18 > len(data) {
				break
			}
			hdr := data[pos : pos+18]
			pos += 18 + int(binary.BigEndian.Uint32(hdr[10:14]))
			if !b.OK {
				continue
			}
			if rawLen := binary.BigEndian.Uint32(hdr[6:10]); uint32(len(b.Data)) != rawLen {
				t.Fatalf("block %d OK with %d bytes, header says %d", b.Index, len(b.Data), rawLen)
			}
			if crc := binary.BigEndian.Uint32(hdr[14:18]); crc32.ChecksumIEEE(b.Data) != crc {
				t.Fatalf("block %d OK with a CRC the header does not carry", b.Index)
			}
		}
	})
}

package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"frostlab/internal/simkernel"
)

// referenceEntry packs the reference geometry (30 files, 128 KiB, 8 KiB
// blocks) into a cache entry.
func referenceEntry(t *testing.T) *packEntry {
	t.Helper()
	ent := NewPackCache().entry(packKey{seed: "scan-equivalence", files: 30, bytes: 128 << 10, blockSize: 8 << 10})
	if !ent.pack() {
		t.Fatal("fresh entry already claimed")
	}
	if ent.treeErr != nil || ent.packErr != nil {
		t.Fatal(ent.treeErr, ent.packErr)
	}
	return ent
}

// fullScanBad is the list of bad blocks a full ScanFBZ of archive reports.
func fullScanBad(t *testing.T, archive []byte) []int {
	t.Helper()
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
	return bad
}

// checkScanEquivalence fails unless the changed-block scan of archive
// reports exactly the bad blocks a full ScanFBZ does.
func checkScanEquivalence(t *testing.T, ent *packEntry, archive []byte, what string) {
	t.Helper()
	got, err := ent.badBlocks(archive)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := fullScanBad(t, archive); !slices.Equal(got, want) {
		t.Errorf("%s: changed-block scan reports %v, full ScanFBZ %v", what, got, want)
	}
}

// TestChangedBlockScanMatchesFullScan pins the memoised forensic scan to
// ScanFBZ on the reference geometry: seeded bit flips through CorruptBit
// in every block, a flipped byte in every block's header (cycling through
// magic, lengths and CRC, so framing changes fall back to the full scan),
// and a flip of every block's last payload byte. One entry serves every
// case, so later cases run against the memo earlier ones built.
func TestChangedBlockScanMatchesFullScan(t *testing.T) {
	ent := referenceEntry(t)
	pristine := ent.archive
	if ent.res.Blocks < 16 {
		t.Fatalf("reference geometry packed %d blocks, want a multi-block archive", ent.res.Blocks)
	}
	offs, err := blockPayloadOffsets(pristine)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for block := range offs {
		for k := 0; k < 8; k++ {
			a := append([]byte(nil), pristine...)
			if err := CorruptBit(a, block, rng.Intn); err != nil {
				t.Fatal(err)
			}
			if !ent.sameFraming(a) {
				t.Fatalf("block %d: payload bit flip changed the framing", block)
			}
			checkScanEquivalence(t, ent, a, fmt.Sprintf("block %d bit flip %d", block, k))
		}
		a := append([]byte(nil), pristine...)
		a[offs[block][0]-18+block%18] ^= 0xff
		checkScanEquivalence(t, ent, a, fmt.Sprintf("block %d header byte %d", block, block%18))

		a = append([]byte(nil), pristine...)
		a[offs[block][0]+offs[block][1]-1] ^= 0x01
		checkScanEquivalence(t, ent, a, fmt.Sprintf("block %d last payload byte", block))
	}
	if got, err := ent.badBlocks(pristine); err != nil || got != nil {
		t.Errorf("pristine archive: bad blocks %v, %v; want none", got, err)
	}
}

// TestChangedBlockScanKeepsPristineDamage checks the memo is a memo: a
// pristine archive whose block fails its scan keeps reporting that block
// for byte-equal archives, alone or beside a freshly flipped block.
func TestChangedBlockScanKeepsPristineDamage(t *testing.T) {
	damaged := append([]byte(nil), referenceEntry(t).archive...)
	const hurt = 3
	if err := CorruptBit(damaged, hurt, func(n int) int { return n / 2 }); err != nil {
		t.Fatal(err)
	}
	ent := &packEntry{archive: damaged}
	for round := 0; round < 2; round++ {
		got, err := ent.badBlocks(append([]byte(nil), damaged...))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, []int{hurt}) {
			t.Errorf("round %d: bad blocks %v, want [%d]", round, got, hurt)
		}
	}
	a := append([]byte(nil), damaged...)
	if err := CorruptBit(a, hurt+5, func(n int) int { return n / 3 }); err != nil {
		t.Fatal(err)
	}
	checkScanEquivalence(t, ent, a, "damaged pristine plus a second flip")
}

// TestPackAheadMatchesInline checks that runners built on trees packed
// ahead, on trees a packer stopped mid-pack never reached, and on a
// standalone cache agree on every digest, that twins share one archive,
// and that stop returns only once the tree in hand is packed.
func TestPackAheadMatchesInline(t *testing.T) {
	seeds := []string{"t/01", "t/02", "t/01", "t/03"}
	for _, stopEarly := range []bool{false, true} {
		c := NewPackCache()
		stop := c.PackAhead(seeds, 6, 24<<10, 4<<10)
		if stopEarly {
			first := c.entry(packKey{seed: seeds[0], files: 6, bytes: 24 << 10, blockSize: 4 << 10})
			for !first.claimed.Load() {
				runtime.Gosched()
			}
			stop()
			for _, ent := range c.entries {
				if !ent.claimed.Load() {
					continue
				}
				select {
				case <-ent.done:
				default:
					t.Errorf("stop returned while %s was still packing", ent.key.seed)
				}
			}
		}
		for i, seed := range seeds {
			id := fmt.Sprintf("h%d", i)
			r, err := c.NewRunner(id, seed, 6, 24<<10, 4<<10, simkernel.NewRNG("ahead"))
			if err != nil {
				t.Fatal(err)
			}
			solo, err := NewRunner(id, seed, 6, 24<<10, 4<<10, simkernel.NewRNG("ahead"))
			if err != nil {
				t.Fatal(err)
			}
			if r.Reference() != solo.Reference() || !bytes.Equal(r.pack.archive, solo.pack.archive) {
				t.Errorf("stopEarly=%v seed %s: packed-ahead archive differs from inline", stopEarly, seed)
			}
		}
		if !stopEarly {
			stop()
		}
		if len(c.entries) != 3 {
			t.Errorf("stopEarly=%v: %d cache entries for 3 distinct trees", stopEarly, len(c.entries))
		}
	}
}

// TestSharedPackMatchesSerial runs the block stage the way a run does at
// its start, with the pack-ahead goroutine and several NewRunner callers
// on the same entries at once, and checks every archive, ArchiveResult and
// reference digest against serial Pack. The packer creates every entry
// before it starts, so the callers only read the cache's map. Block sizes
// of 2, 4 and 8 KB leave a short tail block; run it under -race.
func TestSharedPackMatchesSerial(t *testing.T) {
	seeds := []string{"shared/01", "shared/02", "shared/01", "shared/03", "shared/04"}
	const files, treeBytes = 9, 40 << 10
	tails := 0
	for _, blockSize := range []int{2 << 10, 4 << 10, 8 << 10} {
		want := map[string]ArchiveResult{}
		wantArchive := map[string][]byte{}
		for _, seed := range seeds {
			tree, err := GenerateTree(seed, files, treeBytes)
			if err != nil {
				t.Fatal(err)
			}
			archive, res, err := Pack(tree, blockSize)
			if err != nil {
				t.Fatal(err)
			}
			if res.TarBytes%int64(blockSize) != 0 {
				tails++
			}
			want[seed], wantArchive[seed] = res, archive
		}
		c := NewPackCache()
		stop := c.PackAhead(seeds, files, treeBytes, blockSize)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := simkernel.NewRNG("shared")
				// Each caller walks the seeds from its own offset, so the
				// callers and the packer meet on different entries.
				for i := range seeds {
					seed := seeds[(i+g)%len(seeds)]
					r, err := c.NewRunner(fmt.Sprintf("h%d", g), seed, files, treeBytes, blockSize, rng)
					if err != nil {
						t.Error(err)
						return
					}
					if r.Reference() != want[seed].MD5 || r.pack.res != want[seed] || !bytes.Equal(r.pack.archive, wantArchive[seed]) {
						t.Errorf("block size %d, seed %s: shared pack differs from serial Pack", blockSize, seed)
					}
				}
			}()
		}
		wg.Wait()
		stop()
	}
	if tails == 0 {
		t.Error("no tar stream ended in a short tail block")
	}
}

// TestPackStageFailureReleasesHelpers checks that a failed tree stage, a
// tree GenerateTree rejects or a block size outside the header's range,
// closes ready and done, so the packer and every NewRunner waiting on the
// entry return its error instead of hanging.
func TestPackStageFailureReleasesHelpers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		files     int
		blockSize int
		want      string
	}{
		{"tree", 0, 4 << 10, "workload: tree needs positive file count and size (got 0 files, 24576 bytes)"},
		{"block size", 6, 1 << 33, "workload: initial pack for h: workload: block size 8589934592 outside 1..4294967295"},
	} {
		c := NewPackCache()
		stop := c.PackAhead([]string{"fail/01", "fail/01"}, tc.files, 24<<10, tc.blockSize)
		errs := make(chan error, 3)
		for g := 0; g < 3; g++ {
			go func() {
				_, err := c.NewRunner("h", "fail/01", tc.files, 24<<10, tc.blockSize, simkernel.NewRNG("fail"))
				errs <- err
			}()
		}
		for g := 0; g < 3; g++ {
			select {
			case err := <-errs:
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: NewRunner still waiting on a failed entry", tc.name)
			}
		}
		stop()
		ent := c.entry(packKey{seed: "fail/01", files: tc.files, bytes: 24 << 10, blockSize: tc.blockSize})
		for name, ch := range map[string]chan struct{}{"ready": ent.ready, "done": ent.done} {
			select {
			case <-ch:
			default:
				t.Errorf("%s: %s still open after a failed tree stage", tc.name, name)
			}
		}
	}
}

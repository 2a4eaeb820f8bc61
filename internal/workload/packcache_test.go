package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

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

package workload

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"sync/atomic"
	"time"

	"frostlab/internal/simkernel"
)

// CyclePeriod is the paper's workload cadence: "Each host executes its
// synthetic load every 10 minutes."
const CyclePeriod = 10 * time.Minute

// MaxStartFuzz bounds the §3.5 desynchronisation sleep: "each host sleeps
// for 0 to 119 seconds before commencing the archival process".
const MaxStartFuzz = 119 * time.Second

// PageSize is the memory page size used for the §4.2.2 accounting.
const PageSize = 4096

// CycleResult records one synthetic load run on one host.
type CycleResult struct {
	HostID string
	At     time.Time
	// OK reports whether the archive hash matched the reference.
	OK bool
	// MD5 is the computed digest.
	MD5 Digest
	// BadBlocks lists the corrupt block indices found by the recovery
	// scan; only populated when OK is false (the paper only inspected
	// stored failing tarballs).
	BadBlocks []int
	// Blocks is the total compression block count.
	Blocks int
}

// Runner executes the synthetic load for one host. It holds the host's
// pristine archive, the reference digest "calculated before
// installation" and the handles on the host's corruption streams.
type Runner struct {
	hostID string

	reference Digest
	refBlocks int
	pages     int64

	// pack is the initial pack, shared with twins. The source tree is
	// immutable and Pack is deterministic, so every later cycle would
	// produce these exact bytes; re-running the compressor per cycle only
	// burned time. Corrupting cycles work on a copy.
	pack *packEntry
	// block and bit are the corruption streams "workload/<host>/block" and
	// "workload/<host>/bit".
	block, bit *simkernel.Stream

	results []CycleResult
	// storedArchives keeps the failing tarballs, as §3.5 prescribes.
	storedArchives map[string][]byte
}

// PackCache shares the pristine archives of generated source trees between
// runners with the same tree seed and geometry. Basement twins run their
// tent partner's disk image, so within one experiment the same tree would
// otherwise be generated and compressed twice. PackAhead packs queued
// trees on a background goroutine, and the two share the packing of a
// tree both need; otherwise the cache is not concurrent-safe: each
// experiment (campaign replicate) owns its own and calls it from one
// goroutine.
type PackCache struct {
	entries map[packKey]*packEntry
	// installWait is the wall time, in nanoseconds, NewRunner spent on
	// trees another goroutine claimed: waiting for their tree stage,
	// helping compress their blocks and waiting for the last block.
	installWait atomic.Int64
}

type packKey struct {
	seed      string
	files     int
	bytes     int64
	blockSize int
}

// packEntry is one tree's pristine archive, packed in two stages.
// Whichever goroutine claims it first — the pack-ahead goroutine or the
// first NewRunner to need it — runs the tree stage: it generates the tree
// and its tar stream, sets up the block stage and closes ready. Then every
// goroutine that needs the tree helps compress its blocks, and the one
// that stores the last block joins the archive and closes done. A failed
// tree stage closes both.
type packEntry struct {
	key     packKey
	claimed atomic.Bool
	ready   chan struct{}
	done    chan struct{}

	blocks  *fbzBlocks // set before ready; nil when the tree stage failed
	archive []byte
	res     ArchiveResult
	treeErr error // from GenerateTree
	packErr error // from the block size or the tar stream

	// checker serves every forensic scan of this tree's archives; like
	// the memo below it is used only from the experiment's goroutine.
	checker blockChecker

	// frames and verdicts memoise the forensic scan of the pristine
	// archive (see badBlocks): frames[i] and frames[i+1] bound block i's
	// header and payload, and verdicts[i] is its scan result once taken.
	// framed records that frames has been parsed; it stays nil when the
	// pristine archive is not cleanly framed.
	framed   bool
	frames   []int
	verdicts []verdict
}

// verdict is a memoised block scan result.
type verdict uint8

const (
	unscanned verdict = iota
	blockOK
	blockBad
)

// NewPackCache returns an empty cache.
func NewPackCache() *PackCache {
	return &PackCache{entries: make(map[packKey]*packEntry)}
}

// entry returns the (possibly not yet packed) entry for key.
func (c *PackCache) entry(key packKey) *packEntry {
	ent, ok := c.entries[key]
	if !ok {
		ent = &packEntry{key: key, ready: make(chan struct{}), done: make(chan struct{})}
		c.entries[key] = ent
	}
	return ent
}

// pack runs the entry's tree stage if no one has claimed it yet, or
// waits for the claimer's, and then compresses blocks until none is left
// to take. It reports whether this call claimed the entry. The archive is
// complete once done is closed, which a caller whose blocks were not the
// last must wait for.
func (ent *packEntry) pack() bool {
	claimed := ent.claimed.CompareAndSwap(false, true)
	if claimed {
		ent.treeStage()
	} else {
		<-ent.ready
	}
	// A tar stream is never empty, so some compress stores a last block.
	if ent.blocks != nil && ent.blocks.compress() {
		ent.archive, ent.res = ent.blocks.finish()
		close(ent.done)
	}
	return claimed
}

// treeStage generates the entry's tree and tar stream and publishes its
// block stage by closing ready. On failure it records the error and
// closes done as well.
func (ent *packEntry) treeStage() {
	defer close(ent.ready)
	tree, err := GenerateTree(ent.key.seed, ent.key.files, ent.key.bytes)
	if err != nil {
		ent.treeErr = err
		close(ent.done)
		return
	}
	tarBuf, err := tarStream(tree)
	if err == nil {
		err = checkBlockSize(ent.key.blockSize)
	}
	if err != nil {
		ent.packErr = err
		close(ent.done)
		return
	}
	ent.blocks = newFBZBlocks(tarBuf.Bytes(), ent.key.blockSize)
}

// PackAhead starts one goroutine that packs the trees of seeds at the
// given geometry, in order, so that NewRunner finds them ready. A tree
// NewRunner needs before the goroutine is done with it, NewRunner helps
// compress, or packs itself if the goroutine has not reached it yet; the
// goroutine then helps with the blocks left. stop halts the goroutine
// after the tree in hand and waits for it to exit; it must be called
// exactly once.
func (c *PackCache) PackAhead(seeds []string, files int, treeBytes int64, blockSize int) (stop func()) {
	// Twins share an entry; the goroutine finds no block left of the second.
	queue := make([]*packEntry, len(seeds))
	for i, seed := range seeds {
		queue[i] = c.entry(packKey{seed: seed, files: files, bytes: treeBytes, blockSize: blockSize})
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		for _, ent := range queue {
			select {
			case <-quit:
				return
			default:
				ent.pack()
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// NewRunner prepares a runner: it generates the host's tree, performs the
// initial pack, and records the reference digest. Identical (seed,
// geometry) requests share one archive; runners never mutate the shared
// bytes (corrupting cycles copy first).
func (c *PackCache) NewRunner(hostID string, treeSeed string, files int, treeBytes int64, blockSize int, rng *simkernel.RNG) (*Runner, error) {
	ent := c.entry(packKey{seed: treeSeed, files: files, bytes: treeBytes, blockSize: blockSize})
	start := time.Now()
	claimed := ent.pack()
	<-ent.done
	if !claimed {
		c.installWait.Add(int64(time.Since(start)))
	}
	if ent.treeErr != nil {
		return nil, ent.treeErr
	}
	if ent.packErr != nil {
		return nil, fmt.Errorf("workload: initial pack for %s: %w", hostID, ent.packErr)
	}
	return &Runner{
		hostID:         hostID,
		reference:      ent.res.MD5,
		refBlocks:      ent.res.Blocks,
		pages:          PagesTouched(ent.res),
		pack:           ent,
		block:          rng.Stream("workload/" + hostID + "/block"),
		bit:            rng.Stream("workload/" + hostID + "/bit"),
		storedArchives: make(map[string][]byte),
	}, nil
}

// InstallWait returns the wall time NewRunner has spent on trees another
// goroutine claimed, from the call until their archive was complete.
func (c *PackCache) InstallWait() time.Duration { return time.Duration(c.installWait.Load()) }

// NewRunner builds a standalone runner with a private cache.
func NewRunner(hostID string, treeSeed string, files int, treeBytes int64, blockSize int, rng *simkernel.RNG) (*Runner, error) {
	return NewPackCache().NewRunner(hostID, treeSeed, files, treeBytes, blockSize, rng)
}

// badBlocks returns the indices of archive's blocks that fail the forensic
// scan: exactly the blocks a full ScanFBZ of archive reports bad. A
// block's verdict depends only on its header and payload bytes, so when
// archive is framed like the pristine archive, only the blocks whose bytes
// differ are inflated; a byte-equal block takes the pristine block's
// verdict, scanned once and memoised (a pristine block that fails its scan
// still reports bad). Any other archive gets a full ScanFBZ.
func (ent *packEntry) badBlocks(archive []byte) ([]int, error) {
	if !ent.sameFraming(archive) {
		blocks, err := ScanFBZ(bytes.NewReader(archive))
		if err != nil {
			return nil, err
		}
		var bad []int
		for _, b := range blocks {
			if !b.OK {
				bad = append(bad, b.Index)
			}
		}
		return bad, nil
	}
	var bad []int
	for i := range ent.verdicts {
		lo, hi := ent.frames[i], ent.frames[i+1]
		var ok bool
		if pristine := ent.archive[lo:hi]; bytes.Equal(archive[lo:hi], pristine) {
			if ent.verdicts[i] == unscanned {
				ent.verdicts[i] = blockBad
				if ent.checker.ok(pristine) {
					ent.verdicts[i] = blockOK
				}
			}
			ok = ent.verdicts[i] == blockOK
		} else {
			ok = ent.checker.ok(archive[lo:hi])
		}
		if !ok {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

// sameFraming reports whether ScanFBZ would frame archive exactly as the
// cleanly framed pristine archive: same length, file magic, and every
// block's magic and payload length at the same offsets. Its first call
// parses the pristine framing.
func (ent *packEntry) sameFraming(archive []byte) bool {
	if !ent.framed {
		ent.framed = true
		if offs, err := blockPayloadOffsets(ent.archive); err == nil {
			ent.frames = make([]int, 0, len(offs)+1)
			for _, o := range offs {
				ent.frames = append(ent.frames, o[0]-18)
			}
			ent.frames = append(ent.frames, len(ent.archive))
			ent.verdicts = make([]verdict, len(offs))
		}
	}
	p := ent.archive
	if ent.frames == nil || len(archive) != len(p) || !bytes.Equal(archive[:4], p[:4]) {
		return false
	}
	for _, lo := range ent.frames[:len(ent.verdicts)] {
		if !bytes.Equal(archive[lo:lo+6], p[lo:lo+6]) || !bytes.Equal(archive[lo+10:lo+14], p[lo+10:lo+14]) {
			return false
		}
	}
	return true
}

// Reference returns the digest computed at installation.
func (r *Runner) Reference() Digest { return r.reference }

// ReferenceBlocks returns the block count of a clean archive.
func (r *Runner) ReferenceBlocks() int { return r.refBlocks }

// PagesTouched estimates memory pages read and written by one archival
// cycle the way §4.2.2 does: source bytes are read, the tar stream is
// written and re-read by the compressor, the archive is written and then
// re-read by the hash.
func PagesTouched(res ArchiveResult) int64 {
	traffic := res.TarBytes + // reading sources / writing tar
		res.TarBytes + // compressor reading tar
		res.CompressedBytes + // writing archive
		res.CompressedBytes // md5 reading archive
	return (traffic + PageSize - 1) / PageSize
}

// RunCycle executes one load cycle at the given simulated time. If corrupt
// is true, a single bit of one compression block is flipped before hashing
// — the memory-error mechanism §4.2.2 conjectures. The failing archive is
// stored and scanned for bad blocks.
func (r *Runner) RunCycle(now time.Time, corrupt bool) (CycleResult, error) {
	// The clean pack is cached from installation (the tree never changes);
	// a corrupting cycle flips a bit in its own copy.
	archive, res := r.pack.archive, r.pack.res
	if corrupt {
		archive = append([]byte(nil), archive...)
		block := r.block.Pick(res.Blocks)
		if err := CorruptBit(archive, block, r.bit.Pick); err != nil {
			return CycleResult{}, err
		}
		res.MD5 = md5.Sum(archive)
	}
	out := CycleResult{
		HostID: r.hostID,
		At:     now,
		OK:     res.MD5 == r.reference,
		MD5:    res.MD5,
		Blocks: res.Blocks,
	}
	if !out.OK {
		// "If the results differ, the packed tarball is stored."
		key := now.UTC().Format(time.RFC3339)
		r.storedArchives[key] = archive
		// bzip2recover-style forensics on the stored archive.
		bad, err := r.pack.badBlocks(archive)
		if err != nil {
			return CycleResult{}, err
		}
		out.BadBlocks = bad
	}
	r.results = append(r.results, out)
	return out, nil
}

// Results returns all recorded cycle results.
func (r *Runner) Results() []CycleResult {
	out := make([]CycleResult, len(r.results))
	copy(out, r.results)
	return out
}

// StartFuzz returns a scheduler fuzz function drawing the paper's 0–119 s
// start sleep from the host's stream "fuzz/<host>".
func StartFuzz(rng *simkernel.RNG, hostID string) func() time.Duration {
	stream := rng.Stream("fuzz/" + hostID)
	return func() time.Duration {
		return time.Duration(stream.Pick(int(MaxStartFuzz/time.Second)+1)) * time.Second
	}
}

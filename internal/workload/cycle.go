package workload

import (
	"bytes"
	"crypto/md5"
	"fmt"
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

// Runner executes the synthetic load for one host. It owns the host's
// source tree and the reference digest "calculated before installation".
type Runner struct {
	hostID    string
	tree      *SourceTree
	blockSize int
	rng       *simkernel.RNG

	reference Digest
	refBlocks int
	pages     int64

	// archive and archiveRes cache the initial pack. The source tree is
	// immutable and Pack is deterministic, so every later cycle would
	// produce these exact bytes; re-running the compressor per cycle only
	// burned time. Corrupting cycles work on a copy.
	archive    []byte
	archiveRes ArchiveResult
	// blockStream and bitStream are the precomputed corruption RNG stream
	// names.
	blockStream string
	bitStream   string

	results []CycleResult
	// storedArchives keeps the failing tarballs, as §3.5 prescribes.
	storedArchives map[string][]byte
}

// PackCache shares generated source trees and their pristine archives
// between runners with the same tree seed and geometry. Basement twins run
// their tent partner's disk image, so within one experiment the same tree
// would otherwise be generated and compressed twice. Not concurrent-safe:
// each experiment (campaign replicate) owns its own cache.
type PackCache struct {
	entries map[packKey]*packEntry
}

type packKey struct {
	seed      string
	files     int
	bytes     int64
	blockSize int
}

type packEntry struct {
	tree    *SourceTree
	archive []byte
	res     ArchiveResult
}

// NewPackCache returns an empty cache.
func NewPackCache() *PackCache {
	return &PackCache{entries: make(map[packKey]*packEntry)}
}

// NewRunner prepares a runner: it generates the host's tree, performs the
// initial pack, and records the reference digest. Identical (seed,
// geometry) requests share one tree and archive; runners never mutate the
// shared bytes (corrupting cycles copy first).
func (c *PackCache) NewRunner(hostID string, treeSeed string, files int, treeBytes int64, blockSize int, rng *simkernel.RNG) (*Runner, error) {
	key := packKey{seed: treeSeed, files: files, bytes: treeBytes, blockSize: blockSize}
	ent, ok := c.entries[key]
	if !ok {
		tree, err := GenerateTree(treeSeed, files, treeBytes)
		if err != nil {
			return nil, err
		}
		archive, res, err := Pack(tree, blockSize)
		if err != nil {
			return nil, fmt.Errorf("workload: initial pack for %s: %w", hostID, err)
		}
		ent = &packEntry{tree: tree, archive: archive, res: res}
		c.entries[key] = ent
	}
	return &Runner{
		hostID:         hostID,
		tree:           ent.tree,
		blockSize:      blockSize,
		rng:            rng,
		reference:      ent.res.MD5,
		refBlocks:      ent.res.Blocks,
		pages:          PagesTouched(ent.res),
		archive:        ent.archive,
		archiveRes:     ent.res,
		blockStream:    "workload/" + hostID + "/block",
		bitStream:      "workload/" + hostID + "/bit",
		storedArchives: make(map[string][]byte),
	}, nil
}

// NewRunner builds a standalone runner with a private cache.
func NewRunner(hostID string, treeSeed string, files int, treeBytes int64, blockSize int, rng *simkernel.RNG) (*Runner, error) {
	return NewPackCache().NewRunner(hostID, treeSeed, files, treeBytes, blockSize, rng)
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
	archive, res := r.archive, r.archiveRes
	if corrupt {
		archive = append([]byte(nil), r.archive...)
		block := r.rng.Pick(r.blockStream, res.Blocks)
		if err := CorruptBit(archive, block, func(n int) int {
			return r.rng.Pick(r.bitStream, n)
		}); err != nil {
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
		blocks, err := ScanFBZ(bytes.NewReader(archive))
		if err != nil {
			return CycleResult{}, err
		}
		for _, b := range blocks {
			if !b.OK {
				out.BadBlocks = append(out.BadBlocks, b.Index)
			}
		}
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
// start sleep from the host's RNG stream.
func StartFuzz(rng *simkernel.RNG, hostID string) func() time.Duration {
	stream := "fuzz/" + hostID
	return func() time.Duration {
		return time.Duration(rng.Pick(stream, int(MaxStartFuzz/time.Second)+1)) * time.Second
	}
}

package workload

import (
	"archive/tar"
	"bytes"
	"compress/flate"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// FBZ container constants.
var (
	fbzFileMagic  = []byte("FBZ1")
	fbzBlockMagic = []byte{0x31, 0x41, 0x59, 0x26, 0x53, 0x59} // pi digits, like bzip2's block magic
)

// DefaultBlockSize is the uncompressed bytes per compression block,
// matching bzip2's -9 block size of 900 kB. The paper's archive had 396
// such blocks.
const DefaultBlockSize = 900 * 1000

// ErrNotFBZ reports a stream without the FBZ file magic.
var ErrNotFBZ = errors.New("workload: not an FBZ archive")

// Digest is an md5 archive checksum, comparable with ==.
type Digest [md5.Size]byte

// String formats the digest the way md5sum prints it.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// ArchiveResult describes a completed pack run.
type ArchiveResult struct {
	// MD5 is the digest of the complete compressed archive.
	MD5 Digest
	// Blocks is the number of compression blocks written.
	Blocks int
	// TarBytes is the size of the intermediate tar stream.
	TarBytes int64
	// CompressedBytes is the size of the FBZ output.
	CompressedBytes int64
}

// tarTimestamp is the fixed modification time used for all archive
// members, keeping the archive bit-reproducible across cycles (§3.5: if
// hashes match, "the tarball is overwritten in the next cycle").
var tarTimestamp = time.Date(2010, time.February, 19, 0, 0, 0, 0, time.UTC)

// WriteTar writes the tree as a deterministic tar stream.
func WriteTar(w io.Writer, tree *SourceTree) error {
	tw := tar.NewWriter(w)
	for _, f := range tree.Files() {
		hdr := &tar.Header{
			Name:    f.Path,
			Mode:    0o644,
			Size:    int64(len(f.Data)),
			ModTime: tarTimestamp,
			Format:  tar.FormatUSTAR,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return fmt.Errorf("workload: tar header %s: %w", f.Path, err)
		}
		if _, err := tw.Write(f.Data); err != nil {
			return fmt.Errorf("workload: tar body %s: %w", f.Path, err)
		}
	}
	return tw.Close()
}

// fbzCompressor is a DEFLATE compressor at BestCompression and the buffer
// it compresses one block into.
type fbzCompressor struct {
	fw   *flate.Writer
	comp bytes.Buffer
}

// fbzCompressors is a free list of up to four idle compressors. A
// flate.Writer carries about 0.8 MB of hash chains and window, so building
// one per block dominated packing's allocations. It is a buffered channel
// rather than a sync.Pool because a GC empties a Pool, and rebuilding the
// writer made identical runs allocate different amounts. Reset leaves a
// writer equivalent to a fresh NewWriter at the same level, so a block's
// bytes do not depend on which compressor, or which goroutine, made them.
var fbzCompressors = make(chan *fbzCompressor, 4)

// getFBZCompressor takes an idle compressor, or builds one when none is
// idle.
func getFBZCompressor() *fbzCompressor {
	select {
	case c := <-fbzCompressors:
		return c
	default:
	}
	fw, err := flate.NewWriter(nil, flate.BestCompression)
	if err != nil {
		panic(err) // unreachable: BestCompression is a valid level
	}
	return &fbzCompressor{fw: fw}
}

// putFBZCompressor returns a compressor to the free list, or drops it when
// the list is full.
func putFBZCompressor(c *fbzCompressor) {
	select {
	case fbzCompressors <- c:
	default:
	}
}

// frame compresses chunk and returns the framed block: the block magic,
// both lengths and the CRC-32 of chunk, then the DEFLATE payload.
func (c *fbzCompressor) frame(chunk []byte) []byte {
	c.comp.Reset()
	c.fw.Reset(&c.comp)
	// A bytes.Buffer never fails a write, so neither does the compressor.
	if _, err := c.fw.Write(chunk); err != nil {
		panic(err)
	}
	if err := c.fw.Close(); err != nil {
		panic(err)
	}
	out := make([]byte, 18+c.comp.Len())
	copy(out, fbzBlockMagic)
	binary.BigEndian.PutUint32(out[6:10], uint32(len(chunk)))
	binary.BigEndian.PutUint32(out[10:14], uint32(c.comp.Len()))
	binary.BigEndian.PutUint32(out[14:18], crc32.ChecksumIEEE(chunk))
	copy(out[18:], c.comp.Bytes())
	return out
}

// checkBlockSize rejects a block size the uint32 lengths of a block header
// cannot carry.
func checkBlockSize(blockSize int) error {
	if blockSize <= 0 || int64(blockSize) > math.MaxUint32 {
		return fmt.Errorf("workload: block size %d outside 1..%d", blockSize, uint32(math.MaxUint32))
	}
	return nil
}

// fbzBlocks is the block stage of one FBZ archive: src cut into blocks of
// size bytes, each compressed independently into its slot. Any number of
// goroutines may run compress at once; each takes the next block index
// from next, so every block is compressed exactly once.
type fbzBlocks struct {
	n, size int
	src     []byte   // the uncompressed stream; finish drops it
	slots   [][]byte // slots[i] is framed block i once stored; finish drops them
	next    atomic.Int64
	left    atomic.Int64 // blocks not yet stored
}

// newFBZBlocks sets up the block stage of src at a size checkBlockSize
// accepts.
func newFBZBlocks(src []byte, size int) *fbzBlocks {
	n := (len(src) + size - 1) / size
	b := &fbzBlocks{n: n, size: size, src: src, slots: make([][]byte, n)}
	b.left.Store(int64(n))
	return b
}

// compress compresses blocks until none is left to take, and reports
// whether this call stored the last one. That caller alone may finish the
// archive: the atomic count orders every other block's store before it.
func (b *fbzBlocks) compress() (last bool) {
	if b.next.Load() >= int64(b.n) {
		return false
	}
	c := getFBZCompressor()
	defer putFBZCompressor(c)
	for {
		i := int(b.next.Add(1) - 1)
		if i >= b.n {
			return last
		}
		b.slots[i] = c.frame(b.src[i*b.size : min((i+1)*b.size, len(b.src))])
		last = b.left.Add(-1) == 0
	}
}

// finish joins the archive, the file magic and then every framed block in
// order, describes it, and drops the stage's buffers. Only the goroutine
// whose compress stored the last block may call it.
func (b *fbzBlocks) finish() ([]byte, ArchiveResult) {
	size := len(fbzFileMagic)
	for _, s := range b.slots {
		size += len(s)
	}
	archive := append(make([]byte, 0, size), fbzFileMagic...)
	for _, s := range b.slots {
		archive = append(archive, s...)
	}
	res := ArchiveResult{
		MD5:             md5.Sum(archive),
		Blocks:          b.n,
		TarBytes:        int64(len(b.src)),
		CompressedBytes: int64(size),
	}
	b.src, b.slots = nil, nil
	return archive, res
}

// CompressFBZ compresses a stream into the FBZ block format: a file magic
// followed by independently DEFLATE-compressed blocks of blockSize
// uncompressed bytes, each carrying the block magic, both lengths, and a
// CRC-32 of its uncompressed content. It reads the whole stream first; a
// *bytes.Buffer is compressed in place.
func CompressFBZ(w io.Writer, r io.Reader, blockSize int) (blocks int, err error) {
	if err := checkBlockSize(blockSize); err != nil {
		return 0, err
	}
	var src []byte
	if buf, ok := r.(*bytes.Buffer); ok {
		src = buf.Next(buf.Len())
	} else if src, err = io.ReadAll(r); err != nil {
		return 0, err
	}
	b := newFBZBlocks(src, blockSize)
	b.compress()
	if _, err := w.Write(fbzFileMagic); err != nil {
		return 0, err
	}
	for i, s := range b.slots {
		if _, err := w.Write(s); err != nil {
			return i, err
		}
	}
	return b.n, nil
}

// BlockInfo is the result of scanning one FBZ block, in the spirit of
// bzip2recover: each block is independently decodable and verifiable.
type BlockInfo struct {
	Index int
	// OK reports whether the block decompressed and matched its CRC.
	OK bool
	// Err describes the failure for bad blocks.
	Err string
	// Data is the recovered content of good blocks (nil for bad ones).
	Data []byte
}

// ScanFBZ walks an FBZ stream block by block, attempting to recover each.
// A corrupted block is reported but does not stop the scan — this is the
// tool the reproduction of §4.2.2 uses to show that exactly one block of
// 396 was damaged.
func ScanFBZ(r io.Reader) ([]BlockInfo, error) {
	br := r
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading file magic: %w", err)
	}
	if !bytes.Equal(magic, fbzFileMagic) {
		return nil, ErrNotFBZ
	}
	// One checker, payload buffer and length-limited reader serve every
	// block of the scan.
	var (
		out     []BlockInfo
		payload bytes.Buffer
		lr      = &io.LimitedReader{R: br}
		bc      blockChecker
	)
	for i := 0; ; i++ {
		var hdr [18]byte
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("workload: block %d header: %w", i, err)
		}
		info := BlockInfo{Index: i}
		if !bytes.Equal(hdr[:6], fbzBlockMagic) {
			// Without the magic the stream is unframed; report and stop.
			info.Err = "block magic missing"
			out = append(out, info)
			return out, nil
		}
		compLen := binary.BigEndian.Uint32(hdr[10:14])
		// The payload buffer grows with the bytes that actually arrive,
		// so a forged compLen cannot force a large allocation.
		lr.N = int64(compLen)
		payload.Reset()
		payload.Grow(int(min(lr.N, DefaultBlockSize)) + bytes.MinRead)
		if _, err := payload.ReadFrom(lr); err != nil || payload.Len() < int(compLen) {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			info.Err = fmt.Sprintf("truncated block payload: %v", err)
			out = append(out, info)
			return out, nil
		}
		bc.verify(&info, hdr[:], payload.Bytes())
		out = append(out, info)
	}
}

// blockChecker inflates and verifies framed blocks, reusing one
// decompressor, and for ok one output buffer, across them.
type blockChecker struct {
	comp bytes.Reader
	zr   io.Reader
	buf  []byte
}

// Why a decoded block fails its header's check.
var (
	errBlockLength = errors.New("length mismatch")
	errBlockCRC    = errors.New("CRC mismatch")
)

// inflate decodes a block whose 18-byte header carries the block magic
// and whose payload is complete into dst's storage, growing it as needed.
// It returns the data and nil when the content matches the header's
// length and CRC, and otherwise the DEFLATE error, errBlockLength or
// errBlockCRC. A block's verdict depends on its header and payload bytes
// alone.
func (c *blockChecker) inflate(dst, hdr, payload []byte) ([]byte, error) {
	rawLen := binary.BigEndian.Uint32(hdr[6:10])
	c.comp.Reset(payload)
	if c.zr == nil {
		c.zr = flate.NewReader(&c.comp)
	}
	data, err := inflateBlock(c.zr, &c.comp, rawLen, dst)
	switch {
	case err != nil:
		return data, err
	case uint32(len(data)) != rawLen:
		return data, errBlockLength
	case crc32.ChecksumIEEE(data) != binary.BigEndian.Uint32(hdr[14:18]):
		return data, errBlockCRC
	}
	return data, nil
}

// verify records in info whether a block passes inflate, and for a good
// block its content in a fresh slice.
func (c *blockChecker) verify(info *BlockInfo, hdr, payload []byte) {
	data, err := c.inflate(nil, hdr, payload)
	switch err {
	case nil:
		info.OK = true
		info.Data = data
	case errBlockLength:
		info.Err = fmt.Sprintf("length %d, header says %d", len(data), binary.BigEndian.Uint32(hdr[6:10]))
	case errBlockCRC:
		info.Err = err.Error()
	default:
		info.Err = fmt.Sprintf("deflate: %v", err)
	}
}

// ok reports whether one framed block — its header, carrying the block
// magic, then its complete payload — passes inflate. It decodes into the
// checker's own buffer, so a warm checker allocates nothing.
func (c *blockChecker) ok(framed []byte) bool {
	var err error
	c.buf, err = c.inflate(c.buf[:0], framed[:18], framed[18:])
	return err == nil
}

// maxDeflateRatio bounds DEFLATE's expansion: a 258-byte match costs at
// least two bits, so no payload inflates by more than about 1032x.
const maxDeflateRatio = 1032

// inflateBlock resets zr onto comp and decodes the whole stream, appending
// to dst[:0]. When dst is too small it starts from a slice pre-sized from
// the header's rawLen, capped by what the payload could possibly inflate
// to and by DefaultBlockSize, so the untrusted header never drives the
// allocation; longer output grows the slice as it arrives. The spare byte
// lets an exactly sized block read its end of stream without growing.
func inflateBlock(zr io.Reader, comp *bytes.Reader, rawLen uint32, dst []byte) ([]byte, error) {
	if err := zr.(flate.Resetter).Reset(comp, nil); err != nil {
		return nil, err
	}
	data := dst[:0]
	if want := min(int64(rawLen), comp.Size()*maxDeflateRatio, DefaultBlockSize) + 1; int64(cap(data)) < want {
		data = make([]byte, 0, want)
	}
	for {
		n, err := zr.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return data, err
		}
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
	}
}

// tarStream writes the tree's tar stream into a buffer sized once: each
// USTAR member is a 512-byte header plus its data padded to 512 bytes, and
// two zero blocks end the stream, so the stream is never empty.
func tarStream(tree *SourceTree) (*bytes.Buffer, error) {
	var tarBuf bytes.Buffer
	tarBuf.Grow(int(tree.TotalBytes()) + 1024*(tree.NumFiles()+1))
	if err := WriteTar(&tarBuf, tree); err != nil {
		return nil, err
	}
	return &tarBuf, nil
}

// Pack runs the full §3.5 pipeline: tar the tree, compress to FBZ, and
// return the md5 of the compressed archive. The archive bytes are returned
// so callers can store the tarball when verification fails ("If the
// results differ, the packed tarball is stored").
func Pack(tree *SourceTree, blockSize int) ([]byte, ArchiveResult, error) {
	tarBuf, err := tarStream(tree)
	if err != nil {
		return nil, ArchiveResult{}, err
	}
	tarBytes := int64(tarBuf.Len())
	var out bytes.Buffer
	blocks, err := CompressFBZ(&out, tarBuf, blockSize)
	if err != nil {
		return nil, ArchiveResult{}, err
	}
	res := ArchiveResult{
		MD5:             md5.Sum(out.Bytes()),
		Blocks:          blocks,
		TarBytes:        tarBytes,
		CompressedBytes: int64(out.Len()),
	}
	return out.Bytes(), res, nil
}

// CorruptBit flips a single bit inside the payload of the given block,
// modelling the single-page memory error the paper's forensics identified.
// The archive is modified in place; the bit offset within the block is
// chosen by the pick function (e.g. rng.Intn).
func CorruptBit(archive []byte, block int, pick func(n int) int) error {
	offsets, err := blockPayloadOffsets(archive)
	if err != nil {
		return err
	}
	if block < 0 || block >= len(offsets) {
		return fmt.Errorf("workload: block %d out of range (%d blocks)", block, len(offsets))
	}
	start, length := offsets[block][0], offsets[block][1]
	if length == 0 {
		return fmt.Errorf("workload: block %d has empty payload", block)
	}
	byteIdx := start + pick(length)
	bit := uint(pick(8))
	archive[byteIdx] ^= 1 << bit
	return nil
}

// blockPayloadOffsets returns (offset, length) of each block's compressed
// payload within the raw archive bytes.
func blockPayloadOffsets(archive []byte) ([][2]int, error) {
	if len(archive) < 4 || !bytes.Equal(archive[:4], fbzFileMagic) {
		return nil, ErrNotFBZ
	}
	var out [][2]int
	pos := 4
	for pos < len(archive) {
		if pos+18 > len(archive) {
			return nil, fmt.Errorf("workload: truncated block header at %d", pos)
		}
		if !bytes.Equal(archive[pos:pos+6], fbzBlockMagic) {
			return nil, fmt.Errorf("workload: bad block magic at %d", pos)
		}
		compLen := int(binary.BigEndian.Uint32(archive[pos+10 : pos+14]))
		payload := pos + 18
		if payload+compLen > len(archive) {
			return nil, fmt.Errorf("workload: truncated block payload at %d", payload)
		}
		out = append(out, [2]int{payload, compLen})
		pos = payload + compLen
	}
	return out, nil
}

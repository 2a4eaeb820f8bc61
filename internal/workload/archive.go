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

// fbzWriters is a free list of up to four idle DEFLATE compressors at
// BestCompression. A flate.Writer carries about 0.8 MB of hash chains and
// window, so building one per block dominated packing's allocations. It is
// a buffered channel rather than a sync.Pool because a GC empties a Pool,
// and rebuilding the writer made identical runs allocate different
// amounts. Reset leaves a writer equivalent to a fresh NewWriter at the
// same level, so reused output is byte-identical.
var fbzWriters = make(chan *flate.Writer, 4)

// getFBZWriter takes an idle compressor, or builds one when none is idle.
func getFBZWriter() *flate.Writer {
	select {
	case fw := <-fbzWriters:
		return fw
	default:
	}
	fw, err := flate.NewWriter(nil, flate.BestCompression)
	if err != nil {
		panic(err) // unreachable: BestCompression is a valid level
	}
	return fw
}

// putFBZWriter returns a compressor to the free list, or drops it when
// the list is full.
func putFBZWriter(fw *flate.Writer) {
	select {
	case fbzWriters <- fw:
	default:
	}
}

// CompressFBZ compresses a stream into the FBZ block format: a file magic
// followed by independently DEFLATE-compressed blocks of blockSize
// uncompressed bytes, each carrying the block magic, both lengths, and a
// CRC-32 of its uncompressed content.
func CompressFBZ(w io.Writer, r io.Reader, blockSize int) (blocks int, err error) {
	// Block headers store lengths as uint32; reject sizes they cannot hold
	// before allocating the block buffer.
	if blockSize <= 0 || int64(blockSize) > math.MaxUint32 {
		return 0, fmt.Errorf("workload: block size %d outside 1..%d", blockSize, uint32(math.MaxUint32))
	}
	if _, err := w.Write(fbzFileMagic); err != nil {
		return 0, err
	}
	fw := getFBZWriter()
	defer putFBZWriter(fw)
	var comp bytes.Buffer
	buf := make([]byte, blockSize)
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			if err := writeFBZBlock(w, fw, &comp, buf[:n]); err != nil {
				return blocks, err
			}
			blocks++
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			return blocks, nil
		}
		if rerr != nil {
			return blocks, rerr
		}
	}
}

// writeFBZBlock compresses chunk through fw into comp, both reset first,
// and writes the framed block to w.
func writeFBZBlock(w io.Writer, fw *flate.Writer, comp *bytes.Buffer, chunk []byte) error {
	comp.Reset()
	fw.Reset(comp)
	if _, err := fw.Write(chunk); err != nil {
		return err
	}
	if err := fw.Close(); err != nil {
		return err
	}
	var hdr [18]byte
	copy(hdr[:6], fbzBlockMagic)
	binary.BigEndian.PutUint32(hdr[6:10], uint32(len(chunk)))
	binary.BigEndian.PutUint32(hdr[10:14], uint32(comp.Len()))
	binary.BigEndian.PutUint32(hdr[14:18], crc32.ChecksumIEEE(chunk))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(comp.Bytes())
	return err
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
// decompressor across them.
type blockChecker struct {
	comp bytes.Reader
	zr   io.Reader
}

// verify decodes a block whose 18-byte header carries the block magic and
// whose payload is complete, and records in info whether its content
// matches the header's length and CRC. A block's verdict depends on its
// header and payload bytes alone.
func (c *blockChecker) verify(info *BlockInfo, hdr, payload []byte) {
	rawLen := binary.BigEndian.Uint32(hdr[6:10])
	wantCRC := binary.BigEndian.Uint32(hdr[14:18])
	c.comp.Reset(payload)
	if c.zr == nil {
		c.zr = flate.NewReader(&c.comp)
	}
	data, err := inflateBlock(c.zr, &c.comp, rawLen)
	switch {
	case err != nil:
		info.Err = fmt.Sprintf("deflate: %v", err)
	case uint32(len(data)) != rawLen:
		info.Err = fmt.Sprintf("length %d, header says %d", len(data), rawLen)
	case crc32.ChecksumIEEE(data) != wantCRC:
		info.Err = "CRC mismatch"
	default:
		info.OK = true
		info.Data = data
	}
}

// ok reports whether one framed block — its header, carrying the block
// magic, then its complete payload — passes verify.
func (c *blockChecker) ok(framed []byte) bool {
	var info BlockInfo
	c.verify(&info, framed[:18], framed[18:])
	return info.OK
}

// maxDeflateRatio bounds DEFLATE's expansion: a 258-byte match costs at
// least two bits, so no payload inflates by more than about 1032x.
const maxDeflateRatio = 1032

// inflateBlock resets zr onto comp and decodes the whole stream into a
// fresh slice. The slice is pre-sized from the header's rawLen, capped by
// what the payload could possibly inflate to and by DefaultBlockSize, so
// the untrusted header never drives the allocation; longer output grows
// the slice as it arrives. The spare byte lets an exactly sized block
// read its end of stream without growing.
func inflateBlock(zr io.Reader, comp *bytes.Reader, rawLen uint32) ([]byte, error) {
	if err := zr.(flate.Resetter).Reset(comp, nil); err != nil {
		return nil, err
	}
	data := make([]byte, 0, min(int64(rawLen), comp.Size()*maxDeflateRatio, DefaultBlockSize)+1)
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

// Pack runs the full §3.5 pipeline: tar the tree, compress to FBZ, and
// return the md5 of the compressed archive. The archive bytes are returned
// so callers can store the tarball when verification fails ("If the
// results differ, the packed tarball is stored").
func Pack(tree *SourceTree, blockSize int) ([]byte, ArchiveResult, error) {
	// Each USTAR member is a 512-byte header plus its data padded to 512
	// bytes, and two zero blocks end the stream: size the buffer once.
	var tarBuf bytes.Buffer
	tarBuf.Grow(int(tree.TotalBytes()) + 1024*(tree.NumFiles()+1))
	if err := WriteTar(&tarBuf, tree); err != nil {
		return nil, ArchiveResult{}, err
	}
	tarBytes := int64(tarBuf.Len())
	var out bytes.Buffer
	blocks, err := CompressFBZ(&out, &tarBuf, blockSize)
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

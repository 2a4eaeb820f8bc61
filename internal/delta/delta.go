// Package delta implements the rsync algorithm used by the experiment's
// monitoring plane: the paper's monitoring host pulled md5sums and sensor
// data from every machine "using public-key authentication through an
// OpenSSH tunnel, and new files are transferred by the rsync program"
// (§3.5). This package is the rsync part, built from scratch on the
// standard library:
//
//   - Signature: the receiver summarises the old file as per-block
//     (rolling weak checksum, strong md5) pairs;
//   - Delta: the sender scans the new file with a byte-granular rolling
//     window, matching blocks the receiver already has and emitting
//     literal data only for what changed;
//   - Patch: the receiver reconstructs the new file from its old file and
//     the delta;
//   - Running: either side's summary of a growing run of bytes, so a
//     file that only grows is hashed one appended byte at a time.
//
// The weak checksum is the classic two-part Adler-style sum that can be
// rolled forward one byte in O(1).
package delta

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// DefaultBlockSize is the signature block size. rsync's own default is
// around 700 bytes for small files; 2 KiB suits the sensor logs and
// md5sum ledgers this package moves.
const DefaultBlockSize = 2048

const weakMod = 1 << 16

// WeakSum computes the rolling weak checksum of a block: the low 16 bits
// hold the byte sum, the high 16 bits the position-weighted sum.
func WeakSum(p []byte) uint32 {
	var a, b uint32
	n := len(p)
	for i, x := range p {
		a += uint32(x)
		b += uint32(n-i) * uint32(x)
	}
	a %= weakMod
	b %= weakMod
	return a | b<<16
}

// roll advances a weak checksum one byte: remove out (leaving the window),
// add in (entering it), for a window of length n.
func roll(sum uint32, out, in byte, n int) uint32 {
	a := sum & 0xffff
	b := sum >> 16
	a = (a + weakMod - uint32(out) + uint32(in)) % weakMod
	b = (b + weakMod - uint32(n)*uint32(out)%weakMod + a) % weakMod
	return a | b<<16
}

// BlockSig is the signature of one block of the old file.
type BlockSig struct {
	Index  int
	Weak   uint32
	Strong [md5.Size]byte
}

// Signature summarises a file for the delta computation.
type Signature struct {
	BlockSize int
	// FileLen is the old file's length; the final block may be short.
	FileLen int
	Blocks  []BlockSig
}

// NewSignature computes the signature of old with the given block size.
func NewSignature(old []byte, blockSize int) (*Signature, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("delta: non-positive block size %d", blockSize)
	}
	sig := &Signature{BlockSize: blockSize, FileLen: len(old)}
	for i := 0; i < len(old); i += blockSize {
		end := i + blockSize
		if end > len(old) {
			end = len(old)
		}
		blk := old[i:end]
		sig.Blocks = append(sig.Blocks, BlockSig{
			Index:  i / blockSize,
			Weak:   WeakSum(blk),
			Strong: md5.Sum(blk),
		})
	}
	return sig, nil
}

// OpKind distinguishes delta operations.
type OpKind byte

// Delta operations.
const (
	// OpCopy references a run of consecutive blocks of the old file.
	OpCopy OpKind = 1
	// OpLiteral carries new data verbatim.
	OpLiteral OpKind = 2
)

// Op is one delta instruction.
type Op struct {
	Kind OpKind
	// Block and NumBlocks define a copy run.
	Block     int
	NumBlocks int
	// Data is the literal payload.
	Data []byte
}

// Delta is the instruction stream turning the old file into the new one.
type Delta struct {
	BlockSize int
	Ops       []Op
	// NewLen is the target length, used as a patch sanity check.
	NewLen int
	// NewMD5 verifies the reconstruction end to end.
	NewMD5 [md5.Size]byte
}

// LiteralBytes returns how many bytes travel as literals — the measure of
// how much the delta saved versus a full transfer.
func (d *Delta) LiteralBytes() int {
	n := 0
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			n += len(op.Data)
		}
	}
	return n
}

// Compute builds the delta that transforms the signed old file into new,
// whose md5 the caller passes as newMD5 (a Running summary of new keeps it
// without rehashing bytes already seen). Its literal ops alias new rather
// than copy it: the delta holds new's bytes, and is valid only while the
// caller leaves them unchanged.
func Compute(sig *Signature, new []byte, newMD5 [md5.Size]byte) (*Delta, error) {
	if sig == nil || sig.BlockSize <= 0 {
		return nil, errors.New("delta: nil or invalid signature")
	}
	bs := sig.BlockSize
	// Index the signature by weak sum for O(1) candidate lookup.
	byWeak := make(map[uint32][]BlockSig, len(sig.Blocks))
	for _, b := range sig.Blocks {
		// Only full-size blocks are matchable by the rolling window; a
		// short final block is handled implicitly via literals.
		if b.Index*bs+bs <= sig.FileLen {
			byWeak[b.Weak] = append(byWeak[b.Weak], b)
		}
	}
	d := &Delta{BlockSize: bs, NewLen: len(new), NewMD5: newMD5}
	var litStart int
	emitLiteral := func(upTo int) {
		if upTo > litStart {
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: new[litStart:upTo:upTo]})
		}
	}
	emitCopy := func(block int) {
		if n := len(d.Ops); n > 0 {
			last := &d.Ops[n-1]
			if last.Kind == OpCopy && last.Block+last.NumBlocks == block {
				last.NumBlocks++
				return
			}
		}
		d.Ops = append(d.Ops, Op{Kind: OpCopy, Block: block, NumBlocks: 1})
	}

	i := 0
	if len(new) >= bs && len(byWeak) > 0 {
		w := WeakSum(new[:bs])
		for i+bs <= len(new) {
			matched := -1
			if cands, ok := byWeak[w]; ok {
				strong := md5.Sum(new[i : i+bs])
				for _, c := range cands {
					if c.Strong == strong {
						matched = c.Index
						break
					}
				}
			}
			if matched >= 0 {
				emitLiteral(i)
				emitCopy(matched)
				i += bs
				litStart = i
				if i+bs <= len(new) {
					w = WeakSum(new[i : i+bs])
				}
				continue
			}
			if i+bs < len(new) {
				w = roll(w, new[i], new[i+bs], bs)
			}
			i++
		}
	}
	emitLiteral(len(new))
	return d, nil
}

// Apply reconstructs the new file from the old file and a delta, appends
// it to dst and returns the extended slice, so a caller that passes the
// same buffer each time reconstructs without allocating once the buffer
// has grown. dst must not overlap old or the delta's literals. Apply
// checks the reconstruction's md5 against the delta's NewMD5. sum must be
// a running summary of old. When the reconstruction extends old, Apply
// adds only the bytes past old to sum; otherwise, or when sum's length is
// not old's, it rebuilds sum from the reconstruction. The check is only
// as good as sum: a sum of other bytes of old's length would check those
// bytes followed by the appended ones, not the reconstruction. On success
// sum summarises the reconstruction; after an error it must be Reset.
// Apply checks every copy run against old, and the length the ops
// reconstruct against NewLen, before it allocates: a delta from the wire
// gets an error, not an allocation of the size it claims.
func Apply(dst, old []byte, d *Delta, sum *Running) ([]byte, error) {
	if d == nil {
		return nil, errors.New("delta: nil delta")
	}
	n := 0
	for _, op := range d.Ops {
		switch op.Kind {
		case OpLiteral:
			n += len(op.Data)
		case OpCopy:
			start, end, ok := copyRun(op, d.BlockSize, len(old))
			if !ok {
				return nil, fmt.Errorf("delta: copy of %d blocks from block %d (block size %d) outside old file of %d bytes",
					op.NumBlocks, op.Block, d.BlockSize, len(old))
			}
			n += end - start
		default:
			return nil, fmt.Errorf("delta: unknown op kind %d", op.Kind)
		}
	}
	if n != d.NewLen {
		return nil, fmt.Errorf("delta: reconstructed %d bytes, want %d", n, d.NewLen)
	}
	head, out := len(dst), slices.Grow(dst, n)
	for _, op := range d.Ops {
		if op.Kind == OpLiteral {
			out = append(out, op.Data...)
			continue
		}
		start, end, _ := copyRun(op, d.BlockSize, len(old))
		out = append(out, old[start:end]...)
	}
	if got := out[head:]; sum.Len() == len(old) && bytes.HasPrefix(got, old) {
		sum.Write(got[len(old):])
	} else {
		sum.Reset()
		sum.Write(got)
	}
	if sum.Sum() != d.NewMD5 {
		return nil, errors.New("delta: reconstruction digest mismatch")
	}
	return out, nil
}

// copyRun returns the byte range of old, oldLen bytes long, that a copy
// op reads, and false when the run does not lie within old. It divides
// rather than multiplies, so no block number or count overflows.
func copyRun(op Op, blockSize, oldLen int) (start, end int, ok bool) {
	if blockSize <= 0 || op.Block < 0 || op.NumBlocks < 0 || op.Block > oldLen/blockSize {
		return 0, 0, false
	}
	start = op.Block * blockSize
	if op.NumBlocks > (oldLen-start)/blockSize {
		return 0, 0, false
	}
	return start, start + op.NumBlocks*blockSize, true
}

// Marshal serialises a delta for the wire.
func (d *Delta) Marshal() []byte { return d.AppendMarshal(nil) }

// AppendMarshal appends the bytes Marshal returns to dst and returns the
// extended slice. When dst lacks the room, it is copied once into a new
// buffer of exactly the size needed, so a caller can put its own header
// before the delta without a second copy of the literals. The result
// shares no memory with d.
func (d *Delta) AppendMarshal(dst []byte) []byte {
	n := 8 + 8 + md5.Size + 8
	for _, op := range d.Ops {
		switch op.Kind {
		case OpCopy:
			n += 1 + 8 + 8
		case OpLiteral:
			n += 1 + 8 + len(op.Data)
		default:
			n++
		}
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.BlockSize))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.NewLen))
	dst = append(dst, d.NewMD5[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		dst = append(dst, byte(op.Kind))
		switch op.Kind {
		case OpCopy:
			dst = binary.BigEndian.AppendUint64(dst, uint64(op.Block))
			dst = binary.BigEndian.AppendUint64(dst, uint64(op.NumBlocks))
		case OpLiteral:
			dst = binary.BigEndian.AppendUint64(dst, uint64(len(op.Data)))
			dst = append(dst, op.Data...)
		}
	}
	return dst
}

// UnmarshalDelta parses a serialised delta. Its literal ops alias p rather
// than copy it: the delta holds p's bytes, and is valid only while the
// caller leaves them unchanged.
func UnmarshalDelta(p []byte) (*Delta, error) {
	rest := p
	getUint := func() (uint64, error) {
		if len(rest) < 8 {
			return 0, io.ErrUnexpectedEOF
		}
		v := binary.BigEndian.Uint64(rest)
		rest = rest[8:]
		return v, nil
	}
	bs, err := getUint()
	if err != nil {
		return nil, fmt.Errorf("delta: unmarshal block size: %w", err)
	}
	nl, err := getUint()
	if err != nil {
		return nil, fmt.Errorf("delta: unmarshal new length: %w", err)
	}
	d := &Delta{BlockSize: int(bs), NewLen: int(nl)}
	if len(rest) < md5.Size {
		return nil, fmt.Errorf("delta: unmarshal digest: %w", io.ErrUnexpectedEOF)
	}
	rest = rest[copy(d.NewMD5[:], rest):]
	nOps, err := getUint()
	if err != nil {
		return nil, fmt.Errorf("delta: unmarshal op count: %w", err)
	}
	if nOps > uint64(len(p)) {
		return nil, fmt.Errorf("delta: implausible op count %d", nOps)
	}
	for i := uint64(0); i < nOps; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("delta: unmarshal op %d kind: %w", i, io.EOF)
		}
		kind := rest[0]
		rest = rest[1:]
		switch OpKind(kind) {
		case OpCopy:
			blk, err := getUint()
			if err != nil {
				return nil, err
			}
			n, err := getUint()
			if err != nil {
				return nil, err
			}
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Block: int(blk), NumBlocks: int(n)})
		case OpLiteral:
			n, err := getUint()
			if err != nil {
				return nil, err
			}
			if n > uint64(len(rest)) {
				return nil, fmt.Errorf("delta: literal of %d bytes exceeds remaining %d", n, len(rest))
			}
			d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: rest[:n:n]})
			rest = rest[n:]
		default:
			return nil, fmt.Errorf("delta: unknown op kind %d", kind)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("delta: %d trailing bytes", len(rest))
	}
	return d, nil
}

// Sync is the whole-file convenience wrapper: given the receiver's old
// copy and the sender's new file, it produces (via signature and delta)
// the receiver's reconstruction, returning it together with the number of
// literal bytes that had to travel.
func Sync(old, new []byte, blockSize int) ([]byte, int, error) {
	sig, err := NewSignature(old, blockSize)
	if err != nil {
		return nil, 0, err
	}
	d, err := Compute(sig, new, md5.Sum(new))
	if err != nil {
		return nil, 0, err
	}
	var sum Running
	sum.Write(old)
	got, err := Apply(nil, old, d, &sum)
	if err != nil {
		return nil, 0, err
	}
	return got, d.LiteralBytes(), nil
}

package delta

import (
	"crypto/md5"
	"fmt"
	"hash"
)

// Running summarises a growing run of bytes: its length, its md5 and its
// weak checksum, each extended by only the bytes written since the last
// call. The weak checksum grows in O(1) per byte, because appending x to a
// run adds x to the byte sum and the new byte sum to the weighted sum. A
// run of at most one block signs exactly as NewSignature would, so a file
// that only grows can be summarised one appended byte at a time. The zero
// value summarises the empty run.
type Running struct {
	h    hash.Hash
	n    int
	a, b uint16 // WeakSum's halves; uint16 arithmetic is its mod 2^16
	// sum is Sum's buffer, kept here so that a digest does not cost a
	// heap allocation per call.
	sum [md5.Size]byte
}

func (r *Running) digest() hash.Hash {
	if r.h == nil {
		r.h = md5.New()
	}
	return r.h
}

// Write appends p to the run. It never fails.
func (r *Running) Write(p []byte) (int, error) {
	r.digest().Write(p)
	a, b := r.a, r.b
	for _, x := range p {
		a += uint16(x)
		b += a
	}
	r.a, r.b = a, b
	r.n += len(p)
	return len(p), nil
}

// Reset empties the run.
func (r *Running) Reset() {
	r.digest().Reset()
	r.n, r.a, r.b = 0, 0, 0
}

// Len returns the run's length in bytes.
func (r *Running) Len() int { return r.n }

// Sum returns the run's md5, as md5.Sum of its bytes would.
func (r *Running) Sum() [md5.Size]byte {
	r.digest().Sum(r.sum[:0])
	return r.sum
}

// Weak returns the run's weak checksum, as WeakSum of its bytes would.
func (r *Running) Weak() uint32 { return uint32(r.a) | uint32(r.b)<<16 }

// Signature returns what NewSignature computes from the run's bytes with
// the given block size. A run longer than one block is an error: the sums
// of its blocks are not kept.
func (r *Running) Signature(blockSize int) (*Signature, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("delta: non-positive block size %d", blockSize)
	}
	if r.n > blockSize {
		return nil, fmt.Errorf("delta: running summary of %d bytes spans more than one %d-byte block", r.n, blockSize)
	}
	sig := &Signature{BlockSize: blockSize, FileLen: r.n}
	if r.n > 0 {
		sig.Blocks = []BlockSig{{Weak: r.Weak(), Strong: r.Sum()}}
	}
	return sig, nil
}

package delta

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"io"
)

// Marshal serialises a signature for the wire: the receiver sends it to
// the sender so the sender can compute a delta.
func (s *Signature) Marshal() []byte { return s.AppendMarshal(nil) }

// MarshalSize returns the length of Marshal's output.
func (s *Signature) MarshalSize() int { return 8 + 8 + 8 + len(s.Blocks)*(8+4+md5.Size) }

// AppendMarshal appends the bytes Marshal returns to dst and returns the
// extended slice. When dst lacks the room, it is copied once into a new
// buffer of exactly the size needed; a caller that gives dst a capacity
// of len(dst)+MarshalSize() puts its own header before the signature in
// one allocation.
func (s *Signature) AppendMarshal(dst []byte) []byte {
	if n := s.MarshalSize(); cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.BlockSize))
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.FileLen))
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(s.Blocks)))
	for _, b := range s.Blocks {
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Index))
		dst = binary.BigEndian.AppendUint32(dst, b.Weak)
		dst = append(dst, b.Strong[:]...)
	}
	return dst
}

// UnmarshalSignature parses a serialised signature.
func UnmarshalSignature(p []byte) (*Signature, error) {
	r := bytes.NewReader(p)
	var scratch [8]byte
	getUint := func() (uint64, error) {
		if _, err := io.ReadFull(r, scratch[:]); err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint64(scratch[:]), nil
	}
	bs, err := getUint()
	if err != nil {
		return nil, fmt.Errorf("delta: unmarshal signature block size: %w", err)
	}
	if bs == 0 || bs > 1<<30 {
		return nil, fmt.Errorf("delta: implausible signature block size %d", bs)
	}
	fl, err := getUint()
	if err != nil {
		return nil, err
	}
	n, err := getUint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("delta: implausible signature block count %d", n)
	}
	sig := &Signature{BlockSize: int(bs), FileLen: int(fl)}
	for i := uint64(0); i < n; i++ {
		idx, err := getUint()
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r, scratch[:4]); err != nil {
			return nil, err
		}
		b := BlockSig{Index: int(idx), Weak: binary.BigEndian.Uint32(scratch[:4])}
		if _, err := io.ReadFull(r, b.Strong[:]); err != nil {
			return nil, err
		}
		sig.Blocks = append(sig.Blocks, b)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("delta: %d trailing signature bytes", r.Len())
	}
	return sig, nil
}

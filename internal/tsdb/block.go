// Package tsdb is frostlab's embedded compressed time-series store: the
// long-retention substrate behind the telemetry, mirror, and campaign
// planes. The paper logged one winter of tent, intake and outlet
// temperatures from Lascar loggers and lm-sensors; the ROADMAP's fleets of
// 10k–100k hosts over multi-year climates need the same record at ~1000×
// the volume, which a []Point at 24 bytes per sample cannot hold.
//
// The design is Gorilla-style (Facebook's in-memory TSDB, VLDB'15):
//
//   - timestamps are delta-of-delta encoded with variable-width integers,
//     so a regularly sampled series pays one bit per timestamp;
//   - values are XOR-compressed float64s (leading/trailing-zero windows
//     over the XOR with the previous value), with a decimal fast path:
//     instrument readings that round-trip through a fixed decimal
//     representation (Lascar exports carry 3 decimals, lm-sensors lines
//     one) are encoded as delta-of-delta scaled integers instead, which
//     compresses quantised sensor data far below what bitwise XOR can;
//   - samples accumulate in a mutable per-series head and seal into
//     fixed-size immutable blocks carrying their own index entry
//     (series ID, min/max time, count);
//   - forward iterators decode straight from the compressed bytes without
//     materialising sample slices, and block min/max times give random
//     access to any window;
//   - an optional on-disk segment format (length-prefixed, CRC32-guarded
//     records in the same spirit as internal/wire's framing) provides
//     checkpoint durability without mmap.
//
// Every encoding is bitwise lossless: decode returns exactly the float64
// bits that were appended, including NaN payloads, ±Inf and -0.
package tsdb

import (
	"errors"
	"math"
	bits64 "math/bits"
)

// Errors returned by the package.
var (
	// ErrOutOfOrder reports an append whose timestamp precedes the
	// series' newest sample.
	ErrOutOfOrder = errors.New("tsdb: append out of order")
	// ErrCorrupt reports undecodable block or segment bytes.
	ErrCorrupt = errors.New("tsdb: corrupt data")
	// ErrNoSeries reports a query for a series the store has never seen.
	ErrNoSeries = errors.New("tsdb: no such series")
)

// DefaultBlockSamples is how many samples a head accumulates before
// sealing into an immutable block: two weeks of 20-minute collection
// rounds, a few hundred compressed bytes for typical sensor series.
const DefaultBlockSamples = 1024

// decScale is the decimal fast path's fixed scale: values are stored as
// integers of 1/10000ths when that representation round-trips bitwise.
// It covers every decimal precision the instruments emit (Lascar CSV
// exports use 3 decimals, lm-sensors lines 1) with headroom.
const decScale = 1e4

// decMaxAbs bounds values attempted on the decimal path so the scaled
// integer stays well inside int64.
const decMaxAbs = 1e14

// decimalInt reports whether v is exactly float64(n)/decScale for an
// integer n, and returns that n. The recomputation check is authoritative:
// it is what guarantees the decoder — which computes the same division —
// reproduces v bit for bit. NaN, ±Inf, -0 and out-of-range values fail the
// check and fall back to the XOR path.
func decimalInt(v float64) (int64, bool) {
	if v != v || v > decMaxAbs || v < -decMaxAbs {
		return 0, false
	}
	n := int64(math.Round(v * decScale))
	if math.Float64bits(float64(n)/decScale) != math.Float64bits(v) {
		return 0, false
	}
	return n, true
}

// invalidWindow marks the XOR leading/trailing window as unset.
const invalidWindow = 0xff

// appender is the streaming encoder state shared by the store's per-series
// heads and the standalone Builder. The stream it produces is what Block
// holds and Iter decodes:
//
//	sample 0:  64 raw timestamp bits, 64 raw value bits
//	sample i:  varint(timestamp delta-of-delta)
//	           1 mode bit:
//	             0 → varint(delta-of-delta of the scaled decimal integer)
//	             1 → Gorilla XOR: '0' for equal bits, '10' + window bits
//	                 to reuse the previous leading/trailing window,
//	                 '11' + 5 leading bits + 6 (significant-1) bits +
//	                 significant bits to open a new window
//
// The decimal delta chain and the XOR window survive samples encoded by
// the other mode; both sides of the codec update the full state for every
// sample, so the decoder's state machine is identical by construction.
type appender struct {
	bw bitWriter

	count      uint32
	minT, maxT int64
	prevDelta  int64

	prevV             uint64
	leading, trailing uint8

	decN, decDelta int64
	decOK          bool
}

// reset empties the appender, keeping the bit buffer's capacity.
func (a *appender) reset() {
	a.bw.reset()
	a.count = 0
	a.prevDelta = 0
	a.leading, a.trailing = invalidWindow, invalidWindow
	a.decN, a.decDelta, a.decOK = 0, 0, false
}

// append encodes one sample. Timestamps must be non-decreasing.
func (a *appender) append(t int64, v float64) error {
	bits := math.Float64bits(v)
	if a.count == 0 {
		a.bw.writeBits(uint64(t), 64)
		a.bw.writeBits(bits, 64)
		a.minT = t
		a.leading, a.trailing = invalidWindow, invalidWindow
	} else {
		if t < a.maxT {
			return ErrOutOfOrder
		}
		delta := t - a.maxT
		writeVarint(&a.bw, delta-a.prevDelta)
		a.prevDelta = delta
		a.writeValue(bits, v)
	}
	a.maxT = t
	a.prevV = bits
	if n, ok := decimalInt(v); ok {
		if a.decOK {
			a.decDelta = n - a.decN
		} else {
			a.decDelta = 0
		}
		a.decN, a.decOK = n, true
	} else {
		a.decOK = false
	}
	a.count++
	return nil
}

// writeValue encodes a non-first value: the decimal fast path when both
// this sample and the previous decimal state allow it, Gorilla XOR
// otherwise.
func (a *appender) writeValue(bits uint64, v float64) {
	if n, ok := decimalInt(v); ok && a.decOK {
		a.bw.writeBit(0)
		writeVarint(&a.bw, (n-a.decN)-a.decDelta)
		return
	}
	a.bw.writeBit(1)
	xor := a.prevV ^ bits
	if xor == 0 {
		a.bw.writeBit(0)
		return
	}
	a.bw.writeBit(1)
	lead := uint8(bits64.LeadingZeros64(xor))
	if lead > 31 {
		lead = 31 // 5-bit field; deeper zeros ride along as window bits
	}
	trail := uint8(bits64.TrailingZeros64(xor))
	if a.leading != invalidWindow && lead >= a.leading && trail >= a.trailing {
		// The previous window still covers every significant bit.
		a.bw.writeBit(0)
		a.bw.writeBits(xor>>a.trailing, uint(64-a.leading-a.trailing))
		return
	}
	a.bw.writeBit(1)
	sig := 64 - lead - trail
	a.bw.writeBits(uint64(lead), 5)
	a.bw.writeBits(uint64(sig-1), 6)
	a.bw.writeBits(xor>>trail, uint(sig))
	a.leading, a.trailing = lead, trail
}

// Block is an immutable sealed run of compressed samples plus its index
// entry. Blocks are safe for concurrent use; the data slice is never
// mutated after sealing.
type Block struct {
	seriesID   uint32
	count      uint32
	minT, maxT int64
	data       []byte
}

// seal copies the appender's stream into an immutable block and resets the
// appender for the next block.
func (a *appender) seal(seriesID uint32) Block {
	b := Block{
		seriesID: seriesID,
		count:    a.count,
		minT:     a.minT,
		maxT:     a.maxT,
		data:     append([]byte(nil), a.bw.bytes()...),
	}
	a.reset()
	return b
}

// Count returns the number of samples in the block.
func (b Block) Count() int { return int(b.count) }

// MinTime returns the first sample's timestamp (UnixNano).
func (b Block) MinTime() int64 { return b.minT }

// MaxTime returns the last sample's timestamp (UnixNano).
func (b Block) MaxTime() int64 { return b.maxT }

// CompressedBytes returns the size of the compressed sample stream.
func (b Block) CompressedBytes() int { return len(b.data) }

// Iter returns a forward iterator over the block's samples. The iterator
// decodes directly from the compressed bytes; it never materialises a
// sample slice.
func (b Block) Iter() Iter { return newIter(b.data, b.count) }

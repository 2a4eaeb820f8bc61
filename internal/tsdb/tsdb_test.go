package tsdb

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// sample is a raw (t, v) pair for test corpora.
type sample struct {
	t int64
	v float64
}

// Builder encodes an ordered sample stream into sealed blocks of up to
// maxSamples each, without a Store or its segment files.
type Builder struct {
	app        appender
	maxSamples int
	blocks     []Block
}

// NewBuilder returns a builder sealing blocks every maxSamples samples
// (DefaultBlockSamples when <= 0).
func NewBuilder(maxSamples int) *Builder {
	if maxSamples <= 0 {
		maxSamples = DefaultBlockSamples
	}
	b := &Builder{maxSamples: maxSamples}
	b.app.reset()
	return b
}

// Append encodes one sample. Timestamps must be non-decreasing.
func (b *Builder) Append(t int64, v float64) error {
	if err := b.app.append(t, v); err != nil {
		return err
	}
	if int(b.app.count) >= b.maxSamples {
		b.blocks = append(b.blocks, b.app.seal(0))
	}
	return nil
}

// Finish seals any partial head block and returns every block built. The
// builder is reusable afterwards.
func (b *Builder) Finish() []Block {
	if b.app.count > 0 {
		b.blocks = append(b.blocks, b.app.seal(0))
	}
	out := b.blocks
	b.blocks = nil
	return out
}

// roundTrip encodes samples through a Builder and decodes them back,
// asserting bitwise equality.
func roundTrip(t *testing.T, name string, in []sample, blockSamples int) []Block {
	t.Helper()
	b := NewBuilder(blockSamples)
	for i, s := range in {
		if err := b.Append(s.t, s.v); err != nil {
			t.Fatalf("%s: append %d: %v", name, i, err)
		}
	}
	blocks := b.Finish()
	it := NewSeriesIter(blocks, math.MinInt64, math.MaxInt64)
	for i, s := range in {
		if !it.Next() {
			t.Fatalf("%s: iterator ended at %d/%d: %v", name, i, len(in), it.Err())
		}
		gt, gv := it.At()
		if gt != s.t {
			t.Fatalf("%s: sample %d timestamp %d, want %d", name, i, gt, s.t)
		}
		if math.Float64bits(gv) != math.Float64bits(s.v) {
			t.Fatalf("%s: sample %d value %x (%v), want %x (%v)",
				name, i, math.Float64bits(gv), gv, math.Float64bits(s.v), s.v)
		}
	}
	if it.Next() {
		t.Fatalf("%s: iterator yielded extra samples", name)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("%s: iterator error: %v", name, err)
	}
	return blocks
}

func TestRoundTripRegularDecimal(t *testing.T) {
	// A 20-minute cadence with 0.1-quantised readings: the exact shape
	// the monitoring plane ingests from sensors.log lines.
	base := time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var in []sample
	for i := 0; i < 5000; i++ {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(
			5*math.Sin(float64(i)/40)-3, 'f', 1, 64), 64)
		in = append(in, sample{base + int64(i)*int64(20*time.Minute), v})
	}
	blocks := roundTrip(t, "regular-decimal", in, 1024)
	var comp int
	for _, b := range blocks {
		comp += b.CompressedBytes()
	}
	raw := 16 * len(in)
	if ratio := float64(raw) / float64(comp); ratio < 6 {
		t.Errorf("quantised sensor series compressed only %.1fx (raw %d, compressed %d)",
			ratio, raw, comp)
	}
}

func TestRoundTripFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := time.Unix(1257033600, 0).UnixNano()
	var in []sample
	tNow := base
	for i := 0; i < 3000; i++ {
		tNow += int64(time.Minute) + int64(rng.Intn(1000))
		in = append(in, sample{tNow, 5*math.Sin(float64(i)/40) + rng.NormFloat64()})
	}
	roundTrip(t, "full-precision", in, 512)
}

func TestRoundTripSpecials(t *testing.T) {
	nanPayload := math.Float64frombits(0x7ff8dead_beef0001)
	in := []sample{
		{0, 0}, {1, math.Copysign(0, -1)}, {2, math.NaN()},
		{3, nanPayload}, {4, math.Inf(1)}, {5, math.Inf(-1)},
		{5, 1e300}, {6, -1e-300}, {7, 4.1}, {8, 4.1}, {9, -4.2},
		{100, math.MaxFloat64}, {101, math.SmallestNonzeroFloat64},
	}
	roundTrip(t, "specials", in, 4)
}

func TestRoundTripIrregularTimestamps(t *testing.T) {
	// Gaps, repeats, and jitter — the paper's Lascar record has all
	// three (§4.2 calls out a multi-day hole).
	in := []sample{
		{0, 1}, {1, 2}, {1, 3}, {2, 4},
		{int64(72 * time.Hour), 5},
		{int64(72*time.Hour) + 1, 6},
		{math.MaxInt64 / 2, 7},
	}
	roundTrip(t, "irregular", in, 3)
}

func TestRoundTripPropertyRandom(t *testing.T) {
	// Property-style sweep: random series shapes (quantised, smooth,
	// constant, adversarial bit patterns) × random block sizes must all
	// round-trip bitwise.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		blockSamples := 1 + rng.Intn(100)
		var in []sample
		tNow := int64(rng.Uint64() >> 2)
		for i := 0; i < n; i++ {
			tNow += int64(rng.Intn(3)) * int64(rng.Intn(100000))
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = math.Float64frombits(rng.Uint64())
			case 1:
				v = float64(rng.Intn(2000)-1000) / 10
			case 2:
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			case 3:
				v = float64(rng.Intn(3))
			}
			in = append(in, sample{tNow, v})
		}
		roundTrip(t, "property", in, blockSamples)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	b := NewBuilder(0)
	if err := b.Append(100, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(99, 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("backwards append: got %v, want ErrOutOfOrder", err)
	}
	s := NewStore(2)
	for i := int64(0); i < 4; i++ {
		if err := s.Append("x", i*10, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Out of order against sealed-block history with an empty head.
	if err := s.Append("x", 5, 0); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append before sealed history: got %v, want ErrOutOfOrder", err)
	}
}

func TestStoreQueryWindow(t *testing.T) {
	s := NewStore(8)
	base := int64(1e15)
	step := int64(20 * time.Minute)
	for i := 0; i < 100; i++ {
		if err := s.Append("01/cpu", base+int64(i)*step, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := base+10*step, base+20*step
	it, err := s.Query("01/cpu", from, to)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for it.Next() {
		tt, v := it.At()
		if tt < from || tt > to {
			t.Fatalf("sample %v outside window", tt)
		}
		got = append(got, v)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("window query returned %v", got)
	}
	if _, err := s.Query("nope", 0, 1); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("unknown series: got %v", err)
	}
}

func TestStoreInfoAndStats(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		if err := s.Append("b", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append("a", 5, 1); err != nil {
		t.Fatal(err)
	}
	infos := s.Series()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("series listing %v", infos)
	}
	if infos[1].Samples != 10 || infos[1].Blocks != 2 {
		t.Fatalf("series b info %+v", infos[1])
	}
	if infos[1].MinTime != 0 || infos[1].MaxTime != 9 {
		t.Fatalf("series b time range %+v", infos[1])
	}
	st := s.Stats()
	if st.Series != 2 || st.Samples != 11 || st.Blocks != 2 || st.CompressedBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	s := NewStore(16)
	base := time.Date(2010, 2, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	want := map[string][]sample{}
	for _, name := range []string{"01/cpu", "01/disk0", "02/cpu"} {
		for i := 0; i < 100; i++ {
			smp := sample{base + int64(i)*int64(20*time.Minute), float64(i%7) * 1.5}
			want[name] = append(want[name], smp)
			if err := s.Append(name, smp.t, smp.v); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := s.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewStore(16)
	if err := restored.ReadSegment(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for name, samples := range want {
		it, err := restored.QueryAll(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, smp := range samples {
			if !it.Next() {
				t.Fatalf("%s: restored series ended at %d: %v", name, i, it.Err())
			}
			gt, gv := it.At()
			if gt != smp.t || math.Float64bits(gv) != math.Float64bits(smp.v) {
				t.Fatalf("%s: restored sample %d = (%d, %v), want (%d, %v)",
					name, i, gt, gv, smp.t, smp.v)
			}
		}
		if it.Next() {
			t.Fatalf("%s: extra restored samples", name)
		}
	}
	// Appends continue after the restored history; earlier times are
	// rejected.
	last := want["01/cpu"][99].t
	if err := restored.Append("01/cpu", last-1, 0); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append before restored history: got %v", err)
	}
	if err := restored.Append("01/cpu", last+1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentDetectsCorruption(t *testing.T) {
	s := NewStore(8)
	for i := 0; i < 40; i++ {
		if err := s.Append("x", int64(i)*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one bit anywhere in the body: the CRC must catch it.
	for _, pos := range []int{6, len(good) / 2, len(good) - 3} {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x10
		if err := NewStore(8).ReadSegment(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at %d went undetected", pos)
		}
	}
	// Truncation mid-record is detected too.
	if err := NewStore(8).ReadSegment(bytes.NewReader(good[:len(good)-5])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated segment: got %v, want ErrCorrupt", err)
	}
	// Bad magic.
	if err := NewStore(8).ReadSegment(bytes.NewReader([]byte("BOGUS!"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

func TestHeadAppendAllocs(t *testing.T) {
	// The acceptance gate: 0 allocs per appended sample on the warm head
	// path. The head buffer is pre-grown by a first pass of appends;
	// the measured window stays inside one block.
	s := NewStore(1 << 20)
	id := s.EnsureSeries("warm")
	tNow := int64(0)
	for i := 0; i < 4096; i++ {
		tNow += int64(20 * time.Minute)
		if err := s.AppendID(id, tNow, float64(i%10)/10); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tNow += int64(20 * time.Minute)
		if err := s.AppendID(id, tNow, 4.2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm head append allocates %.1f times per sample, want 0", allocs)
	}
}

func TestIterCorruptBlockStops(t *testing.T) {
	// A block whose count claims more samples than its bytes hold must
	// stop with ErrCorrupt, not fabricate data.
	b := NewBuilder(0)
	for i := 0; i < 10; i++ {
		if err := b.Append(int64(i)*1000, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	blocks := b.Finish()
	short := Block{
		count: blocks[0].count + 100,
		minT:  blocks[0].minT,
		maxT:  blocks[0].maxT,
		data:  blocks[0].data,
	}
	it := short.Iter()
	n := 0
	for it.Next() {
		n++
		if n > 200 {
			t.Fatal("iterator did not terminate")
		}
	}
	if !errors.Is(it.Err(), ErrCorrupt) {
		t.Fatalf("short block: got %v, want ErrCorrupt", it.Err())
	}
}

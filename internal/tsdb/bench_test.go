package tsdb

import (
	"math"
	"strconv"
	"testing"
	"time"
)

// sensorCorpus builds n samples shaped like the monitoring plane's
// ingested sensors.log readings: 20-minute cadence, one-decimal
// quantisation, a slow daily sinusoid around the paper's winter
// temperatures.
func sensorCorpus(n int) []sample {
	base := time.Date(2009, 11, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	out := make([]sample, n)
	for i := range out {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(
			8*math.Sin(float64(i)/72)-2, 'f', 1, 64), 64)
		out[i] = sample{base + int64(i)*int64(20*time.Minute), v}
	}
	return out
}

func BenchmarkHeadAppend(b *testing.B) {
	corpus := sensorCorpus(1 << 16)
	s := NewStore(1 << 20) // no sealing inside the measured loop
	id := s.EnsureSeries("bench")
	// Warm the head buffer so the measured path is the steady state.
	for _, smp := range corpus[:1024] {
		_ = s.AppendID(id, smp.t, smp.v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	tNow := corpus[1023].t
	for i := 0; i < b.N; i++ {
		smp := corpus[1024+i%(len(corpus)-1024)]
		// 1 s stride: the same constant-cadence dod path as the sensor
		// corpus, without overflowing UnixNano at large b.N.
		tNow += int64(time.Second)
		if err := s.AppendID(id, tNow, smp.v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockDecode(b *testing.B) {
	corpus := sensorCorpus(1 << 14)
	bl := NewBuilder(DefaultBlockSamples)
	for _, smp := range corpus {
		if err := bl.Append(smp.t, smp.v); err != nil {
			b.Fatal(err)
		}
	}
	blocks := bl.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewSeriesIter(blocks, math.MinInt64, math.MaxInt64)
		n := 0
		for it.Next() {
			n++
		}
		if n != len(corpus) || it.Err() != nil {
			b.Fatalf("decoded %d/%d: %v", n, len(corpus), it.Err())
		}
	}
}

// BenchmarkDecodeNsPerSample gates the per-sample decode cost of the
// sensor corpus at 50 ns/sample.
func BenchmarkDecodeNsPerSample(b *testing.B) {
	corpus := sensorCorpus(1 << 14)
	bl := NewBuilder(DefaultBlockSamples)
	for _, smp := range corpus {
		_ = bl.Append(smp.t, smp.v)
	}
	blocks := bl.Finish()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		it := NewSeriesIter(blocks, math.MinInt64, math.MaxInt64)
		for it.Next() {
			total++
		}
	}
	b.StopTimer()
	perSample := float64(b.Elapsed().Nanoseconds()) / float64(total)
	b.ReportMetric(perSample, "ns/sample")
	if perSample > 50 {
		b.Fatalf("decode costs %.2f ns/sample, budget 50", perSample)
	}
}

// TestCompressionRatio gates the encoding on the sensor corpus: at least
// 6x smaller than raw 16-byte (timestamp, value) samples. The corpus and
// encoder are deterministic, so the ratio is too.
func TestCompressionRatio(t *testing.T) {
	corpus := sensorCorpus(1 << 14)
	bl := NewBuilder(DefaultBlockSamples)
	for _, smp := range corpus {
		if err := bl.Append(smp.t, smp.v); err != nil {
			t.Fatal(err)
		}
	}
	comp := 0
	for _, blk := range bl.Finish() {
		comp += blk.CompressedBytes()
	}
	ratio := float64(16*len(corpus)) / float64(comp)
	t.Logf("%.2fx vs raw16, %.2fx vs point24, %.2f bits/sample",
		ratio, float64(24*len(corpus))/float64(comp), float64(comp*8)/float64(len(corpus)))
	if ratio < 6 {
		t.Fatalf("compression %.2fx vs raw16, budget at least 6x", ratio)
	}
}

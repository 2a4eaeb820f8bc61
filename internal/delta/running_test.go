package delta

import (
	"crypto/md5"
	"math/rand"
	"reflect"
	"testing"
)

// checkRunning writes data in the chunks chunk returns and, after each,
// checks two running summaries against the one-shot functions: one over
// everything written, and one restarted at each block boundary the way a
// receiver restarts its tail summary.
func checkRunning(t testing.TB, data []byte, bs int, chunk func() int) {
	t.Helper()
	var whole, tail Running
	tailFrom := 0
	for n := 0; n < len(data); {
		k := chunk()
		if k > len(data)-n {
			k = len(data) - n
		}
		whole.Write(data[n : n+k])
		n += k
		if from := n / bs * bs; from > tailFrom {
			tail.Reset()
			tail.Write(data[from:n])
			tailFrom = from
		} else {
			tail.Write(data[n-k : n])
		}

		run := data[:n]
		if whole.Len() != n || whole.Weak() != WeakSum(run) || whole.Sum() != md5.Sum(run) {
			t.Fatalf("bs %d, %d bytes: running len/weak/md5 %d/%08x/%x, one-shot %08x/%x",
				bs, n, whole.Len(), whole.Weak(), whole.Sum(), WeakSum(run), md5.Sum(run))
		}
		got, err := whole.Signature(bs)
		if n > bs {
			if err == nil {
				t.Fatalf("bs %d: signed a running summary of %d bytes", bs, n)
			}
		} else {
			want, _ := NewSignature(run, bs)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("bs %d, %d bytes: running signature %+v (%v), NewSignature %+v", bs, n, got, err, want)
			}
		}
		got, err = tail.Signature(bs)
		want, _ := NewSignature(data[tailFrom:n], bs)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("bs %d, tail [%d,%d): running signature %+v (%v), NewSignature %+v", bs, tailFrom, n, got, err, want)
		}
	}
}

// TestRunningSummaryMatchesOneShot holds Running to NewSignature, WeakSum
// and md5.Sum over random chunked appends that cross block boundaries.
func TestRunningSummaryMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, bs := range []int{1, 7, 64, DefaultBlockSize} {
		data := make([]byte, 5*bs+rng.Intn(bs)+1)
		rng.Read(data)
		// Empty, sub-block, whole-block and multi-block chunks.
		checkRunning(t, data, bs, func() int {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return 1 + rng.Intn(bs)
			case 2:
				return bs
			default:
				return rng.Intn(3 * bs)
			}
		})
	}
	var empty Running
	if empty.Sum() != md5.Sum(nil) || empty.Weak() != WeakSum(nil) {
		t.Error("the zero Running does not summarise the empty run")
	}
	if _, err := empty.Signature(0); err == nil {
		t.Error("zero block size accepted")
	}
}

// FuzzRunningSummary checks the same property over arbitrary bytes, block
// sizes and chunkings.
func FuzzRunningSummary(f *testing.F) {
	f.Add([]byte("2010-02-19T12:10:00Z cpu=-4.1\n2010-02-19T12:30:00Z cpu=-3.9\n"), uint8(16), []byte{3, 0, 17, 1})
	f.Add(randBytes(5000), uint8(255), []byte{200, 0, 255})
	f.Add([]byte{}, uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, data []byte, bs uint8, chunks []byte) {
		// Each chunk size is used once, then the rest goes in one write.
		checkRunning(t, data, int(bs)+1, func() int {
			if len(chunks) == 0 {
				return len(data)
			}
			k := int(chunks[0])
			chunks = chunks[1:]
			return k
		})
	})
}

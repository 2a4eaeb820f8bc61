package main

import (
	"compress/flate"
	"crypto/md5"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// refCalibSeconds is the calibration kernel's time on the reference host
// (see README.md). Gated timings are reported in reference seconds: the
// measured seconds × refCalibSeconds ÷ the kernel's time beside them.
const refCalibSeconds = 0.040

// calibrator is a fixed kernel of the kinds of work the simulator does:
// md5 over a buffer, deflating log-like text, allocating short-lived
// objects for the garbage collector to reclaim on the second core, and
// transcendental float arithmetic like the weather and thermal models'.
// It uses only the standard library, so no change to the program moves
// it; what moves it is the speed the host gives the process. Other tenants
// of a shared host slow it down in phases of seconds to minutes, and the
// kernel, run between units, slows down with them.
type calibrator struct {
	buf  []byte
	text []byte
	fw   *flate.Writer
	sink float64
}

// calibNode is the allocation pass's garbage: 200,000 of them, about
// 13 MB, several times the heap goal after a collection.
type calibNode struct {
	next *calibNode
	v    [6]int64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{buf: make([]byte, 6<<20), text: make([]byte, 160<<10)}
	r.Read(c.buf)
	words := []string{"host ", "temp ", "-12.5 ", "42.0 ", "ok\n", "fail ", "rh 87 ", "cycle "}
	for i := 0; i < len(c.text); {
		i += copy(c.text[i:], words[r.Intn(len(words))])
	}
	c.fw, _ = flate.NewWriter(io.Discard, flate.DefaultCompression) // level is valid
	return c
}

// run times one pass of the kernel. It collects the heap first, untimed,
// so every pass's allocations start from the same state whatever the unit
// before it left behind. Twice: the first collection only moves sync.Pool
// contents, such as the JSON encoder's buffers after a 10,000-host
// SaveResults, to the pools' victim caches, where they still count as
// live and would raise the heap goal the allocation pass runs against.
func (c *calibrator) run() time.Duration {
	runtime.GC()
	runtime.GC()
	t0 := time.Now()
	sum := md5.Sum(c.buf)
	c.sink += float64(sum[0])

	c.fw.Reset(io.Discard)
	c.fw.Write(c.text) // io.Discard never fails
	c.fw.Close()

	var head *calibNode
	for i := 0; i < 200000; i++ {
		head = &calibNode{next: head, v: [6]int64{int64(i)}}
	}
	c.sink += float64(head.v[0])

	for i := 0; i < 250000; i++ {
		t := float64(i) * 1e-4
		c.sink += math.Exp(-t*1e-3) * math.Sin(t) * math.Sqrt(t+1)
	}
	return time.Since(t0)
}

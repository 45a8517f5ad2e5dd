package main

import (
	"runtime"
	"time"
)

// Calibration kernel. This machine's speed drifts by tens of percent
// over tens of seconds, so raw wall time is not comparable between two
// runs of the same binary. Every timed interval is therefore bracketed
// by this fixed piece of work, and reported in normalised seconds:
//
//	norm_s = wall_s × calRefS / mean(cal before, cal after)
//
// The kernel imports nothing from the repo, runs on one goroutine,
// allocates nothing and touches only memory faulted in at construction:
// a kernel that allocates or uses two goroutines slows down after an
// engine run has grown the heap (the scavenger takes a core), which
// would reward the code under test for allocating.
//
// Its shape is the engines' scatter: a sequential pass over a 16 MiB
// edge array whose endpoints fall, block by block, inside one 64 KiB
// window of a 4 MiB level array — a partition's vertex state. That
// locality matters. Sizing runs interleaved candidate kernels with real
// queries for ten minutes while the machine's speed moved by 40%: with
// endpoints spread over the whole level array the kernel slowed down
// about 1.4 times as much as the engines did (it is bound by cache
// misses they do not have), a memcpy or a file write/read kernel
// tracked them poorly, and this one tracked both the out-of-core and
// the in-memory path at an exponent of 1.0 (fit: 1.07 and 0.97),
// leaving 4% between 20-query windows where raw time left 10%.
const (
	// calRefS is the kernel's time on the machine the baseline was taken
	// on; it only fixes the scale of normalised seconds.
	calRefS = 0.080

	calEdges   = 2 << 20  // 8-byte edge-like records: 16 MiB
	calLevels  = 1 << 20  // 4-byte level records: 4 MiB
	calWindow  = 16 << 10 // level records per window: 64 KiB
	calWindows = calLevels / calWindow
	calDepth   = 8  // levels are uniform in [0, calDepth)
	calPasses  = 10 // sized so one run takes 60–100 ms here
)

type calibrator struct {
	edges []uint64
	level []uint32
	sink  uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{edges: make([]uint64, calEdges), level: make([]uint32, calLevels)}
	x := uint64(0x9E3779B97F4A7C15) // fixed: the kernel never depends on -seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const blockEdges = calEdges / calWindows
	for i := range c.edges {
		r := next()
		base := uint64(i/blockEdges) * calWindow
		c.edges[i] = (base+uint64(uint32(r))%calWindow)<<32 | (base + (r>>32)%calWindow)
	}
	for i := range c.level {
		c.level[i] = uint32(next() % calDepth)
	}
	return c
}

// kernel classifies each edge by its source's level and marks the
// destination. The low byte of a level entry is read-only state and the
// marks go to the high bytes, so every call does identical work.
func (c *calibrator) kernel() uint64 {
	var sum uint64
	level := c.level
	for pass := uint32(0); pass < calPasses; pass++ {
		want := pass % calDepth
		for _, e := range c.edges {
			if level[e>>32]&0xff != want {
				continue
			}
			d := uint32(e)
			if l := level[d]; l&0xff > want {
				level[d] = l&0xff | (pass+1)<<8
				sum += uint64(d)
			}
		}
	}
	return sum
}

// measure times one kernel run, after a collection so no background GC
// work competes with it. Never call it inside a timed interval.
func (c *calibrator) measure() float64 {
	runtime.GC()
	t0 := time.Now()
	c.sink += c.kernel()
	return time.Since(t0).Seconds()
}

// normalise converts a wall interval to normalised seconds given the
// kernel times measured immediately before and after it.
func normalise(wallS, calBefore, calAfter float64) float64 {
	return wallS * calRefS / ((calBefore + calAfter) / 2)
}

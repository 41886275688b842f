package main

import (
	"slices"
	"time"
)

// On a shared virtual machine the host's speed changes by up to a
// factor of two within minutes, as other tenants come and go, and that
// drift, not noise within a run, sets the spread of wall-time medians
// between runs. The end-to-end run therefore times a fixed calibration kernel in short
// blocks between its ops and reports its wall-time metrics at a
// reference host speed: the measured rate times, and the measured set-up
// time over, the kernel's median time divided by calRefNs. The kernel
// runs none of the program's code and allocates nothing, so a change to
// the program moves a scaled metric exactly as it moves the measured one.
const (
	calEvery = 500 * time.Millisecond // ops between calibration blocks
	calBlock = 40 * time.Millisecond  // kernel time per block
	// calRefNs is one kernel call on the reference host, about what it
	// takes on a 2-vCPU x86-64 virtual machine.
	calRefNs = 1e6
	calKeys  = 50000
)

// calibration is the kernel's state and its timings.
type calibration struct {
	counts map[uint64]uint64
	keys   []uint64
	x      uint64
	ns     []float64 // wall time per kernel call
}

func newCalibration() *calibration {
	// The timings are reserved up front, so the run allocates nothing for
	// them and the program's GC cycles do not move.
	c := &calibration{counts: make(map[uint64]uint64, calKeys), keys: make([]uint64, 4096), x: 12345,
		ns: make([]float64, 0, 1<<14)}
	for k := uint64(0); k < calKeys; k++ {
		c.counts[k] = 0
	}
	c.kernel()
	return c
}

// kernel hashes 20000 pseudo-random keys into a 50000-entry map and sorts
// 4096 pseudo-random words: branchy, cache-missing work of the kind the
// simulator does, in a fixed amount.
func (c *calibration) kernel() {
	x := c.x
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < 20000; i++ {
		c.counts[next()%calKeys]++
	}
	for i := range c.keys {
		c.keys[i] = next()
	}
	slices.Sort(c.keys)
	c.x = x
}

// measure times kernel calls for calBlock.
func (c *calibration) measure() {
	end := time.Now().Add(calBlock)
	for time.Now().Before(end) {
		t0 := time.Now()
		c.kernel()
		c.ns = append(c.ns, float64(time.Since(t0).Nanoseconds()))
	}
}

// slowdown is how much slower the host ran than the reference: the
// kernel's median time over calRefNs.
func (c *calibration) slowdown() float64 { return median(c.ns) / calRefNs }

// Command perfbench is the repository's benchmark. It drives one seeded
// workload through the simulator's public Go API for a fixed wall-clock
// budget, checks every op's output, and prints one JSON result line.
//
//	perfbench --workload fwd1024 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with every observability
// plane off. --trace 1 measures the per-layer metrics instead: the
// layer ladder, micro-benchmarks of single layer calls, and a run in
// which the benchmark records wall-clock spans around its calls into
// each layer and a CPU profile. See README.md for the workloads and the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/switchlets"
)

// instance is one workload bound to its seeded inputs.
type instance interface {
	// setup builds a fresh net (build, switchlet install, warm-up),
	// replacing any previous one.
	setup(tr *tracer) error
	// op runs one op on the current net and checks its output.
	op(tr *tracer) error
	// fingerprint returns the finished op's fingerprint, which must be
	// identical across the ops of a run. It is called after each op,
	// outside the measured region.
	fingerprint() (string, error)
	view() *netView
}

type workloadSpec struct {
	name string
	new  func(seed uint64) (instance, error)
	// fresh workloads consume their net in one op, so every op sets up
	// anew; the others set up a few times and then run all ops on the
	// last net.
	fresh bool
	// switchlets are the sources the workload compiles and verifies.
	switchlets []env.Manifest
}

var workloads = []workloadSpec{
	{name: "fwd1024", new: newFwd, switchlets: []env.Manifest{switchlets.LearningManifest()}},
	{name: "lanmix", new: newLanmix, switchlets: []env.Manifest{switchlets.LearningManifest()}},
	{name: "fattree256", new: newFattree, fresh: true, switchlets: []env.Manifest{switchlets.LearningManifest()}},
	{name: "ring8-upgrade", new: newRing8, fresh: true, switchlets: []env.Manifest{
		switchlets.LearningManifest(), switchlets.DECManifest(), switchlets.SpanningManifest()}},
}

// A non-fresh workload sets up repeatedly, for setupShare of the
// budget but at least setupsMin and at most setupsMax times; setup_s is
// the median. Set-ups early in the process run slower or faster than
// later ones, so a fast set-up repeats for the whole share.
const (
	setupShare = 0.05
	setupsMin  = 5
	setupsMax  = 5000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload to run: fwd1024, lanmix, fattree256 or ring8-upgrade")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench/out", "directory for the traced run's span and profile files")
	flag.Parse()

	if n := runtime.NumCPU(); n > 2 {
		runtime.GOMAXPROCS(2)
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(spec, *seed, budget)
	} else {
		res, err = perLayer(spec, *seed, budget, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", spec.name, *seed, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// memSampler reads the runtime's allocation counters and the live heap
// (bytes the most recent GC marked); reading them does not stop the
// world.
type memSampler struct{ s []metrics.Sample }

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}}
}

func (m *memSampler) read() (allocObjs, allocBytes, heap uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64(), m.s[2].Value.Uint64()
}

// gcCPU returns the runtime's estimate of CPU seconds spent in GC and in
// total since the process started.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// opStats accumulates what a sequence of ops measured.
type opStats struct {
	walls      []float64 // run-phase wall time per op, ns
	setups     []float64 // wall time per setup, ns
	cnt        counters  // summed per-op counter deltas
	allocObjs  uint64
	allocBytes uint64
	heapPeak   uint64
	attempted  int
	failed     int
	fp         string
	errs       []string
}

func (st *opStats) fail(err error) {
	st.failed++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, err.Error())
	}
}

// opsReserved is the op-time record reserved up front, so that growing
// it does not show in the heap samples.
const opsReserved = 1 << 16

func newOpStats() *opStats { return &opStats{walls: make([]float64, 0, opsReserved)} }

// sampleHeap records the heap the program retains at an op boundary: it
// collects garbage first, so the sample does not depend on where the GC
// cycle happened to be, and it does not count the op-time record, which
// is the benchmark's own. It runs outside any timed region.
func (st *opStats) sampleHeap(ms *memSampler) {
	runtime.GC()
	_, _, live := ms.read()
	own := uint64(cap(st.walls)+cap(st.setups)) * 8
	if live > own && live-own > st.heapPeak {
		st.heapPeak = live - own
	}
}

// timedSetup sets inst up once and records the wall time.
func (st *opStats) timedSetup(inst instance, tr *tracer) error {
	s := tr.begin(siteSetup)
	t0 := time.Now()
	err := inst.setup(tr)
	st.setups = append(st.setups, float64(time.Since(t0).Nanoseconds()))
	tr.end(s)
	return err
}

// runOp runs and checks one op, recording its run-phase wall time and
// counter deltas. For a fresh workload it sets up first.
func (st *opStats) runOp(spec *workloadSpec, inst instance, tr *tracer, ms *memSampler) error {
	so := tr.begin(siteOp)
	defer tr.end(so)
	if spec.fresh {
		if err := st.timedSetup(inst, tr); err != nil {
			return err
		}
	}
	v := inst.view()
	c0 := v.read()
	a0, b0, _ := ms.read()
	sr := tr.begin(siteRun)
	t0 := time.Now()
	err := inst.op(tr)
	wall := time.Since(t0)
	tr.end(sr)
	a1, b1, _ := ms.read()
	st.attempted++
	st.walls = append(st.walls, float64(wall.Nanoseconds()))
	st.allocObjs += a1 - a0
	st.allocBytes += b1 - b0
	st.cnt.add(v.read().sub(c0))
	var fp string
	if err == nil {
		fp, err = inst.fingerprint()
	}
	switch {
	case err != nil:
		st.fail(err)
	case st.fp == "":
		st.fp = fp
	case fp != st.fp:
		st.fail(fmt.Errorf("fingerprint moved between ops:\n  first %s\n  now   %s", st.fp, fp))
	}
	return nil
}

// runFor runs ops until the deadline (at least minOps).
func (st *opStats) runFor(spec *workloadSpec, inst instance, tr *tracer, ms *memSampler, deadline time.Time, minOps int) error {
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		if err := st.runOp(spec, inst, tr, ms); err != nil {
			return err
		}
	}
	return nil
}

func (st *opStats) framesPerOp() float64 { return ratio(float64(st.cnt.rx), float64(st.attempted)) }

func (st *opStats) report(w string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops (%d failed), p50 %.3f ms, p99 %.3f ms, %.0f frames/op, %d setups p50 %.3f ms\n",
		w, st.attempted, st.failed, median(st.walls)/1e6, percentile(st.walls, 99)/1e6,
		st.framesPerOp(), len(st.setups), median(st.setups)/1e6)
	for _, e := range st.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
}

// prepare creates the instance and, for a non-fresh workload, sets it up
// repeatedly, keeping the last net.
func prepare(spec *workloadSpec, seed uint64, budget time.Duration, st *opStats, tr *tracer) (instance, error) {
	inst, err := spec.new(seed)
	if err != nil {
		return nil, err
	}
	if !spec.fresh {
		end := time.Now().Add(time.Duration(setupShare * float64(budget)))
		for i := 0; i < setupsMin || (i < setupsMax && time.Now().Before(end)); i++ {
			if err := st.timedSetup(inst, tr); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// endToEnd measures the end-to-end metrics, every observability plane
// off.
func endToEnd(spec *workloadSpec, seed uint64, budget time.Duration) (*result, error) {
	deadline := time.Now().Add(budget)
	ms := newMemSampler()
	st := newOpStats()
	inst, err := prepare(spec, seed, budget, st, nil)
	if err != nil {
		return nil, err
	}
	if c, ok := inst.(interface{ checkShards() error }); ok {
		if err := c.checkShards(); err != nil {
			st.fail(err)
		}
	}
	// The heap is sampled after the first op and after the last, when
	// the calibration kernel's state is garbage.
	if err := st.runOp(spec, inst, nil, ms); err != nil {
		return nil, err
	}
	st.sampleHeap(ms)
	cal := newCalibration()
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		end := time.Now().Add(calEvery)
		if end.After(deadline) {
			end = deadline
		}
		if err := st.runFor(spec, inst, nil, ms, end, 1); err != nil {
			return nil, err
		}
		cal.measure()
	}
	slowdown := cal.slowdown()
	st.sampleHeap(ms)
	st.report(spec.name)
	raw := st.framesPerOp() / (median(st.walls) / 1e9)
	setup := median(st.setups) / 1e9
	fmt.Fprintf(os.Stderr, "perfbench: measured %.0f frames/s, set-up %.6f s; calibration kernel %.3f ms (%.3f of the reference)\n",
		raw, setup, slowdown*calRefNs/1e6, slowdown)
	res := &result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: map[string]metric{}}
	res.add("frames_per_s", raw*slowdown, "1/s")
	res.add("setup_s", setup/slowdown, "s")
	res.add("allocs_per_frame", ratio(float64(st.allocObjs), float64(st.cnt.rx)), "count")
	res.add("heap_peak_mb", float64(st.heapPeak)/1e6, "MB")
	return res, nil
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// Shares of a --trace 1 run's budget.
const (
	ladderShare = 0.3
	// blockShare is the wall time of one block of ops in the workload
	// phase, as a share of the budget; traced and untraced blocks
	// alternate.
	blockShare = 0.02
)

// perLayer measures the per-layer metrics: the layer ladder, the
// micro-benchmarks, and the workload itself in alternating untraced and
// traced blocks. In a traced block the benchmark records its spans
// around each layer call and a CPU profile; the untraced blocks give the
// exact counters and the baseline for the tracing overhead.
func perLayer(spec *workloadSpec, seed uint64, budget time.Duration, out string) (*result, error) {
	deadline := time.Now().Add(budget)
	res := &result{Metrics: map[string]metric{}}

	lad, err := runLadder(seed, time.Duration(ladderShare*float64(budget)))
	if err != nil {
		return nil, err
	}
	lad.report(res)
	if err := microBench(spec.switchlets, seed, res); err != nil {
		return nil, err
	}
	cal := newCalibration()
	cal.measure()
	res.add("host.cal_ms", median(cal.ns)/1e6, "ms")
	lm, err := newLanmix(seed)
	if err != nil {
		return nil, err
	}
	lc := lm.(*lanmix).locality()
	res.add("lanmix.distinct_dsts", float64(lc.distinct), "count")
	res.add("lanmix.sd_lt8_share", ratio(float64(lc.sdLt8), float64(lc.unicast)), "ratio")
	res.add("lanmix.sd_lt64_share", ratio(float64(lc.sdLt64), float64(lc.unicast)), "ratio")
	res.add("lanmix.broadcast_share", ratio(float64(lc.bcast), float64(lc.frames)), "ratio")
	res.add("lanmix.flood_share", ratio(float64(lc.flood), float64(lc.frames)), "ratio")
	res.add("lanmix.min_frame_share", ratio(float64(lc.minSize), float64(lc.frames)), "ratio")

	ms := newMemSampler()
	tr := newTracer()
	untraced, traced := newOpStats(), newOpStats()
	serial := newOpStats() // fattree256 at one shard, for the shard ratio
	tr.on = true
	inst, err := prepare(spec, seed, budget, traced, tr)
	tr.on = false
	if err != nil {
		return nil, err
	}
	sh, _ := inst.(interface{ setShards(int) })
	shares := map[string]float64{}
	var firstProfile []byte // written out for go tool pprof
	gc0, cpu0 := gcCPU()
	block := time.Duration(blockShare * float64(budget))
	for i := 0; time.Now().Before(deadline) || traced.attempted == 0; i++ {
		end := time.Now().Add(block)
		switch {
		case i%3 == 2:
			// Traced: spans and a CPU profile.
			var buf bytes.Buffer
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return nil, err
			}
			tr.on = true
			err := traced.runFor(spec, inst, tr, ms, end, 1)
			tr.on = false
			pprof.StopCPUProfile()
			if err != nil {
				return nil, err
			}
			if err := profileShares(buf.Bytes(), shares); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			if firstProfile == nil {
				firstProfile = buf.Bytes()
			}
		case i%3 == 1 && sh != nil:
			sh.setShards(1)
			err := serial.runFor(spec, inst, nil, ms, end, 1)
			sh.setShards(ftShards)
			if err != nil {
				return nil, err
			}
		default:
			if err := untraced.runFor(spec, inst, nil, ms, end, 1); err != nil {
				return nil, err
			}
		}
	}
	gc1, cpu1 := gcCPU()
	if sh != nil && serial.fp != untraced.fp {
		serial.fail(fmt.Errorf("fingerprint differs at 1 and %d shards:\n  %s\n  %s", ftShards, serial.fp, untraced.fp))
	}
	untraced.report(spec.name + " untraced")
	traced.report(spec.name + " traced")
	if sh != nil {
		serial.report(spec.name + " at 1 shard")
	}
	for _, st := range []*opStats{untraced, traced, serial} {
		res.Attempted += st.attempted
		res.Failed += st.failed
	}
	// Traced and untraced blocks must agree on the fingerprint too.
	if traced.fp != "" && untraced.fp != "" && traced.fp != untraced.fp {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: fingerprint differs traced and untraced:\n  %s\n  %s\n", traced.fp, untraced.fp)
	}
	res.Correct = res.Failed == 0

	u := untraced
	ops, frames := float64(u.attempted), float64(u.cnt.rx)
	res.add("op.samples", ops, "count")
	res.add("op.ms_p50", median(u.walls)/1e6, "ms")
	res.add("op.frames_per_s", u.framesPerOp()/(median(u.walls)/1e9), "1/s")
	res.add("op.ms_p99", percentile(u.walls, 99)/1e6, "ms")
	res.add("netsim.events_per_op", float64(u.cnt.events)/ops, "count")
	res.add("netsim.events_per_frame", ratio(float64(u.cnt.events), frames), "count")
	res.add("netsim.events_per_s", ratio(float64(u.cnt.events), sum(u.walls)/1e9), "1/s")
	res.add("netsim.quiesces_per_op", float64(u.cnt.quiesces)/ops, "count")
	shardRatio, imbalance := 0.0, 0.0
	if sh != nil {
		shardRatio = median(u.walls) / median(serial.walls)
		var mx, tot float64
		for _, n := range u.cnt.shard {
			mx = max(mx, float64(n))
			tot += float64(n)
		}
		imbalance = ratio(mx, tot/float64(len(u.cnt.shard)))
	}
	res.add("netsim.shard_ratio", shardRatio, "ratio")
	res.add("netsim.shard_imbalance", imbalance, "ratio")
	res.add("bridge.flow_cache_hits_per_op", float64(u.cnt.hits)/ops, "count")
	res.add("bridge.flow_cache_misses_per_op", float64(u.cnt.misses)/ops, "count")
	res.add("bridge.flow_cache_hit_ratio", ratio(float64(u.cnt.hits), float64(u.cnt.hits+u.cnt.misses)), "ratio")
	var enters float64
	for _, n := range u.cnt.tiers {
		enters += float64(n)
	}
	res.add("vm.tier_enters_per_op", enters/ops, "count")
	res.add("vm.tier2_share", ratio(float64(u.cnt.tiers[2]), enters), "ratio")
	res.add("vm.steps_per_frame", ratio(float64(u.cnt.steps), frames), "count")
	res.add("allocs_per_op", float64(u.allocObjs)/ops, "count")
	res.add("gc.bytes_per_frame", ratio(float64(u.allocBytes), frames), "B")
	// The runtime updates its CPU accounts at each GC, so the share is
	// taken over the whole workload phase.
	res.add("gc.cpu_share", ratio(gc1-gc0, cpu1-cpu0), "ratio")

	// Spans: the layer calls of set-up, per set-up, and the self time per
	// call of each call site every workload has. (The spans file also
	// holds the sites only some workloads call.)
	dur := tr.durations()
	self, calls := tr.selfTimes()
	setups := float64(calls[siteSetup])
	res.add("topo.build_ms", ratio(dur[siteBuild], setups)/1e6, "ms")
	res.add("topo.warm_ms", ratio(dur[siteWarm], setups)/1e6, "ms")
	res.add("bridge.install_ms", ratio(dur[siteInstall], setups)/1e6, "ms")
	for _, site := range []int{siteOp, siteSetup, siteRun, siteWarm, siteBuild, siteInstall, siteSimRun} {
		res.add("span."+siteNames[site]+".self_ms", ratio(self[site], float64(calls[site]))/1e6, "ms")
	}
	res.add("bench.trace_overhead_pct", 100*(median(traced.walls)-median(u.walls))/median(u.walls), "%")

	var samples float64
	for _, v := range shares {
		samples += v
	}
	for _, layer := range profileLayers {
		name := layer + ".cpu_share"
		if layer == "gc" {
			name = "gc.profile_share" // gc.cpu_share is the runtime's own account
		}
		res.add(name, ratio(shares[layer], samples), "ratio")
	}
	res.add("profile.samples", samples, "count")

	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", spec.name, seed))
	if err := tr.writeChrome(base + ".spans.json"); err != nil {
		return nil, err
	}
	if firstProfile != nil {
		if err := os.WriteFile(base+".cpu.pprof", firstProfile, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

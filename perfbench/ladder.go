package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/metrics"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/testbed"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/tracing"
	"github.com/switchware/activebridge/internal/vm"
	"github.com/switchware/activebridge/internal/vm/verify"
)

// The layer ladder cuts the fwd1024 path at each layer. Every rung runs
// the same 1024-byte frames and adds one layer's public API to the rung
// below it, so the difference between adjacent rungs is that layer's
// cost per frame:
//
//	netsim   one NIC -> segment -> null-sink hop
//	direct   h1 -> segment -> h2 ttcp (adds the hosts' stacks)
//	native   h1 -> bridge -> h2 with the native learning handler (adds
//	         the bridge and a second hop)
//	O0/O1/O2 the learning switchlet at each VM tier (adds the VM)
//	metrics  O2 with the metrics plane on
//	trace.*  metrics plus the tracing plane, flight ring on, sampling
//	         0%, 1% and 100%
//
// Rungs run in interleaved rounds with the order rotated every round, so
// none always runs first or last; each reports the median over its ops.
type rung struct {
	name string
	// build sets up a fresh instance and returns one op (fwdFrames
	// frames) and its teardown.
	build func() (op func() error, done func(), err error)
	ns    []float64 // ns per frame, one sample per op
}

const (
	ladderOps       = 12 // timed ops per rung per round
	ladderMinRounds = 5
)

func ttcpRung(name string, path testbed.Path, opt int, plane func(tb *testbed.Testbed) func()) *rung {
	return &rung{name: name, build: func() (func() error, func(), error) {
		bridge.DefaultOptLevel = opt
		tb := testbed.New(path, cost)
		bridge.DefaultOptLevel = defaultOpt
		done := func() {}
		if plane != nil {
			done = plane(tb)
		}
		tb.Warm()
		v := newView(tb.Net, 0)
		op := func() error {
			_, err := burst(nil, v, tb.H1, tb.H2)
			return err
		}
		return op, done, op()
	}}
}

var defaultOpt = bridge.DefaultOptLevel

func netsimRung() *rung {
	return &rung{name: "netsim", build: func() (func() error, func(), error) {
		sim := netsim.New()
		seg := netsim.NewSegment(sim, "lan")
		src := netsim.NewNIC(sim, "src", ethernet.MACFromUint64(0x020000000001))
		dst := netsim.NewNIC(sim, "dst", ethernet.MACFromUint64(0x020000000002))
		seg.Attach(src)
		seg.Attach(dst)
		dst.SetRecv(func(*netsim.NIC, []byte) {})
		f := ethernet.Frame{Dst: dst.MAC, Src: src.MAC, Type: ethernet.TypeTest, Payload: make([]byte, fwdWrite)}
		raw, err := f.Marshal()
		if err != nil {
			return nil, nil, err
		}
		op := func() error {
			for i := 0; i < fwdFrames; i++ {
				src.Send(raw)
				sim.RunAll()
			}
			if dst.RxFrames%fwdFrames != 0 {
				return fmt.Errorf("null sink received %d frames", dst.RxFrames)
			}
			return nil
		}
		return op, func() {}, nil
	}}
}

func withMetrics(tb *testbed.Testbed) func() {
	tb.Net.EnableMetrics()
	return func() { metrics.DefaultHub.Detach(tb.Net.Graph.Name) }
}

func withTracing(prob float64) func(tb *testbed.Testbed) func() {
	return func(tb *testbed.Testbed) func() {
		done := withMetrics(tb)
		tr := tb.Net.EnableTracing(tracing.Config{Seed: 1, SampleProb: prob})
		return func() {
			tracing.DefaultHub.Detach(tr)
			done()
		}
	}
}

type ladderResult struct {
	rungs map[string]*rung
	fwd   []float64 // ns per frame of fwd1024 ops, run after the ladder
}

// runLadder runs the ladder for about budget, then fwd1024 ops for the
// consistency check.
func runLadder(seed uint64, budget time.Duration) (*ladderResult, error) {
	rungs := []*rung{
		netsimRung(),
		ttcpRung("direct", testbed.Direct, defaultOpt, nil),
		ttcpRung("native", testbed.NativeBridge, defaultOpt, nil),
		ttcpRung("O0", testbed.ActiveBridge, 0, nil),
		ttcpRung("O1", testbed.ActiveBridge, 1, nil),
		ttcpRung("O2", testbed.ActiveBridge, 2, nil),
		ttcpRung("metrics", testbed.ActiveBridge, 2, withMetrics),
		// A sampling probability of 0 selects the default of 1, so the
		// 0% rung uses the smallest positive one.
		ttcpRung("trace.s0", testbed.ActiveBridge, 2, withTracing(math.SmallestNonzeroFloat64)),
		ttcpRung("trace.s1pct", testbed.ActiveBridge, 2, withTracing(0.01)),
		ttcpRung("trace.s100", testbed.ActiveBridge, 2, withTracing(1)),
	}
	deadline := time.Now().Add(budget)
	for round := 0; round < ladderMinRounds || time.Now().Before(deadline); round++ {
		for k := range rungs {
			r := rungs[(round+k)%len(rungs)]
			op, done, err := r.build()
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			for i := 0; i < ladderOps; i++ {
				t0 := time.Now()
				err := op()
				ns := float64(time.Since(t0).Nanoseconds())
				if err != nil {
					done()
					return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
				}
				r.ns = append(r.ns, ns/fwdFrames)
			}
			done()
		}
	}
	res := &ladderResult{rungs: map[string]*rung{}}
	for _, r := range rungs {
		res.rungs[r.name] = r
	}
	// The end-to-end reference: fwd1024 itself, as --trace 0 runs it.
	inst, err := newFwd(seed)
	if err != nil {
		return nil, err
	}
	if err := inst.setup(nil); err != nil {
		return nil, err
	}
	for i := 0; i < len(res.rungs["O2"].ns); i++ {
		t0 := time.Now()
		err := inst.op(nil)
		ns := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("ladder fwd1024 reference: %w", err)
		}
		res.fwd = append(res.fwd, ns/fwdFrames)
	}
	return res, nil
}

// report adds the ladder's metrics and its two checks to res. Each
// check counts as one attempted op and fails the run when it does not
// hold.
func (l *ladderResult) report(res *result) {
	med := func(name string) float64 { return median(l.rungs[name].ns) }
	rel := func(xs []float64) float64 { return iqr(xs) / median(xs) }
	hop, direct, native, o2, met := med("netsim"), med("direct"), med("native"), med("O2"), med("metrics")
	res.add("netsim.ns_per_frame", hop, "ns")
	res.add("workload.ns_per_frame", direct-hop, "ns")
	res.add("bridge.ns_per_frame", native-direct-hop, "ns")
	for _, o := range []string{"O0", "O1", "O2"} {
		res.add("vm.ns_per_frame."+o, med(o)-native, "ns")
	}
	res.add("metrics.overhead_pct", 100*(met-o2)/o2, "%")
	for _, s := range []string{"s0", "s1pct", "s100"} {
		res.add("tracing.overhead_pct."+s, 100*(med("trace."+s)-met)/met, "%")
	}

	// Every layer's cost is a rung minus the rungs below it, and no layer
	// can cost less than nothing: a difference below minus the summed
	// interquartile ranges of its rungs means a rung measured something
	// other than its layer, such as rungs built in the wrong order. The
	// tolerance is per-op spread, so smaller errors pass.
	layers := []struct {
		name, top, below string // below is "" for none
		hopsBelow        int    // netsim hops subtracted besides the rung below
	}{
		{"workload", "direct", "", 1},
		{"bridge", "native", "direct", 1},
		{"vm.O0", "O0", "native", 0},
		{"vm.O1", "O1", "native", 0},
		{"vm.O2", "O2", "native", 0},
		{"metrics", "metrics", "O2", 0},
		{"tracing.s0", "trace.s0", "metrics", 0},
		{"tracing.s1pct", "trace.s1pct", "metrics", 0},
		{"tracing.s100", "trace.s100", "metrics", 0},
	}
	negative := 0
	for _, ly := range layers {
		cost, tol := med(ly.top), iqr(l.rungs[ly.top].ns)
		if ly.below != "" {
			cost -= med(ly.below)
			tol += iqr(l.rungs[ly.below].ns)
		}
		cost -= float64(ly.hopsBelow) * hop
		tol += float64(ly.hopsBelow) * iqr(l.rungs["netsim"].ns)
		if cost < -tol {
			negative++
			fmt.Fprintf(os.Stderr, "perfbench: check failed: ladder layer %s costs %.0f ns/frame, below -%.0f\n", ly.name, cost, tol)
		}
	}
	res.add("ladder.negative_layers", float64(negative), "count")

	// The layer costs of a forwarded frame (two hops, the hosts, the
	// bridge and the VM at the default tier) telescope to the O2 rung, so
	// what can be checked against fwd1024, measured on its own, is the O2
	// rung: the two must agree within their summed relative IQR.
	fwd := median(l.fwd)
	gap := 100 * math.Abs(o2-fwd) / fwd
	spread := 100 * (rel(l.rungs["O2"].ns) + rel(l.fwd))
	res.add("ladder.o2_ns_per_frame", o2, "ns")
	res.add("ladder.fwd1024_ns_per_frame", fwd, "ns")
	res.add("ladder.gap_pct", gap, "%")
	res.add("ladder.spread_pct", spread, "%")
	consistent := 0.0
	if gap <= spread {
		consistent = 1
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: ladder O2 rung %.0f ns/frame against fwd1024 %.0f: gap %.1f%% over spread %.1f%%\n", o2, fwd, gap, spread)
	}
	res.add("ladder.consistent", consistent, "bool")
	res.add("ladder.ops_per_rung", float64(len(l.rungs["O2"].ns)), "count")

	res.Attempted += len(layers) + 1
	res.Failed += negative + int(1-consistent)
}

// microBench times single layer calls the ladder cannot isolate: the
// switchlet compiler and verifier on the workload's switchlets,
// Manager.Compile, Manager.Upgrade, topo.Partition of the fattree256
// fabric, frame marshalling at the smallest and largest sizes, and one
// learning switchlet invocation through Machine.InvokeArgs. They run on
// every workload, so each reads a measured value everywhere.
func microBench(ms []env.Manifest, seed uint64, res *result) error {
	const reps = 15
	probe := bridge.New(netsim.New(), "probe", 1, 2, cost)
	var compile, verifyT []float64
	for i := 0; i < reps; i++ {
		var c, v time.Duration
		for _, m := range ms {
			t0 := time.Now()
			obj, _, err := vm.CompileLevel(m.Name, m.Source, probe.Loader.SigEnv(), probe.Loader.OptLevel)
			c += time.Since(t0)
			if err != nil {
				return fmt.Errorf("compile %s: %w", m.Name, err)
			}
			t0 = time.Now()
			_, err = verify.Manifest(obj, m.Name, m.Capabilities)
			v += time.Since(t0)
			if err != nil {
				return fmt.Errorf("verify %s: %w", m.Name, err)
			}
		}
		compile = append(compile, float64(c.Nanoseconds()))
		verifyT = append(verifyT, float64(v.Nanoseconds()))
	}
	res.add("vm.compile_ms", median(compile)/1e6, "ms")
	res.add("vm.verify_ms", median(verifyT)/1e6, "ms")

	// Manager.Compile on a fresh node: after the first call the
	// process-wide object cache answers, so this is what each further
	// node pays (verification and the capability check).
	var mcompile []float64
	for i := 0; i < reps; i++ {
		b := bridge.New(netsim.New(), "probe", 1, 2, cost)
		t0 := time.Now()
		for _, m := range ms {
			if _, err := b.Manager().Compile(m); err != nil {
				return fmt.Errorf("Manager.Compile %s: %w", m.Name, err)
			}
		}
		mcompile = append(mcompile, float64(time.Since(t0).Nanoseconds()))
	}
	res.add("bridge.compile_ms", median(mcompile)/1e6, "ms")

	// Manager.Upgrade from DEC to IEEE on a one-bridge net, as each step
	// of ring8-upgrade's roll does.
	var upgrade []float64
	for i := 0; i < reps; i++ {
		g := topo.New("upgrade")
		id := g.AddBridge("b1", topo.EmptyBridge, 2)
		g.Link(id, g.AddSegment("s1"))
		g.Link(id, g.AddSegment("s2"))
		net, err := g.Build(cost)
		if err != nil {
			return err
		}
		if err := install(nil, net, []topo.BridgeID{id}, switchlets.LearningManifest(), switchlets.DECManifest()); err != nil {
			return err
		}
		net.Sim.Run(netsim.Time(5 * netsim.Second))
		t0 := time.Now()
		_, err = net.Bridge(id).Manager().Upgrade(switchlets.ModDEC, switchlets.SpanningManifest(), bridge.UpgradeOptions{})
		upgrade = append(upgrade, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return fmt.Errorf("Manager.Upgrade: %w", err)
		}
	}
	res.add("bridge.upgrade_ms", median(upgrade)/1e6, "ms")

	inst, err := newFattree(seed)
	if err != nil {
		return err
	}
	g, _, _ := inst.(*fattree).declare()
	var partition []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, ok := topo.Partition(g, ftShards)
		partition = append(partition, float64(time.Since(t0).Nanoseconds()))
		if !ok {
			return fmt.Errorf("fattree256: no %d-shard partition", ftShards)
		}
	}
	res.add("topo.partition_ms", median(partition)/1e6, "ms")

	for _, size := range []int{ethernet.MinPayload, ethernet.MaxPayload} {
		f := ethernet.Frame{Dst: ethernet.Broadcast, Src: ethernet.MACFromUint64(0x020000000001),
			Type: ethernet.TypeTest, Payload: make([]byte, size)}
		const n = 4000
		var per []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			for j := 0; j < n; j++ {
				if _, err := f.Marshal(); err != nil {
					return err
				}
			}
			per = append(per, float64(time.Since(t0).Nanoseconds())/n)
		}
		res.add(fmt.Sprintf("ethernet.marshal_ns.%d", f.WireLen()), median(per), "ns")
	}

	// A frame whose source and destination are the same station: the
	// switchlet learns the source, finds the destination on the input
	// port and filters the frame, so the call sends nothing.
	tb := testbed.New(testbed.ActiveBridge, cost)
	m := tb.Bridge.Machine
	lm, ok := tb.Bridge.Loader.Module(switchlets.ModLearning)
	if !ok {
		return fmt.Errorf("learning switchlet not loaded")
	}
	handle, ok := lm.Global("handle")
	if !ok {
		return fmt.Errorf("learning switchlet has no handle")
	}
	station := ethernet.MACFromUint64(0x020000000077)
	raw, err := (&ethernet.Frame{Dst: station, Src: station, Type: ethernet.TypeTest, Payload: make([]byte, fwdWrite)}).Marshal()
	if err != nil {
		return err
	}
	var sb vm.StrBoxer
	var ib vm.IntBoxer
	args := []vm.Value{sb.Box(string(raw)), ib.Box(0)}
	const calls = 4000
	var perStep, steps []float64
	for i := 0; i <= reps; i++ {
		s0 := m.Steps
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			if _, err := m.InvokeArgs(handle, args); err != nil {
				return fmt.Errorf("learning handle: %w", err)
			}
		}
		ns := float64(time.Since(t0).Nanoseconds())
		if i == 0 {
			continue // warms the tiers and inline caches
		}
		st := float64(m.Steps - s0)
		perStep = append(perStep, ns/st)
		steps = append(steps, st/calls)
	}
	res.add("vm.ns_per_step", median(perStep), "ns")
	res.add("vm.steps_per_invoke", median(steps), "count")
	return nil
}

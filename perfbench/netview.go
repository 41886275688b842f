package main

import (
	"fmt"
	"strings"

	"github.com/switchware/activebridge/internal/env"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/topo"
)

var cost = netsim.DefaultCostModel()

// counters are exact, virtual-side counts read from the program's public
// state. They repeat exactly for a given seed.
type counters struct {
	rx       uint64 // frame receptions: NIC.RxFrames over every attached NIC
	events   uint64 // events executed by Sim.Run calls the benchmark made
	quiesces uint64 // quiescent points (Sim.OnQuiesce)
	hits     uint64 // bridge flow-cache hits
	misses   uint64 // bridge flow-cache misses
	steps    uint64 // VM instructions
	tiers    [3]uint64
	shard    []uint64 // events executed per shard engine (sharded nets)
}

func (c counters) sub(o counters) counters {
	d := counters{
		rx: c.rx - o.rx, events: c.events - o.events, quiesces: c.quiesces - o.quiesces,
		hits: c.hits - o.hits, misses: c.misses - o.misses, steps: c.steps - o.steps,
	}
	for i := range d.tiers {
		d.tiers[i] = c.tiers[i] - o.tiers[i]
	}
	for i := range c.shard {
		v := c.shard[i]
		if i < len(o.shard) {
			v -= o.shard[i]
		}
		d.shard = append(d.shard, v)
	}
	return d
}

func (c *counters) add(o counters) {
	c.rx += o.rx
	c.events += o.events
	c.quiesces += o.quiesces
	c.hits += o.hits
	c.misses += o.misses
	c.steps += o.steps
	for i := range c.tiers {
		c.tiers[i] += o.tiers[i]
	}
	for i, v := range o.shard {
		if i >= len(c.shard) {
			c.shard = append(c.shard, 0)
		}
		c.shard[i] += v
	}
}

// netView wraps a built net with the handles the benchmark counts
// through.
type netView struct {
	net      *topo.Net
	segs     []*netsim.Segment
	shards   []*netsim.Sim // distinct shard engines, in first-seen bridge order
	events   uint64
	quiesces uint64
}

func newView(net *topo.Net, nseg int) *netView {
	v := &netView{net: net}
	for i := 0; i < nseg; i++ {
		v.segs = append(v.segs, net.Segment(topo.SegmentID(i)))
	}
	if net.Shards() > 1 {
		seen := map[*netsim.Sim]bool{}
		for _, b := range net.Bridges() {
			if s := b.Sim(); !seen[s] {
				seen[s] = true
				v.shards = append(v.shards, s)
			}
		}
	}
	net.Sim.OnQuiesce(func() { v.quiesces++ })
	return v
}

// run advances the simulation to until inside a netsim.Sim.Run span.
func (v *netView) run(tr *tracer, until netsim.Time) {
	s := tr.begin(siteSimRun)
	v.events += v.net.Sim.Run(until)
	tr.end(s)
}

func (v *netView) read() counters {
	c := counters{events: v.events, quiesces: v.quiesces}
	for _, seg := range v.segs {
		for _, n := range seg.NICs() {
			c.rx += n.RxFrames
		}
	}
	for _, b := range v.net.Bridges() {
		c.hits += b.Stats.FlowCacheHits
		c.misses += b.Stats.FlowCacheMisses
		c.steps += b.Machine.Steps
		for i, n := range b.Machine.TierEnters {
			c.tiers[i] += n
		}
	}
	for _, s := range v.shards {
		c.shard = append(c.shard, s.Executed())
	}
	return c
}

// state is the determinism-relevant virtual state of the net: the clock
// and every bridge's interpreter and frame counters, in declaration
// order (the fields of topo.Net.Fingerprint, as numbers so two states
// can be differenced).
func (v *netView) state() []int64 {
	st := []int64{int64(v.net.Sim.Now())}
	for _, b := range v.net.Bridges() {
		st = append(st, int64(b.Machine.Steps), int64(b.Machine.AllocBytes),
			int64(b.Stats.FramesIn), int64(b.Stats.FramesSent),
			int64(b.Stats.VMTime), int64(b.Stats.KernelTime))
	}
	return st
}

// stateDelta renders what an op changed in state: for a workload that
// replays the same op on one net, it must be identical across ops.
func stateDelta(before, after []int64) string {
	var sb strings.Builder
	for i := range after {
		fmt.Fprintf(&sb, "%d ", after[i]-before[i])
	}
	return sb.String()
}

// install installs manifests on every listed bridge in order, one
// bridge.Manager.Install span per call.
func install(tr *tracer, net *topo.Net, ids []topo.BridgeID, ms ...env.Manifest) error {
	for _, id := range ids {
		b := net.Bridge(id)
		for _, m := range ms {
			s := tr.begin(siteInstall)
			_, err := b.Manager().Install(m)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("install %s on %s: %w", m.Name, b.Name, err)
			}
		}
	}
	return nil
}

// build calls topo.Graph.Build inside its span.
func build(tr *tracer, g *topo.Graph) (*topo.Net, error) {
	s := tr.begin(siteBuild)
	net, err := g.Build(cost)
	tr.end(s)
	return net, err
}

// splitmix64 is the benchmark's input generator: every workload input is
// drawn from it, seeded by --seed.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func newRng(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range stream {
		r.s = r.s*31 + uint64(c)
	}
	r.next()
	return r
}

package main

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// fattree256 is the fabric of the scale-fattree256 scenario — one core,
// 15 pod bridges and 240 edge bridges, 960 hosts — built here through
// topo's public API so that set-up (declaration, partition, build,
// install, warm-up) and the run phase are timed apart. It runs at two
// shards. The seed picks the traffic matrix: one pod-local ttcp stream
// per pod, four cross-pod streams, six ping trains, and the host pair
// of the stream that crosses the pod-0 edge bridge after it receives
// its learning switchlet over TFTP. Two edge bridges (pod 0 edge 0, pod
// 7 edge 8) boot empty and are deployed over the fabric, as in the
// scenario.
const (
	ftPods        = 15
	ftEdgesPerPod = 16
	ftHostsPerEdg = 4
	ftShards      = 2
)

var ftLoaders = map[int]ipv4.Addr{0: {10, 9, 0, 1}, 120: {10, 9, 0, 2}}

type ftFlow struct{ srcEdge, srcHost, dstEdge, dstHost int }

type fattree struct {
	local, cross []ftFlow
	pings        []ftFlow
	post         ftFlow
	shards       int

	v       *netView
	edges   [][]topo.HostID
	edgeIDs []topo.BridgeID
	deploy  [][]byte
}

func newFattree(seed uint64) (instance, error) {
	r := newRng(seed, "fattree256")
	f := &fattree{shards: ftShards}
	used := map[[2]int]bool{}
	// Uploaders sit on the edge after each loader edge, host 0.
	for idx := range ftLoaders {
		used[[2]int{idx + 1, 0}] = true
	}
	pick := func(edge int) int {
		for {
			h := r.intn(ftHostsPerEdg)
			if !used[[2]int{edge, h}] {
				used[[2]int{edge, h}] = true
				return h
			}
		}
	}
	edgeIn := func(pod int, not int) int {
		for {
			e := pod*ftEdgesPerPod + r.intn(ftEdgesPerPod)
			if _, loader := ftLoaders[e]; !loader && e != not {
				return e
			}
		}
	}
	flow := func(sp, dp int) ftFlow {
		se := edgeIn(sp, -1)
		de := edgeIn(dp, se)
		return ftFlow{se, pick(se), de, pick(de)}
	}
	otherPod := func(p int) int { return (p + 1 + r.intn(ftPods-1)) % ftPods }
	for p := 0; p < ftPods; p++ {
		f.local = append(f.local, flow(p, p))
	}
	for i := 0; i < 4; i++ {
		sp := r.intn(ftPods)
		f.cross = append(f.cross, flow(sp, otherPod(sp)))
	}
	for i := 0; i < 6; i++ {
		sp := r.intn(ftPods)
		f.pings = append(f.pings, flow(sp, otherPod(sp)))
	}
	de := edgeIn(0, 0)
	f.post = ftFlow{0, pick(0), de, pick(de)}
	return f, nil
}

// setShards selects the shard count of later set-ups.
func (f *fattree) setShards(n int) { f.shards = n }

// declare declares the fabric and the seeded flows' shard affinities,
// returning the graph, the bridges that run the learning switchlet and
// the number of segments.
func (f *fattree) declare() (g *topo.Graph, learning []topo.BridgeID, nseg int) {
	g = topo.New("fattree256")
	core := g.AddBridge("core", topo.EmptyBridge, ftPods)
	learning = []topo.BridgeID{core}
	f.edges, f.edgeIDs = nil, nil
	for p := 0; p < ftPods; p++ {
		trunk := g.AddSegment(fmt.Sprintf("trunk%d", p), topo.WithPropagation(5*netsim.Microsecond))
		agg := g.AddBridge(fmt.Sprintf("agg%d", p), topo.EmptyBridge, 1+ftEdgesPerPod)
		learning = append(learning, agg)
		g.Link(core, trunk)
		g.Link(agg, trunk)
		nseg++
		for e := 0; e < ftEdgesPerPod; e++ {
			idx := p*ftEdgesPerPod + e
			riser := g.AddSegment(fmt.Sprintf("riser%d.%d", p, e), topo.WithPropagation(2*netsim.Microsecond))
			var opts []topo.BridgeOpt
			addr, loader := ftLoaders[idx]
			if loader {
				opts = append(opts, topo.WithNetLoader(addr))
			}
			eb := g.AddBridge(fmt.Sprintf("edge%d.%d", p, e), topo.EmptyBridge, 2, opts...)
			if !loader {
				learning = append(learning, eb)
			}
			lan := g.AddSegment(fmt.Sprintf("lan%d.%d", p, e))
			nseg += 2
			g.Link(agg, riser)
			g.Link(eb, riser)
			g.Link(eb, lan)
			var hosts []topo.HostID
			for h := 0; h < ftHostsPerEdg; h++ {
				id := g.AddHost("")
				hosts = append(hosts, id)
				g.Link(id, lan)
			}
			f.edges = append(f.edges, hosts)
			f.edgeIDs = append(f.edgeIDs, eb)
		}
	}
	// ttcp is closed-loop (delivery releases the next segment), so each
	// stream's endpoints must share a shard.
	for _, fl := range f.streams() {
		g.Affine(f.host(fl.srcEdge, fl.srcHost), f.host(fl.dstEdge, fl.dstHost))
	}
	g.Affine(f.host(f.post.srcEdge, f.post.srcHost), f.host(f.post.dstEdge, f.post.dstHost))
	g.Shards(f.shards)
	return g, learning, nseg
}

func (f *fattree) setup(tr *tracer) error {
	f.v = nil // the previous net is garbage before the next one is built
	g, learning, nseg := f.declare()
	// Build partitions the graph itself; it falls back to one shard when
	// no partition exists, which the check below catches.
	net, err := build(tr, g)
	if err != nil {
		return err
	}
	if net.Shards() != f.shards {
		return fmt.Errorf("built at %d shards, want %d", net.Shards(), f.shards)
	}
	if err := install(tr, net, learning, switchlets.LearningManifest()); err != nil {
		return err
	}
	f.v = newView(net, nseg)
	// The deployed object is compiled against a loader bridge's (empty)
	// environment, as an operator would before uploading it.
	f.deploy = f.deploy[:0]
	for _, idx := range []int{0, 120} {
		s := tr.begin(siteCompile)
		enc, err := net.Bridge(f.edgeIDs[idx]).Manager().Compile(switchlets.LearningManifest())
		tr.end(s)
		if err != nil {
			return err
		}
		f.deploy = append(f.deploy, enc)
	}
	// Warm every measured pair under one clock. Launches are staggered
	// 2ns apart so no two probes meet at a shared bridge at the same
	// nanosecond, which a sharded run could not order as the serial one
	// does.
	s := tr.begin(siteWarm)
	at := net.Sim.Now()
	for i, fl := range f.streams() {
		net.ScheduleWarm(f.host(fl.srcEdge, fl.srcHost), f.host(fl.dstEdge, fl.dstHost), at+netsim.Time(2*i))
	}
	f.v.run(tr, at+netsim.Time(100*netsim.Millisecond))
	tr.end(s)
	return nil
}

func (f *fattree) streams() []ftFlow { return append(append([]ftFlow{}, f.local...), f.cross...) }

func (f *fattree) host(edge, h int) topo.HostID { return f.edges[edge][h] }

func (f *fattree) op(tr *tracer) error {
	net := f.v.net
	sim := net.Sim
	hostOf := func(e, h int) *workload.Host { return net.Host(f.host(e, h)) }
	var streams []*workload.Ttcp
	for _, fl := range f.local {
		streams = append(streams, workload.NewTtcp(hostOf(fl.srcEdge, fl.srcHost), hostOf(fl.dstEdge, fl.dstHost), 8192, 512<<10))
	}
	for _, fl := range f.cross {
		streams = append(streams, workload.NewTtcp(hostOf(fl.srcEdge, fl.srcHost), hostOf(fl.dstEdge, fl.dstHost), 8192, 256<<10))
	}
	var pingers []*workload.Pinger
	for _, fl := range f.pings {
		pingers = append(pingers, workload.NewPinger(hostOf(fl.srcEdge, fl.srcHost), hostOf(fl.dstEdge, fl.dstHost).IP, 64, 5))
	}
	start := sim.Now()
	for i, t := range streams {
		sim.Schedule(start+1+netsim.Time(i), t.Start)
	}
	for i, p := range pingers {
		sim.Schedule(start+1+netsim.Time(len(streams)+i), p.Start)
	}
	var uploads []*workload.Uploader
	for di, idx := range []int{0, 120} {
		up := workload.NewUploader(hostOf(idx+1, 0), ftLoaders[idx], "learning.swo", f.deploy[di])
		uploads = append(uploads, up)
		sim.Schedule(start+netsim.Time(netsim.Second)+netsim.Time(di)*netsim.Time(50*netsim.Millisecond), up.Start)
	}
	src, dst := f.host(f.post.srcEdge, f.post.srcHost), f.host(f.post.dstEdge, f.post.dstHost)
	post := workload.NewTtcp(net.Host(src), net.Host(dst), 8192, 128<<10)
	sim.Schedule(start+netsim.Time(10*netsim.Second), func() { net.ScheduleWarm(src, dst, sim.Now()) })
	sim.Schedule(start+netsim.Time(10*netsim.Second)+netsim.Time(200*netsim.Millisecond), post.Start)
	f.v.run(tr, start+netsim.Time(120*netsim.Second))

	for i, t := range streams {
		if !t.Done() {
			return fmt.Errorf("ttcp stream %d incomplete: %d of %d bytes", i, t.DeliveredBytes(), t.Total)
		}
	}
	for i, p := range pingers {
		if p.Completed() != 5 {
			return fmt.Errorf("ping train %d: %d of 5 answered", i, p.Completed())
		}
	}
	for i, up := range uploads {
		if !up.Done() || up.Failed() {
			return fmt.Errorf("TFTP deployment %d did not complete (err %v)", i, up.Err())
		}
	}
	var loads uint64
	for _, idx := range []int{0, 120} {
		loads += net.Bridge(f.edgeIDs[idx]).NetLoads()
	}
	if loads != 2 {
		return fmt.Errorf("%d switchlets loaded over TFTP, want 2", loads)
	}
	if !post.Done() {
		return fmt.Errorf("post-deploy stream incomplete: %d of %d bytes", post.DeliveredBytes(), post.Total)
	}
	return nil
}

// fingerprint is topo.Net.Fingerprint of the finished net.
func (f *fattree) fingerprint() (string, error) { return f.v.net.Fingerprint(), nil }

func (f *fattree) view() *netView { return f.v }

// checkShards runs one op at one shard and one at two and requires the
// same fingerprint: the sharded engine must not move a virtual-time
// output.
func (f *fattree) checkShards() error {
	var fps [2]string
	for i, n := range []int{1, ftShards} {
		f.setShards(n)
		if err := f.setup(nil); err != nil {
			return err
		}
		if err := f.op(nil); err != nil {
			return fmt.Errorf("at %d shards: %w", n, err)
		}
		fps[i] = f.v.net.Fingerprint()
	}
	if fps[0] != fps[1] {
		return fmt.Errorf("fingerprint differs at 1 and %d shards:\n  %s\n  %s", ftShards, fps[0], fps[1])
	}
	return nil
}

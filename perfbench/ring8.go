package main

import (
	"fmt"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// ring8-upgrade is the scale-ring8-upgrade scenario: eight bridges in a
// loop run learning plus the DEC spanning tree; under a ttcp stream the
// fleet is upgraded bridge by bridge to the IEEE 802.1D switchlet with
// bridge.Manager.Upgrade, every 600ms. Set-up is build, install and the
// 40s of virtual time DEC needs to converge; the run phase is the
// stream, the roll and the post-roll pings. Hosts sit on r0 and r4 and
// the roll runs b1..b8, as in the scenario; the seed picks the hosts'
// addresses. (Other host placements and roll orders are not used: in 18
// of the 128 combinations the post-roll pings go unanswered.)
const ring8Bridges = 8

type ring8 struct {
	h1mac, h2mac ethernet.MAC
	h1ip, h2ip   ipv4.Addr

	v       *netView
	bIDs    []topo.BridgeID
	h1, h2  topo.HostID
	upgrade []*bridge.Upgrade
}

func newRing8(seed uint64) (instance, error) {
	w := &ring8{}
	w.h1mac, w.h2mac, w.h1ip, w.h2ip = hostPair(newRng(seed, "ring8-upgrade"))
	return w, nil
}

func (w *ring8) setup(tr *tracer) error {
	w.v = nil // the previous net is garbage before the next one is built
	g := topo.New("ring8-upgrade")
	segs := make([]topo.SegmentID, ring8Bridges)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("r%d", i))
	}
	w.bIDs = w.bIDs[:0]
	for i := 0; i < ring8Bridges; i++ {
		b := g.AddBridge(fmt.Sprintf("b%d", i+1), topo.EmptyBridge, 2)
		g.Link(b, segs[i])
		g.Link(b, segs[(i+1)%ring8Bridges])
		w.bIDs = append(w.bIDs, b)
	}
	w.h1 = g.AddHost("h1", topo.WithMAC(w.h1mac), topo.WithIP(w.h1ip))
	w.h2 = g.AddHost("h2", topo.WithMAC(w.h2mac), topo.WithIP(w.h2ip))
	g.Link(w.h1, segs[0])
	g.Link(w.h2, segs[ring8Bridges/2])
	g.Affine(w.h1, w.h2)
	net, err := build(tr, g)
	if err != nil {
		return err
	}
	if err := install(tr, net, w.bIDs, switchlets.LearningManifest(), switchlets.DECManifest()); err != nil {
		return err
	}
	w.v = newView(net, ring8Bridges)
	net.Sim.MaxEvents = 20_000_000 // storm guard; a healthy roll never reaches it
	s := tr.begin(siteWarm)
	defer tr.end(s)
	w.v.run(tr, netsim.Time(40*netsim.Second)) // DEC converges and breaks the loop
	nw := tr.begin(siteNetWarm)
	net.Warm(w.h1, w.h2)
	tr.end(nw)
	return nil
}

func (w *ring8) op(tr *tracer) error {
	net := w.v.net
	sim := net.Sim
	load := workload.NewTtcp(net.Host(w.h1), net.Host(w.h2), 8192, 64<<20)
	sim.Schedule(sim.Now()+1, load.Start)
	// Validation outwaits the stale, tunnelled IEEE vectors of the
	// mixed-protocol phase (max-age 20s), as in the scenario.
	opts := bridge.UpgradeOptions{SuppressFor: 8 * netsim.Second, ValidateAfter: 35 * netsim.Second}
	w.upgrade = make([]*bridge.Upgrade, ring8Bridges)
	rollStart := netsim.Time(47*netsim.Second) + netsim.Time(300*netsim.Millisecond)
	for i := 0; i < ring8Bridges; i++ {
		slot := i
		b := net.Bridge(w.bIDs[i])
		sim.Schedule(rollStart+netsim.Time(i)*netsim.Time(600*netsim.Millisecond), func() {
			s := tr.begin(siteUpgrade)
			u, _ := b.Manager().Upgrade(switchlets.ModDEC, switchlets.SpanningManifest(), opts)
			tr.end(s)
			w.upgrade[slot] = u // a start trap records itself in the upgrade's state
		})
	}
	w.v.run(tr, netsim.Time(95*netsim.Second))
	delivered := load.DeliveredBytes()
	p := workload.NewPinger(net.Host(w.h1), net.Host(w.h2).IP, 64, 5)
	p.Start()
	w.v.run(tr, sim.Now()+netsim.Time(20*netsim.Second))

	for i, u := range w.upgrade {
		if u == nil || u.State() != bridge.UpgradeCommitted {
			st := "not started"
			if u != nil {
				st = u.State().String()
			}
			return fmt.Errorf("upgrade %d: %s, want committed", i, st)
		}
	}
	blocked := 0
	for _, id := range w.bIDs {
		b := net.Bridge(id)
		for port := 0; port < b.NumPorts(); port++ {
			if b.PortBlocked(port) {
				blocked++
			}
		}
	}
	if blocked < 1 {
		return fmt.Errorf("IEEE tree left the loop unbroken")
	}
	if delivered <= 1<<20 {
		return fmt.Errorf("stream starved across the roll: %d bytes", delivered)
	}
	if p.Completed() != 5 {
		return fmt.Errorf("post-roll pings: %d of 5 answered", p.Completed())
	}
	return nil
}

// fingerprint is topo.Net.Fingerprint of the finished net.
func (w *ring8) fingerprint() (string, error) { return w.v.net.Fingerprint(), nil }

func (w *ring8) view() *netView { return w.v }

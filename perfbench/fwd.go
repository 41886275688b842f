package main

import (
	"fmt"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/ipv4"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
	"github.com/switchware/activebridge/internal/workload"
)

// fwd1024 is the paper's §7.3 path: 1024-byte ttcp bursts from h1 to h2
// through one learning active bridge at the default VM tier, the
// topology of testbed.ActiveBridge. The seed picks the two stations'
// addresses; the cost model does not depend on addresses, so every seed
// must see the same virtual frame rate.
const (
	fwdWrite  = 1024
	fwdFrames = 256
	// fwdVirtualFPS is the virtual frame rate of one burst, pinned: it is
	// a virtual-time output, identical on any machine and at any VM tier.
	fwdVirtualFPS = 1522.662994828299
	// fwdSpan is the virtual time each burst is given; a burst needs
	// about 170ms at the pinned rate.
	fwdSpan = netsim.Time(netsim.Second)
)

type fwd struct {
	h1mac, h2mac ethernet.MAC
	h1ip, h2ip   ipv4.Addr

	v      *netView
	h1, h2 *workload.Host
	before []int64
}

func newFwd(seed uint64) (instance, error) {
	f := &fwd{}
	f.h1mac, f.h2mac, f.h1ip, f.h2ip = hostPair(newRng(seed, "fwd1024"))
	return f, nil
}

// hostPair draws two stations' addresses: locally administered unicast
// MACs and private IPs, distinct by construction.
func hostPair(r *rng) (mac1, mac2 ethernet.MAC, ip1, ip2 ipv4.Addr) {
	a := r.next()
	mac1 = ethernet.MACFromUint64(0x020000000000 | (a & 0xffffff0000) | 1)
	mac2 = ethernet.MACFromUint64(0x020000000000 | (a & 0xffffff0000) | 2)
	ip1 = ipv4.Addr{10, byte(a >> 16), byte(a >> 24), 1}
	ip2 = ipv4.Addr{10, byte(a >> 16), byte(a >> 24), 2}
	return mac1, mac2, ip1, ip2
}

func (f *fwd) setup(tr *tracer) error {
	f.v = nil // the previous net is garbage before the next one is built
	f.h1, f.h2 = nil, nil
	g := topo.New("fwd1024")
	h1 := g.AddHost("h1", topo.WithMAC(f.h1mac), topo.WithIP(f.h1ip))
	h2 := g.AddHost("h2", topo.WithMAC(f.h2mac), topo.WithIP(f.h2ip))
	lan1, lan2 := g.AddSegment("lan1"), g.AddSegment("lan2")
	br := g.AddBridge("br0", topo.EmptyBridge, 2)
	g.Link(h1, lan1)
	g.Link(br, lan1)
	g.Link(h2, lan2)
	g.Link(br, lan2)
	net, err := build(tr, g)
	if err != nil {
		return err
	}
	if err := install(tr, net, []topo.BridgeID{br}, switchlets.LearningManifest()); err != nil {
		return err
	}
	s := tr.begin(siteWarm)
	defer tr.end(s)
	w := tr.begin(siteNetWarm)
	net.Warm(h1, h2)
	tr.end(w)
	f.v = newView(net, 2)
	f.h1, f.h2 = net.Host(h1), net.Host(h2)
	// One discarded burst brings the VM's caches and tiers to steady
	// state; it belongs to warm-up.
	if _, err := burst(tr, f.v, f.h1, f.h2); err != nil {
		return fmt.Errorf("warm-up burst: %w", err)
	}
	f.before = f.v.state()
	return nil
}

// burst sends one fwdFrames-frame ttcp burst from h1 to h2 and advances
// the simulation by fwdSpan.
func burst(tr *tracer, v *netView, h1, h2 *workload.Host) (*workload.Ttcp, error) {
	// h2 answers each burst with one probe, as a TCP receiver's
	// acknowledgments would: it keeps h2's learning entry fresh, which
	// otherwise reaches the switchlet's 300s age limit and turns
	// forwarding into flooding mid-run.
	if err := h2.SendTest(h1.MAC, topo.WarmProbe()); err != nil {
		return nil, err
	}
	t := workload.NewTtcp(h1, h2, fwdWrite, fwdWrite*fwdFrames)
	s := tr.begin(siteTtcpStart)
	t.Start()
	tr.end(s)
	v.run(tr, v.net.Sim.Now()+fwdSpan)
	if !t.Done() {
		return t, fmt.Errorf("burst incomplete: %d of %d bytes", t.DeliveredBytes(), t.Total)
	}
	return t, nil
}

func (f *fwd) op(tr *tracer) error {
	t, err := burst(tr, f.v, f.h1, f.h2)
	if err != nil {
		return err
	}
	if fps := t.FramesPerSecond(); fps != fwdVirtualFPS {
		return fmt.Errorf("virtual frame rate %v, pinned %v", fps, fwdVirtualFPS)
	}
	return nil
}

// fingerprint is what the burst changed in the net's state.
func (f *fwd) fingerprint() (string, error) {
	after := f.v.state()
	fp := stateDelta(f.before, after)
	f.before = after
	return fp, nil
}

func (f *fwd) view() *netView { return f.v }

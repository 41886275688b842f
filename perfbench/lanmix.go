package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"github.com/switchware/activebridge/internal/ethernet"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/switchlets"
	"github.com/switchware/activebridge/internal/topo"
)

// lanmix is an extended LAN of three learning bridges: a backbone
// segment with one bridge to each of three leaf segments. Stations sit
// on all four segments. Each LAN's stations share one transmit tap, and
// one promiscuous receive tap per LAN counts what reaches the LAN's
// stations, so every delivery can be checked against the schedule.
//
// The seeded batch has eight rounds; in each, every sending station
// sends one frame. One op replays the next round. The destination stream
// has stack-distance locality over five times as many stations as the
// bridges' 64-entry flow cache holds; frame sizes follow a 7:4:1 mix of
// 64, 594 and 1518 bytes; one frame in eight is broadcast, and a tenth
// of the stations never send, so frames to them are always flooded.
// Frames are spaced evenly at an offered load well below a bridge's
// virtual service rate, so no queue overflows and every frame is
// delivered.
const (
	lanSegs        = 4 // backbone + 3 leaves
	lanBridges     = 3
	lanStations    = 320 // 5x the flow cache
	lanSilentShare = 0.1 // stations that never send
	lanRounds      = 8   // every sending station sends this many frames per batch, one of them broadcast
	// lanGap is the virtual spacing between frames: 500 frames/s offered,
	// against a bridge service rate of about 1500 frames/s.
	lanGap = 2 * netsim.Millisecond
	// lanDrain is the virtual time left after the last frame of a round.
	lanDrain = 100 * netsim.Millisecond
	// lanWarmMax bounds the warm-up replays.
	lanWarmMax = 8
)

// Stack-distance buckets of the destination stream: with probability
// p[i] the destination is drawn uniformly from LRU stack positions
// [lo[i], hi[i]). The buckets, like the silent share and the broadcast
// rate, are assumptions, not fitted to measured traffic (README.md).
var lanSD = []struct {
	p      float64
	lo, hi int
}{{0.45, 0, 8}, {0.30, 8, 64}, {0.25, 64, lanStations}}

// lanSizes is simple IMIX: 7:4:1 IP packets of 40, 576 and 1500 bytes,
// as Ethernet frames of 64, 594 and 1518 bytes.
var lanSizes = []struct {
	weight, payload int
}{{7, ethernet.MinPayload}, {4, 576}, {1, ethernet.MaxPayload}}

type lanFrame struct {
	seg     int // segment the frame is sent on
	raw     []byte
	dst     int // destination station, -1 for broadcast
	silent  bool
	sd      int // LRU stack distance of dst, -1 for broadcast
	minSize bool
}

type lanmix struct {
	stationSeg []int // segment of each station
	silent     []bool
	macs       []ethernet.MAC
	rounds     [][]lanFrame
	want       [][]uint64 // per round: expected unicast deliveries per station
	wantBcast  []uint64   // per round: expected broadcasts per receive tap

	v       *netView
	sendFn  []func([]byte) // per segment: transmit on its tap
	got     []uint64
	bcast   []uint64
	next    int      // round the next op replays
	roundFP []string // per round: what a steady-state replay changes
	batchFP string
	before  []int64 // net state before the last op
}

// lanStationMAC is station i's address: locally administered unicast,
// with the index in the low bytes so a receive tap recovers it cheaply.
func lanStationMAC(salt uint64, i int) ethernet.MAC {
	return ethernet.MACFromUint64(0x020000000000 | (salt&0xff)<<32 | 0x5a<<24 | uint64(i))
}

func newLanmix(seed uint64) (instance, error) {
	r := newRng(seed, "lanmix")
	l := &lanmix{}
	salt := r.next()
	for i := 0; i < lanStations; i++ {
		l.stationSeg = append(l.stationSeg, r.intn(lanSegs))
		l.macs = append(l.macs, lanStationMAC(salt, i))
	}
	l.silent = make([]bool, lanStations)
	for _, i := range r.perm(lanStations)[:int(lanSilentShare*lanStations)] {
		l.silent[i] = true
	}
	var senders []int
	for i := 0; i < lanStations; i++ {
		if !l.silent[i] {
			senders = append(senders, i)
		}
	}
	// Every sender broadcasts once per batch, in a seeded round (as
	// stations announce themselves with ARP), so every bridge refreshes
	// every sender's learning entry once per batch and no entry ever
	// reaches the switchlet's 300s age limit.
	bcastRound := make([]int, lanStations)
	for _, i := range senders {
		bcastRound[i] = r.intn(lanRounds)
	}
	stack := r.perm(lanStations) // LRU stack of destinations, most recent first
	payload := make([]byte, ethernet.MaxPayload)
	seq := 0
	for round := 0; round < lanRounds; round++ {
		var frames []lanFrame
		want := make([]uint64, lanStations)
		var bcast uint64
		for _, pi := range r.perm(len(senders)) {
			src := senders[pi]
			f := lanFrame{seg: l.stationSeg[src], dst: -1, sd: -1}
			dstMAC := ethernet.Broadcast
			if round != bcastRound[src] {
				f.sd = lanDistance(r, stack, src)
				f.dst = stack[f.sd]
				copy(stack[1:f.sd+1], stack[:f.sd])
				stack[0] = f.dst
				f.silent = l.silent[f.dst]
				dstMAC = l.macs[f.dst]
				want[f.dst]++
			} else {
				bcast++
			}
			size := lanSize(r)
			f.minSize = size == ethernet.MinPayload
			binary.BigEndian.PutUint32(payload, uint32(seq))
			seq++
			fr := ethernet.Frame{Dst: dstMAC, Src: l.macs[src], Type: ethernet.TypeTest, Payload: payload[:size]}
			raw, err := fr.Marshal()
			if err != nil {
				return nil, err
			}
			f.raw = raw
			frames = append(frames, f)
		}
		l.rounds = append(l.rounds, frames)
		l.want = append(l.want, want)
		l.wantBcast = append(l.wantBcast, bcast)
	}
	return l, nil
}

// lanDistance draws a stack distance, skipping the sender itself.
func lanDistance(r *rng, stack []int, src int) int {
	x := r.float()
	for _, b := range lanSD {
		if x < b.p {
			d := b.lo + r.intn(b.hi-b.lo)
			if stack[d] == src {
				d = (d + 1) % len(stack)
			}
			return d
		}
		x -= b.p
	}
	panic("stack-distance buckets do not sum to 1")
}

func lanSize(r *rng) int {
	total := 0
	for _, s := range lanSizes {
		total += s.weight
	}
	x := r.intn(total)
	for _, s := range lanSizes {
		if x < s.weight {
			return s.payload
		}
		x -= s.weight
	}
	panic("unreachable")
}

func (l *lanmix) setup(tr *tracer) error {
	l.v = nil // the previous net is garbage before the next one is built
	g := topo.New("lanmix")
	segs := make([]topo.SegmentID, lanSegs)
	for i := range segs {
		segs[i] = g.AddSegment(fmt.Sprintf("lan%d", i))
	}
	var brs []topo.BridgeID
	for i := 0; i < lanBridges; i++ {
		b := g.AddBridge("", topo.EmptyBridge, 2)
		g.Link(b, segs[0])
		g.Link(b, segs[1+i])
		brs = append(brs, b)
	}
	var tx, rx []topo.TapID
	for i := range segs {
		tx = append(tx, g.AddTap(fmt.Sprintf("tx%d", i), ethernet.MACFromUint64(0x02ee00000000|uint64(2*i))))
		rx = append(rx, g.AddTap(fmt.Sprintf("rx%d", i), ethernet.MACFromUint64(0x02ee00000000|uint64(2*i+1))))
		g.Link(tx[i], segs[i])
		g.Link(rx[i], segs[i])
	}
	net, err := build(tr, g)
	if err != nil {
		return err
	}
	if err := install(tr, net, brs, switchlets.LearningManifest()); err != nil {
		return err
	}
	l.v = newView(net, lanSegs)
	l.sendFn = l.sendFn[:0]
	l.got = make([]uint64, lanStations)
	l.bcast = make([]uint64, lanSegs)
	for i := range segs {
		nic := net.Tap(tx[i])
		l.sendFn = append(l.sendFn, func(raw []byte) { nic.Send(raw) })
		seg := i
		n := net.Tap(rx[i])
		n.Promiscuous = true
		n.SetRecv(func(_ *netsim.NIC, raw []byte) { l.receive(seg, raw) })
	}
	// Warm-up replays the batch until a replay changes the net exactly as
	// the one before it did, round by round. The bridges learn a station
	// only from frames they see, and which frames cross the backbone
	// depends on what was learned, so this takes a few replays.
	s := tr.begin(siteWarm)
	defer tr.end(s)
	l.next, l.roundFP = 0, nil
	for i := 0; ; i++ {
		var fps []string
		for r := range l.rounds {
			before := l.v.state()
			if err := l.replay(tr, r); err != nil {
				return fmt.Errorf("warm-up batch %d: %w", i, err)
			}
			fps = append(fps, stateDelta(before, l.v.state()))
		}
		if slices.Equal(fps, l.roundFP) {
			l.batchFP = strings.Join(fps, "| ")
			l.before = l.v.state()
			return nil
		}
		if i == lanWarmMax {
			return fmt.Errorf("no steady state after %d warm-up batches", i+1)
		}
		l.roundFP = fps
	}
}

// receive counts a frame reaching segment seg's stations.
func (l *lanmix) receive(seg int, raw []byte) {
	if raw[0] == 0xff {
		l.bcast[seg]++
		return
	}
	i := int(binary.BigEndian.Uint16(raw[4:6]))
	if raw[2] == 0x5a && i < lanStations && l.macs[i] == ethernet.MAC(raw[0:6]) && l.stationSeg[i] == seg {
		l.got[i]++
	}
}

// replay sends round r of the batch and checks every delivery against
// it.
func (l *lanmix) replay(tr *tracer, r int) error {
	clear(l.got)
	clear(l.bcast)
	sim := l.v.net.Sim
	start := sim.Now()
	frames := l.rounds[r]
	for i := range frames {
		f := &frames[i]
		sim.ScheduleBytes(start+netsim.Time(netsim.Duration(i+1)*lanGap), l.sendFn[f.seg], f.raw)
	}
	l.v.run(tr, start+netsim.Time(netsim.Duration(len(frames)+1)*lanGap+lanDrain))
	for i, n := range l.got {
		if n != l.want[r][i] {
			return fmt.Errorf("round %d: station %d on lan%d received %d frames, schedule sent it %d", r, i, l.stationSeg[i], n, l.want[r][i])
		}
	}
	for seg, n := range l.bcast {
		if n != l.wantBcast[r] {
			return fmt.Errorf("round %d: lan%d received %d broadcasts, schedule sent %d", r, seg, n, l.wantBcast[r])
		}
	}
	return nil
}

// op replays the next round.
func (l *lanmix) op(tr *tracer) error {
	r := l.next
	l.next = (l.next + 1) % len(l.rounds)
	return l.replay(tr, r)
}

// fingerprint is the whole batch's steady-state change; the round just
// replayed must have changed the net exactly as that round does.
func (l *lanmix) fingerprint() (string, error) {
	r := (l.next + len(l.rounds) - 1) % len(l.rounds)
	after := l.v.state()
	d := stateDelta(l.before, after)
	l.before = after
	if d != l.roundFP[r] {
		return "", fmt.Errorf("round %d moved off the steady state:\n  want %s\n  got  %s", r, l.roundFP[r], d)
	}
	return l.batchFP, nil
}

func (l *lanmix) view() *netView { return l.v }

// locality describes the generated destination stream: the properties a
// cache claim on this workload has to name.
type locality struct {
	frames, distinct       int
	sdLt8, sdLt64, unicast int
	bcast, flood, minSize  int
}

func (l *lanmix) locality() locality {
	var lc locality
	seen := map[int]bool{}
	for _, f := range slices.Concat(l.rounds...) {
		lc.frames++
		if f.minSize {
			lc.minSize++
		}
		if f.dst < 0 {
			lc.bcast++
			continue
		}
		lc.unicast++
		seen[f.dst] = true
		if f.sd < 8 {
			lc.sdLt8++
		}
		if f.sd < 64 {
			lc.sdLt64++
		}
		if f.silent {
			lc.flood++
		}
	}
	lc.distinct = len(seen)
	return lc
}

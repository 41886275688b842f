package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Call sites the benchmark wraps in spans. Each names the public function
// of the layer the benchmark calls; the phase sites (op, setup, run,
// warm) are the benchmark's own and hold the layer calls as children.
const (
	siteOp = iota
	siteSetup
	siteRun
	siteWarm
	siteBuild
	siteInstall
	siteCompile
	siteUpgrade
	siteNetWarm
	siteSimRun
	siteTtcpStart
	nSites
)

var siteNames = [nSites]string{
	siteOp:        "op",
	siteSetup:     "setup",
	siteRun:       "run",
	siteWarm:      "warm",
	siteBuild:     "topo.Graph.Build",
	siteInstall:   "bridge.Manager.Install",
	siteCompile:   "bridge.Manager.Compile",
	siteUpgrade:   "bridge.Manager.Upgrade",
	siteNetWarm:   "topo.Net.Warm",
	siteSimRun:    "netsim.Sim.Run",
	siteTtcpStart: "workload.Ttcp.Start",
}

type span struct {
	site       int
	parent     int32
	start, end int64 // ns since the tracer's epoch
}

// tracer records the benchmark's own wall-clock spans around its calls
// into the program. Spans stay in memory and are written out once, at the
// end of the run. When off, begin and end cost one branch.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(site int) int32 {
	if t == nil || !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{site: site, parent: parent, start: time.Since(t.epoch).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.epoch).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per site, the summed self time (span duration minus
// the time its child spans cover) and the number of calls.
func (t *tracer) selfTimes() (self [nSites]float64, calls [nSites]int) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self[s.site] += float64(s.end - s.start - child[i])
		calls[s.site]++
	}
	return self, calls
}

// durations returns the summed span duration per site.
func (t *tracer) durations() (dur [nSites]float64) {
	for _, s := range t.spans {
		dur[s.site] += float64(s.end - s.start)
	}
	return dur
}

// writeChrome writes the spans as a Chrome trace-event JSON array
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, "[")
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		ev := event{Name: siteNames[s.site], Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1}
		if s.parent >= 0 {
			ev.Args = map[string]int{"parent": int(s.parent)}
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Cross-tier identity pins: the execution tier a bridge runs its
// switchlets at (-O0 naive, -O1 quickened) and the per-destination demux
// flow cache are host-side accelerations only — every scenario must
// render byte-identical virtual-time output with them on or off.
// Combined with golden_test.go (which pins the -O1 default) and
// sharded_test.go this keeps all goldens byte-identical at -O0/-O1 and
// shards 1/2/4.
package scenario_test

import (
	"strings"
	"testing"

	"github.com/switchware/activebridge/internal/bridge"
	"github.com/switchware/activebridge/internal/netsim"
	"github.com/switchware/activebridge/internal/scenario"
)

// TestOptLevelSweepMatchesGoldens reruns the entire registry at -O0 and
// requires byte-identical rendered output against the serial run (which
// executes at the -O1 default, bridge.DefaultOptLevel). A divergence
// means the optimizing tier changed observable behaviour — the one thing
// it is not allowed to do.
func TestOptLevelSweepMatchesGoldens(t *testing.T) {
	serial := runSerial()
	defer func(old int) { bridge.DefaultOptLevel = old }(bridge.DefaultOptLevel)
	bridge.DefaultOptLevel = 0
	results := scenario.RunAll(scenario.All(), netsim.DefaultCostModel(), 1)
	if len(results) != len(serial) {
		t.Fatalf("-O0: result counts differ: %d vs %d", len(results), len(serial))
	}
	for i := range serial {
		s, p := &serial[i], &results[i]
		if !p.OK() {
			t.Errorf("%s (-O0): run=%v check=%v", p.Name, p.Err, p.CheckErr)
			continue
		}
		if s.Fingerprint != p.Fingerprint {
			t.Errorf("%s: -O0 fingerprint %s != -O1 %s", s.Name, p.Fingerprint, s.Fingerprint)
		}
		if s.Table.String() != p.Table.String() {
			t.Errorf("%s: -O0 table bytes differ from -O1", s.Name)
		}
	}
}

// TestFlowCacheOffMatchesChaosGoldens reruns every chaos-* scenario with
// the demux flow cache disabled and requires the fingerprints the golden
// test pinned (cache on). The chaos scenarios churn exactly the state the
// cache must track — handler swaps mid-deployment, bridge crashes, link
// flaps driving STP rebinds — so agreement here is the invalidation
// proof: a stale entry would misroute a frame and move the fingerprint.
func TestFlowCacheOffMatchesChaosGoldens(t *testing.T) {
	serial := runSerial()
	defer func(old bool) { bridge.DisableFlowCache = old }(bridge.DisableFlowCache)
	bridge.DisableFlowCache = true
	var chaos []*scenario.Scenario
	for _, s := range scenario.All() {
		if strings.HasPrefix(s.Name, "chaos-") {
			chaos = append(chaos, s)
		}
	}
	if len(chaos) == 0 {
		t.Fatal("no chaos-* scenarios registered")
	}
	results := scenario.RunAll(chaos, netsim.DefaultCostModel(), 1)
	byName := map[string]*scenario.Result{}
	for i := range serial {
		byName[serial[i].Name] = &serial[i]
	}
	for i := range results {
		p := &results[i]
		if !p.OK() {
			t.Errorf("%s (cache off): run=%v check=%v", p.Name, p.Err, p.CheckErr)
			continue
		}
		s := byName[p.Name]
		if s == nil {
			t.Errorf("%s: not present in serial run", p.Name)
			continue
		}
		if s.Fingerprint != p.Fingerprint {
			t.Errorf("%s: cache-off fingerprint %s != cache-on %s", p.Name, p.Fingerprint, s.Fingerprint)
		}
	}
}

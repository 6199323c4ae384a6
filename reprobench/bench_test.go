package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// tiny is a size that runs every workload in seconds: one production
// seed per input, one set-up, one pass.
var tiny = size{recordSeeds: 1, bugSeeds: 1, setupRuns: 1, minOps: 1}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads or metrics")
	}
	return s
}

// checkMetrics fails unless got holds exactly the metrics want names,
// each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", label, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for n := range got {
			if !names[n] {
				t.Errorf("%s: metric %s is not named in BENCHMARK.json", label, n)
			}
		}
	}
}

// TestWorkloadsEmitNamedMetrics runs every workload BENCHMARK.json
// names, and always-on, which it leaves out, at a tiny size, untraced
// and traced, and checks each emits every named metric with its unit
// and nothing else.
func TestWorkloadsEmitNamedMetrics(t *testing.T) {
	s := readSpec(t)
	names := []string{"always-on"}
	for _, wl := range s.Workloads {
		names = append(names, wl.Name)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, tiny)
			if err != nil {
				t.Fatal(err)
			}
			var res result
			if traced {
				res, err = runTraced(w, tiny, 1, 0)
			} else {
				res, err = runEndToEnd(w, tiny, 1, 0)
			}
			label := name
			want := s.EndToEnd
			if traced {
				label += " traced"
				want = s.PerLayer
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("%s: attempted %d, failed %d", label, res.Attempted, res.Failed)
			}
			checkMetrics(t, label, res.Metrics, want)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", tiny); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sched.(*Scheduler).loop":    "sched",
		"repro/internal/race.(*Detector).OnEvent":   "race",
		"repro/internal/vclock.VC.Join":             "race",
		"repro/internal/apps.mysqld.func1":          "apps",
		"repro/internal/harness.RunE2":              "other",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"sync.(*Mutex).Lock":                        "other",
		"repro/internal/trace.EncodeSketch":         "trace",
		"repro/internal/core.(*searchState).Commit": "core",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

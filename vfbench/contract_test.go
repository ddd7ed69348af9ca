package main

import (
	"testing"
)

// TestEveryWorkloadMeetsTheContract runs each workload briefly, untraced
// and traced, and checks its output against BENCHMARK.json: every gated
// end-to-end metric measured and non-zero, every per-layer row it emits
// gated with the same unit, and every gated per-layer metric emitted by
// some workload.
func TestEveryWorkloadMeetsTheContract(t *testing.T) {
	g, err := loadGated("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, c := range g.PerLayer {
		units[c.Name] = c.Unit
	}
	emitted := map[string]bool{}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			out, err := execute(options{workload: sp.name, seed: 2, seconds: 0.001, trace: trace,
				work: t.TempDir(), minPeriods: 12, setups: 1})
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if out.failed > 0 {
				t.Fatalf("%s failed its checks: %v", sp.name, out.errs)
			}
			if _, err := contractLine(g, trace, out); err != nil {
				t.Errorf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !trace {
				for _, c := range g.EndToEnd {
					if r, ok := lookup(out.e2e, c.Name); !ok || r.value <= 0 {
						t.Errorf("%s: gated metric %s is %v (measured %v)", sp.name, c.Name, r.value, ok)
					}
				}
				continue
			}
			for _, r := range out.layers {
				u, ok := units[r.name]
				switch {
				case !ok && !isReportOnly(r.name):
					t.Errorf("%s emits per-layer %s, which BENCHMARK.json does not list", sp.name, r.name)
				case ok && u != r.unit:
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", sp.name, r.name, r.unit, u)
				}
				emitted[r.name] = true
			}
		}
	}
	for _, c := range g.PerLayer {
		if !emitted[c.Name] {
			t.Errorf("BENCHMARK.json lists %s, which no workload emits", c.Name)
		}
	}
}

// isReportOnly names the traced rows printed for the reader but not
// gated: bookkeeping of the trace itself and of the benchmark's code.
func isReportOnly(name string) bool {
	switch name {
	case "trace.periods", "trace.dropped_spans", "bench.drive_us", "bench.check_us":
		return true
	}
	return false
}

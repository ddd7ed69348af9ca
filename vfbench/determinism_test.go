package main

import (
	"runtime"
	"testing"
)

// simRows runs a workload briefly at the given GOMAXPROCS and returns
// its simulated end-to-end metrics by name.
func simRows(t *testing.T, workload string, procs int, names ...string) map[string]float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	out, err := execute(options{workload: workload, seed: 3, seconds: 0.001, work: t.TempDir(), minPeriods: 30, setups: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed > 0 {
		t.Fatalf("%s failed its checks: %v", workload, out.errs)
	}
	got := map[string]float64{}
	for _, n := range names {
		r, ok := lookup(out.e2e, n)
		if !ok {
			t.Fatalf("%s reports no %s", workload, n)
		}
		got[n] = r.value
	}
	return got
}

var clusterSimMetrics = []string{"sla_miss_frac", "nodes_used_mean", "energy_j_per_vm_period", "admit_reject_frac", "degraded_frac"}

// TestClusterSimMetricsExact requires cluster-dynamic's simulated
// metrics to repeat bit for bit across runs and at GOMAXPROCS 1 and 2.
func TestClusterSimMetricsExact(t *testing.T) {
	ref := simRows(t, "cluster-dynamic", 1, clusterSimMetrics...)
	for _, procs := range []int{2, 2} {
		got := simRows(t, "cluster-dynamic", procs, clusterSimMetrics...)
		for n, v := range ref {
			if got[n] != v {
				t.Errorf("%s at GOMAXPROCS=%d: %v, at 1: %v", n, procs, got[n], v)
			}
		}
	}
	if ref["sla_miss_frac"] == 0 || ref["admit_reject_frac"] == 0 || ref["energy_j_per_vm_period"] == 0 {
		t.Errorf("cluster-dynamic exercised no SLA misses, refusals or energy: %v", ref)
	}
}

func TestLinuxDegradedFracExact(t *testing.T) {
	a := simRows(t, "linux-steady", 1, "degraded_frac")
	b := simRows(t, "linux-steady", 2, "degraded_frac")
	if a["degraded_frac"] != b["degraded_frac"] {
		t.Errorf("linux-steady degraded_frac %v at GOMAXPROCS=1, %v at 2", a["degraded_frac"], b["degraded_frac"])
	}
}

// TestChurnSimMetricsSpread reports how far node-churn's simulated
// metrics move between runs of one seed. They are not exact at
// GOMAXPROCS > 1: FaultyHost draws its Rate faults from one shared RNG
// in goroutine order (ROADMAP item 1), so this only logs the spread;
// at GOMAXPROCS 1 the monitor stage is serial and they must repeat.
func TestChurnSimMetricsSpread(t *testing.T) {
	names := []string{"sla_miss_frac", "degraded_frac"}
	s1, s2 := simRows(t, "node-churn", 1, names...), simRows(t, "node-churn", 1, names...)
	for _, n := range names {
		if s1[n] != s2[n] {
			t.Errorf("node-churn %s differs across serial runs: %v vs %v", n, s1[n], s2[n])
		}
	}
	a, b := simRows(t, "node-churn", 2, names...), simRows(t, "node-churn", 2, names...)
	for _, n := range names {
		t.Logf("node-churn %s at GOMAXPROCS=2: %v and %v (not exact, ROADMAP item 1)", n, a[n], b[n])
	}
}

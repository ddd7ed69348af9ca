package main

import (
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkMonitorStage/workers=2-8   \t2000\t  6314 ns/op\t 208 B/op\t 6 allocs/op")
	if !ok {
		t.Fatal("valid benchmark line rejected")
	}
	want := Result{
		Name:       "MonitorStage/workers=2",
		Iterations: 2000,
		Metrics:    map[string]float64{"ns/op": 6314, "B/op": 208, "allocs/op": 6},
	}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("parseLine = %+v, want %+v", r, want)
	}
	// A trailing dash that is not a GOMAXPROCS suffix stays in the name.
	if r, ok := parseLine("BenchmarkClusterScale/nodes=64/workers=1-x 1 5 ns/op"); !ok ||
		r.Name != "ClusterScale/nodes=64/workers=1-x" {
		t.Fatalf("non-numeric suffix: %+v, %v", r, ok)
	}
	for _, line := range []string{
		"",
		"ok  \tvfreq/internal/core\t0.6s",
		"BenchmarkAuction-2",                  // no iterations
		"BenchmarkAuction-2 100 39489",        // value without a unit
		"BenchmarkAuction-2 many 39489 ns/op", // non-numeric iterations
		"BenchmarkAuction-2 100 fast ns/op",   // non-numeric value
	} {
		if r, ok := parseLine(line); ok {
			t.Fatalf("parseLine(%q) accepted: %+v", line, r)
		}
	}
}

func result(name string, ns, allocs float64) Result {
	return Result{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestCompareFlagsRegression(t *testing.T) {
	prev := &Artefact{Results: []Result{result("Auction", 40_000, 0), result("ApplyStage", 600, 0)}}
	cur := &Artefact{Results: []Result{result("Auction", 41_000, 1), result("ApplyStage", 900, 0)}}
	regs := compare(prev, cur, 0.25)
	got := map[string]bool{}
	for _, r := range regs {
		got[r.bench+" "+r.metric] = true
	}
	// Auction: ns/op +2.5% is within tolerance, allocs/op 0 → 1 is not.
	// ApplyStage: ns/op +50% regresses.
	want := map[string]bool{"Auction allocs/op": true, "ApplyStage ns/op": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regressions = %v, want %v", got, want)
	}
}

func TestCompareNewBenchmarkIsNotARegression(t *testing.T) {
	prev := &Artefact{Results: []Result{result("ApplyStage", 600, 0)}}
	cur := &Artefact{Results: []Result{result("ApplyStage", 600, 0), result("EstimateEnforce", 9_000, 0)}}
	if regs := compare(prev, cur, 0.25); len(regs) != 0 {
		t.Fatalf("a benchmark without a baseline regressed: %+v", regs)
	}
	if gone, err := missing(prev, cur, "ApplyStage|EstimateEnforce"); err != nil || len(gone) != 0 {
		t.Fatalf("missing = %v, %v; want none", gone, err)
	}
}

func TestMissingGatedBenchmark(t *testing.T) {
	prev := &Artefact{Results: []Result{
		result("MonitorStage/workers=1", 5_000, 0),
		result("AuctionSharded/shards=1", 39_000, 0),
		result("ClusterScale/nodes=64/workers=1", 1e6, 0),
		result("Fig2ControllerStep/workers=1", 1e5, 0),
	}}
	cur := &Artefact{Results: []Result{
		result("MonitorStage/workers=1", 5_000, 0),
		result("Auction", 39_000, 0),
	}}
	for _, tc := range []struct {
		bench string
		want  []string
	}{
		// The renamed benchmark is selected by the run's pattern but
		// absent from the run: it must not drop out silently.
		{"MonitorStage|AuctionSharded", []string{"AuctionSharded/shards=1"}},
		{"MonitorStage|Auction", []string{"AuctionSharded/shards=1"}},
		// Entries the pattern does not select are not the run's concern.
		{"MonitorStage|Auction$", nil},
		{"MonitorStage", nil},
		// Level-by-level matching: the second level must match too.
		{"AuctionSharded/shards=2", nil},
		{"AuctionSharded/shards=1", []string{"AuctionSharded/shards=1"}},
		{"ClusterScale/nodes=64", []string{"ClusterScale/nodes=64/workers=1"}},
		// A pattern deeper than the name is only a partial match.
		{"Fig2ControllerStep/workers=1/x", nil},
		{"", []string{"AuctionSharded/shards=1", "ClusterScale/nodes=64/workers=1", "Fig2ControllerStep/workers=1"}},
	} {
		gone, err := missing(prev, cur, tc.bench)
		if err != nil {
			t.Fatalf("-bench %q: %v", tc.bench, err)
		}
		if !reflect.DeepEqual(gone, tc.want) {
			t.Fatalf("-bench %q: missing = %v, want %v", tc.bench, gone, tc.want)
		}
	}
	if _, err := missing(prev, cur, "Auction("); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

// TestCommittedBaselineOtherEntries runs the CI cluster gate's pattern
// against the committed BENCH_8.json: a run producing only the
// ClusterScale results must not trip on the file's other entries, while
// widening the pattern to the DynamicCluster entries must.
func TestCommittedBaselineOtherEntries(t *testing.T) {
	prev, err := load("../../BENCH_8.json")
	if err != nil {
		t.Fatal(err)
	}
	cur := &Artefact{}
	for _, n := range []string{"64", "256", "1024"} {
		cur.Results = append(cur.Results, result("ClusterScale/nodes="+n+"/workers=1", 1e6, 0))
	}
	if gone, err := missing(prev, cur, "ClusterScale"); err != nil || len(gone) != 0 {
		t.Fatalf("-bench ClusterScale: missing = %v, %v; want none", gone, err)
	}
	gone, err := missing(prev, cur, "ClusterScale|DynamicCluster")
	if err != nil || len(gone) != 2 {
		t.Fatalf("-bench ClusterScale|DynamicCluster: missing = %v, %v; want the 2 DynamicCluster entries", gone, err)
	}
}

func TestSplitPattern(t *testing.T) {
	for _, tc := range []struct {
		in   string
		sep  byte
		want []string
	}{
		{"A|B/c", '|', []string{"A", "B/c"}},
		{"B/c", '/', []string{"B", "c"}},
		{"(A|B)/c", '|', []string{"(A|B)/c"}},
		{"[/|]x/y", '/', []string{"[/|]x", "y"}},
		{`a\/b/c`, '/', []string{`a\/b`, "c"}},
		{"", '/', []string{""}},
	} {
		if got := splitPattern(tc.in, tc.sep); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("splitPattern(%q, %q) = %q, want %q", tc.in, tc.sep, got, tc.want)
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vfreq/internal/metrics"
	"vfreq/internal/workload"
)

func TestExampleScenarioParses(t *testing.T) {
	sc, err := parseScenario([]byte(exampleScenario))
	if err != nil {
		t.Fatalf("example scenario invalid: %v", err)
	}
	if sc.Node != "chetemi" || len(sc.VMs) != 3 || !sc.Control {
		t.Fatalf("example scenario content unexpected: %+v", sc)
	}
	// Unknown keys — a retired knob or a typo — are rejected by name
	// instead of being dropped.
	for _, key := range []string{"auction_shards", "contol"} {
		raw := `{"node": "chetemi", "duration_s": 10, "` + key + `": 1, "vms": []}`
		if _, err := parseScenario([]byte(raw)); err == nil || !strings.Contains(err.Error(), key) {
			t.Fatalf("scenario with %q: err = %v, want an error naming the key", key, err)
		}
	}
	for name, raw := range map[string]string{
		"zero duration": `{"node": "chetemi", "vms": []}`,
		"trailing data": `{"node": "chetemi", "duration_s": 10, "vms": []} {}`,
	} {
		if _, err := parseScenario([]byte(raw)); err == nil {
			t.Fatalf("%s: scenario accepted", name)
		}
	}
}

func TestNodeSpec(t *testing.T) {
	for _, name := range []string{"chetemi", "chiclet"} {
		spec, err := nodeSpec(Scenario{Node: name})
		if err != nil || spec.Name != name {
			t.Fatalf("nodeSpec(%s) = %v, %v", name, spec.Name, err)
		}
	}
	custom, err := nodeSpec(Scenario{Cores: 8, MaxMHz: 3000, MemoryGB: 32})
	if err != nil || custom.Cores != 8 || custom.MaxMHz != 3000 {
		t.Fatalf("custom spec = %+v, %v", custom, err)
	}
	if _, err := nodeSpec(Scenario{Node: "cray"}); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := nodeSpec(Scenario{Cores: 0, MaxMHz: 3000, MemoryGB: 32}); err == nil {
		t.Fatal("invalid custom spec accepted")
	}
}

func TestBuildWorkload(t *testing.T) {
	srcs, err := buildWorkload(ScenarioVM{VCPUs: 2, Workload: "busy"})
	if err != nil || len(srcs) != 2 {
		t.Fatalf("busy: %d sources, %v", len(srcs), err)
	}
	if d := srcs[0].Demand(0, 1000); d != 1 {
		t.Fatalf("busy demand = %v", d)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "idle"})
	if err != nil || srcs != nil {
		t.Fatalf("idle: %v, %v", srcs, err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 4, Workload: "compress", GCycles: 10, Runs: 2})
	if err != nil || len(srcs) != 4 {
		t.Fatalf("compress: %d sources, %v", len(srcs), err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "openssl"})
	if err != nil || len(srcs) != 1 {
		t.Fatalf("openssl defaults: %v, %v", srcs, err)
	}
	srcs, err = buildWorkload(ScenarioVM{VCPUs: 1, Workload: "bursty:20:0.3", StartS: 5})
	if err != nil || len(srcs) != 1 {
		t.Fatalf("bursty: %v, %v", srcs, err)
	}
	// The delayed bursty source is idle before its start.
	if d := srcs[0].Demand(1_000_000, 1000); d != 0 {
		t.Fatalf("bursty before start: %v", d)
	}
	if _, err := buildWorkload(ScenarioVM{VCPUs: 1, Workload: "bursty:x"}); err == nil {
		t.Fatal("malformed bursty accepted")
	}
	if _, err := buildWorkload(ScenarioVM{VCPUs: 1, Workload: "fib"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
	var _ []workload.Source = srcs
}

func TestControllerConfigOverrides(t *testing.T) {
	cfg := controllerConfig(Scenario{
		Control:         true,
		IncreaseTrigger: 0.9, IncreaseFactor: 0.5,
		DecreaseTrigger: 0.4, DecreaseFactor: 0.1,
	})
	if cfg.IncreaseTrigger != 0.9 || cfg.IncreaseFactor != 0.5 ||
		cfg.DecreaseTrigger != 0.4 || cfg.DecreaseFactor != 0.1 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if !cfg.ControlEnabled {
		t.Fatal("control flag lost")
	}
	// Zero values keep the paper defaults.
	def := controllerConfig(Scenario{})
	if def.IncreaseTrigger != 0.95 || def.DecreaseFactor != 0.05 {
		t.Fatalf("defaults lost: %+v", def)
	}
}

func TestRunSimProducesCSV(t *testing.T) {
	sc := Scenario{
		Node:      "chetemi",
		DurationS: 5,
		Control:   true,
		VMs: []ScenarioVM{
			{Name: "web", VCPUs: 2, FreqMHz: 500, MemoryGB: 2, Workload: "busy"},
			{Name: "batch", VCPUs: 4, FreqMHz: 1800, MemoryGB: 8, Workload: "busy"},
		},
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "out.csv")
	snap := filepath.Join(dir, "snap.json")
	if err := runSim(sc, out, snap, checkpointOpts{}, metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	// The snapshot is valid JSON with both VMs.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var snapData map[string]any
	if err := json.Unmarshal(raw, &snapData); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if vms, ok := snapData["vms"].([]any); !ok || len(vms) != 2 {
		t.Fatalf("snapshot vms = %v", snapData["vms"])
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines, comments := splitCSV(string(data))
	if len(lines) != 6 { // header + 5 periods
		t.Fatalf("CSV has %d data lines, want 6:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "time_s,web_mhz,web_credit,batch_mhz,batch_credit") {
		t.Fatalf("header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		if strings.Count(line, ",") != strings.Count(lines[0], ",") {
			t.Fatalf("ragged CSV row %q", line)
		}
	}
	// The end-of-run metrics dump rides on the CSV as comment lines.
	joined := strings.Join(comments, "\n")
	for _, want := range []string{"vfreq_steps_total 5", `vfreq_step_stage_us_count{stage="monitor"} 5`} {
		if !strings.Contains(joined, want) {
			t.Errorf("metrics dump missing %q", want)
		}
	}
}

// splitCSV separates a run artefact into CSV data lines and "# "
// comment lines (the appended metrics dump).
func splitCSV(data string) (rows, comments []string) {
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		rows = append(rows, line)
	}
	return rows, comments
}

func TestRunSimValidatesVMs(t *testing.T) {
	sc := Scenario{
		Node: "chetemi", DurationS: 1, Control: true,
		VMs: []ScenarioVM{{Name: "bad", VCPUs: 0, FreqMHz: 500, Workload: "busy"}},
	}
	if err := runSim(sc, filepath.Join(t.TempDir(), "x.csv"), "", checkpointOpts{}, metrics.NewRegistry()); err == nil {
		t.Fatal("invalid VM accepted")
	}
}

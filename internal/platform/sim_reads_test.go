package platform

import (
	"fmt"
	"runtime"
	"testing"

	"vfreq/internal/host"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// steadySim builds a Sim over a chetemi host running n two-vCPU busy
// VMs, advanced past boot so every vCPU thread has run, and reads every
// vCPU once so the path memos and the memfs index are warm.
func steadySim(tb testing.TB, n int) (*Sim, []VMInfo) {
	tb.Helper()
	m, err := host.New(host.Chetemi())
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := mgr.Provision(fmt.Sprintf("vm%02d", i), vm.Small(),
			[]workload.Source{workload.Busy(), workload.Busy()}); err != nil {
			tb.Fatal(err)
		}
	}
	m.Advance(1_000_000)
	s := NewSim(mgr)
	vms, err := s.ListVMs()
	if err != nil {
		tb.Fatal(err)
	}
	vms = append([]VMInfo(nil), vms...)
	simReads(tb, s, vms)
	return s, vms
}

// simReads issues the monitor stage's four reads for every vCPU:
// usage, thread id, the thread's last CPU and that core's frequency.
func simReads(tb testing.TB, s *Sim, vms []VMInfo) {
	for _, v := range vms {
		for j := 0; j < v.VCPUs; j++ {
			if _, err := s.UsageUs(v.Name, j); err != nil {
				tb.Fatal(err)
			}
			tid, err := s.ThreadID(v.Name, j)
			if err != nil {
				tb.Fatal(err)
			}
			core, err := s.LastCPU(tid)
			if err != nil {
				tb.Fatal(err)
			}
			if _, err := s.CoreFreqMHz(core); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestSimReadsZeroAlloc asserts that a steady Sim's monitor reads
// allocate nothing, even right after garbage collections, which empty
// any sync.Pool, and at GOMAXPROCS 1 and 2.
func TestSimReadsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, vms := steadySim(t, 8)
	read := func() { simReads(t, s, vms) }
	for _, procs := range []int{1, 2} {
		if n := allocsPerColdRun(procs, 20, read); n != 0 {
			t.Fatalf("Sim monitor reads at GOMAXPROCS=%d allocate %d/op after a GC, want 0", procs, n)
		}
	}
}

// allocsPerColdRun is testing.AllocsPerRun at the given GOMAXPROCS with
// two runtime.GC calls before each measured call of f. It returns the
// runtime.MemStats.Mallocs delta across the calls divided by runs,
// truncated as AllocsPerRun does. The previous GOMAXPROCS is restored.
func allocsPerColdRun(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return total / uint64(runs)
}

// BenchmarkSimReads measures the Sim layer of the monitor stage: the four
// reads per vCPU for 40 two-vCPU VMs, rendering and parsing included.
func BenchmarkSimReads(b *testing.B) {
	s, vms := steadySim(b, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simReads(b, s, vms)
	}
}

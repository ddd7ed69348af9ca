package main

import (
	"testing"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/host"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// TestCPUStatMatchesSimulatedCgroup renders a fixture cpu.stat and
// compares it with what the simulated cgroupfs shows for an unthrottled
// vCPU that used the same CPU time.
func TestCPUStatMatchesSimulatedCgroup(t *testing.T) {
	m, err := host.New(host.Chetemi())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("v", vm.Small(), []workload.Source{workload.Busy(), workload.Idle()}); err != nil {
		t.Fatal(err)
	}
	m.Advance(1_000_000)
	path := cgroupfs.DefaultMount + "/" + vm.VCPUCgroup("v", 0) + "/cpu.stat"
	got, err := m.FS.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	usage, err := cgroupfs.ParseCPUStat(got, "usage_usec")
	if err != nil || usage == 0 {
		t.Fatalf("simulated usage %d, %v", usage, err)
	}
	if want := string(appendCPUStat(nil, usage)); got != want {
		t.Errorf("fixture cpu.stat\n%q\nsimulated\n%q", want, got)
	}
}

func TestParseCPUMax(t *testing.T) {
	for _, c := range []struct {
		in      string
		q, p    int64
		wantErr bool
	}{
		{"max 100000\n", -1, 100000, false},
		{"37500 100000", 37500, 100000, false},
		{"1000 100000\n", 1000, 100000, false},
		{"", 0, 0, true},
		{"12x 100000", 0, 0, true},
		{"1000 0", 0, 0, true},
		{"1000", 0, 0, true},
	} {
		q, p, ok := parseCPUMax([]byte(c.in))
		if ok == c.wantErr || (ok && (q != c.q || p != c.p)) {
			t.Errorf("parseCPUMax(%q) = %d, %d, %v", c.in, q, p, ok)
		}
	}
}

// TestLinuxKernelPlayAllocatesNothing pins linux-steady's kernel play and gate
// allocation-free, so alloc_b_per_period there is the program's alone.
func TestLinuxKernelPlayAllocatesNothing(t *testing.T) {
	e := &env{seed: 1, work: t.TempDir(), simEnd: 1 << 30, measuring: true}
	wi, err := buildLinux(e)
	if err != nil {
		t.Fatal(err)
	}
	w := wi.(*linuxWorld)
	defer w.close()
	if e.benchAllocs {
		t.Fatal("linux-steady declares allocating benchmark code")
	}
	for p := 0; p < 5; p++ {
		w.prepare(p)
		w.program(p)
		if err := w.check(p); err != nil {
			t.Fatal(err)
		}
	}
	p := 5
	if n := testing.AllocsPerRun(20, func() {
		w.prepare(p)
		if err := w.check(p); err != nil {
			t.Fatal(err)
		}
		p++
	}); n != 0 {
		t.Errorf("prepare+check allocate %v times per period", n)
	}
}

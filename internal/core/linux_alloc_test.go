package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"vfreq/internal/platform"
	"vfreq/internal/procfs"
)

// linuxFixture is a cgroup v2 / proc / sysfs tree under a temp dir, read
// by the real platform.Linux backend. Tick advances every vCPU's
// usage_usec through kept-open files, allocating nothing, so it can run
// inside an AllocsPerRun body.
type linuxFixture struct {
	host  *platform.Linux
	stat  []*os.File
	usage []int64
	burn  []int64
	buf   []byte
}

func newLinuxFixture(t *testing.T, vms, cores int) *linuxFixture {
	t.Helper()
	root := t.TempDir()
	fx := &linuxFixture{buf: make([]byte, 0, 64)}
	mk := func(path, content string) *os.File {
		t.Helper()
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(full, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(content); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	freqs := map[string]int64{}
	tid := 1000
	for i := 0; i < vms; i++ {
		name := fmt.Sprintf("vm%02d", i)
		freqs[name] = int64(1200 + 200*(i%5))
		for j := 0; j < 1+i%3; j++ {
			cg := filepath.Join("cgroup", "machine-qemu-"+name+".scope", "vcpu"+strconv.Itoa(j))
			fx.stat = append(fx.stat, mk(filepath.Join(cg, "cpu.stat"), "usage_usec 0\n"))
			fx.usage = append(fx.usage, 0)
			fx.burn = append(fx.burn, int64(200_000+(len(fx.burn)%7)*90_000))
			mk(filepath.Join(cg, "cgroup.threads"), strconv.Itoa(tid)+"\n")
			mk(filepath.Join(cg, "cpu.max"), "max 100000\n")
			mk(filepath.Join(cg, "cpu.max.burst"), "0\n")
			mk(filepath.Join("proc", strconv.Itoa(tid), "stat"),
				procfs.FormatStat(tid, "CPU "+strconv.Itoa(j)+"/KVM", 0, tid%cores))
			tid++
		}
	}
	for c := 0; c < cores; c++ {
		mk(filepath.Join("cpu", "cpu"+strconv.Itoa(c), "cpufreq", "scaling_cur_freq"), "2400000\n")
	}
	fx.host = &platform.Linux{
		NodeName:    "fixture",
		CgroupRoot:  filepath.Join(root, "cgroup"),
		ProcRoot:    filepath.Join(root, "proc"),
		SysCPURoot:  filepath.Join(root, "cpu"),
		SysNUMARoot: filepath.Join(root, "node"), // absent: one NUMA node
		MaxFreqMHz:  2400,
		Cores:       cores,
		Freqs:       freqs,
	}
	return fx
}

func (fx *linuxFixture) tick(t testing.TB) {
	for i, f := range fx.stat {
		fx.usage[i] += fx.burn[i]
		b := append(fx.buf[:0], "usage_usec "...)
		b = strconv.AppendInt(b, fx.usage[i], 10)
		b = append(b, '\n')
		// usage only grows, so each write covers the previous content.
		if _, err := f.WriteAt(b, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinuxStepZeroAlloc is TestStepZeroAlloc over the real Linux
// backend: with DefaultConfig and usage advancing every period, a
// steady-state Step — the VM listing, every cgroup/proc/sys read and the
// quota writes included — makes no heap allocation, at GOMAXPROCS 1
// (AllocsPerRun) and 2.
func TestLinuxStepZeroAlloc(t *testing.T) {
	fx := newLinuxFixture(t, 24, 16)
	c, err := New(fx.host, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		fx.tick(t)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	if n := len(c.VMs()); n != 24 {
		t.Fatalf("controller tracks %d VMs, want 24", n)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("steady-state Step over platform.Linux allocates %.1f/op, want 0", allocs)
	}
	if n := allocsPerRunAtTwoProcs(50, step); n != 0 {
		t.Fatalf("steady-state Step over platform.Linux at GOMAXPROCS=2 allocates %d/op, want 0", n)
	}
}

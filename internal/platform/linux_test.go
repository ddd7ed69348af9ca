package platform

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vfreq/internal/procfs"
)

// fixtureHost lays out a fake Linux filesystem with one 2-vCPU KVM guest,
// exercising the exact file formats the real backend parses.
func fixtureHost(t *testing.T) *Linux {
	t.Helper()
	root := t.TempDir()
	mk := func(path, content string) {
		t.Helper()
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// sysfs cpufreq for 2 cores.
	mk("sys/cpu/online", "0-1\n")
	mk("sys/cpu/cpu0/cpufreq/scaling_max_freq", "2400000\n")
	mk("sys/cpu/cpu0/cpufreq/scaling_cur_freq", "2200000\n")
	mk("sys/cpu/cpu1/cpufreq/scaling_cur_freq", "1200000\n")
	// cgroup v2 machine.slice with one libvirt-style guest.
	scope := "cgroup/machine-qemu-guest1.scope"
	mk(scope+"/vcpu0/cpu.stat", "usage_usec 123456\nuser_usec 123456\nnr_periods 0\nnr_throttled 0\nthrottled_usec 0\n")
	mk(scope+"/vcpu0/cgroup.threads", "4242\n")
	mk(scope+"/vcpu0/cpu.max", "max 100000\n")
	mk(scope+"/vcpu0/cpu.max.burst", "0\n")
	mk(scope+"/vcpu1/cpu.stat", "usage_usec 99\n")
	mk(scope+"/vcpu1/cgroup.threads", "4243\n")
	mk(scope+"/vcpu1/cpu.max", "max 100000\n")
	mk(scope+"/vcpu1/cpu.max.burst", "0\n")
	// A scope without vcpus and a non-scope dir must be ignored.
	mk("cgroup/machine-qemu-empty.scope/cpu.stat", "usage_usec 0\n")
	mk("cgroup/other.mount/cpu.stat", "usage_usec 0\n")
	// /proc/<tid>/stat for the vCPU thread.
	mk("proc/4242/stat", procfs.FormatStat(4242, "CPU 0/KVM", 120_000, 1))

	return &Linux{
		NodeName:   "fixture",
		CgroupRoot: filepath.Join(root, "cgroup"),
		ProcRoot:   filepath.Join(root, "proc"),
		SysCPURoot: filepath.Join(root, "sys/cpu"),
		Cores:      2,
		MaxFreqMHz: 2400,
		Freqs:      map[string]int64{"guest1": 1800},
	}
}

func TestLinuxListVMs(t *testing.T) {
	l := fixtureHost(t)
	vms, err := l.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 1 {
		t.Fatalf("got %d VMs, want 1 (empty scope and foreign dirs ignored)", len(vms))
	}
	if vms[0].Name != "guest1" || vms[0].VCPUs != 2 || vms[0].FreqMHz != 1800 {
		t.Fatalf("vm = %+v", vms[0])
	}
}

func TestLinuxVMWithoutTemplateSkipped(t *testing.T) {
	l := fixtureHost(t)
	l.Freqs = nil
	vms, err := l.ListVMs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vms) != 0 {
		t.Fatalf("unregistered VM listed: %+v", vms)
	}
}

func TestLinuxUsage(t *testing.T) {
	l := fixtureHost(t)
	u, err := l.UsageUs("guest1", 0)
	if err != nil || u != 123456 {
		t.Fatalf("usage = %d, %v", u, err)
	}
	if _, err := l.UsageUs("ghost", 0); err == nil {
		t.Fatal("unknown VM read succeeded")
	}
}

func TestLinuxSetAndClearMax(t *testing.T) {
	l := fixtureHost(t)
	if err := l.SetMax("guest1", 0, 25_000, 100_000); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max"))
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "25000 100000" {
		t.Fatalf("cpu.max = %q", raw)
	}
	if err := l.ClearMax("guest1", 0); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max"))
	if string(raw) != "max" {
		t.Fatalf("cleared cpu.max = %q", raw)
	}
	if err := l.SetBurst("guest1", 0, 5_000); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(filepath.Join(l.CgroupRoot, "machine-qemu-guest1.scope/vcpu0/cpu.max.burst"))
	if string(raw) != "5000" {
		t.Fatalf("cpu.max.burst = %q", raw)
	}
}

func TestLinuxThreadAndPlacement(t *testing.T) {
	l := fixtureHost(t)
	tid, err := l.ThreadID("guest1", 0)
	if err != nil || tid != 4242 {
		t.Fatalf("tid = %d, %v", tid, err)
	}
	core, err := l.LastCPU(4242)
	if err != nil || core != 1 {
		t.Fatalf("last cpu = %d, %v", core, err)
	}
	f, err := l.CoreFreqMHz(1)
	if err != nil || f != 1200 {
		t.Fatalf("core freq = %d, %v", f, err)
	}
	if _, err := l.LastCPU(9999); err == nil {
		t.Fatal("missing tid read succeeded")
	}
}

func TestLinuxNodeInfo(t *testing.T) {
	l := fixtureHost(t)
	n := l.Node()
	if n.Name != "fixture" || n.Cores != 2 || n.MaxFreqMHz != 2400 {
		t.Fatalf("node = %+v", n)
	}
}

// referenceListVMs is the os.ReadDir implementation of Linux.ListVMs
// that the kept-open descriptor path replaced, kept as its twin.
func referenceListVMs(root string, freqs map[string]int64) ([]VMInfo, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var out []VMInfo
	for _, e := range entries {
		if !e.IsDir() || !strings.HasSuffix(e.Name(), ".scope") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(e.Name(), "machine-qemu-"), ".scope")
		subs, err := os.ReadDir(filepath.Join(root, e.Name()))
		if err != nil {
			return nil, err
		}
		vcpus := 0
		for _, s := range subs {
			if s.IsDir() && strings.HasPrefix(s.Name(), "vcpu") {
				vcpus++
			}
		}
		if vcpus == 0 {
			continue
		}
		freq, ok := freqs[name]
		if !ok {
			continue
		}
		out = append(out, VMInfo{Name: name, VCPUs: vcpus, FreqMHz: freq})
	}
	return out, nil
}

// TestLinuxListVMsTwin runs ListVMs beside the reference over seeded
// sequences of fixture mutations — arrivals and departures, vCPU
// directories added and removed, scopes recreated (in place and after
// being renamed away) under the same name, regular files named *.scope,
// scopes without vCPUs or template, a removed and recreated root — and
// requires the same VMs, counts, frequencies, order and errors after
// every mutation. It also checks the vCPU handle cache: a handle survives
// a listing exactly when its vCPU is still listed.
func TestLinuxListVMsTwin(t *testing.T) {
	// Entry names in no particular order; "web" is listed through two
	// entries, as libvirt and a hand-made scope could both provide.
	entries := []string{
		"machine-qemu-web.scope", "machine-qemu-db.scope", "web.scope",
		"machine-qemu-Z9.scope", "machine-qemu-a1.scope", "machine-qemu-zz.scope",
		"machine-qemu-m.scope", "machine-qemu-b-2.scope",
	}
	vmName := func(entry string) string {
		return strings.TrimSuffix(strings.TrimPrefix(entry, "machine-qemu-"), ".scope")
	}
	seeds, steps := 12, 80
	if testing.Short() || raceEnabled {
		seeds, steps = 4, 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := filepath.Join(t.TempDir(), "cgroup")
		mkdir := func(parts ...string) {
			t.Helper()
			if err := os.MkdirAll(filepath.Join(append([]string{root}, parts...)...), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		mkdir()
		// A non-scope directory and a regular file in the root.
		mkdir("other.mount")
		if err := os.WriteFile(filepath.Join(root, "cgroup.procs"), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		freqs := map[string]int64{}
		l := &Linux{CgroupRoot: root, Freqs: freqs}
		// makeScope lays out a scope with n vCPU directories, sometimes
		// beside a non-vCPU sub-cgroup and a control file.
		makeScope := func(entry string, n int) {
			mkdir(entry)
			for j := 0; j < n; j++ {
				mkdir(entry, "vcpu"+strconv.Itoa(j))
			}
			if rng.Intn(2) == 0 {
				mkdir(entry, "emulator")
			}
			if err := os.WriteFile(filepath.Join(root, entry, "cpu.stat"), []byte("usage_usec 0\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		present := func() []string {
			var out []string
			for _, e := range entries {
				if fi, err := os.Stat(filepath.Join(root, e)); err == nil && fi.IsDir() {
					out = append(out, e)
				}
			}
			return out
		}
		touched := map[vcpuRef]bool{}
		for step := 0; step < steps; step++ {
			var op string
			live := present()
			switch k := rng.Intn(10); {
			case k < 3 || len(live) == 0:
				e := entries[rng.Intn(len(entries))]
				op = "add " + e
				if _, err := os.Lstat(filepath.Join(root, e)); err == nil {
					break // already there, as a scope or a file
				}
				makeScope(e, rng.Intn(4))
				if rng.Intn(5) > 0 {
					freqs[vmName(e)] = int64(1000 + 100*rng.Intn(14))
				}
			case k == 3:
				e := live[rng.Intn(len(live))]
				op = "remove " + e
				if err := os.RemoveAll(filepath.Join(root, e)); err != nil {
					t.Fatal(err)
				}
			case k == 4:
				e := live[rng.Intn(len(live))]
				op = "grow " + e
				mkdir(e, "vcpu"+strconv.Itoa(rng.Intn(5)))
			case k == 5:
				e := live[rng.Intn(len(live))]
				op = "shrink " + e
				if err := os.RemoveAll(filepath.Join(root, e, "vcpu"+strconv.Itoa(rng.Intn(4)))); err != nil {
					t.Fatal(err)
				}
			case k == 6:
				e := live[rng.Intn(len(live))]
				op = "recreate " + e
				if rng.Intn(2) == 0 {
					// Renamed away, the old directory stays readable
					// through a kept descriptor: only the inode tells.
					op = "rename-recreate " + e
					if err := os.Rename(filepath.Join(root, e), filepath.Join(root, e+".old"+strconv.Itoa(step))); err != nil {
						t.Fatal(err)
					}
				} else if err := os.RemoveAll(filepath.Join(root, e)); err != nil {
					t.Fatal(err)
				}
				makeScope(e, rng.Intn(4))
			case k == 7:
				e := entries[rng.Intn(len(entries))]
				op = "file " + e
				if _, err := os.Lstat(filepath.Join(root, e)); err == nil {
					break
				}
				if err := os.WriteFile(filepath.Join(root, e), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				freqs[vmName(e)] = 1800
			case k == 8:
				name := vmName(entries[rng.Intn(len(entries))])
				op = "template " + name
				if _, ok := freqs[name]; ok {
					delete(freqs, name)
				} else {
					freqs[name] = 2000
				}
			default:
				if rng.Intn(4) > 0 {
					// Handles nothing lists: an unknown VM and a vCPU
					// past a listed VM's count.
					op = "stray handles"
					l.vcpu("ghost", 0)
					l.vcpu(vmName(live[0]), 7)
					break
				}
				op = "root gone"
				if err := os.RemoveAll(root); err != nil {
					t.Fatal(err)
				}
				got, gerr := l.ListVMs()
				want, werr := referenceListVMs(root, freqs)
				if gerr == nil || werr == nil || gerr.Error() != werr.Error() || len(got) != 0 || len(want) != 0 {
					t.Fatalf("seed %d step %d: missing root: got %v %v, reference %v %v", seed, step, got, gerr, want, werr)
				}
				mkdir()
				clear(freqs)
			}

			got, gerr := l.ListVMs()
			want, werr := referenceListVMs(root, freqs)
			if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("seed %d step %d (%s): error %v, reference %v", seed, step, op, gerr, werr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s):\n got       %+v\n reference %+v", seed, step, op, got, want)
			}
			listed := map[vcpuRef]bool{}
			for _, vm := range got {
				for j := 0; j < vm.VCPUs; j++ {
					listed[vcpuRef{vm.Name, j}] = true
				}
			}
			l.mu.Lock()
			for ref := range l.vcpus {
				if !listed[ref] {
					t.Errorf("seed %d step %d (%s): handle of unlisted %s/vcpu%d kept", seed, step, op, ref.vm, ref.vcpu)
				}
			}
			for ref := range touched {
				if _, ok := l.vcpus[ref]; listed[ref] && !ok {
					t.Errorf("seed %d step %d (%s): handle of listed %s/vcpu%d dropped", seed, step, op, ref.vm, ref.vcpu)
				}
			}
			l.mu.Unlock()
			if t.Failed() {
				t.FailNow()
			}
			// Build the handles of every listed vCPU, as a Step would.
			clear(touched)
			for ref := range listed {
				l.vcpu(ref.vm, ref.vcpu)
				touched[ref] = true
			}
		}
	}
}

// TestLinuxListVMsZeroAlloc: once the scopes are interned, listing a
// steady host allocates nothing.
func TestLinuxListVMsZeroAlloc(t *testing.T) {
	root := t.TempDir()
	l := &Linux{CgroupRoot: root, Freqs: map[string]int64{}}
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("vm%02d", i)
		for j := 0; j < 1+i%3; j++ {
			if err := os.MkdirAll(filepath.Join(root, "machine-qemu-"+name+".scope", "vcpu"+strconv.Itoa(j)), 0o755); err != nil {
				t.Fatal(err)
			}
		}
		l.Freqs[name] = 1200
	}
	for i := 0; i < 2; i++ {
		if vms, err := l.ListVMs(); err != nil || len(vms) != 24 {
			t.Fatalf("listing: %d VMs, %v", len(vms), err)
		}
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := l.ListVMs(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ListVMs allocates %.1f/op, want 0", allocs)
	}
}

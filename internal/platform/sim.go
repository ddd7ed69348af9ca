package platform

import (
	"fmt"
	"sync"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
	"vfreq/internal/vm"
)

// Sim adapts a simulated machine to the Host interface. All reads go
// through the emulated pseudo-files (parsing included) so the controller
// exercises the exact code paths it would use on Linux.
//
// The per-period read path is allocation-free at steady state: pseudo-file
// paths are memoised (they are pure functions of VM name, vCPU index, tid
// or core), so memfs resolves each from its path index; file contents are
// rendered append-style into one scratch buffer the Sim owns, and the
// byte parsers walk it in place. The controller issues a Sim's reads
// serially, so the buffer is held under bufMu for one read at a time
// rather than drawn from a pool that a GC would empty. The memo maps are
// RWMutex-guarded, so a Sim is safe for concurrent use. ListVMs prunes
// the memos once they outgrow the live vCPU set (see memoLimit), so VM
// churn cannot grow them without bound.
type Sim struct {
	mgr *vm.Manager

	mu        sync.RWMutex
	vcpuPaths map[vcpuKey]*simVCPUFiles
	tidPaths  map[int]string
	corePaths []string

	bufMu sync.Mutex
	buf   []byte // read scratch, guarded by bufMu

	vmScratch []VMInfo // ListVMs result, reused across calls
}

type vcpuKey struct {
	vm   string
	vcpu int
}

// simVCPUFiles caches the pseudo-file paths of one vCPU cgroup.
type simVCPUFiles struct {
	stat    string // cpu.stat
	max     string // cpu.max
	burst   string // cpu.max.burst
	threads string // cgroup.threads
}

// NewSim wraps a VM manager.
func NewSim(mgr *vm.Manager) *Sim {
	s := &Sim{
		mgr:       mgr,
		vcpuPaths: make(map[vcpuKey]*simVCPUFiles),
		tidPaths:  make(map[int]string),
		buf:       make([]byte, 0, 256),
	}
	cores := mgr.Machine().Spec().Cores
	s.corePaths = make([]string, cores)
	for c := 0; c < cores; c++ {
		s.corePaths[c] = sysfs.CurFreqPath(sysfs.Mount, c)
	}
	return s
}

// memoLimit is the size past which ListVMs prunes a path memo: twice the
// live vCPU count plus a floor, so a run without churn never reaches it
// and its reads stay allocation-free.
func memoLimit(liveVCPUs int) int { return 2*liveVCPUs + 64 }

// files returns the memoised pseudo-file paths of a vCPU cgroup. Paths
// are pure functions of (vm, vcpu), so entries are never stale — a
// re-provisioned VM of the same name reuses them — and are dropped only
// when ListVMs prunes a departed VM's.
func (s *Sim) files(vmName string, vcpu int) *simVCPUFiles {
	k := vcpuKey{vm: vmName, vcpu: vcpu}
	s.mu.RLock()
	f := s.vcpuPaths[k]
	s.mu.RUnlock()
	if f != nil {
		return f
	}
	base := cgroupfs.DefaultMount + "/" + vm.VCPUCgroup(vmName, vcpu)
	f = &simVCPUFiles{
		stat:    base + "/cpu.stat",
		max:     base + "/cpu.max",
		burst:   base + "/cpu.max.burst",
		threads: base + "/cgroup.threads",
	}
	s.mu.Lock()
	if old := s.vcpuPaths[k]; old != nil {
		f = old
	} else {
		s.vcpuPaths[k] = f
	}
	s.mu.Unlock()
	return f
}

// tidPath returns the memoised /proc/<tid>/stat path.
func (s *Sim) tidPath(tid int) string {
	s.mu.RLock()
	p := s.tidPaths[tid]
	s.mu.RUnlock()
	if p != "" {
		return p
	}
	p = fmt.Sprintf("%s/%d/stat", procfs.Mount, tid)
	s.mu.Lock()
	s.tidPaths[tid] = p
	s.mu.Unlock()
	return p
}

// readLocked renders the pseudo-file at p into the scratch buffer, which
// keeps any capacity the render grew. The caller holds bufMu until it has
// parsed the returned bytes.
func (s *Sim) readLocked(p string) ([]byte, error) {
	content, err := s.mgr.Machine().FS.ReadFileAppend(p, s.buf[:0])
	s.buf = content[:0]
	return content, err
}

// Node implements Host.
func (s *Sim) Node() NodeInfo {
	spec := s.mgr.Machine().Spec()
	return NodeInfo{Name: spec.Name, Cores: spec.Cores, MaxFreqMHz: spec.MaxMHz}
}

// ListVMs implements Host. The returned slice is reused by the next
// call; callers must not retain it.
func (s *Sim) ListVMs() ([]VMInfo, error) {
	insts := s.mgr.List()
	out := s.vmScratch[:0]
	live := 0
	for _, inst := range insts {
		t := inst.Template()
		out = append(out, VMInfo{Name: inst.Name(), VCPUs: t.VCPUs, FreqMHz: t.FreqMHz})
		live += t.VCPUs
	}
	s.vmScratch = out
	s.pruneMemos(live)
	return out, nil
}

// pruneMemos drops memo entries that no live vCPU can need once a memo
// exceeds memoLimit. vCPU paths of departed VMs (or of vCPUs a
// reconfiguration removed) are deleted; the thread memo is cleared
// outright, since thread ids are never reused and the live vCPUs'
// entries are rebuilt on their next read.
func (s *Sim) pruneMemos(liveVCPUs int) {
	limit := memoLimit(liveVCPUs)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vcpuPaths) > limit {
		for k := range s.vcpuPaths {
			if inst := s.mgr.Get(k.vm); inst == nil || k.vcpu >= inst.Template().VCPUs {
				delete(s.vcpuPaths, k)
			}
		}
	}
	if len(s.tidPaths) > limit {
		clear(s.tidPaths)
	}
}

// UsageUs implements Host.
func (s *Sim) UsageUs(vmName string, vcpu int) (int64, error) {
	path := s.files(vmName, vcpu).stat
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	content, err := s.readLocked(path)
	if err != nil {
		return 0, fmt.Errorf("platform: reading cpu.stat of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	return cgroupfs.ParseCPUStatBytes(content, "usage_usec")
}

// SetMax implements Host.
func (s *Sim) SetMax(vmName string, vcpu int, quotaUs, periodUs int64) error {
	return s.mgr.Machine().FS.WriteFile(s.files(vmName, vcpu).max,
		fmt.Sprintf("%d %d", quotaUs, periodUs))
}

// BatchSetMax implements BatchQuotaWriter: every entry writes through
// the emulated cpu.max pseudo-file (there is no descriptor cache to
// amortise in the simulator), recording the per-entry outcome.
func (s *Sim) BatchSetMax(vmName string, quotas []VCPUQuota) error {
	var firstErr error
	for i := range quotas {
		q := &quotas[i]
		q.Err = s.SetMax(vmName, q.VCPU, q.QuotaUs, q.PeriodUs)
		if q.Err != nil && firstErr == nil {
			firstErr = q.Err
		}
	}
	return firstErr
}

// ReadMax implements QuotaReader: it reads the vCPU's cpu.max back
// through the pseudo-file, exactly as the controller would on Linux.
func (s *Sim) ReadMax(vmName string, vcpu int) (int64, int64, error) {
	content, err := s.mgr.Machine().FS.ReadFile(s.files(vmName, vcpu).max)
	if err != nil {
		return 0, 0, fmt.Errorf("platform: reading cpu.max of %s/vcpu%d: %w", vmName, vcpu, err)
	}
	quota, period, err := cgroupfs.ParseCPUMax(content, 100_000)
	if err != nil {
		return 0, 0, err
	}
	if quota < 0 {
		quota = NoQuota
	}
	return quota, period, nil
}

// ClearMax implements Host.
func (s *Sim) ClearMax(vmName string, vcpu int) error {
	return s.mgr.Machine().FS.WriteFile(s.files(vmName, vcpu).max, "max")
}

// SetBurst implements Host.
func (s *Sim) SetBurst(vmName string, vcpu int, burstUs int64) error {
	return s.mgr.Machine().FS.WriteFile(s.files(vmName, vcpu).burst,
		fmt.Sprintf("%d", burstUs))
}

// ThreadID implements Host.
func (s *Sim) ThreadID(vmName string, vcpu int) (int, error) {
	path := s.files(vmName, vcpu).threads
	s.bufMu.Lock()
	content, err := s.readLocked(path)
	if err != nil {
		s.bufMu.Unlock()
		return 0, err
	}
	tid, n, err := cgroupfs.ParseSingleTID(content)
	s.bufMu.Unlock()
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup %s/vcpu%d holds %d threads, want 1",
			vmName, vcpu, n)
	}
	return tid, nil
}

// LastCPU implements Host.
func (s *Sim) LastCPU(tid int) (int, error) {
	path := s.tidPath(tid)
	s.bufMu.Lock()
	defer s.bufMu.Unlock()
	line, err := s.readLocked(path)
	if err != nil {
		return 0, err
	}
	return procfs.ParseStatLastCPUBytes(line)
}

// CoreNodes implements Topology: it reads the emulated
// /sys/devices/system/node tree, exactly as the Linux backend reads
// the real one. Cores not named by any node<N>/cpulist (or a missing
// tree entirely) default to node 0.
func (s *Sim) CoreNodes() ([]int, error) {
	m := s.mgr.Machine()
	nodes := make([]int, m.Spec().Cores)
	names, err := m.FS.ReadDir(sysfs.NodeMount)
	if err != nil {
		return nodes, nil // no NUMA tree: single-node topology
	}
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(name, "node%d", &id); err != nil || id < 0 {
			continue
		}
		content, err := m.FS.ReadFile(sysfs.NodeCPUListPath(sysfs.NodeMount, id))
		if err != nil {
			continue
		}
		cpus, err := sysfs.ParseCPUList(content)
		if err != nil {
			continue
		}
		for _, c := range cpus {
			if c >= 0 && c < len(nodes) {
				nodes[c] = id
			}
		}
	}
	return nodes, nil
}

// CoreFreqMHz implements Host.
func (s *Sim) CoreFreqMHz(core int) (int64, error) {
	if core < 0 || core >= len(s.corePaths) {
		return 0, fmt.Errorf("platform: core %d out of range", core)
	}
	s.bufMu.Lock()
	content, err := s.readLocked(s.corePaths[core])
	if err != nil {
		s.bufMu.Unlock()
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(content)
	s.bufMu.Unlock()
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}

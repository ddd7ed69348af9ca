package platform

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"vfreq/internal/cgroupfs"
	"vfreq/internal/procfs"
	"vfreq/internal/sysfs"
)

// Linux reads a real host's cgroup v2, /proc and /sys trees. It discovers
// KVM VMs under machine.slice the way libvirt lays them out
// (machine-qemu-*.scope with per-vCPU sub-cgroups).
//
// Template virtual frequencies are not stored in the kernel; they are
// supplied via Freqs, keyed by VM name, playing the role of the cloud
// manager's template database.
//
// The per-period paths (UsageUs, ThreadID, LastCPU, CoreFreqMHz, SetMax,
// SetBurst) keep their files open and pread/pwrite at offset zero into
// per-file scratch buffers, so a steady-state control Step performs no
// path construction, no open/close churn and no heap allocation. A
// failed read or write closes and drops the descriptor, and the next
// call reopens the path — which is how cgroup recreation on VM restart
// is picked up. All methods are safe for concurrent use by the monitor
// worker pool.
//
// ListVMs keeps the CgroupRoot directory and every scope directory open
// the same way. Each call rewinds them and reads their entries into one
// scratch buffer (readDirents: getdents walked in place on Linux,
// os.File.ReadDir elsewhere), looks each scope up by its entry name, and
// returns a reused slice, so a steady-state listing allocates nothing.
// A scope removed and recreated under the same name shows a new inode in
// the root listing and is reopened; a directory read that fails drops
// its descriptor and is retried once through the path, so a recreated
// directory is read afresh, as os.ReadDir would.
type Linux struct {
	NodeName    string
	CgroupRoot  string // e.g. /sys/fs/cgroup/machine.slice
	ProcRoot    string // e.g. /proc
	SysCPURoot  string // e.g. /sys/devices/system/cpu
	SysNUMARoot string // e.g. /sys/devices/system/node
	MaxFreqMHz  int64
	Cores       int
	Freqs       map[string]int64 // VM name → template frequency (MHz)

	// mu guards the lazily-built handle caches. Hot paths hold it only
	// for a map lookup; opening, pruning and invalidation are rare.
	mu    sync.Mutex
	vcpus map[vcpuRef]*vcpuFiles
	procs map[int]*handle
	cores map[int]*handle

	// vcpusAdded records a handle built since the last prune: it may
	// belong to no listed VM (a read of an unknown or departed one).
	vcpusAdded bool

	// coreNodes caches the NUMA topology (core → node), discovered once
	// like the cgroup paths: the placement of logical CPUs never changes
	// while the controller runs.
	coreNodes []int

	// listMu guards the ListVMs state below.
	listMu sync.Mutex
	root   dirHandle
	scopes map[string]*scope // by directory entry name
	gen    uint64            // ListVMs calls made; stamps the scopes each call sees
	// listChanged records a listing change (a VM listed, unlisted or
	// resized) not yet pruned from the vCPU handles.
	listChanged bool
	dirBuf      []byte   // getdents scratch shared by every directory read
	ents        []dirent // entries of the directory last read
	listed      []*scope // the scopes of this call, sorted by entry name
	vmOut       []VMInfo
}

// dirent is one directory entry as readDirents reports it. name aliases
// the read buffer; ino is 0 where the platform does not report it.
type dirent struct {
	name []byte
	ino  uint64
	dir  bool
}

// dirHandle is one kept-open directory.
type dirHandle struct {
	path string
	f    *os.File
}

// read rewinds and reads the directory into l.ents. A failed read of a
// kept descriptor drops it and retries once through the path.
func (d *dirHandle) read(l *Linux) (err error) {
	kept := d.f != nil
	for {
		if d.f == nil {
			if d.f, err = os.Open(d.path); err != nil {
				return err
			}
		}
		if l.dirBuf, l.ents, err = readDirents(d.f, l.dirBuf, l.ents[:0]); err == nil {
			return nil
		}
		d.close()
		if !kept {
			return err
		}
		kept = false
	}
}

func (d *dirHandle) close() {
	if d.f != nil {
		d.f.Close()
		d.f = nil
	}
}

// scope is one interned machine.slice entry: its kept-open directory and
// what ListVMs derives from it.
type scope struct {
	dirHandle
	entry string // directory entry name, the scopes key
	name  string // VM name
	ino   uint64 // inode the root listing last showed for the entry
	gen   uint64 // the ListVMs call that last saw the entry
	vcpus int    // vCPUs the last listing reported; 0 when it skipped the VM
}

var (
	scopeSuffix = []byte(".scope")
	vcpuPrefix  = []byte("vcpu")
)

type vcpuRef struct {
	vm   string
	vcpu int
}

// vcpuFiles caches one vCPU cgroup's directory path and control files.
type vcpuFiles struct {
	dir     string
	stat    handle // cpu.stat (read)
	threads handle // cgroup.threads (read)
	max     handle // cpu.max (write)
	burst   handle // cpu.max.burst (write)
}

// handle is one kept-open file plus its scratch buffer. Reads pread at
// offset zero, so no seek position is shared; the mutex serialises the
// buffer between monitor workers (two vCPUs that last ran on the same
// core read the same scaling_cur_freq handle concurrently).
type handle struct {
	mu   sync.Mutex
	path string
	f    *os.File
	buf  [512]byte
}

// read returns the file's current contents, pread into the handle's
// scratch. The caller must hold h.mu while using the returned slice. A
// failed read drops the descriptor so the next call reopens the path.
func (h *handle) read() ([]byte, error) {
	if h.f == nil {
		f, err := os.Open(h.path)
		if err != nil {
			return nil, err
		}
		h.f = f
	}
	n, err := h.f.ReadAt(h.buf[:], 0)
	if err != nil && err != io.EOF {
		h.f.Close()
		h.f = nil
		return nil, err
	}
	return h.buf[:n], nil
}

// write pwrites the payload at offset zero. The caller must hold h.mu.
// Control files treat every write as a full transaction; regular files
// (tests) would keep stale trailing bytes, so the length is truncated —
// kernfs rejects the truncate, which is ignored.
func (h *handle) write(payload []byte) error {
	if h.f == nil {
		f, err := os.OpenFile(h.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		h.f = f
	}
	if _, err := h.f.WriteAt(payload, 0); err != nil {
		h.f.Close()
		h.f = nil
		return err
	}
	_ = h.f.Truncate(int64(len(payload)))
	return nil
}

func (vf *vcpuFiles) close() {
	vf.stat.close()
	vf.threads.close()
	vf.max.close()
	vf.burst.close()
}

func (h *handle) close() {
	h.mu.Lock()
	if h.f != nil {
		h.f.Close()
		h.f = nil
	}
	h.mu.Unlock()
}

// vcpu returns (building on first use) the cached files of one vCPU.
func (l *Linux) vcpu(vm string, vcpu int) *vcpuFiles {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.vcpuLocked(vm, vcpu)
}

// vcpuLocked is vcpu for callers already holding l.mu.
func (l *Linux) vcpuLocked(vm string, vcpu int) *vcpuFiles {
	if l.vcpus == nil {
		l.vcpus = map[vcpuRef]*vcpuFiles{}
	}
	ref := vcpuRef{vm: vm, vcpu: vcpu}
	vf, ok := l.vcpus[ref]
	if !ok {
		dir := filepath.Join(l.CgroupRoot, "machine-qemu-"+vm+".scope", "vcpu"+strconv.Itoa(vcpu))
		vf = &vcpuFiles{dir: dir}
		vf.stat.path = filepath.Join(dir, "cpu.stat")
		vf.threads.path = filepath.Join(dir, "cgroup.threads")
		vf.max.path = filepath.Join(dir, "cpu.max")
		vf.burst.path = filepath.Join(dir, "cpu.max.burst")
		l.vcpus[ref] = vf
		l.vcpusAdded = true
	}
	return vf
}

// proc returns the cached /proc/<tid>/stat handle.
func (l *Linux) proc(tid int) *handle {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.procs == nil {
		l.procs = map[int]*handle{}
	}
	h, ok := l.procs[tid]
	if !ok {
		h = &handle{path: filepath.Join(l.ProcRoot, strconv.Itoa(tid), "stat")}
		l.procs[tid] = h
	}
	return h
}

// dropProc evicts a dead thread's handle (vCPU threads churn on VM
// restart; core and vCPU handles are pruned via ListVMs instead).
func (l *Linux) dropProc(tid int) {
	l.mu.Lock()
	if h, ok := l.procs[tid]; ok {
		delete(l.procs, tid)
		l.mu.Unlock()
		h.close()
		return
	}
	l.mu.Unlock()
}

// core returns the cached scaling_cur_freq handle of one core.
func (l *Linux) core(core int) *handle {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cores == nil {
		l.cores = map[int]*handle{}
	}
	h, ok := l.cores[core]
	if !ok {
		h = &handle{path: sysfs.CurFreqPath(l.SysCPURoot, core)}
		l.cores[core] = h
	}
	return h
}

// pruneVCPUs closes and forgets the cached files of vCPUs no listed VM
// has: those of departed or unlisted VMs and the trailing vCPUs after a
// shrink. It runs only when the listing changed or a handle was built
// since the last prune, so a steady-state period skips it.
func (l *Linux) pruneVCPUs(live []VMInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.listChanged && !l.vcpusAdded {
		return
	}
	l.listChanged, l.vcpusAdded = false, false
	vcpus := make(map[string]int, len(live))
	for _, vm := range live {
		vcpus[vm.Name] = max(vcpus[vm.Name], vm.VCPUs)
	}
	for ref, vf := range l.vcpus {
		if ref.vcpu >= vcpus[ref.vm] {
			vf.close()
			delete(l.vcpus, ref)
		}
	}
}

// CoreNodes implements Topology: core → NUMA node from the node<N>/
// cpulist files. The scan runs once and is cached; a missing or
// unreadable node tree degrades to a single-node topology rather than
// failing, since the layout is informational, not a correctness need.
func (l *Linux) CoreNodes() ([]int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.coreNodes != nil {
		return l.coreNodes, nil
	}
	nodes := make([]int, l.Cores) // default: every core on node 0
	root := l.SysNUMARoot
	if root == "" {
		root = sysfs.NodeMount
	}
	if entries, err := os.ReadDir(root); err == nil {
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, "node") {
				continue
			}
			id, err := strconv.Atoi(strings.TrimPrefix(name, "node"))
			if err != nil || id < 0 {
				continue
			}
			b, err := os.ReadFile(filepath.Join(root, name, "cpulist"))
			if err != nil {
				continue
			}
			cpus, err := sysfs.ParseCPUList(string(b))
			if err != nil {
				continue
			}
			for _, c := range cpus {
				if c >= 0 && c < len(nodes) {
					nodes[c] = id
				}
			}
		}
	}
	l.coreNodes = nodes
	return nodes, nil
}

// NewLinux builds a backend for the standard mount points. It fails if
// the cgroup v2 hierarchy is not present.
func NewLinux(freqs map[string]int64) (*Linux, error) {
	l := &Linux{
		NodeName:    "localhost",
		CgroupRoot:  "/sys/fs/cgroup/machine.slice",
		ProcRoot:    "/proc",
		SysCPURoot:  "/sys/devices/system/cpu",
		SysNUMARoot: sysfs.NodeMount,
		Freqs:       freqs,
	}
	online, err := os.ReadFile(filepath.Join(l.SysCPURoot, "online"))
	if err != nil {
		return nil, fmt.Errorf("platform: no cpu sysfs: %w", err)
	}
	l.Cores, err = sysfs.ParseOnline(string(online))
	if err != nil {
		return nil, err
	}
	// F_MAX: use cpu0's scaling_max_freq; fall back to cpuinfo_max_freq.
	for _, f := range []string{"cpu0/cpufreq/scaling_max_freq", "cpu0/cpufreq/cpuinfo_max_freq"} {
		if b, err := os.ReadFile(filepath.Join(l.SysCPURoot, f)); err == nil {
			if khz, err := sysfs.ParseKHz(string(b)); err == nil {
				l.MaxFreqMHz = khz / 1000
				break
			}
		}
	}
	if l.MaxFreqMHz == 0 {
		return nil, fmt.Errorf("platform: cannot determine F_MAX from cpufreq")
	}
	if _, err := os.Stat(l.CgroupRoot); err != nil {
		return nil, fmt.Errorf("platform: no machine.slice cgroup: %w", err)
	}
	return l, nil
}

// Node implements Host.
func (l *Linux) Node() NodeInfo {
	return NodeInfo{Name: l.NodeName, Cores: l.Cores, MaxFreqMHz: l.MaxFreqMHz}
}

// ListVMs implements Host. The returned slice is reused by the next
// call; callers must not retain it.
func (l *Linux) ListVMs() ([]VMInfo, error) {
	l.listMu.Lock()
	defer l.listMu.Unlock()
	if l.root.path == "" {
		l.root.path = l.CgroupRoot
	}
	if err := l.root.read(l); err != nil {
		return nil, err
	}
	if l.scopes == nil {
		l.scopes = map[string]*scope{}
	}
	l.gen++
	listed := l.listed[:0]
	for _, e := range l.ents {
		if !e.dir || !bytes.HasSuffix(e.name, scopeSuffix) {
			continue
		}
		sc := l.scopes[string(e.name)]
		if sc == nil {
			entry := string(e.name)
			sc = &scope{
				dirHandle: dirHandle{path: filepath.Join(l.CgroupRoot, entry)},
				entry:     entry,
				name:      strings.TrimSuffix(strings.TrimPrefix(entry, "machine-qemu-"), ".scope"),
			}
			l.scopes[entry] = sc
		} else if e.ino == 0 || e.ino != sc.ino {
			// Recreated under the same name: the kept descriptor would
			// read the old directory.
			sc.close()
		}
		sc.ino = e.ino
		sc.gen = l.gen
		listed = append(listed, sc)
	}
	// os.ReadDir order: controllers register arrivals in list order.
	slices.SortFunc(listed, func(a, b *scope) int { return strings.Compare(a.entry, b.entry) })
	l.listed = listed

	out := l.vmOut[:0]
	for _, sc := range listed {
		if err := sc.read(l); err != nil {
			return nil, err
		}
		vcpus := 0
		for _, e := range l.ents {
			if e.dir && bytes.HasPrefix(e.name, vcpuPrefix) {
				vcpus++
			}
		}
		freq, ok := l.Freqs[sc.name]
		if vcpus > 0 && ok {
			out = append(out, VMInfo{Name: sc.name, VCPUs: vcpus, FreqMHz: freq})
		} else {
			vcpus = 0 // not under our control: no template, or no vCPUs
		}
		if vcpus != sc.vcpus {
			sc.vcpus = vcpus
			l.listChanged = true
		}
	}
	l.vmOut = out
	if len(listed) != len(l.scopes) {
		for entry, sc := range l.scopes {
			if sc.gen != l.gen {
				sc.close()
				delete(l.scopes, entry)
				l.listChanged = l.listChanged || sc.vcpus > 0
			}
		}
	}
	l.pruneVCPUs(out)
	return out, nil
}

// UsageUs implements Host.
func (l *Linux) UsageUs(vm string, vcpu int) (int64, error) {
	h := &l.vcpu(vm, vcpu).stat
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := h.read()
	if err != nil {
		return 0, err
	}
	return cgroupfs.ParseCPUStatBytes(b, "usage_usec")
}

// SetMax implements Host.
func (l *Linux) SetMax(vm string, vcpu int, quotaUs, periodUs int64) error {
	h := &l.vcpu(vm, vcpu).max
	h.mu.Lock()
	defer h.mu.Unlock()
	b := strconv.AppendInt(h.buf[:0], quotaUs, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, periodUs, 10)
	return h.write(b)
}

// BatchSetMax implements BatchQuotaWriter: the VM's quota writes in one
// pass over the cached cpu.max descriptors. The handle cache is resolved
// under a single l.mu acquisition for the whole batch instead of one per
// vCPU; l.mu then stays held across the writes, which is safe (the lock
// order l.mu → handle.mu is never taken in reverse) and uncontended in
// practice — the apply stage never overlaps the monitor stage's lookups.
// Every entry is attempted; a failed write records its error in the
// entry (dropping that descriptor so the next write reopens the path)
// and the first failure becomes the summary error.
func (l *Linux) BatchSetMax(vm string, quotas []VCPUQuota) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var firstErr error
	for i := range quotas {
		q := &quotas[i]
		h := &l.vcpuLocked(vm, q.VCPU).max
		h.mu.Lock()
		b := strconv.AppendInt(h.buf[:0], q.QuotaUs, 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, q.PeriodUs, 10)
		q.Err = h.write(b)
		h.mu.Unlock()
		if q.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("platform: batch cpu.max of %s/vcpu%d: %w", vm, q.VCPU, q.Err)
		}
	}
	return firstErr
}

// ReadMax implements QuotaReader. It is an inspection path, not part of
// the control loop, so it reads through the path like any tool would.
func (l *Linux) ReadMax(vm string, vcpu int) (int64, int64, error) {
	b, err := os.ReadFile(l.vcpu(vm, vcpu).max.path)
	if err != nil {
		return 0, 0, err
	}
	quota, period, err := cgroupfs.ParseCPUMax(string(b), 100_000)
	if err != nil {
		return 0, 0, err
	}
	if quota < 0 {
		quota = NoQuota
	}
	return quota, period, nil
}

var clearMaxPayload = []byte("max")

// ClearMax implements Host.
func (l *Linux) ClearMax(vm string, vcpu int) error {
	h := &l.vcpu(vm, vcpu).max
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.write(clearMaxPayload)
}

// SetBurst implements Host.
func (l *Linux) SetBurst(vm string, vcpu int, burstUs int64) error {
	h := &l.vcpu(vm, vcpu).burst
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.write(strconv.AppendInt(h.buf[:0], burstUs, 10))
}

// ThreadID implements Host.
func (l *Linux) ThreadID(vm string, vcpu int) (int, error) {
	h := &l.vcpu(vm, vcpu).threads
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := h.read()
	if err != nil {
		return 0, err
	}
	tid, n, err := cgroupfs.ParseSingleTID(b)
	if err != nil {
		return 0, err
	}
	if n != 1 {
		return 0, fmt.Errorf("platform: vCPU cgroup holds %d threads, want 1", n)
	}
	return tid, nil
}

// LastCPU implements Host.
func (l *Linux) LastCPU(tid int) (int, error) {
	h := l.proc(tid)
	h.mu.Lock()
	b, err := h.read()
	if err != nil {
		h.mu.Unlock()
		l.dropProc(tid) // the thread is likely gone; stop caching it
		return 0, err
	}
	cpu, err := procfs.ParseStatLastCPUBytes(b)
	h.mu.Unlock()
	return cpu, err
}

// CoreFreqMHz implements Host.
func (l *Linux) CoreFreqMHz(core int) (int64, error) {
	h := l.core(core)
	h.mu.Lock()
	defer h.mu.Unlock()
	b, err := h.read()
	if err != nil {
		return 0, err
	}
	khz, err := sysfs.ParseKHzBytes(b)
	if err != nil {
		return 0, err
	}
	return khz / 1000, nil
}

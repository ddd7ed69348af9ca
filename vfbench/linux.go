package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"vfreq/internal/core"
	"vfreq/internal/platform"
	"vfreq/internal/procfs"
)

// linux-steady drives the real platform.Linux backend over a fixture
// tree shaped as a chetemi node running the paper's Table II mix. The
// benchmark plays the kernel: every period it advances each vCPU's
// usage_usec by its seeded demand, clamped to the quota the controller
// last wrote to the vCPU's cpu.max and to the node's capacity, and
// rewrites each thread's last CPU and each core's frequency. Only
// Controller.Step is program work.

const linuxPeriodUs = 1_000_000

type linuxWorld struct {
	e     *env
	plan  linuxPlan
	dir   string
	ctrl  *core.Controller
	cnt   *countingHost // traced runs only
	names []string
	vmOf  []int // per global vCPU: VM index
	first []int // per VM: global index of vcpu0

	stat, proc, max []*os.File // per global vCPU, kept open
	freq            []*os.File // per core
	comm            []string   // per global vCPU: thread name
	usage           []int64
	allow           []int64 // per global vCPU: µs its quota allows per period
	run             []int64 // per global vCPU: µs it runs this period
	buf             []byte
	stepErr         error
	playErr         error // first failed fixture write of the period
	started         bool
	readMaxFn       func(vm string, vcpu int) (int64, int64, error)

	core          coreStats
	simDeg, simVC float64 // Σ DegradedVCPUs and VCPUs over the simulated-metric periods
}

func buildLinux(e *env) (world, error) {
	w := &linuxWorld{e: e, plan: newLinuxPlan(e.seed), buf: make([]byte, 0, 512)}
	// The tree has the same shape on every seed, so every set-up of every
	// run rewrites one fixture directory in place: creating and deleting
	// hundreds of files per set-up would time the disk's journal and
	// discards instead of the set-up. One run at a time per directory.
	dir := filepath.Join(e.work, "linux-fixture")
	w.dir = dir
	if err := w.fixture(); err != nil {
		w.close()
		return nil, err
	}
	freqs := map[string]int64{}
	for i, t := range w.plan.tpls {
		freqs[w.names[i]] = tplShape[t].mhz
	}
	lx := &platform.Linux{
		NodeName:    "chetemi",
		CgroupRoot:  filepath.Join(dir, "cgroup"),
		ProcRoot:    filepath.Join(dir, "proc"),
		SysCPURoot:  filepath.Join(dir, "cpu"),
		SysNUMARoot: filepath.Join(dir, "node"),
		MaxFreqMHz:  linuxMaxMHz,
		Cores:       linuxCores,
		Freqs:       freqs,
	}
	var h platform.Host = lx
	if e.tr != nil {
		h, w.cnt = wrapHost(lx, e.tr)
	}
	var err error
	if w.ctrl, err = core.New(h, core.DefaultConfig()); err != nil {
		w.close()
		return nil, err
	}
	w.core.stepUs = newSamples(200_000)
	w.readMaxFn = w.readMax
	return w, nil
}

// fixture lays out the cgroup, proc and sys trees with the repo's own
// formatters, rewriting files a previous set-up left, and keeps every
// per-period file open.
func (w *linuxWorld) fixture() error {
	mk := func(path, content string) (*os.File, error) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		if err := rewrite(f, []byte(content)); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	for i, t := range w.plan.tpls {
		name := fmt.Sprintf("vm%02d", i)
		w.names = append(w.names, name)
		w.first = append(w.first, len(w.vmOf))
		for j := 0; j < tplShape[t].vcpus; j++ {
			g := len(w.vmOf)
			w.vmOf = append(w.vmOf, i)
			tid := 1000 + g
			cg := filepath.Join(w.dir, "cgroup", "machine-qemu-"+name+".scope", "vcpu"+strconv.Itoa(j))
			stat, err := mk(filepath.Join(cg, "cpu.stat"), string(appendCPUStat(nil, 0)))
			if err != nil {
				return err
			}
			w.stat = append(w.stat, stat)
			mx, err := mk(filepath.Join(cg, "cpu.max"), "max 100000\n")
			if err != nil {
				return err
			}
			w.max = append(w.max, mx)
			for _, f := range [...][2]string{{"cgroup.threads", strconv.Itoa(tid) + "\n"}, {"cpu.max.burst", "0\n"}} {
				fh, err := mk(filepath.Join(cg, f[0]), f[1])
				if err != nil {
					return err
				}
				fh.Close()
			}
			comm := "CPU " + strconv.Itoa(j) + "/KVM"
			pf, err := mk(filepath.Join(w.dir, "proc", strconv.Itoa(tid), "stat"),
				procfs.FormatStat(tid, comm, 0, w.plan.lastCPU(g, w.plan.home[i], -1)))
			if err != nil {
				return err
			}
			w.proc = append(w.proc, pf)
			w.comm = append(w.comm, comm)
			w.usage = append(w.usage, 0)
			w.run = append(w.run, 0)
			w.allow = append(w.allow, linuxPeriodUs)
		}
	}
	for c := 0; c < linuxCores; c++ {
		f, err := mk(filepath.Join(w.dir, "cpu", "cpu"+strconv.Itoa(c), "cpufreq", "scaling_cur_freq"),
			strconv.FormatInt(w.plan.coreKHz(c, -1), 10)+"\n")
		if err != nil {
			return err
		}
		w.freq = append(w.freq, f)
	}
	for n := 0; n < 2; n++ {
		per := linuxCores / 2
		f, err := mk(filepath.Join(w.dir, "node", "node"+strconv.Itoa(n), "cpulist"),
			fmt.Sprintf("%d-%d\n", n*per, (n+1)*per-1))
		if err != nil {
			return err
		}
		f.Close()
	}
	return nil
}

// appendCPUStat renders a cgroup v2 cpu.stat for a vCPU that was never
// throttled, in the layout of the repo's simulated cgroupfs.
func appendCPUStat(b []byte, usageUs int64) []byte {
	b = append(b, "usage_usec "...)
	b = strconv.AppendInt(b, usageUs, 10)
	b = append(b, "\nuser_usec "...)
	b = strconv.AppendInt(b, usageUs, 10)
	return append(b, "\nsystem_usec 0\nnr_periods 0\nnr_throttled 0\nthrottled_usec 0\nnr_bursts 0\nburst_usec 0\n"...)
}

// rewrite replaces a fixture file's content in place.
func rewrite(f *os.File, b []byte) error {
	if _, err := f.WriteAt(b, 0); err != nil {
		return err
	}
	return f.Truncate(int64(len(b)))
}

// play rewrites one fixture file during the per-period kernel play,
// keeping the first failure for check to report.
func (w *linuxWorld) play(f *os.File, b []byte) {
	if err := rewrite(f, b); err != nil && w.playErr == nil {
		w.playErr = fmt.Errorf("rewriting fixture %s: %w", f.Name(), err)
	}
}

// prepare plays the kernel for period p.
func (w *linuxWorld) prepare(p int) {
	if w.e.measuring && !w.started {
		w.started = true
		if w.cnt != nil {
			w.cnt.reset()
		}
	}
	w.playErr = nil
	var total int64
	for g := range w.run {
		w.run[g] = min(int64(w.plan.level[g]*linuxPeriodUs), w.allow[g])
		total += w.run[g]
	}
	capacity := int64(linuxCores) * linuxPeriodUs
	for g := range w.usage {
		r := w.run[g]
		if total > capacity {
			r = r * capacity / total
		}
		w.usage[g] += r
		w.buf = appendCPUStat(w.buf[:0], w.usage[g])
		w.play(w.stat[g], w.buf)
		i := w.vmOf[g]
		w.buf = procfs.AppendStat(w.buf[:0], 1000+g, w.comm[g], w.usage[g], w.plan.lastCPU(g, w.plan.home[i], p))
		w.play(w.proc[g], w.buf)
	}
	for c, f := range w.freq {
		w.buf = strconv.AppendInt(w.buf[:0], w.plan.coreKHz(c, p), 10)
		w.buf = append(w.buf, '\n')
		w.play(f, w.buf)
	}
}

func (w *linuxWorld) program(p int) {
	l := layerOpen(w.e.tr, spStep)
	t0 := nowNs()
	w.stepErr = w.ctrl.Step()
	d := nowNs() - t0
	layerClose(w.e.tr, l)
	if w.e.measuring {
		rep := w.ctrl.LastReport()
		w.core.add(&rep, float64(d)/1e3)
		if p < w.e.simEnd {
			w.simDeg += float64(rep.DegradedVCPUs)
			w.simVC += float64(rep.VCPUs)
		}
	}
}

// readQuota reads vCPU g's cpu.max from the fixture: (quota, period),
// quota -1 for "max".
func (w *linuxWorld) readQuota(g int) (int64, int64, error) {
	n, err := w.max[g].ReadAt(w.buf[:cap(w.buf)], 0)
	if n == 0 && err != nil {
		return 0, 0, err
	}
	q, per, ok := parseCPUMax(w.buf[:n])
	if !ok {
		return 0, 0, fmt.Errorf("malformed cpu.max %q", w.buf[:n])
	}
	return q, per, nil
}

// check gates the period and reads back every quota for the next one.
func (w *linuxWorld) check(p int) error {
	if w.playErr != nil {
		return w.playErr
	}
	if w.stepErr != nil {
		return fmt.Errorf("Step: %w", w.stepErr)
	}
	if err := checkCaps(w.ctrl, w.names, w.readMaxFn); err != nil {
		return err
	}
	for g := range w.allow {
		q, per, err := w.readQuota(g)
		if err != nil {
			return err
		}
		w.allow[g] = linuxPeriodUs
		if q >= 0 {
			w.allow[g] = q * linuxPeriodUs / per
		}
	}
	return nil
}

func (w *linuxWorld) readMax(vm string, vcpu int) (int64, int64, error) {
	for i, n := range w.names {
		if n == vm {
			return w.readQuota(w.first[i] + vcpu)
		}
	}
	return 0, 0, fmt.Errorf("no VM %s", vm)
}

// parseCPUMax parses "<quota|max> <period>" without allocating.
func parseCPUMax(b []byte) (quota, period int64, ok bool) {
	i := 0
	field := func() []byte {
		for i < len(b) && (b[i] == ' ' || b[i] == '\n') {
			i++
		}
		s := i
		for i < len(b) && b[i] != ' ' && b[i] != '\n' {
			i++
		}
		return b[s:i]
	}
	num := func(f []byte) (int64, bool) {
		if len(f) == 0 {
			return 0, false
		}
		var v int64
		for _, c := range f {
			if c < '0' || c > '9' {
				return 0, false
			}
			v = v*10 + int64(c-'0')
		}
		return v, true
	}
	qf, pf := field(), field()
	if string(qf) == "max" {
		quota = -1
	} else if quota, ok = num(qf); !ok {
		return 0, 0, false
	}
	if period, ok = num(pf); !ok || period <= 0 {
		return 0, 0, false
	}
	return quota, period, true
}

func (w *linuxWorld) report(r *runStats) (e2e, layers []metric) {
	e2e = append(w.core.e2e(r.spec.minPeriods),
		na("cluster_step_ms_p50", "ms", "no cluster"), na("cluster_step_ms_tail", "ms", "no cluster"),
		na("admit_us_p50", "us", "no admission"), na("admit_us_tail", "us", "no admission"),
		na("admit_reject_frac", "ratio", "no admission"),
		na("sla_miss_frac", "ratio", "no simulated delivery"),
		m("degraded_frac", "ratio", ratio(w.simDeg, w.simVC)),
		na("nodes_used_mean", "nodes", "single node"),
		na("energy_j_per_vm_period", "J", "no power model"),
	)
	layers = w.core.layers()
	if w.cnt != nil && r.tr != nil {
		layers = append(layers, platformLayers(w.cnt, float64(r.periods), float64(r.tr.periods), w.core.vcpus)...)
		layers = append(layers, m("core.self_us", "us/step", layerSelfUs(r.tr, spStep)))
	}
	w.core.stepUs = nil
	return e2e, layers
}

// close closes the fixture files; the tree stays for the next set-up.
func (w *linuxWorld) close() {
	for _, fs := range [][]*os.File{w.stat, w.proc, w.max, w.freq} {
		for _, f := range fs {
			f.Close()
		}
	}
}

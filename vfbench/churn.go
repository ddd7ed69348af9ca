package main

import (
	"errors"
	"fmt"
	"strconv"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/memfs"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// node-churn runs one overcommitted chiclet node behind a
// platform.FaultyHost under a hardened controller config: VMs arrive,
// depart and change template every few periods, their phased sources
// move caps every period, low-rate read faults draw retries, scoped
// fault episodes kill a vCPU thread, vanish a cgroup or fail a cpu.max
// write until cleared, and the controller checkpoints to a MemStore.

const churnPeriodUs = 1_000_000

// churnConfig is the hardened controller configuration of node-churn.
func churnConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.HostRetries = 2
	cfg.RecoverySteps = 2
	cfg.BreakerThreshold = 3
	cfg.BreakerOpenSteps = 4
	// Far above any call's cost: every call is timed, none trips.
	cfg.CallBudgetUs = 250_000
	cfg.RetryBackoffUs = 0 // backoff sleeps real time
	return cfg
}

var errEpisode = errors.New("vfbench: fault episode")

// vcpuMatch scopes a fault episode to one VM (and one vCPU, or all when
// vcpu < 0). Its match method is bound once, so re-arming allocates no
// closure.
type vcpuMatch struct {
	vm   string
	vcpu int
	fn   func(vm string, vcpu int) bool
}

func (m *vcpuMatch) match(vm string, vcpu int) bool {
	return vm == m.vm && (m.vcpu < 0 || vcpu == m.vcpu)
}

var episodeSite = [nEpisodes]platform.FaultSite{
	epDeadThread: platform.SiteThreadID,
	epVanished:   platform.SiteUsage,
	epWriteFail:  platform.SiteSetMax,
}

// rateSites carry the low-rate transient read faults.
var rateSites = []platform.FaultSite{platform.SiteLastCPU, platform.SiteCoreFreq}

type churnWorld struct {
	e       *env
	gen     *churnGen
	machine *host.Machine
	mgr     *vm.Manager
	faults  *platform.FaultyHost
	cnt     *countingHost // traced runs only
	ctrl    *core.Controller
	match   [nEpisodes]*vcpuMatch

	events  []event
	pending []churnOp // this period's materialised events
	names   []string  // live VMs
	meters  map[string]*vmMeter
	stepErr error
	opErr   error // first failed event call of the period
	ckptErr error
	started bool
	inject0 int

	core    coreStats
	advance samples // ns
	ckptUs  samples
	hostNs  float64 // Σ program ns (for host.advance_share)
	advNs   float64
	sla     slaTally
	simDeg  float64 // Σ DegradedVCPUs over the simulated-metric periods
	simVC   float64
	readMax func(vm string, vcpu int) (int64, int64, error)
}

// churnOp is one materialised event: names, templates and sources are
// built in prepare so program only calls the library.
type churnOp struct {
	ev   event
	name string
	tpl  vm.Template
	srcs []workload.Source
}

func templateOf(t int) vm.Template {
	switch t {
	case tplMedium:
		return vm.Medium()
	case tplLarge:
		return vm.Large()
	}
	return vm.Small()
}

func buildChurn(e *env) (world, error) {
	e.benchAllocs = true
	machine, err := host.New(host.Chiclet())
	if err != nil {
		return nil, err
	}
	mgr, err := vm.NewManager(machine)
	if err != nil {
		return nil, err
	}
	sim := platform.NewSim(mgr)
	fh := platform.WithFaults(sim, e.seed)
	w := &churnWorld{e: e, gen: newChurnGen(e.seed), machine: machine, mgr: mgr, faults: fh,
		meters: map[string]*vmMeter{}, readMax: sim.ReadMax}
	for _, s := range rateSites {
		if err := fh.Plan(s, platform.FaultPlan{Rate: 0.002}); err != nil {
			return nil, err
		}
	}
	for i := range w.match {
		mt := &vcpuMatch{}
		mt.fn = mt.match
		w.match[i] = mt
	}
	var h platform.Host = fh
	if e.tr != nil || e.wrap {
		h, w.cnt = wrapHost(fh, e.tr)
	}
	cfg := churnConfig()
	if e.monitorWorkers > 0 {
		cfg.MonitorWorkers = e.monitorWorkers
	}
	if w.ctrl, err = core.New(h, cfg); err != nil {
		return nil, err
	}
	w.ctrl.AttachStore(&platform.MemStore{FS: memfs.New(), Path: "/checkpoint.json"})
	w.core.stepUs = newSamples(200_000)
	w.advance = newSamples(200_000)
	w.ckptUs = newSamples(50_000)
	w.events = w.gen.initial(w.events[:0])
	w.materialise()
	for _, op := range w.pending {
		if _, err := mgr.Provision(op.name, op.tpl, op.srcs); err != nil {
			return nil, err
		}
		w.names = append(w.names, op.name)
	}
	w.pending = w.pending[:0]
	return w, nil
}

func vmName(id int) string { return "c" + strconv.Itoa(id) }

// sources builds n metered sources of spec s starting now.
func (w *churnWorld) sources(s srcSpec, n int, vmName string) []workload.Source {
	now := w.machine.NowUs()
	raw := make([]workload.Source, n)
	switch s.kind {
	case srcMapReduce:
		mr, err := workload.NewMapReduce(n, int64(12e9+60e9*s.a), 1+int(s.b*float64(n-1)+0.5), int64(6e9+30e9*s.b), 2_000_000, now)
		if err != nil {
			panic(err)
		}
		copy(raw, mr.Sources())
	case srcCompress:
		b, err := workload.NewBench("compress-7zip", n, int64(12e9+36e9*s.a), 1000, now, 2_000_000)
		if err != nil {
			panic(err)
		}
		copy(raw, b.Sources())
	case srcOpenSSL:
		b, err := workload.NewOpenSSL(n, int64(1e12), 1000, now)
		if err != nil {
			panic(err)
		}
		copy(raw, b.Sources())
	default:
		for j := range raw {
			raw[j] = simpleSource(s, j)
		}
	}
	m := w.meters[vmName]
	out := make([]workload.Source, n)
	for j, r := range raw {
		ms := meter(r, churnMaxMHz)
		out[j] = ms
		m.srcs = append(m.srcs, ms)
	}
	return out
}

// simpleSource builds one vCPU's source for the per-thread kinds.
func simpleSource(s srcSpec, j int) workload.Source {
	switch s.kind {
	case srcWebServer:
		return &workload.WebServer{RatePerSec: 20 + 300*s.a, CyclesPerReq: int64(1e6 + 9e6*s.b), Seed: s.seed + int64(j)}
	case srcBursty:
		period := int64(4e6 + 16e6*s.a)
		return &workload.Bursty{PeriodUs: period, Duty: 0.2 + 0.6*s.b, High: 1, Low: 0.05,
			PhaseUs: (s.seed + int64(j)*1_000_003) % period}
	case srcSine:
		return &workload.Sine{PeriodUs: int64(10e6 + 50e6*s.a), Min: 0.05, Max: 0.95}
	case srcBusy:
		return workload.Busy()
	case srcIdle:
		return workload.Idle()
	}
	return &workload.Constant{Level: s.a}
}

// materialise turns w.events into w.pending.
func (w *churnWorld) materialise() {
	for _, ev := range w.events {
		op := churnOp{ev: ev, name: vmName(ev.vm)}
		switch ev.kind {
		case evArrive:
			op.tpl = templateOf(ev.tpl)
			w.meters[op.name] = &vmMeter{tplMHz: op.tpl.FreqMHz}
			op.srcs = w.sources(ev.src, op.tpl.VCPUs, op.name)
		case evReconfig:
			op.tpl = templateOf(ev.tpl)
			m := w.meters[op.name]
			m.tplMHz = op.tpl.FreqMHz
			if grow := op.tpl.VCPUs - len(m.srcs); grow > 0 {
				op.srcs = w.sources(ev.src, grow, op.name)
			} else {
				m.srcs = m.srcs[:op.tpl.VCPUs]
			}
		}
		w.pending = append(w.pending, op)
	}
}

func (w *churnWorld) prepare(p int) {
	if w.e.measuring && !w.started {
		w.started = true
		if w.cnt != nil {
			w.cnt.reset()
		}
		w.inject0 = w.injected()
	}
	w.events = w.gen.next(p, w.events[:0])
	w.pending = w.pending[:0]
	w.materialise()
}

func (w *churnWorld) injected() int {
	n := 0
	for _, s := range platform.Sites {
		n += w.faults.Injected(s)
	}
	return n
}

// program applies the period's events, advances the machine one period,
// steps the controller and checkpoints on schedule.
func (w *churnWorld) program(p int) {
	tr := w.e.tr
	t0 := nowNs()
	w.opErr, w.ckptErr = nil, nil
	for i := range w.pending {
		op := &w.pending[i]
		switch op.ev.kind {
		case evArrive, evDepart, evReconfig:
			l := layerOpen(tr, spProvision)
			var err error
			switch op.ev.kind {
			case evArrive:
				_, err = w.mgr.Provision(op.name, op.tpl, op.srcs)
			case evDepart:
				err = w.mgr.Destroy(op.name)
			default:
				err = w.mgr.Reconfigure(op.name, op.tpl, op.srcs)
			}
			layerClose(tr, l)
			if err != nil && w.opErr == nil {
				w.opErr = fmt.Errorf("event %d on %s: %w", op.ev.kind, op.name, err)
			}
		case evFaultArm, evFaultClear:
			l := layerOpen(tr, spFaultPlan)
			site := episodeSite[op.ev.ep]
			if op.ev.kind == evFaultClear {
				w.faults.Clear(site)
			} else {
				mt := w.match[op.ev.ep]
				mt.vm, mt.vcpu = op.name, op.ev.vcpu
				if op.ev.ep == epVanished {
					mt.vcpu = -1
				}
				if err := w.faults.Plan(site, platform.FaultPlan{Persistent: true, Err: errEpisode, Match: mt.fn}); err != nil && w.opErr == nil {
					w.opErr = err
				}
			}
			layerClose(tr, l)
		}
	}
	l := layerOpen(tr, spAdvance)
	ta := nowNs()
	w.machine.Advance(churnPeriodUs)
	adv := nowNs() - ta
	layerClose(tr, l)

	l = layerOpen(tr, spStep)
	ts := nowNs()
	w.stepErr = w.ctrl.Step()
	step := nowNs() - ts
	layerClose(tr, l)

	var ckpt int64 = -1
	for i := range w.pending {
		if w.pending[i].ev.kind == evCheckpoint {
			l = layerOpen(tr, spCheckpoint)
			tc := nowNs()
			w.ckptErr = w.ctrl.Checkpoint()
			ckpt = nowNs() - tc
			layerClose(tr, l)
		}
	}
	if w.e.measuring {
		rep := w.ctrl.LastReport()
		w.core.add(&rep, float64(step)/1e3)
		w.advance = append(w.advance, float64(adv))
		w.advNs += float64(adv)
		w.hostNs += float64(nowNs() - t0)
		if ckpt >= 0 {
			w.ckptUs = append(w.ckptUs, float64(ckpt)/1e3)
		}
		if p < w.e.simEnd {
			w.simDeg += float64(rep.DegradedVCPUs)
			w.simVC += float64(rep.VCPUs)
		}
	}
}

func (w *churnWorld) check(p int) error {
	for _, op := range w.pending {
		switch op.ev.kind {
		case evArrive:
			w.names = append(w.names, op.name)
		case evDepart:
			for i, n := range w.names {
				if n == op.name {
					w.names = append(w.names[:i], w.names[i+1:]...)
					break
				}
			}
			delete(w.meters, op.name)
		}
	}
	if w.opErr != nil {
		return w.opErr
	}
	if w.stepErr != nil {
		return fmt.Errorf("Step: %w", w.stepErr)
	}
	if w.ckptErr != nil {
		return fmt.Errorf("Checkpoint: %w", w.ckptErr)
	}
	if got := w.ctrl.LastReport().VMs; got > len(w.names) {
		return fmt.Errorf("controller tracks %d VMs, host runs %d", got, len(w.names))
	}
	if err := checkCaps(w.ctrl, w.names, w.readMax); err != nil {
		return err
	}
	var t slaTally
	for _, n := range w.names {
		w.meters[n].sample(w.mgr.Get(n), churnPeriodUs, &t)
	}
	if w.e.measuring && p < w.e.simEnd {
		w.sla.vmPeriods += t.vmPeriods
		w.sla.misses += t.misses
	}
	return nil
}

func (w *churnWorld) report(r *runStats) (e2e, layers []metric) {
	const inexact = "sim, not exact at GOMAXPROCS>1 (FaultyHost Rate draws follow goroutine order, ROADMAP item 1)"
	sla := m("sla_miss_frac", "ratio", w.sla.frac())
	sla.note = inexact
	deg := m("degraded_frac", "ratio", ratio(w.simDeg, w.simVC))
	deg.note = inexact
	e2e = append(w.core.e2e(r.spec.minPeriods),
		na("cluster_step_ms_p50", "ms", "no cluster"), na("cluster_step_ms_tail", "ms", "no cluster"),
		na("admit_us_p50", "us", "no admission"), na("admit_us_tail", "us", "no admission"),
		na("admit_reject_frac", "ratio", "no admission"),
		sla, deg,
		na("nodes_used_mean", "nodes", "single node"),
		na("energy_j_per_vm_period", "J", "single node, not tracked"),
	)
	layers = append(w.core.layers(),
		m("host.advance_us_p50", "us", w.advance.p50()/1e3),
		m("host.advance_share", "ratio", ratio(w.advNs, w.hostNs)),
		m("platform.injected", "count/period", ratio(float64(w.injected()-w.inject0), float64(r.periods))),
		m("core.checkpoint_us_p50", "us", w.ckptUs.p50()),
	)
	if w.cnt != nil && r.tr != nil {
		layers = append(layers, platformLayers(w.cnt, float64(r.periods), float64(r.tr.periods), w.core.vcpus)...)
		layers = append(layers, m("core.self_us", "us/step", layerSelfUs(r.tr, spStep)))
	}
	w.core.stepUs, w.advance, w.ckptUs = nil, nil, nil
	return e2e, layers
}

func (w *churnWorld) close() {}

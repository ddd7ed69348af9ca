package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"vfreq/internal/cluster"
	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/metrics"
	"vfreq/internal/platform"
	"vfreq/internal/workload"
)

// cluster-dynamic runs a 64-node fleet (8 logical CPUs per node, half
// with chetemi and half with chiclet frequency envelopes) under Eq. 7
// BestFit admission: Poisson arrivals with exponential lifetimes keep it
// near capacity, an operator migrates a VM every few periods, Rebalance
// runs every few periods, node blackouts drive evacuation and
// re-admission, and the metrics registry is scraped on schedule.

const clusterPeriodUs = 1_000_000

var errBlackout = errors.New("vfbench: node blackout")

type hosted struct {
	meter *vmMeter
	loc   int // node index before the period's cluster Step
}

type clusterWorld struct {
	e     *env
	gen   *clusterGen
	cl    *cluster.Cluster
	reg   *metrics.Registry
	black []bool // nodes in blackout

	events    []event
	pending   []clusterOp
	vms       map[string]*hosted // VMs the fleet hosts
	names     []string           // keys of vms, for ordered walks
	stepErr   error
	opErr     error // first failed undeploy or scrape of the period
	scrape    bytes.Buffer
	capSum    []int64 // per node: Σ caps, check scratch
	settled   []bool  // per node: caps re-bounded by this Step, check scratch
	migBefore int     // Migrations() before the period's cluster Step
	readMax   []func(vm string, vcpu int) (int64, int64, error)

	// Timings.
	stepMs, admitUs, undeployUs, migrateUs, rebalMs, scrapeUs samples
	core                                                      coreStats
	ctrlNs, stepNs                                            float64
	scrapeBytes                                               float64
	stranded                                                  float64
	mig0                                                      cluster.MigrationStats
	evac0                                                     int
	started                                                   bool

	// Simulated metrics over the first minPeriods measured periods.
	sla                 slaTally
	deploys, refused    float64
	usedNodes, vmPeriod float64
	degraded, vcpus     float64
	energy0, energyJ    float64
	simPeriods          float64
}

// clusterOp is one materialised event: the VM's name, sources and
// bookkeeping are built in prepare, so program only calls the library.
type clusterOp struct {
	ev   event
	name string
	srcs []workload.Source
	vm   *hosted // arrivals
}

func clusterSpecs() []host.Spec {
	specs := make([]host.Spec, clusterNodes)
	for i := range specs {
		s := host.Chetemi()
		if i%2 == 1 {
			s = host.Chiclet()
		}
		s.Name = fmt.Sprintf("%s-%02d", s.Name, i)
		s.Cores = clusterNodeCores
		specs[i] = s
	}
	return specs
}

func buildCluster(e *env) (world, error) {
	e.benchAllocs = true
	cl, err := cluster.New(clusterSpecs(), cluster.Config{Controller: core.DefaultConfig(), FailThreshold: 2})
	if err != nil {
		return nil, err
	}
	w := &clusterWorld{e: e, gen: newClusterGen(e.seed), cl: cl, reg: metrics.NewRegistry(),
		black: make([]bool, clusterNodes), vms: map[string]*hosted{},
		capSum: make([]int64, clusterNodes), settled: make([]bool, clusterNodes)}
	cl.ArmMetrics(w.reg)
	for _, n := range cl.Nodes() {
		w.readMax = append(w.readMax, platform.NewSim(n.Manager).ReadMax) // reads quotas back
	}
	w.stepMs, w.rebalMs, w.scrapeUs = newSamples(20_000), newSamples(5_000), newSamples(5_000)
	w.admitUs, w.undeployUs, w.migrateUs = newSamples(200_000), newSamples(200_000), newSamples(20_000)
	w.core.stepUs = newSamples(300_000)
	w.events = w.gen.initial(w.events[:0])
	w.materialise()
	for i := range w.pending {
		op := &w.pending[i]
		if _, err := cl.Deploy(op.name, templateOf(op.ev.tpl), op.srcs); err == nil {
			w.admit(op)
		}
	}
	w.pending = w.pending[:0]
	return w, nil
}

func (w *clusterWorld) admit(op *clusterOp) {
	op.vm.loc = w.cl.Locate(op.name)
	w.vms[op.name] = op.vm
	w.names = append(w.names, op.name)
}

func (w *clusterWorld) materialise() {
	for _, ev := range w.events {
		op := clusterOp{ev: ev, name: "d" + strconv.Itoa(ev.vm)}
		if ev.kind == evArrive {
			op.vm = &hosted{meter: &vmMeter{tplMHz: tplShape[ev.tpl].mhz}}
			for j := 0; j < tplShape[ev.tpl].vcpus; j++ {
				ms := meter(&workload.Constant{Level: ev.src.a}, 2400)
				op.srcs = append(op.srcs, ms)
				op.vm.meter.srcs = append(op.vm.meter.srcs, ms)
			}
		}
		w.pending = append(w.pending, op)
	}
}

func (w *clusterWorld) prepare(p int) {
	if w.e.measuring && !w.started {
		w.started = true
		w.mig0 = w.cl.MigrationStats()
		w.evac0 = w.cl.Evacuations()
		w.energy0 = w.cl.ActiveEnergyJoules()
	}
	w.events = w.gen.next(p, w.events[:0])
	w.pending = w.pending[:0]
	w.materialise()
}

// program applies the period's events, then steps the fleet.
func (w *clusterWorld) program(p int) {
	tr := w.e.tr
	meas := w.e.measuring
	sim := meas && p < w.e.simEnd
	w.opErr = nil
	for i := range w.pending {
		op := &w.pending[i]
		_, live := w.vms[op.name]
		switch op.ev.kind {
		case evArrive:
			l := layerOpen(tr, spDeploy)
			t0 := nowNs()
			_, err := w.cl.Deploy(op.name, templateOf(op.ev.tpl), op.srcs)
			d := nowNs() - t0
			layerClose(tr, l)
			if meas {
				w.admitUs = append(w.admitUs, float64(d)/1e3)
			}
			if sim {
				w.deploys++
				if err != nil {
					w.refused++
				}
			}
			if err == nil {
				w.admit(op)
			}
		case evDepart:
			if !live {
				continue // refused at arrival
			}
			l := layerOpen(tr, spUndeploy)
			t0 := nowNs()
			err := w.cl.Undeploy(op.name)
			d := nowNs() - t0
			layerClose(tr, l)
			if err != nil && w.opErr == nil {
				w.opErr = fmt.Errorf("undeploying %s: %w", op.name, err)
			}
			if meas {
				w.undeployUs = append(w.undeployUs, float64(d)/1e3)
			}
			delete(w.vms, op.name)
			for k, n := range w.names {
				if n == op.name {
					w.names[k] = w.names[len(w.names)-1]
					w.names = w.names[:len(w.names)-1]
					break
				}
			}
		case evMigrate:
			if !live {
				continue
			}
			l := layerOpen(tr, spMigrate)
			t0 := nowNs()
			_, _ = w.cl.Migrate(op.name, op.ev.node) // refusals are legitimate
			d := nowNs() - t0
			layerClose(tr, l)
			if meas {
				w.migrateUs = append(w.migrateUs, float64(d)/1e3)
			}
		case evRebalance:
			l := layerOpen(tr, spRebalance)
			t0 := nowNs()
			_, _ = w.cl.Rebalance() // stranded moves are reported, not fatal
			d := nowNs() - t0
			layerClose(tr, l)
			if meas {
				w.rebalMs = append(w.rebalMs, float64(d)/1e6)
			}
		case evBlackout, evRestore:
			l := layerOpen(tr, spFailReads)
			mach := w.cl.Nodes()[op.ev.node].Machine
			if op.ev.kind == evBlackout {
				mach.FailReads("machine-", errBlackout, -1)
			} else {
				mach.ClearFileFaults()
			}
			w.black[op.ev.node] = op.ev.kind == evBlackout
			layerClose(tr, l)
		case evScrape:
			l := layerOpen(tr, spScrape)
			w.scrape.Reset()
			t0 := nowNs()
			err := w.reg.WriteText(&w.scrape)
			d := nowNs() - t0
			layerClose(tr, l)
			if err != nil && w.opErr == nil {
				w.opErr = fmt.Errorf("scraping metrics: %w", err)
			}
			if meas {
				w.scrapeUs = append(w.scrapeUs, float64(d)/1e3)
				w.scrapeBytes += float64(w.scrape.Len())
			}
		}
	}
	for _, n := range w.names {
		w.vms[n].loc = w.cl.Locate(n)
	}
	w.migBefore = w.cl.Migrations()
	l := layerOpen(tr, spClusterStep)
	t0 := nowNs()
	w.stepErr = w.cl.Step()
	d := nowNs() - t0
	layerClose(tr, l)
	if !meas {
		return
	}
	w.stepMs = append(w.stepMs, float64(d)/1e6)
	w.stepNs += float64(d)
	for _, n := range w.cl.Nodes() {
		rep := &n.LastReport
		w.core.add(rep, float64(rep.Timings.Total.Nanoseconds())/1e3)
		w.ctrlNs += float64(rep.Timings.Total.Nanoseconds())
		if sim {
			w.degraded += float64(rep.DegradedVCPUs)
			w.vcpus += float64(rep.VCPUs)
		}
	}
	w.stranded += float64(w.cl.Health().StrandedVMs)
	if sim {
		w.simPeriods++
		w.usedNodes += float64(w.cl.UsedNodes())
		w.vmPeriod += float64(len(w.names))
		w.energyJ = w.cl.ActiveEnergyJoules() - w.energy0
	}
}

// check gates the period: every hosted VM located on exactly one node,
// migration outcomes consistent, wallets non-negative, Σ caps within
// each node's capacity, and every healthy vCPU's quota in force equal
// to what its controller applied.
func (w *clusterWorld) check(p int) error {
	if w.opErr != nil {
		return w.opErr
	}
	if w.stepErr != nil {
		blackout := false
		for _, b := range w.black {
			blackout = blackout || b
		}
		if !blackout {
			return fmt.Errorf("cluster Step: %w", w.stepErr)
		}
	}
	if st := w.cl.MigrationStats(); st.Committed+st.RolledBack > st.Attempted {
		return fmt.Errorf("migrations committed %d + rolled back %d > attempted %d", st.Committed, st.RolledBack, st.Attempted)
	}
	// An evacuation commits migrations inside Step, after the target
	// controllers ran their distribute stage: adopted caps are only
	// re-bounded by the next Step. A blacked-out node cannot run the
	// stage, and a quarantined VM keeps its caps frozen. Σ caps ≤
	// capacity is checked on the nodes none of this applies to.
	evacuated := w.cl.Migrations() != w.migBefore
	nodes := w.cl.Nodes()
	total := 0
	for i, n := range nodes {
		total += len(n.Manager.List())
		w.capSum[i] = 0
		w.settled[i] = !w.black[i] && !evacuated
		for _, st := range n.Ctrl.VMs() {
			if w.cl.Locate(st.Info.Name) != i {
				return fmt.Errorf("node %d controller tracks %s, located on node %d", i, st.Info.Name, w.cl.Locate(st.Info.Name))
			}
			if st.Breaker.State != core.BreakerClosed {
				w.settled[i] = false
			}
		}
	}
	if total != len(w.names) {
		return fmt.Errorf("nodes host %d VMs, %d deployed", total, len(w.names))
	}
	var t slaTally
	for _, name := range w.names {
		h := w.vms[name]
		idx := w.cl.Locate(name)
		if idx < 0 {
			return fmt.Errorf("VM %s lost: not located", name)
		}
		n := nodes[idx]
		inst := n.Manager.Get(name)
		if inst == nil {
			return fmt.Errorf("VM %s located on node %d, which does not host it", name, idx)
		}
		h.meter.sample(inst, clusterPeriodUs, &t)
		st := n.Ctrl.VM(name)
		if st == nil {
			continue // not yet registered (adoption fell back to a cold start)
		}
		if st.CreditUs < 0 {
			return fmt.Errorf("VM %s wallet %d < 0", name, st.CreditUs)
		}
		moved := idx != h.loc // evacuated during the Step: applied next period
		cfg := n.Ctrl.Config()
		for _, v := range st.VCPUs {
			w.capSum[idx] += v.CapUs
			if v.Degraded || moved || w.black[idx] {
				continue
			}
			want := max(v.CapUs*cfg.CgroupPeriodUs/cfg.PeriodUs, cfg.MinQuotaUs)
			q, per, err := w.readMax[idx](name, v.Index)
			if err != nil {
				return fmt.Errorf("reading cpu.max of %s/vcpu%d: %w", name, v.Index, err)
			}
			if q != want || per != cfg.CgroupPeriodUs {
				return fmt.Errorf("%s/vcpu%d on node %d: quota in force %d/%d, controller applied %d/%d",
					name, v.Index, idx, q, per, want, cfg.CgroupPeriodUs)
			}
		}
	}
	for i, n := range nodes {
		if w.settled[i] && w.capSum[i] > n.Ctrl.CapacityUs() {
			return fmt.Errorf("node %d: Σ caps %d > capacity %d", i, w.capSum[i], n.Ctrl.CapacityUs())
		}
	}
	if w.e.measuring && p < w.e.simEnd {
		w.sla.vmPeriods += t.vmPeriods
		w.sla.misses += t.misses
	}
	return nil
}

// simMetrics are the simulated end-to-end metrics, deterministic for a
// seed at any GOMAXPROCS.
func (w *clusterWorld) simMetrics() []metric {
	note := "sim, exact"
	rows := []metric{
		m("admit_reject_frac", "ratio", ratio(w.refused, w.deploys)),
		m("sla_miss_frac", "ratio", w.sla.frac()),
		m("degraded_frac", "ratio", ratio(w.degraded, w.vcpus)),
		m("nodes_used_mean", "nodes", ratio(w.usedNodes, w.simPeriods)),
		m("energy_j_per_vm_period", "J", ratio(w.energyJ, w.vmPeriod)),
	}
	for i := range rows {
		rows[i].note = note
	}
	return rows
}

func (w *clusterWorld) report(r *runStats) (e2e, layers []metric) {
	minN := r.spec.minPeriods
	sim := w.simMetrics()
	e2e = append(w.core.e2e(minN*clusterNodes),
		m("cluster_step_ms_p50", "ms", w.stepMs.p50()),
		w.stepMs.tail("cluster_step_ms_tail", "ms", minN),
		m("admit_us_p50", "us", w.admitUs.p50()),
		w.admitUs.tail("admit_us_tail", "us", minN*int(clusterArrivalRate)/2),
	)
	e2e = append(e2e, sim...)
	mig := w.cl.MigrationStats()
	periods := float64(r.periods)
	layers = append(w.core.layers(),
		m("cluster.step_ms_p50", "ms", w.stepMs.p50()),
		m("cluster.node_ctrl_share", "ratio", ratio(w.ctrlNs, w.stepNs)),
		m("cluster.deploy_us_p50", "us", w.admitUs.p50()),
		m("cluster.undeploy_us_p50", "us", w.undeployUs.p50()),
		m("cluster.migrate_us_p50", "us", w.migrateUs.p50()),
		m("cluster.rebalance_ms_p50", "ms", w.rebalMs.p50()),
		m("cluster.migrate_commit_ratio", "ratio",
			ratio(float64(mig.Committed-w.mig0.Committed), float64(mig.Attempted-w.mig0.Attempted))),
		m("cluster.evacuated_vms", "count/period", ratio(float64(w.cl.Evacuations()-w.evac0), periods)),
		m("cluster.stranded_vm_periods", "count/period", ratio(w.stranded, periods)),
		m("metrics.scrape_us_p50", "us", w.scrapeUs.p50()),
		m("metrics.scrape_bytes", "B", ratio(w.scrapeBytes, float64(len(w.scrapeUs)))),
	)
	w.core.stepUs, w.stepMs, w.admitUs, w.undeployUs, w.migrateUs, w.rebalMs, w.scrapeUs = nil, nil, nil, nil, nil, nil, nil
	w.readMax = nil // the quota-reading Sims cache every path they read
	return e2e, layers
}

func (w *clusterWorld) close() { w.cl.Close() }

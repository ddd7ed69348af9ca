package main

import (
	"fmt"
	"math"

	"vfreq/internal/core"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// slaMargin is the attainment below which a VM-period counts as an SLA
// miss: delivered < 95% of what the VM was promised and asked for.
const slaMargin = 0.95

// meteredSource wraps a workload.Source and records the cycles it asked
// for: each tick's wanted CPU time (computed exactly as the scheduler
// computes it from the demand) at the frequency the thread ran at that
// tick, or at its last observed frequency when it did not run. A thread
// that got all it wanted therefore asked for exactly what it received.
type meteredSource struct {
	inner   workload.Source
	lastF   int64 // MHz the thread last ran at
	pending int64 // µs wanted this tick, not yet accounted
	asked   int64 // cycles (µs × MHz) asked since the last take
}

func meter(s workload.Source, maxMHz int64) *meteredSource {
	return &meteredSource{inner: s, lastF: maxMHz}
}

func (s *meteredSource) Demand(nowUs, dtUs int64) float64 {
	s.asked += s.pending * s.lastF // last tick's want, unserved
	d := s.inner.Demand(nowUs, dtUs)
	f := math.Min(1, math.Max(0, d))
	s.pending = int64(f * float64(dtUs))
	return d
}

func (s *meteredSource) Account(nowUs, ranUs, freqMHz int64) {
	s.inner.Account(nowUs, ranUs, freqMHz)
	s.lastF = freqMHz
	s.asked += s.pending * freqMHz
	s.pending = 0
}

// take returns the cycles asked since the last take and restarts the
// count.
func (s *meteredSource) take() int64 {
	a := s.asked + s.pending*s.lastF
	s.asked, s.pending = 0, 0
	return a
}

// vmMeter tracks one VM's attainment across periods.
type vmMeter struct {
	tplMHz int64
	srcs   []*meteredSource
	inst   *vm.Instance // instance prev was sampled from
	prev   []int64      // per-vCPU attained cycles at the last sample
}

// sample folds one period of inst into the SLA tally. A VM whose
// instance or vCPU count changed since the last sample (arrival on a
// new node, migration, reconfiguration) only restarts its baseline.
func (v *vmMeter) sample(inst *vm.Instance, periodUs int64, t *slaTally) {
	n := len(v.srcs)
	fresh := inst != v.inst || len(v.prev) != n || inst.Template().VCPUs != n
	var target float64
	for _, s := range v.srcs {
		asked := float64(s.take()) / float64(periodUs)
		if !fresh {
			target += math.Min(float64(v.tplMHz), asked)
		}
	}
	if !fresh {
		target /= float64(n)
		t.vmPeriods++
		if target > 0 && inst.MeanVCPUFreqMHz(v.prev, periodUs) < slaMargin*target {
			t.misses++
		}
	}
	v.inst = inst
	if cap(v.prev) < n {
		v.prev = make([]int64, n)
	}
	v.prev = v.prev[:n]
	for j := range v.prev {
		v.prev[j] = inst.VCPUCycles(j)
	}
}

type slaTally struct{ vmPeriods, misses int64 }

func (t slaTally) frac() float64 { return ratio(float64(t.misses), float64(t.vmPeriods)) }

// coreStats accumulates controller Step outcomes.
type coreStats struct {
	stepUs                        samples
	stage                         [6]float64 // Σ µs: monitor … apply
	steps                         float64
	vcpus                         float64 // Σ VCPUs: vCPU-periods
	retries, faults, trips, churn float64
}

func (c *coreStats) add(rep *core.StepReport, stepUs float64) {
	c.stepUs = append(c.stepUs, stepUs)
	t := rep.Timings
	for i, d := range [...]int64{t.Monitor.Nanoseconds(), t.Estimate.Nanoseconds(), t.Enforce.Nanoseconds(),
		t.Auction.Nanoseconds(), t.Distribute.Nanoseconds(), t.Apply.Nanoseconds()} {
		c.stage[i] += float64(d) / 1e3
	}
	c.steps++
	c.vcpus += float64(rep.VCPUs)
	c.retries += float64(rep.Retries)
	c.faults += float64(rep.FaultCount())
	c.trips += float64(rep.BreakerTrips)
	c.churn += float64(len(rep.Added) + len(rep.Removed) + len(rep.Reconfigured))
}

// e2e returns the controller-overhead rows; every run takes at least
// minN samples.
func (c *coreStats) e2e(minN int) []metric {
	return []metric{
		m("ctrl_overhead_us_p50", "us", c.stepUs.p50()),
		c.stepUs.tail("ctrl_overhead_us_tail", "us", minN),
	}
}

func (c *coreStats) layers() []metric {
	names := [...]string{"monitor", "estimate", "enforce", "auction", "distribute", "apply"}
	out := []metric{m("core.step_us_p50", "us", c.stepUs.p50())}
	for i, n := range names {
		out = append(out, m("core.stage."+n+"_us", "us/step", ratio(c.stage[i], c.steps)))
	}
	return append(out,
		m("core.retries", "count/step", ratio(c.retries, c.steps)),
		m("core.faults", "count/step", ratio(c.faults, c.steps)),
		m("core.breaker_trips", "count/step", ratio(c.trips, c.steps)),
		m("core.churn", "count/step", ratio(c.churn, c.steps)),
	)
}

// platformLayers turns a countingHost's counters into the platform rows
// and the write ratio of the core layer. vcpuPeriods is Σ VCPUs over the
// measured Steps; tracedPeriods the periods whose calls were timed.
func platformLayers(h *countingHost, periods, tracedPeriods, vcpuPeriods float64) []metric {
	var out []metric
	for hm := hostMethod(0); hm < nHostMethods; hm++ {
		n := "platform." + hostMethodNames[hm]
		out = append(out,
			m(n+".calls", "count/period", ratio(float64(h.calls[hm].Load()), periods)),
			m(n+".us", "us/period", ratio(float64(h.ns[hm].Load())/1e3, tracedPeriods)),
			m(n+".errors", "count/period", ratio(float64(h.errs[hm].Load()), periods)))
	}
	reads := h.calls[mUsageUs].Load() + h.calls[mThreadID].Load() + h.calls[mLastCPU].Load() + h.calls[mCoreFreqMHz].Load()
	// A batched write counts once per entry; SetMax calls beside batches
	// are the apply stage's per-entry retries.
	writes := h.batchEntries.Load() + h.calls[mSetMax].Load() + h.calls[mClearMax].Load() + h.calls[mSetBurst].Load()
	return append(out,
		m("platform.batch_entries", "count/call", ratio(float64(h.batchEntries.Load()), float64(h.calls[mBatchSetMax].Load()))),
		m("platform.reads_per_vcpu", "count", ratio(float64(reads), vcpuPeriods)),
		m("core.writes_per_vcpu", "count", ratio(float64(writes), vcpuPeriods)),
	)
}

func (h *countingHost) reset() {
	for i := range h.calls {
		h.calls[i].Store(0)
		h.errs[i].Store(0)
		h.ns[i].Store(0)
	}
	h.batchEntries.Store(0)
}

// checkCaps is the per-controller correctness gate shared by the node
// workloads: Σ CapUs ≤ CapacityUs, every wallet non-negative, and every
// healthy vCPU's quota in force equal to what the apply stage writes for
// its cap. readMax returns the (quota, period) in force.
func checkCaps(ctrl *core.Controller, names []string, readMax func(vm string, vcpu int) (int64, int64, error)) error {
	cfg := ctrl.Config()
	var sum int64
	for _, name := range names {
		st := ctrl.VM(name)
		if st == nil {
			continue // not (yet) registered
		}
		if st.CreditUs < 0 {
			return fmt.Errorf("VM %s wallet %d < 0", name, st.CreditUs)
		}
		for _, v := range st.VCPUs {
			sum += v.CapUs
			if v.Degraded {
				continue
			}
			want := v.CapUs * cfg.CgroupPeriodUs / cfg.PeriodUs
			if want < cfg.MinQuotaUs {
				want = cfg.MinQuotaUs
			}
			q, per, err := readMax(name, v.Index)
			if err != nil {
				return fmt.Errorf("reading cpu.max of %s/vcpu%d: %w", name, v.Index, err)
			}
			if q != want || per != cfg.CgroupPeriodUs {
				return fmt.Errorf("%s/vcpu%d: quota in force %d/%d, controller applied %d/%d for cap %d",
					name, v.Index, q, per, want, cfg.CgroupPeriodUs, v.CapUs)
			}
		}
	}
	if sum > ctrl.CapacityUs() {
		return fmt.Errorf("Σ caps %d > capacity %d", sum, ctrl.CapacityUs())
	}
	return nil
}

package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vfreq/internal/platform"
)

// VCPUState is the controller's per-vCPU bookkeeping, exported for
// inspection by traces and tests.
type VCPUState struct {
	VM    string
	Index int

	// Hist holds the consumption of the last n periods (u values).
	Hist *History
	// PrevUsageUs is the cumulative usage at the previous step.
	PrevUsageUs int64
	// LastU is u_{i,j,t}: cycles consumed during the last period.
	LastU int64
	// CapUs is c_{i,j,t}: the cycles allocated for the next period
	// (applied as a cgroup quota when control is enabled).
	CapUs int64
	// EstUs is e_{i,j,t}: the estimated upcoming consumption.
	EstUs int64
	// TID is the vCPU thread id.
	TID int
	// LastCore is the core the thread last ran on.
	LastCore int
	// FreqMHz is the monitored virtual frequency estimate:
	// (u/p) × frequency of the last core.
	FreqMHz float64

	// Degraded marks a vCPU whose monitor or apply stage failed during
	// the last Step (after the configured retries). A degraded vCPU is
	// excluded from estimation, credit accrual, the auction and the
	// free distribution: its cap is held at the last-known-good value
	// until the host reads succeed again.
	Degraded bool
	// FailedSteps counts consecutive Steps this vCPU has been
	// degraded; 0 when healthy. A value above 1 indicates a persistent
	// fault (dead thread, vanished cgroup) rather than a transient
	// read race. The counter holds through clean Steps until
	// Config.RecoverySteps of them pass, then resets (counted as
	// Recovered in the StepReport).
	FailedSteps int
	// CleanSteps counts consecutive clean Steps since the vCPU was
	// last degraded; only meaningful while FailedSteps > 0.
	CleanSteps int

	// warm marks a vCPU registered during the current step: the first
	// usage reading happens at registration time, so no consumption
	// delta exists until the next step. Warm vCPUs keep their initial
	// guarantee-level allocation and accrue no credits.
	warm bool

	// appliedQuotaUs/appliedPeriodUs cache the last (quota, period) the
	// apply stage successfully wrote for this vCPU, valid while
	// appliedQuotaOK holds; appliedBurstUs/appliedBurstOK do the same
	// for the burst budget. Apply skips vCPUs whose fresh quota matches
	// the cache, so a steady-state step issues no writes at all. The
	// fields are unexported on purpose: they never enter a checkpoint
	// (a restored vCPU starts with an invalid cache and writes through),
	// and invalidateApplied drops them whenever the cgroup may no longer
	// hold what was last written.
	appliedQuotaUs  int64
	appliedPeriodUs int64
	appliedQuotaOK  bool
	appliedBurstUs  int64
	appliedBurstOK  bool
}

// invalidateApplied forgets the last-applied quota and burst, forcing
// the next apply stage to write through. Called on every event after
// which the cgroup's content is no longer trusted: a degradation (the
// cgroup may have vanished and been recreated unlimited), a usage
// counter reset (VM restart rebuilds the cgroup), a recovered step
// panic, and a VM reconfiguration.
func (v *VCPUState) invalidateApplied() {
	v.appliedQuotaOK = false
	v.appliedBurstOK = false
}

// VMState is the controller's per-VM bookkeeping.
type VMState struct {
	Info platform.VMInfo
	// GuaranteeUs is C_i of Eq. 2.
	GuaranteeUs int64
	// CreditUs is the VM's credit wallet (Eq. 4), in cycles.
	CreditUs int64
	// VCPUs holds the per-vCPU states.
	VCPUs []*VCPUState
	// Breaker is the VM's circuit breaker (inert unless
	// Config.BreakerThreshold is positive).
	Breaker BreakerState
}

// Controller runs the six-stage control loop against a platform host.
type Controller struct {
	cfg  Config
	host platform.Host
	node platform.NodeInfo

	vms   map[string]*VMState
	order []string

	steps   int64
	timings StageTimings
	report  StepReport

	// store, when attached, receives a checkpoint every
	// Config.CheckpointEvery completed Steps.
	store platform.Store

	// met, when armed via ArmMetrics, receives every finished
	// StepReport; nil (the default) records nothing.
	met *ctrlMetrics

	// batch is the host's optional BatchQuotaWriter capability, detected
	// once at New; nil when the host writes quotas one vCPU at a time.
	batch platform.BatchQuotaWriter

	// stepT0 and stepBudget frame the running Step's deadline window:
	// set at the top of runStages, they bound every retry-backoff sleep
	// so backoff can never push the Step past its watchdog. Outside a
	// Step (construction, restore) the window is closed and backoff
	// does not sleep. backoffSeq numbers the jitter draws; an atomic so
	// concurrent monitor workers never contend or race on it.
	stepT0     time.Time
	stepBudget time.Duration
	backoffSeq atomic.Uint64

	// Reused per-Step scratch, so the steady-state control loop runs
	// without heap allocations: the monitor read slots, the sync-stage
	// seen set, the auction/distribution buyer list and the
	// batched-apply entry buffer all keep their backing storage across
	// Steps.
	monSlots  []monitorSlot
	seen      map[string]bool
	buyersBuf []*VCPUState
	batchBuf  []platform.VCPUQuota
}

// New creates a controller.
func New(h platform.Host, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	node := h.Node()
	if node.Cores <= 0 || node.MaxFreqMHz <= 0 {
		return nil, fmt.Errorf("core: invalid node info %+v", node)
	}
	c := &Controller{
		cfg:  cfg,
		host: h,
		node: node,
		vms:  map[string]*VMState{},
	}
	// Batched quota writing is an optional capability; without it
	// the apply stage falls back to one SetMax per dirty vCPU.
	if bw, ok := h.(platform.BatchQuotaWriter); ok {
		c.batch = bw
	}
	return c, nil
}

// Config returns the active configuration.
func (c *Controller) Config() Config { return c.cfg }

// Node returns the node description the controller operates on.
func (c *Controller) Node() platform.NodeInfo { return c.node }

// Steps returns the number of completed control iterations.
func (c *Controller) Steps() int64 { return c.steps }

// LastTimings returns the stage timings of the most recent Step.
func (c *Controller) LastTimings() StageTimings { return c.timings }

// LastReport returns the degradation report of the most recent Step.
func (c *Controller) LastReport() StepReport { return c.report }

// VM returns the state of a VM, or nil.
func (c *Controller) VM(name string) *VMState { return c.vms[name] }

// VMs returns all VM states in provisioning order.
func (c *Controller) VMs() []*VMState {
	out := make([]*VMState, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.vms[n])
	}
	return out
}

// guarantee computes C_i (Eq. 2) for a template frequency on this node.
func (c *Controller) guarantee(freqMHz int64) int64 {
	return c.cfg.PeriodUs * freqMHz / c.node.MaxFreqMHz
}

// retryUsage reads a vCPU usage counter with bounded in-step retry.
func (c *Controller) retryUsage(rep *StepReport, vm string, j int) (int64, error) {
	var usage int64
	err := c.withRetry(rep, func() error {
		t := c.callStart()
		var e error
		usage, e = c.host.UsageUs(vm, j)
		return c.budgeted(t, e)
	})
	return usage, err
}

// withRetry runs op, retrying up to Config.HostRetries extra times with
// jittered exponential backoff between attempts (Config.RetryBackoffUs,
// bounded by the remaining step deadline). A success after at least one
// failure is counted in the report. A call that blew its
// Config.CallBudgetUs is never retried — the site is slow, not flaky.
func (c *Controller) withRetry(rep *StepReport, op func() error) error {
	var err error
	for attempt := 0; attempt <= c.cfg.HostRetries; attempt++ {
		if attempt > 0 {
			c.backoffSleep(attempt)
		}
		if err = op(); err == nil {
			if attempt > 0 {
				rep.Retries++
			}
			return nil
		}
		if err == ErrCallBudget {
			return err
		}
	}
	return err
}

// validFreq checks a template frequency against this node.
func (c *Controller) validFreq(freqMHz int64) error {
	if freqMHz <= 0 {
		return fmt.Errorf("core: non-positive template frequency %d MHz", freqMHz)
	}
	if freqMHz > c.node.MaxFreqMHz {
		return fmt.Errorf("core: template frequency %d MHz above node F_MAX %d",
			freqMHz, c.node.MaxFreqMHz)
	}
	return nil
}

// newVCPUState registers one vCPU, reading its initial usage counter.
func (c *Controller) newVCPUState(rep *StepReport, st *VMState, name string, j int) (*VCPUState, error) {
	usage, err := c.retryUsage(rep, name, j)
	if err != nil {
		return nil, err
	}
	return &VCPUState{
		VM:          name,
		Index:       j,
		Hist:        NewHistory(c.cfg.HistoryLen),
		PrevUsageUs: usage,
		CapUs:       st.GuaranteeUs,
		EstUs:       st.GuaranteeUs,
		LastCore:    -1,
		warm:        true,
	}, nil
}

// releaseVCPU restores a vCPU cgroup to an unlimited quota (and a zero
// burst budget) when the controller stops managing it — on VM departure
// and on a live vCPU-count shrink. Without this, a reused cgroup path
// would inherit the dead vCPU's quota. The restore is best-effort: on a
// real departure the cgroup is usually already gone.
func (c *Controller) releaseVCPU(vm string, j int) {
	if !c.cfg.ControlEnabled {
		return
	}
	_ = c.host.ClearMax(vm, j)
	if c.cfg.BurstFraction > 0 {
		_ = c.host.SetBurst(vm, j, 0)
	}
}

// syncVMs reconciles the controller state with the host's VM list:
// registering arrivals, cleaning up departures, and applying live
// template changes (frequency and vCPU count) to running VMs. Only a
// failed VM enumeration aborts the reconcile; per-VM problems degrade
// that VM alone and are recorded in the report.
func (c *Controller) syncVMs(rep *StepReport) error {
	infos, err := c.host.ListVMs()
	if err != nil {
		return fmt.Errorf("core: listing VMs: %w", err)
	}
	if c.seen == nil {
		c.seen = make(map[string]bool, len(infos))
	} else {
		clear(c.seen)
	}
	seen := c.seen
	for _, info := range infos {
		seen[info.Name] = true
		if st, ok := c.vms[info.Name]; ok {
			c.reconcileVM(rep, st, info)
			continue
		}
		if err := c.validFreq(info.FreqMHz); err != nil {
			// Reject the VM without aborting the Step; admission is
			// retried every period in case the template is fixed.
			rep.record(Fault{VM: info.Name, VCPU: -1, Stage: "sync", Op: "template", Err: err})
			continue
		}
		st := &VMState{Info: info, GuaranteeUs: c.guarantee(info.FreqMHz)}
		ok := true
		for j := 0; j < info.VCPUs; j++ {
			v, err := c.newVCPUState(rep, st, info.Name, j)
			if err != nil {
				// Registration is atomic per VM: retry next period.
				rep.record(Fault{VM: info.Name, VCPU: j, Stage: "sync", Op: "usage", Err: err})
				ok = false
				break
			}
			st.VCPUs = append(st.VCPUs, v)
		}
		if !ok {
			continue
		}
		c.vms[info.Name] = st
		c.order = append(c.order, info.Name)
		rep.Added = append(rep.Added, info.Name)
	}
	// Drop departed VMs, releasing their quotas so reused cgroup paths
	// start unthrottled.
	for name, st := range c.vms {
		if !seen[name] {
			for _, v := range st.VCPUs {
				c.releaseVCPU(name, v.Index)
			}
			delete(c.vms, name)
			for i, n := range c.order {
				if n == name {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
			rep.Removed = append(rep.Removed, name)
		}
	}
	return nil
}

// reconcileVM applies a live template change to an already-registered VM:
// a frequency change recomputes the Eq. 2 guarantee (after re-validation
// against F_MAX), and a vCPU-count change grows or shrinks the tracked
// vCPU set.
func (c *Controller) reconcileVM(rep *StepReport, st *VMState, info platform.VMInfo) {
	reconfigured := false
	if info.FreqMHz != st.Info.FreqMHz {
		if err := c.validFreq(info.FreqMHz); err != nil {
			// Hold the last-known-good template; the fault is
			// re-reported every period until the host fixes it.
			rep.record(Fault{VM: info.Name, VCPU: -1, Stage: "sync", Op: "template", Err: err})
			info.FreqMHz = st.Info.FreqMHz
		} else {
			st.GuaranteeUs = c.guarantee(info.FreqMHz)
			reconfigured = true
		}
	}
	if info.VCPUs < len(st.VCPUs) {
		// Shrink: stop controlling the trailing vCPUs and leave their
		// cgroups unthrottled.
		for j := info.VCPUs; j < len(st.VCPUs); j++ {
			c.releaseVCPU(info.Name, j)
		}
		st.VCPUs = st.VCPUs[:info.VCPUs]
		reconfigured = true
	} else if info.VCPUs > len(st.VCPUs) {
		// Grow: register the new vCPUs warm. A failed initial read
		// stops the growth at that index; the remainder is retried
		// next period.
		for j := len(st.VCPUs); j < info.VCPUs; j++ {
			v, err := c.newVCPUState(rep, st, info.Name, j)
			if err != nil {
				rep.record(Fault{VM: info.Name, VCPU: j, Stage: "sync", Op: "usage", Err: err})
				break
			}
			st.VCPUs = append(st.VCPUs, v)
		}
		reconfigured = true
	}
	st.Info = info
	if reconfigured {
		// A reconfiguration may have rebuilt the VM's cgroup tree on the
		// host side; write the next caps through instead of trusting the
		// last-applied cache.
		for _, v := range st.VCPUs {
			v.invalidateApplied()
		}
		rep.Reconfigured = append(rep.Reconfigured, info.Name)
	}
}

// Step runs one full control iteration. In a live deployment it is called
// every PeriodUs of wall-clock time; in simulation, after advancing the
// simulated machine by one period.
//
// Step is fault-isolated: a failed read or write for one vCPU degrades
// that vCPU alone (its cap is held at the last-known-good value, the
// fault is recorded in the StepReport) while every other vCPU receives a
// fresh quota. Step returns an error only when the whole host is
// unreachable, i.e. the VM enumeration itself fails.
//
// Step is additionally watchdogged: a panic in any stage is recovered
// into a degraded step (every vCPU marked degraded, the panic recorded as
// a fault), and a step whose wall-clock time crosses the
// Config.StepDeadlineFrac budget is flagged Overrun with skipped-period
// accounting, so a periodic caller can detect and report missed ticks.
func (c *Controller) Step() error {
	rep := StepReport{Step: c.steps + 1}
	t0 := time.Now()
	err := c.runStages(&rep, t0)
	rep.Timings.Total = time.Since(t0)
	if period := time.Duration(c.cfg.PeriodUs) * time.Microsecond; rep.Timings.Total >= period {
		rep.SkippedPeriods = int64(rep.Timings.Total / period)
	}

	rep.VMs = len(c.vms)
	for _, st := range c.vms {
		// The breaker advances first: a trip quarantines the VM by
		// marking every vCPU degraded, and the health accounting below
		// must count the step the way the quarantine leaves it.
		c.updateBreaker(&rep, st)
		switch st.Breaker.State {
		case BreakerOpen:
			rep.OpenVMs++
		case BreakerHalfOpen:
			rep.HalfOpenVMs++
		}
		for _, v := range st.VCPUs {
			rep.VCPUs++
			if v.Degraded {
				v.CleanSteps = 0
				rep.DegradedVCPUs++
				continue
			}
			rep.HealthyVCPUs++
			if v.FailedSteps > 0 {
				v.CleanSteps++
				need := c.cfg.RecoverySteps
				if need < 1 {
					need = 1
				}
				if v.CleanSteps >= need {
					v.FailedSteps = 0
					v.CleanSteps = 0
					rep.Recovered++
				}
			}
		}
	}
	c.timings = rep.Timings
	c.report = rep
	if err == nil {
		c.steps++
		c.maybeCheckpoint(&rep)
		c.report = rep // pick up Checkpointed and any checkpoint fault
	}
	if c.met != nil {
		c.met.recordStep(&rep)
	}
	return err
}

// PeriodSleep returns how long a periodic caller should sleep after a
// Step that took spent wall-clock time, clamped to zero when the Step
// overran its period. The clamp matters: a naive `period - spent` sleep
// goes negative on an overrun, and callers that pass a negative duration
// to time.Sleep return immediately but then mis-attribute the overrun
// time to the next period's usage delta.
func (c *Controller) PeriodSleep(spent time.Duration) time.Duration {
	period := time.Duration(c.cfg.PeriodUs) * time.Microsecond
	if spent >= period {
		return 0
	}
	return period - spent
}

// runStages executes the six stages under the watchdog: a per-stage
// deadline check and a panic recovery that converts a crashing stage
// into a degraded (but completed) step.
func (c *Controller) runStages(rep *StepReport, t0 time.Time) (err error) {
	var deadline time.Duration
	if c.cfg.StepDeadlineFrac > 0 {
		deadline = time.Duration(float64(c.cfg.PeriodUs)*c.cfg.StepDeadlineFrac) * time.Microsecond
	}
	// Open the backoff window: retry sleeps may spend at most the
	// deadline budget (the whole period when no deadline is set).
	c.stepT0 = t0
	c.stepBudget = deadline
	if c.stepBudget <= 0 {
		c.stepBudget = time.Duration(c.cfg.PeriodUs) * time.Microsecond
	}
	checkStage := func(name string) {
		if deadline > 0 && !rep.Overrun && time.Since(t0) > deadline {
			rep.Overrun = true
			rep.OverrunStage = name
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rep.Panicked = true
		rep.record(Fault{VCPU: -1, Stage: "step", Op: "panic",
			Err: fmt.Errorf("core: recovered step panic: %v", r)})
		// The panic may have unwound mid-stage: the surviving per-vCPU
		// state is suspect, so every vCPU degrades (caps held, no credit
		// accrual) until fresh measurements rebuild it — and the
		// last-applied quota cache is dropped, since the apply stage may
		// have died between writing a cgroup and recording the write.
		for _, st := range c.vms {
			for _, v := range st.VCPUs {
				v.invalidateApplied()
				if !v.Degraded {
					v.Degraded = true
					v.FailedSteps++
				}
			}
		}
	}()
	if err := c.syncVMs(rep); err != nil {
		return err
	}
	checkStage("sync")

	tm0 := time.Now()
	c.monitor(rep)
	rep.Timings.Monitor = time.Since(tm0)
	checkStage("monitor")

	te := time.Now()
	c.estimateAll()
	rep.Timings.Estimate = time.Since(te)
	checkStage("estimate")

	tf := time.Now()
	c.enforceBase()
	rep.Timings.Enforce = time.Since(tf)
	checkStage("enforce")

	ta := time.Now()
	market := c.auction(c.market())
	rep.Timings.Auction = time.Since(ta)
	checkStage("auction")

	td := time.Now()
	c.distribute(market)
	rep.Timings.Distribute = time.Since(td)
	checkStage("distribute")

	tp := time.Now()
	if c.cfg.ControlEnabled {
		c.apply(rep)
	}
	rep.Timings.Apply = time.Since(tp)
	checkStage("apply")
	return nil
}

// monitorSlot carries one vCPU's raw host readings from the (possibly
// concurrent) read pass of the monitor stage to its sequential commit
// pass. Each worker owns exactly the slots it was handed, so the slots
// need no locking.
type monitorSlot struct {
	v       *VCPUState
	usage   int64
	freq    int64
	tid     int
	core    int
	retries int
	op      string
	err     error
}

// monitor implements stage 1: read consumption deltas, thread placement
// and core frequencies, and derive each vCPU's virtual frequency
// estimate. The thread location is read once per iteration, as discussed
// in §III-B1 of the paper.
//
// The stage is split in two passes. The read pass performs the four host
// reads per vCPU and may fan out across Config.MonitorWorkers goroutines
// (the reads are I/O-bound syscalls on a real host, so this is where the
// paper's 4-of-5 ms monitoring budget goes). The commit pass then applies
// the readings to the controller state strictly in registration order on
// the stepping goroutine, so histories, degradation accounting and report
// contents are bit-identical no matter how the reads were scheduled.
//
// The reads of one vCPU commit atomically: when any of them fails (after
// the configured retries) the vCPU keeps its previous bookkeeping and is
// marked degraded for this Step, so a later successful read observes one
// consistent cumulative delta instead of a half-updated state.
func (c *Controller) monitor(rep *StepReport) {
	slots := c.monSlots[:0]
	for _, name := range c.order {
		st := c.vms[name]
		if st.Breaker.State == BreakerOpen {
			// Quarantined: no reads at all. The vCPUs stay degraded
			// (caps held, quotas untouched) until the breaker half-opens
			// and a probe step reads them again.
			continue
		}
		for _, v := range st.VCPUs {
			slots = append(slots, monitorSlot{v: v})
		}
	}
	c.monSlots = slots

	workers := c.cfg.MonitorWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(slots) {
		workers = len(slots)
	}
	if workers <= 1 {
		for i := range slots {
			c.readVCPU(&slots[i])
		}
	} else {
		// A separate method keeps the goroutine closure out of this
		// function, so the serial path stays allocation-free (a closure
		// capturing slots would force the slice header to the heap).
		c.readParallel(slots, workers)
	}

	for i := range slots {
		c.commitVCPU(rep, &slots[i])
		slots[i].v = nil // don't pin departed VMs through the reused buffer
	}
}

// readParallel fans readVCPU over a pool of worker goroutines pulling
// slot indices from a shared atomic counter. The goroutines are
// per-Step rather than a persistent pool: the controller has no
// shutdown hook, and the spawn cost is dwarfed by the syscalls the
// workers exist to overlap.
//
// A panic inside a worker would crash the process before the Step
// watchdog's recover could see it, so each worker catches its panic and
// readParallel re-raises one on the stepping goroutine — restoring the
// exact degraded-step semantics of the serial stage.
func (c *Controller) readParallel(slots []monitorSlot, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(slots) {
					return
				}
				c.readVCPU(&slots[i])
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// readVCPU performs one vCPU's four host reads, with bounded in-step
// retry, into its slot. This is the only part of the monitor stage that
// may run concurrently; it touches nothing but the slot, the atomic
// backoff sequence and the (read-only) host. Each read is timed against
// Config.CallBudgetUs (a slow success fails the vCPU instead of
// stalling the step) and each retry waits the jittered backoff. The
// explicit loops instead of withRetry keep the hot path closure-free
// and therefore allocation-free.
func (c *Controller) readVCPU(s *monitorSlot) {
	v := s.v
	tries := c.cfg.HostRetries + 1

	ok := false
	for a := 0; a < tries; a++ {
		if a > 0 {
			c.backoffSleep(a)
		}
		t := c.callStart()
		u, err := c.host.UsageUs(v.VM, v.Index)
		if err = c.budgeted(t, err); err == nil {
			s.usage = u
			if a > 0 {
				s.retries++
			}
			ok = true
			break
		}
		s.err = err
		if err == ErrCallBudget {
			break
		}
	}
	if !ok {
		s.op = "usage"
		return
	}

	ok = false
	for a := 0; a < tries; a++ {
		if a > 0 {
			c.backoffSleep(a)
		}
		t := c.callStart()
		tid, err := c.host.ThreadID(v.VM, v.Index)
		if err = c.budgeted(t, err); err == nil {
			s.tid = tid
			if a > 0 {
				s.retries++
			}
			ok = true
			break
		}
		s.err = err
		if err == ErrCallBudget {
			break
		}
	}
	if !ok {
		s.op = "tid"
		return
	}

	ok = false
	for a := 0; a < tries; a++ {
		if a > 0 {
			c.backoffSleep(a)
		}
		t := c.callStart()
		core, err := c.host.LastCPU(s.tid)
		if err = c.budgeted(t, err); err == nil {
			s.core = core
			if a > 0 {
				s.retries++
			}
			ok = true
			break
		}
		s.err = err
		if err == ErrCallBudget {
			break
		}
	}
	if !ok {
		s.op = "lastcpu"
		return
	}

	ok = false
	for a := 0; a < tries; a++ {
		if a > 0 {
			c.backoffSleep(a)
		}
		t := c.callStart()
		freq, err := c.host.CoreFreqMHz(s.core)
		if err = c.budgeted(t, err); err == nil {
			s.freq = freq
			if a > 0 {
				s.retries++
			}
			ok = true
			break
		}
		s.err = err
		if err == ErrCallBudget {
			break
		}
	}
	if !ok {
		s.op = "freq"
		return
	}
	s.err = nil
}

// commitVCPU applies one slot's readings to the controller state. Commits
// run in registration order on the stepping goroutine only.
func (c *Controller) commitVCPU(rep *StepReport, s *monitorSlot) {
	v := s.v
	rep.Retries += s.retries
	if s.err != nil {
		v.Degraded = true
		v.FailedSteps++
		// The failed read often means the cgroup vanished; if it comes
		// back it comes back unlimited, so the quota must be rewritten.
		v.invalidateApplied()
		rep.record(Fault{VM: v.VM, VCPU: v.Index, Stage: "monitor", Op: s.op, Err: s.err})
		return
	}
	// FailedSteps holds until enough clean Steps pass; the recovery
	// accounting runs at the end of Step, after apply had its chance to
	// degrade the vCPU again.
	v.Degraded = false

	if v.warm {
		// Registered this step: the delta against the registration
		// reading spans no time yet.
		v.PrevUsageUs = s.usage
		v.warm = false
	} else {
		u := s.usage - v.PrevUsageUs
		if u < 0 {
			u = 0 // counter reset (VM restart)
			// The restart rebuilt the cgroup with an unlimited quota;
			// forget the cached write so apply restores ours.
			v.invalidateApplied()
		}
		if u > c.cfg.PeriodUs {
			// A delta spanning periods missed while degraded; clamp
			// to the per-period maximum a single thread can attain.
			u = c.cfg.PeriodUs
		}
		v.PrevUsageUs = s.usage
		v.LastU = u
		v.Hist.Push(u)
	}
	v.TID = s.tid
	v.LastCore = s.core
	v.FreqMHz = float64(v.LastU) / float64(c.cfg.PeriodUs) * float64(s.freq)
}

// market computes Eq. 6: the cycles of the next period not allocated to
// any vCPU. A negative market (guarantees oversubscribed, Eq. 7 violated
// by the placement layer) is clamped to zero.
func (c *Controller) market() int64 {
	total := int64(c.node.Cores) * c.cfg.PeriodUs
	for _, st := range c.vms {
		for _, v := range st.VCPUs {
			total -= v.CapUs
		}
	}
	if total < 0 {
		total = 0
	}
	return total
}

// buyers returns the vCPUs whose estimate exceeds their cap, i.e. those
// that want to buy cycles, grouped per VM in a stable order. Degraded
// vCPUs never buy: their estimate is stale and their cap is held.
// The returned slice aliases a buffer reused across Steps; it is valid
// until the next buyers call.
func (c *Controller) buyers() []*VCPUState {
	out := c.buyersBuf[:0]
	for _, name := range c.order {
		for _, v := range c.vms[name].VCPUs {
			if !v.Degraded && v.CapUs < v.EstUs {
				out = append(out, v)
			}
		}
	}
	c.buyersBuf = out
	return out
}

// sortByCredit orders buyers so that vCPUs of VMs with larger wallets come
// first — the paper's "priority to VMs that used this possibility of
// allocation burst less often". A stable insertion sort (buyer lists are
// bounded by the vCPUs of one node) keeps the auction path free of the
// allocations sort.SliceStable would add.
func (c *Controller) sortByCredit(buyers []*VCPUState) {
	for i := 1; i < len(buyers); i++ {
		b := buyers[i]
		cr := c.vms[b.VM].CreditUs
		j := i
		for j > 0 && c.vms[buyers[j-1].VM].CreditUs < cr {
			buyers[j] = buyers[j-1]
			j--
		}
		buyers[j] = b
	}
}

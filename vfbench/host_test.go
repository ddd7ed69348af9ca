package main

import (
	"reflect"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/host"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
)

// bareHost implements platform.Host and no optional capability.
type bareHost struct{ platform.Host }

func TestWrapHostForwardsExactlyTheWrappedCapabilities(t *testing.T) {
	m, err := host.New(host.Chiclet())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := vm.NewManager(m)
	if err != nil {
		t.Fatal(err)
	}
	sim := platform.NewSim(mgr)
	linux := &platform.Linux{Cores: 1, MaxFreqMHz: 2400}
	for _, h := range []platform.Host{sim, platform.WithFaults(sim, 1), linux, bareHost{sim}} {
		w, _ := wrapHost(h, nil)
		_, inT := h.(platform.Topology)
		_, inB := h.(platform.BatchQuotaWriter)
		_, inQ := h.(platform.QuotaReader)
		_, outT := w.(platform.Topology)
		_, outB := w.(platform.BatchQuotaWriter)
		_, outQ := w.(platform.QuotaReader)
		if inT != outT || inB != outB || inQ != outQ {
			t.Errorf("%T: wrapped capabilities (topology %v, batch %v, read %v), want (%v, %v, %v)",
				h, outT, outB, outQ, inT, inB, inQ)
		}
	}
}

// stepState is everything a controller decided in one period: its
// report (minus wall-clock timings and error values, compared as text)
// and every VM's wallet and caps.
type stepState struct {
	Report  core.StepReport
	Faults  []string
	Wallets map[string]int64
	Caps    map[string][]int64
}

func capture(c *core.Controller) stepState {
	rep := c.LastReport()
	var faults []string
	for _, f := range rep.Faults {
		faults = append(faults, f.Error())
	}
	rep.Timings = core.StageTimings{}
	rep.Faults = nil
	st := stepState{Report: rep, Faults: faults, Wallets: map[string]int64{}, Caps: map[string][]int64{}}
	for _, v := range c.VMs() {
		st.Wallets[v.Info.Name] = v.CreditUs
		for _, vc := range v.VCPUs {
			st.Caps[v.Info.Name] = append(st.Caps[v.Info.Name], vc.CapUs)
		}
	}
	return st
}

// runChurn steps node-churn for n periods and records each period's
// controller state.
func runChurn(t *testing.T, seed int64, wrap bool, n int) ([]stepState, *countingHost) {
	t.Helper()
	e := &env{seed: seed, work: t.TempDir(), simEnd: 1 << 30, wrap: wrap, monitorWorkers: 1}
	wi, err := buildChurn(e)
	if err != nil {
		t.Fatal(err)
	}
	w := wi.(*churnWorld)
	defer w.close()
	var out []stepState
	for p := 0; p < n; p++ {
		w.prepare(p)
		w.program(p)
		if err := w.check(p); err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		out = append(out, capture(w.ctrl))
	}
	return out, w.cnt
}

// TestDecoratorFidelity runs node-churn — faults, retries, breakers,
// batched apply — with and without the counting decorator on one seed
// and requires identical caps, wallets and step reports every period.
func TestDecoratorFidelity(t *testing.T) {
	const periods = 120
	plain, _ := runChurn(t, 5, false, periods)
	wrapped, cnt := runChurn(t, 5, true, periods)
	for p := range plain {
		if !reflect.DeepEqual(plain[p], wrapped[p]) {
			t.Fatalf("period %d differs with the decorator:\nplain   %+v\nwrapped %+v", p, plain[p], wrapped[p])
		}
	}
	if cnt.calls[mBatchSetMax].Load() == 0 || cnt.errs[mUsageUs].Load()+cnt.errs[mThreadID].Load() == 0 {
		t.Errorf("decorator saw no batched writes or no read faults; the run did not exercise them")
	}
}

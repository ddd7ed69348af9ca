package main

import (
	"reflect"
	"testing"
)

// churnSchedule collects the node-churn schedule of the first n periods.
func churnSchedule(seed int64, n int) []event {
	g := newChurnGen(seed)
	out := g.initial(nil)
	for p := 0; p < n; p++ {
		out = g.next(p, out)
	}
	return out
}

func clusterSchedule(seed int64, n int) []event {
	g := newClusterGen(seed)
	out := g.initial(nil)
	for p := 0; p < n; p++ {
		out = g.next(p, out)
	}
	return out
}

func linuxSchedule(seed int64, n int) []int64 {
	p := newLinuxPlan(seed)
	var out []int64
	for _, l := range p.level {
		out = append(out, int64(l*1e9))
	}
	for period := 0; period < n; period++ {
		g := 0
		for i, t := range p.tpls {
			for j := 0; j < tplShape[t].vcpus; j++ {
				out = append(out, int64(p.lastCPU(g, p.home[i], period)))
				g++
			}
		}
		for c := 0; c < linuxCores; c++ {
			out = append(out, p.coreKHz(c, period))
		}
	}
	return out
}

// kinds counts a schedule's events by kind.
func kinds(evs []event) map[evKind]int {
	k := map[evKind]int{}
	for _, e := range evs {
		k[e.kind]++
	}
	return k
}

func TestSchedulesRepeatPerSeed(t *testing.T) {
	for _, seed := range []int64{1, 7, 1 << 40} {
		if a, b := churnSchedule(seed, 400), churnSchedule(seed, 400); !reflect.DeepEqual(a, b) {
			t.Errorf("node-churn seed %d: two schedules differ", seed)
		}
		if a, b := clusterSchedule(seed, 300), clusterSchedule(seed, 300); !reflect.DeepEqual(a, b) {
			t.Errorf("cluster-dynamic seed %d: two schedules differ", seed)
		}
		if a, b := linuxSchedule(seed, 20), linuxSchedule(seed, 20); !reflect.DeepEqual(a, b) {
			t.Errorf("linux-steady seed %d: two plans differ", seed)
		}
	}
}

func TestSchedulesDifferAcrossSeeds(t *testing.T) {
	if reflect.DeepEqual(churnSchedule(1, 400), churnSchedule(2, 400)) {
		t.Error("node-churn: seeds 1 and 2 give the same schedule")
	}
	if reflect.DeepEqual(clusterSchedule(1, 300), clusterSchedule(2, 300)) {
		t.Error("cluster-dynamic: seeds 1 and 2 give the same schedule")
	}
	if reflect.DeepEqual(linuxSchedule(1, 20), linuxSchedule(2, 20)) {
		t.Error("linux-steady: seeds 1 and 2 give the same plan")
	}
}

// TestSchedulesCoverEveryEvent checks each schedule exercises what its
// workload is for: arrivals, departures, reconfigurations, fault
// episodes and checkpoints on node-churn; arrivals, departures,
// migrations, rebalances, blackouts and scrapes on cluster-dynamic.
func TestSchedulesCoverEveryEvent(t *testing.T) {
	ck := kinds(churnSchedule(3, 400))
	for _, k := range []evKind{evArrive, evDepart, evReconfig, evFaultArm, evFaultClear, evCheckpoint} {
		if ck[k] == 0 {
			t.Errorf("node-churn schedule has no event of kind %d: %v", k, ck)
		}
	}
	cl := kinds(clusterSchedule(3, 300))
	for _, k := range []evKind{evArrive, evDepart, evMigrate, evRebalance, evBlackout, evRestore, evScrape} {
		if cl[k] == 0 {
			t.Errorf("cluster-dynamic schedule has no event of kind %d: %v", k, cl)
		}
	}
}

// TestChurnKeepsNodeShape checks the node-churn population stays inside
// its vCPU band and under the Eq. 7 share on every seed.
func TestChurnKeepsNodeShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := newChurnGen(seed)
		g.initial(nil)
		for p := 0; p < 1000; p++ {
			g.next(p, nil)
			if g.vcpus < churnVCPUs-churnVCPUBand || g.vcpus > churnVCPUs+churnVCPUBand {
				t.Fatalf("seed %d period %d: %d vCPUs outside %d±%d", seed, p, g.vcpus, churnVCPUs, churnVCPUBand)
			}
			if float64(g.used) > churnMaxFrac*churnCapMHz {
				t.Fatalf("seed %d period %d: Σ vCPU·MHz %d above %g of capacity", seed, p, g.used, churnMaxFrac)
			}
		}
	}
}

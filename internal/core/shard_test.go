package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vfreq/internal/platform"
)

// topologyHost is a fakeHost exposing a scripted NUMA topology through
// the optional platform.Topology capability.
type topologyHost struct {
	*fakeHost
	nodes []int // core → NUMA node
}

func (t *topologyHost) CoreNodes() ([]int, error) { return t.nodes, nil }

var _ platform.Topology = (*topologyHost)(nil)

// TestTopologyDiscovery checks that New picks the NUMA layout up from
// the optional capability and that shardOf folds cores into it.
func TestTopologyDiscovery(t *testing.T) {
	h := &topologyHost{fakeHost: newFakeHost(), nodes: []int{0, 0, 1, 1}}
	ctrl := mustController(t, h, DefaultConfig())
	if ctrl.NUMANodes() != 2 {
		t.Fatalf("NUMANodes = %d, want 2", ctrl.NUMANodes())
	}
	cfg := DefaultConfig()
	cfg.AuctionShards = 0 // auto: one shard per node
	ctrl = mustController(t, h, cfg)
	if got := ctrl.effectiveShards(); got != 2 {
		t.Fatalf("effectiveShards = %d, want 2", got)
	}
	for core, want := range map[int]int{0: 0, 1: 0, 2: 1, 3: 1, -1: 0} {
		v := &VCPUState{LastCore: core}
		if got := ctrl.shardOf(v, 2); got != want {
			t.Fatalf("shardOf(core %d) = %d, want %d", core, got, want)
		}
	}
	// A core beyond the topology slice (hotplug raced the discovery)
	// falls back to shard 0 instead of indexing out of bounds.
	if got := ctrl.shardOf(&VCPUState{LastCore: 99}, 2); got != 0 {
		t.Fatalf("shardOf(core 99) = %d, want 0", got)
	}
	// Hosts without the capability stay single-node.
	plain := mustController(t, newFakeHost(), DefaultConfig())
	if plain.NUMANodes() != 1 {
		t.Fatalf("NUMANodes without topology = %d, want 1", plain.NUMANodes())
	}
}

// scriptedShardTwin is scriptedTwin with an auction-shard override and an
// optional scripted topology.
func scriptedShardTwin(t *testing.T, shards int, nodes []int) (*Controller, *faultScriptHost) {
	t.Helper()
	fh := newFakeHost()
	fh.node.Cores = 8
	for i := 0; i < 6; i++ {
		fh.addVM(fmt.Sprintf("vm%d", i), 2, 1200)
	}
	h := &faultScriptHost{fakeHost: fh, fails: map[string]bool{}}
	h.fails["5:vm2/0"] = true
	h.fails["6:vm2/0"] = true
	h.fails["9:vm4/1"] = true
	cfg := DefaultConfig()
	cfg.AuctionShards = shards
	cfg.BurstFraction = 0.2
	var ctrl *Controller
	if nodes != nil {
		// Layer the scripted topology over the scripted faults, so the
		// twins differ only in sharding.
		ctrl = mustController(t, &topologyFaultHost{faultScriptHost: h, nodes: nodes}, cfg)
	} else {
		ctrl = mustController(t, h, cfg)
	}
	return ctrl, h
}

// topologyFaultHost is a faultScriptHost with a scripted NUMA topology.
type topologyFaultHost struct {
	*faultScriptHost
	nodes []int
}

func (t *topologyFaultHost) CoreNodes() ([]int, error) { return t.nodes, nil }

// TestAuctionShardsOneBitIdentical is the acceptance regression: a
// controller with AuctionShards = 1 must produce bit-identical reports,
// checkpoints and quotas to the serial default, under scripted faults.
func TestAuctionShardsOneBitIdentical(t *testing.T) {
	serial, hs := scriptedTwin(t, 1) // default config: serial auction
	sharded, hp := scriptedShardTwin(t, 1, nil)
	compareTwins(t, serial, hs, sharded, hp)
}

// TestAuctionShardedSingleNodeBitIdentical forces the sharded machinery
// (two shards) on a topology where every core sits on node 0: all buyers
// land in one shard holding the full market and full wallets, which must
// reproduce the serial auction bit for bit. This exercises the split,
// ledger, merge and redistribution code rather than the shards<=1
// delegation.
func TestAuctionShardedSingleNodeBitIdentical(t *testing.T) {
	serial, hs := scriptedTwin(t, 1)
	sharded, hp := scriptedShardTwin(t, 2, []int{0, 0, 0, 0, 0, 0, 0, 0})
	compareTwins(t, serial, hs, sharded, hp)
}

// compareTwins steps both controllers through the scripted workload and
// requires bit-identical reports, checkpoints and final quotas.
func compareTwins(t *testing.T, a *Controller, ha *faultScriptHost, b *Controller, hb *faultScriptHost) {
	t.Helper()
	sawDegraded := false
	for step := int64(1); step <= 15; step++ {
		repA := advanceTwin(t, a, ha, step)
		repB := advanceTwin(t, b, hb, step)
		if s, p := reportSummary(repA), reportSummary(repB); s != p {
			t.Fatalf("step %d reports diverged:\nserial: %s\nsharded: %s", step, s, p)
		}
		if repA.DegradedVCPUs > 0 {
			sawDegraded = true
		}
		snapA, err := a.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		snapB, err := b.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		if s, p := stripTimings(snapA), stripTimings(snapB); s != p {
			t.Fatalf("step %d checkpoints diverged:\nserial:\n%s\nsharded:\n%s", step, s, p)
		}
	}
	if !sawDegraded {
		t.Fatal("fault schedule never degraded a vCPU; the test lost its teeth")
	}
	for k, v := range ha.setMax {
		if hb.setMax[k] != v {
			t.Fatalf("final quota for %s: serial %v, sharded %v", k, v, hb.setMax[k])
		}
	}
}

// auctionState snapshots the auction-relevant state of a controller so a
// twin can be driven to the same point and the outcomes compared.
type auctionState struct {
	caps, ests, cores []int64
	credits           []int64
}

// randomAuctionTwin builds two controllers over identical six-VM hosts,
// steps them once, then overwrites caps, estimates, wallets and core
// placements with the same random values on both.
func randomAuctionTwin(t *testing.T, rng *rand.Rand, shardsB int) (*Controller, *Controller, int64) {
	t.Helper()
	build := func(shards int) *Controller {
		h := newFakeHost()
		h.node.Cores = 16
		for i := 0; i < 6; i++ {
			h.addVM(fmt.Sprintf("vm%d", i), 1+i%3, 1200)
		}
		cfg := DefaultConfig()
		cfg.AuctionShards = shards
		ctrl := mustController(t, h, cfg)
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	a := build(1)
	b := build(shardsB)
	st := auctionState{}
	for _, vs := range a.VMs() {
		st.credits = append(st.credits, int64(rng.Intn(2_000_000)))
		for range vs.VCPUs {
			cap := int64(rng.Intn(500_000))
			st.caps = append(st.caps, cap)
			st.ests = append(st.ests, cap+int64(rng.Intn(500_000)))
			st.cores = append(st.cores, int64(rng.Intn(16)))
		}
	}
	apply := func(c *Controller) {
		i, k := 0, 0
		for _, vs := range c.VMs() {
			vs.CreditUs = st.credits[i]
			i++
			for _, v := range vs.VCPUs {
				v.CapUs = st.caps[k]
				v.EstUs = st.ests[k]
				v.LastCore = int(st.cores[k])
				k++
			}
		}
	}
	apply(a)
	apply(b)
	return a, b, int64(rng.Intn(3_000_000))
}

func sumCapsCredits(c *Controller) (caps, credits int64) {
	for _, vs := range c.VMs() {
		credits += vs.CreditUs
		for _, v := range vs.VCPUs {
			caps += v.CapUs
		}
	}
	return caps, credits
}

// TestAuctionShardedEquivalence is the documented relaxation of the
// sharded auction: against the serial pass, per-buyer caps MAY differ
// (shards sort buyers by ledger slices, not the global wallet), but the
// aggregates must match exactly — cycles sold, cycles left unsold, the
// total cap mass and the total credit mass. 1-vs-4 shards over many
// random market states.
func TestAuctionShardedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b, market := randomAuctionTwin(t, rng, 4)
		capsA0, credA0 := sumCapsCredits(a)
		leftA := a.auctionSharded(market) // shards=1: the serial pass
		leftB := b.auctionSharded(market)
		if leftA != leftB {
			t.Fatalf("seed %d: leftover diverged: serial %d, sharded %d", seed, leftA, leftB)
		}
		capsA, credA := sumCapsCredits(a)
		capsB, credB := sumCapsCredits(b)
		if capsA != capsB || credA != credB {
			t.Fatalf("seed %d: aggregates diverged: caps %d vs %d, credits %d vs %d",
				seed, capsA, capsB, credA, credB)
		}
		if sold := capsA - capsA0; sold != market-leftA || credA0-credA != sold {
			t.Fatalf("seed %d: conservation broke: sold %d, market %d, left %d, charged %d",
				seed, sold, market, leftA, credA0-credA)
		}
	}
}

// TestAuctionShardedPartitionReuse: the auction may run more than once
// on one stage 2–3 partition (BenchmarkAuctionSharded does). Each run
// must start from a clean shard ledger, so two runs from the same state
// see the same buyers and market split and reach the same outcome.
func TestAuctionShardedPartitionReuse(t *testing.T) {
	type outcome struct {
		left          int64
		buyers        [][]*VCPUState
		demand        []map[string]int64
		demandTotal   []int64
		caps, credits []int64
	}
	for seed := int64(0); seed < 20; seed++ {
		_, c, market := randomAuctionTwin(t, rand.New(rand.NewSource(seed)), 4)
		c.partitionStages(4)
		caps, credits := capsAndCredits(c)
		run := func() outcome {
			i, k := 0, 0
			for _, vs := range c.VMs() {
				vs.CreditUs = credits[i]
				i++
				for _, v := range vs.VCPUs {
					v.CapUs = caps[k]
					k++
				}
			}
			o := outcome{left: c.auctionSharded(market)}
			for _, s := range c.shards[:4] {
				o.buyers = append(o.buyers, slices.Clone(s.buyers))
				o.demand = append(o.demand, maps.Clone(s.demand))
				o.demandTotal = append(o.demandTotal, s.demandTotal)
			}
			o.caps, o.credits = capsAndCredits(c)
			return o
		}
		first, second := run(), run()
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("seed %d: second auction on one partition diverged:\n first  %+v\n second %+v", seed, first, second)
		}
	}
}

func capsAndCredits(c *Controller) (caps, credits []int64) {
	for _, vs := range c.VMs() {
		credits = append(credits, vs.CreditUs)
		for _, v := range vs.VCPUs {
			caps = append(caps, v.CapUs)
		}
	}
	return caps, credits
}

// TestAuctionShardedRace exercises the concurrent shard pool under the
// race detector: many VMs spanning shards, wallets shared between
// buyers on different shards, full Steps so the split/merge runs against
// live monitor state.
func TestAuctionShardedRace(t *testing.T) {
	fh := newFakeHost()
	fh.node.Cores = 16
	for c := 0; c < 16; c++ {
		fh.freq[c] = 2400
	}
	h := &topologyHost{fakeHost: fh, nodes: []int{
		0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
	}}
	for i := 0; i < 12; i++ {
		h.addVM(fmt.Sprintf("vm%d", i), 4, 1200)
	}
	// Spread vCPU threads across cores so buyers span all four shards.
	tid := 0
	for i := 0; i < 12; i++ {
		for j := 0; j < 4; j++ {
			id, err := h.ThreadID(fmt.Sprintf("vm%d", i), j)
			if err != nil {
				t.Fatal(err)
			}
			h.lastCPU[id] = tid % 16
			tid++
		}
	}
	cfg := DefaultConfig()
	cfg.AuctionShards = 0 // auto: 4 shards from the topology
	cfg.MonitorWorkers = 8
	ctrl := mustController(t, h, cfg)
	if got := ctrl.effectiveShards(); got != 4 {
		t.Fatalf("effectiveShards = %d, want 4", got)
	}
	for s := 0; s < 10; s++ {
		for i := 0; i < 12; i++ {
			for j := 0; j < 4; j++ {
				h.consume(fmt.Sprintf("vm%d", i), j, int64(200_000+(i*4+j)*9_000))
			}
		}
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
		for _, vs := range ctrl.VMs() {
			if vs.CreditUs < 0 {
				t.Fatalf("step %d: wallet of %s went negative: %d", s, vs.Info.Name, vs.CreditUs)
			}
			for _, v := range vs.VCPUs {
				if v.CapUs > v.EstUs && v.CapUs > vs.GuaranteeUs {
					t.Fatalf("step %d: %s/%d capped beyond estimate: cap %d est %d",
						s, v.VM, v.Index, v.CapUs, v.EstUs)
				}
			}
		}
	}
}

// TestAuctionShardedScratchReuse pins the steady-state behaviour of the
// shard scratch: the ledgers and buyer slices must be reused across
// Steps, not regrown (the goroutine pool is the only per-Step cost of
// the sharded path).
func TestAuctionShardedScratchReuse(t *testing.T) {
	fh := newFakeHost()
	fh.node.Cores = 8
	h := &topologyHost{fakeHost: fh, nodes: []int{0, 0, 1, 1, 2, 2, 3, 3}}
	for i := 0; i < 4; i++ {
		h.addVM(fmt.Sprintf("vm%d", i), 2, 1200)
	}
	cfg := DefaultConfig()
	cfg.AuctionShards = 4
	ctrl := mustController(t, h, cfg)
	for s := 0; s < 6; s++ {
		for i := 0; i < 4; i++ {
			h.consume(fmt.Sprintf("vm%d", i), 0, 600_000)
			h.consume(fmt.Sprintf("vm%d", i), 1, 600_000)
		}
		if err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(ctrl.shards) != 4 {
		t.Fatalf("shard pool holds %d shards, want 4", len(ctrl.shards))
	}
	first := ctrl.shards
	if err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if ctrl.shards[i] != first[i] {
			t.Fatalf("shard %d was reallocated between Steps", i)
		}
	}
}

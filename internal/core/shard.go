package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the NUMA-sharded variants of stages 2–4: one
// placement partition feeds estimation, base enforcement and the auction
// (Algorithm 1).
//
// Stages 2–3 shard trivially and exactly: estimation is per-vCPU pure,
// the Eq. 4 credit accrual is a commutative per-VM sum (accumulated
// per shard, merged at a single barrier, clamped once per VM exactly as
// the serial pass does), and the Eq. 6 market is a commutative cap sum.
// The sharded stages are therefore bit-identical to the serial ones at
// any shard count.
//
// The serial auction was the last sequential pass over every vCPU in the
// control plane. Sharding splits it by NUMA node: buyers are partitioned
// by the node of their last observed core (monitor stage placement), each
// shard auctions a demand-proportional slice of the market against
// per-shard credit ledgers, and a final sequential redistribution round
// sells whatever the shards left over to still-hungry buyers on any node.
//
// Conservation is preserved by construction:
//
//   - the market splits exactly: Σ shard shares + central remainder =
//     market, and every unsold shard share flows into the redistribution
//     round, so Σ sold + leftover = market;
//   - each VM wallet splits exactly: Σ ledger shares ≤ wallet, shares are
//     debited 1:1 per cycle bought, and unspent shares merge back before
//     the redistribution round, so wallet debits = cycles bought and no
//     wallet goes negative;
//   - shards only ever raise CapUs toward EstUs, so no cap drops below
//     the Eq. 5 base or exceeds the estimate.
//
// Race freedom: the buyer partition is disjoint (a vCPU sits in exactly
// one shard), each shard owns its ledger maps, and c.vms is only read —
// wallet mutation happens on the stepping goroutine before the shards
// start (the split) and after they join (the merge).

// auctionShard is one NUMA node's slice of a sharded stage run. Shards
// are controller scratch, reused across Steps.
type auctionShard struct {
	// vcpus is the shard's slice of the full stage 2–3 partition: every
	// tracked vCPU whose placement folds into this shard, degraded and
	// warm ones included (the market cap sum needs all of them), in
	// registration order. Filled by partitionStages.
	vcpus []*VCPUState
	// creditDelta accumulates the shard's Eq. 4 credit accruals per VM,
	// merged into the wallets at the enforce barrier.
	creditDelta map[string]int64
	// capSum is Σ CapUs over the shard's vcpus after enforcement, the
	// shard's contribution to the Eq. 6 market.
	capSum int64

	buyers []*VCPUState
	// credit is the shard's ledger: the slice of each VM's wallet this
	// shard may spend, debited as its buyers purchase cycles.
	credit map[string]int64
	// demand accumulates each VM's residual demand (Σ e − c over its
	// buyers in this shard), the wallet-split weight.
	demand      map[string]int64
	demandTotal int64
	// market is the shard's market share on entry and its unsold
	// leftover after the shard auction ran.
	market int64
}

// effectiveShards resolves Config.AuctionShards: 0 means one shard per
// discovered NUMA node.
func (c *Controller) effectiveShards() int {
	if n := c.cfg.AuctionShards; n != 0 {
		return n
	}
	return c.numaNodes
}

// shardOf maps a buyer to its shard: the NUMA node of the core it last
// ran on, folded into the shard count. Before the first placement read
// (LastCore < 0) the buyer lands on shard 0. Without a host topology the
// core index itself stands in for the node id, so a forced shard count
// still spreads buyers by placement.
func (c *Controller) shardOf(v *VCPUState, shards int) int {
	node := v.LastCore
	if node < 0 {
		return 0
	}
	if c.coreNode != nil {
		if node < len(c.coreNode) {
			node = c.coreNode[node]
		} else {
			node = 0
		}
	}
	return node % shards
}

// effectiveEstimateShards resolves Config.EstimateShards: 0 follows the
// effective auction shard count, so one knob sizes the partition that
// feeds all three sharded stages.
func (c *Controller) effectiveEstimateShards() int {
	if n := c.cfg.EstimateShards; n != 0 {
		return n
	}
	return c.effectiveShards()
}

// shardScratch returns n reset shards, growing the reused pool on demand.
func (c *Controller) shardScratch(n int) []*auctionShard {
	for len(c.shards) < n {
		c.shards = append(c.shards, &auctionShard{
			credit:      map[string]int64{},
			demand:      map[string]int64{},
			creditDelta: map[string]int64{},
		})
	}
	sh := c.shards[:n]
	for _, s := range sh {
		s.vcpus = s.vcpus[:0]
		clear(s.creditDelta)
		s.capSum = 0
		s.resetAuction()
	}
	return sh
}

// resetAuction clears the shard's stage-4 state, leaving the stage 2–3
// partition (vcpus, creditDelta, capSum) in place.
func (s *auctionShard) resetAuction() {
	s.buyers = s.buyers[:0]
	clear(s.credit)
	clear(s.demand)
	s.demandTotal = 0
	s.market = 0
}

// partitionStages splits every tracked vCPU into n shards by NUMA
// placement, preserving registration order within each shard. The
// partition then feeds stages 2, 3 and (when the shard counts agree) 4;
// it stays valid until the next Step re-reads placements.
func (c *Controller) partitionStages(n int) []*auctionShard {
	sh := c.shardScratch(n)
	for _, name := range c.order {
		for _, v := range c.vms[name].VCPUs {
			s := sh[c.shardOf(v, n)]
			s.vcpus = append(s.vcpus, v)
		}
	}
	c.partitionShards = n
	return sh
}

// estimateStage dispatches stage 2: the serial per-vCPU pass at an
// effective shard count of 1, the partitioned concurrent pass otherwise.
// Both compute exactly the same estimates — estimation reads only the
// vCPU's own state and the config.
func (c *Controller) estimateStage() {
	n := c.effectiveEstimateShards()
	if n <= 1 {
		c.estimateAll()
		return
	}
	sh := c.partitionStages(n)
	c.runShardsParallel(sh, opEstimate)
}

// enforceStage dispatches stage 3. The sharded pass accumulates the
// Eq. 4 credit accruals per shard, then merges them into the VM wallets
// at a single barrier on the stepping goroutine — integer addition is
// commutative, so the merged wallet is bit-identical to the serial
// accrual — and applies the credit-cap clamp once per VM, exactly where
// the serial pass applies it.
func (c *Controller) enforceStage() {
	if c.partitionShards == 0 {
		c.enforceBase()
		return
	}
	sh := c.shards[:c.partitionShards]
	c.runShardsParallel(sh, opEnforce)
	for _, name := range c.order {
		st := c.vms[name]
		for _, s := range sh {
			if d := s.creditDelta[name]; d != 0 {
				st.CreditUs += d
			}
		}
		if c.cfg.CreditCapPeriods > 0 {
			cap := c.cfg.CreditCapPeriods * st.GuaranteeUs * int64(len(st.VCPUs))
			if st.CreditUs > cap {
				st.CreditUs = cap
			}
		}
	}
}

// marketStage computes Eq. 6, from the per-shard cap sums when the
// partitioned enforce pass ran (the same commutative sum the serial
// market() takes over the VM map).
func (c *Controller) marketStage() int64 {
	if c.partitionShards == 0 {
		return c.market()
	}
	total := int64(c.node.Cores) * c.cfg.PeriodUs
	for _, s := range c.shards[:c.partitionShards] {
		total -= s.capSum
	}
	if total < 0 {
		total = 0
	}
	return total
}

// runShardEstimate runs stage 2 over one shard's vCPUs. It writes only
// EstUs of vCPUs this shard owns.
func (c *Controller) runShardEstimate(s *auctionShard) {
	for _, v := range s.vcpus {
		if v.Degraded {
			continue
		}
		v.EstUs = c.estimate(v)
	}
}

// runShardEnforce runs stage 3 over one shard's vCPUs: Eq. 4 accruals
// into the shard-local delta map, the Eq. 5 cap per vCPU, and the cap
// sum for the market. c.vms is only read; every write lands in state
// this shard owns.
func (c *Controller) runShardEnforce(s *auctionShard) {
	for _, v := range s.vcpus {
		st := c.vms[v.VM]
		if !v.Degraded {
			if v.Hist.Len() > 0 && st.GuaranteeUs > v.LastU {
				s.creditDelta[v.VM] += st.GuaranteeUs - v.LastU
			}
			if v.EstUs < st.GuaranteeUs {
				v.CapUs = v.EstUs
			} else {
				v.CapUs = st.GuaranteeUs
			}
		}
		s.capSum += v.CapUs
	}
}

// mulDiv returns ⌊a·b/d⌋ exactly, for 0 ≤ b ≤ d and a ≥ 0, without ever
// computing the full product a·b: with an unbounded wallet
// (CreditCapPeriods = 0) the credit × demand product can exceed int64,
// and the overflowed negative "share" would MINT credit at the wallet
// split (wallet −= share with share < 0) and leak it across the barrier
// merge. Decomposing a = q·d + r gives ⌊a·b/d⌋ = q·b + ⌊r·b/d⌋ with
// every intermediate bounded by max(a, d²).
func mulDiv(a, b, d int64) int64 {
	return (a/d)*b + (a%d)*b/d
}

// auctionSharded implements stage 4 with NUMA sharding. At an effective
// shard count of 1 it is the serial auction, bit for bit. It returns the
// cycles left unsold, exactly like auction.
func (c *Controller) auctionSharded(market int64) int64 {
	shards := c.effectiveShards()
	if shards <= 1 {
		return c.auction(market)
	}
	if market <= 0 {
		return 0
	}
	if c.vmDemand == nil {
		c.vmDemand = make(map[string]int64, len(c.vms))
		c.vmWallet = make(map[string]int64, len(c.vms))
	} else {
		clear(c.vmDemand)
		clear(c.vmWallet)
	}

	// Partition buyers by NUMA node and accumulate the split weights.
	// When the stage 2–3 partition exists at the same shard count, the
	// buyers fall out of it by filtering each shard's vCPU slice (same
	// placement, same registration order); otherwise partition the
	// buyer list from scratch.
	var sh []*auctionShard
	var totalDemand int64
	if shards == c.partitionShards {
		sh = c.shards[:shards]
		nbuyers := 0
		for _, s := range sh {
			s.resetAuction()
			for _, v := range s.vcpus {
				if v.Degraded || v.CapUs >= v.EstUs {
					continue
				}
				s.buyers = append(s.buyers, v)
				d := v.EstUs - v.CapUs
				s.demand[v.VM] += d
				s.demandTotal += d
				c.vmDemand[v.VM] += d
				totalDemand += d
				nbuyers++
			}
		}
		if nbuyers == 0 {
			return market
		}
	} else {
		c.partitionShards = 0 // the stale partition must not outlive this layout
		buyers := c.buyers()
		if len(buyers) == 0 {
			return market
		}
		sh = c.shardScratch(shards)
		for _, v := range buyers {
			s := sh[c.shardOf(v, shards)]
			s.buyers = append(s.buyers, v)
			d := v.EstUs - v.CapUs
			s.demand[v.VM] += d
			s.demandTotal += d
			c.vmDemand[v.VM] += d
			totalDemand += d
		}
	}
	for vm := range c.vmDemand {
		c.vmWallet[vm] = c.vms[vm].CreditUs
	}

	// Split the market and the wallets proportionally to residual
	// demand. Integer-floor remainders are not lost: the market
	// remainder goes straight to the redistribution round and the
	// wallet remainder stays spendable in the central wallet. Both
	// splits divide through mulDiv — the plain products overflow int64
	// once wallets grow unbounded, and an overflowed share would mint
	// credit instead of conserving it.
	leftover := market
	for _, s := range sh {
		if s.demandTotal == 0 {
			continue
		}
		s.market = mulDiv(market, s.demandTotal, totalDemand)
		leftover -= s.market
		for vm, d := range s.demand {
			st := c.vms[vm]
			share := mulDiv(c.vmWallet[vm], d, c.vmDemand[vm])
			if share > st.CreditUs {
				share = st.CreditUs
			}
			s.credit[vm] = share
			st.CreditUs -= share
		}
	}

	c.runShardsParallel(sh, opAuction)

	// Barrier merge: unsold shard markets join the central leftover and
	// unspent ledger credit returns to the wallets.
	for _, s := range sh {
		leftover += s.market
		for vm, cr := range s.credit {
			if cr > 0 {
				c.vms[vm].CreditUs += cr
			}
		}
	}

	// Cross-node redistribution round: one sequential Algorithm 1 pass
	// sells the merged leftover to still-hungry buyers on any node,
	// paced by the same window and charged to the merged wallets.
	return c.auction(leftover)
}

// shardOp selects the per-shard pass runShardsParallel fans out. An op
// code instead of a func value keeps the serial fallback free of the
// heap allocation a method-value capture would cost.
type shardOp int

const (
	opAuction shardOp = iota
	opEstimate
	opEnforce
)

// runShard executes one pass over one shard.
func (c *Controller) runShard(s *auctionShard, op shardOp) {
	switch op {
	case opAuction:
		c.runShardAuction(s)
	case opEstimate:
		c.runShardEstimate(s)
	case opEnforce:
		c.runShardEnforce(s)
	}
}

// runShardsParallel fans a per-shard pass over a worker pool sized like
// the monitor stage's (Config.MonitorWorkers, 0 = GOMAXPROCS), pulling
// shard indices from a shared atomic counter. Worker panics are
// re-raised on the stepping goroutine so the Step watchdog sees them,
// mirroring readParallel.
func (c *Controller) runShardsParallel(sh []*auctionShard, op shardOp) {
	workers := c.cfg.MonitorWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sh) {
		workers = len(sh)
	}
	if workers <= 1 {
		for _, s := range sh {
			c.runShard(s, op)
		}
		return
	}
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
				if i >= len(sh) {
					return
				}
				c.runShard(sh[i], op)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runShardAuction runs Algorithm 1 over one shard: the same windowed
// rounds as the serial auction, with the shard ledger standing in for
// the VM wallets. It touches only the shard's own buyers and ledger, so
// shards run concurrently without locks.
func (c *Controller) runShardAuction(s *auctionShard) {
	market := s.market
	buyers := s.buyers
	for market > 0 && len(buyers) > 0 {
		sortByLedgerCredit(buyers, s.credit)
		progress := false
		next := buyers[:0]
		for _, v := range buyers {
			if market <= 0 {
				next = append(next, v)
				continue
			}
			amount := c.cfg.WindowUs
			if want := v.EstUs - v.CapUs; amount > want {
				amount = want
			}
			if amount > market {
				amount = market
			}
			if cr := s.credit[v.VM]; amount > cr {
				amount = cr
			}
			if amount > 0 {
				v.CapUs += amount
				s.credit[v.VM] -= amount
				market -= amount
				progress = true
			}
			if v.CapUs < v.EstUs && s.credit[v.VM] > 0 {
				next = append(next, v)
			}
		}
		buyers = next
		if !progress {
			break // nobody in this shard can afford anything
		}
	}
	s.market = market
}

// sortByLedgerCredit is sortByCredit against a shard ledger: buyers of
// VMs with more unspent shard credit come first, stably.
func sortByLedgerCredit(buyers []*VCPUState, credit map[string]int64) {
	for i := 1; i < len(buyers); i++ {
		b := buyers[i]
		cr := credit[b.VM]
		j := i
		for j > 0 && credit[buyers[j-1].VM] < cr {
			buyers[j] = buyers[j-1]
			j--
		}
		buyers[j] = b
	}
}

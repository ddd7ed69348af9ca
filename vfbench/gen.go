package main

import (
	"math"
	"math/rand"
)

// This file holds the seeded input generators. Every generator is a pure
// function of the seed (and of the period index it is asked about): the
// program under test never feeds back into what the generators emit, so
// two runs with one seed receive the same inputs however fast or slow
// the host is. Arrivals follow simulated periods, not wall time.

// mix is splitmix64's finaliser, the counter hash used for per-period
// draws that must not depend on call order.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash3 mixes a seed with three counters.
func hash3(seed int64, a, b, c uint64) uint64 {
	return mix(uint64(seed) ^ mix(a^mix(b^mix(c))))
}

// Template indices shared by the generators; templates() in the
// workloads maps them onto vm.Small/Medium/Large.
const (
	tplSmall = iota
	tplMedium
	tplLarge
	nTemplates
)

// tplShape is the (vCPUs, MHz) of each template index, mirrored from
// vm.Small/Medium/Large so the generators stay free of program imports.
var tplShape = [nTemplates]struct {
	vcpus int
	mhz   int64
}{{2, 500}, {4, 1200}, {4, 1800}}

func tplDemandMHz(t int) int64 { return int64(tplShape[t].vcpus) * tplShape[t].mhz }

// ---------------------------------------------------------------------
// linux-steady: the Table II mix on chetemi, steady per-vCPU demand.

const (
	linuxCores     = 40
	linuxMaxMHz    = 2400
	linuxSmallVMs  = 20
	linuxLargeVMs  = 10
	linuxJitterKHz = 16_000 // chetemi's 16 MHz frequency jitter
	linuxLoad      = 0.8    // Σ vCPU demand as a share of the node's cores
)

// linuxPlan is the fixed shape of the linux-steady node: VM templates
// in provisioning order and each vCPU's base demand level.
type linuxPlan struct {
	seed  int64
	tpls  []int     // per VM
	home  []int     // per VM: NUMA node its vCPUs run on
	level []float64 // per global vCPU: fraction of every period it wants
}

func newLinuxPlan(seed int64) linuxPlan {
	p := linuxPlan{seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < linuxSmallVMs+linuxLargeVMs; i++ {
		t := tplSmall
		if i >= linuxSmallVMs {
			t = tplLarge
		}
		p.tpls = append(p.tpls, t)
		p.home = append(p.home, i%2)
		for j := 0; j < tplShape[t].vcpus; j++ {
			l := 0.2 + 0.8*rng.Float64()
			p.level = append(p.level, l)
			sum += l
		}
	}
	// Scale the levels to a fixed total below the node's capacity: every
	// seed then asks for the same CPU time, no vCPU is starved by its
	// neighbours, and the caps converge.
	for g := range p.level {
		p.level[g] *= linuxLoad * linuxCores / sum
	}
	return p
}

// lastCPU is the core vCPU g (of a VM homed on NUMA node home) last ran
// on during period p: any core of its home node.
func (p *linuxPlan) lastCPU(g, home, period int) int {
	per := linuxCores / 2
	return home*per + int(hash3(p.seed, 2, uint64(g), uint64(period))%uint64(per))
}

// coreKHz is core c's scaling_cur_freq during period p: F_MAX with
// chetemi's jitter.
func (p *linuxPlan) coreKHz(c, period int) int64 {
	j := int64(hash3(p.seed, 3, uint64(c), uint64(period))%(2*linuxJitterKHz+1)) - linuxJitterKHz
	return linuxMaxMHz*1000 + j
}

// ---------------------------------------------------------------------
// Events shared by the node-churn and cluster-dynamic schedules.

type evKind uint8

const (
	evArrive     evKind = iota // provision / deploy VM id with tpl and src
	evDepart                   // destroy / undeploy VM id
	evReconfig                 // node-churn: retemplate VM id to tpl (grow sources src)
	evFaultArm                 // node-churn: arm fault episode kind on VM id, vCPU vcpu
	evFaultClear               // node-churn: clear fault episode kind
	evCheckpoint               // node-churn: Controller.Checkpoint
	evMigrate                  // cluster: operator Migrate of VM id to node
	evRebalance                // cluster: Rebalance
	evBlackout                 // cluster: FailReads on node
	evRestore                  // cluster: ClearFileFaults on node
	evScrape                   // cluster: Registry.WriteText
)

// Source kinds: the repo's workload sources.
const (
	srcConstant = iota
	srcBusy
	srcIdle
	srcWebServer
	srcMapReduce
	srcCompress
	srcOpenSSL
	srcBursty
	srcSine
)

// srcSpec describes the workload sources of one VM (or of the vCPUs a
// reconfiguration adds); the benchmark materialises it into
// workload.Source values.
type srcSpec struct {
	kind int
	a, b float64 // kind parameters, each in [0, 1)
	seed int64
}

type event struct {
	kind evKind
	vm   int // VM id
	tpl  int
	src  srcSpec
	node int
	ep   int // fault episode kind
	vcpu int
}

// Fault episode kinds of node-churn, each a Persistent, Match-scoped
// FaultyHost plan on its own site.
const (
	epDeadThread = iota // ThreadID of one vCPU fails
	epVanished          // UsageUs of every vCPU of one VM fails
	epWriteFail         // SetMax of one vCPU fails
	nEpisodes
)

// ---------------------------------------------------------------------
// node-churn: one overcommitted chiclet node with seeded churn, phased
// demand and fault episodes.

const (
	churnCores        = 64
	churnMaxMHz       = 2400
	churnCapMHz       = churnCores * churnMaxMHz
	churnMaxFrac      = 0.88 // Σ vCPU·MHz stays below this share of capacity
	churnVCPUs        = 108  // initial vCPUs: 1.7× overcommitted
	churnVCPUBand     = 4    // churn keeps the vCPU count within ± this
	churnEvery        = 3    // periods between churn events
	churnEpisodeEvery = 10   // periods between fault-episode draws
	churnCheckpoint   = 5    // periods between checkpoints
)

// churnTpls and churnSrcs are the cycles arrivals draw templates and
// source kinds from, each from a seeded offset: the population keeps
// the same mix on every seed, so seeds vary the schedule, not the size
// of the node's work.
var (
	churnTpls = [...]int{tplSmall, tplMedium, tplSmall, tplLarge, tplSmall, tplMedium, tplLarge, tplSmall, tplMedium, tplSmall}
	churnSrcs = [...]int{srcWebServer, srcMapReduce, srcCompress, srcOpenSSL, srcBursty, srcSine, srcBusy, srcIdle}
)

// churnGen emits the node-churn schedule. Its notion of the live VM set
// is its own: the node admits every arrival, so it always matches the
// program's.
type churnGen struct {
	rng          *rand.Rand
	tplOff       int
	srcOff       int
	nextID       int
	live         []int // VM ids, arrival order
	tpl          map[int]int
	used         int64 // Σ vCPU·MHz of live VMs
	vcpus        int   // Σ vCPUs of live VMs
	epEnd, epVM  [nEpisodes]int
	reconfigured int
}

func newChurnGen(seed int64) *churnGen {
	g := &churnGen{rng: rand.New(rand.NewSource(seed)), tpl: map[int]int{}}
	g.tplOff, g.srcOff = g.rng.Intn(len(churnTpls)), g.rng.Intn(len(churnSrcs))
	for i := range g.epEnd {
		g.epEnd[i] = -1
	}
	return g
}

func (g *churnGen) fits(dMHz int64, dVCPUs int) bool {
	return float64(g.used+dMHz) <= churnMaxFrac*churnCapMHz && g.vcpus+dVCPUs <= churnVCPUs+churnVCPUBand
}

func (g *churnGen) srcFor(k int) srcSpec {
	return srcSpec{kind: churnSrcs[k%len(churnSrcs)], a: g.rng.Float64(), b: g.rng.Float64(), seed: g.rng.Int63()}
}

func (g *churnGen) arrive(out []event) []event {
	id := g.nextID
	g.nextID++
	t := churnTpls[(id+g.tplOff)%len(churnTpls)]
	g.live = append(g.live, id)
	g.tpl[id] = t
	g.used += tplDemandMHz(t)
	g.vcpus += tplShape[t].vcpus
	return append(out, event{kind: evArrive, vm: id, tpl: t, src: g.srcFor(id*3 + g.srcOff)})
}

func (g *churnGen) depart(out []event) []event {
	k := g.rng.Intn(len(g.live))
	id := g.live[k]
	g.live = append(g.live[:k], g.live[k+1:]...)
	g.used -= tplDemandMHz(g.tpl[id])
	g.vcpus -= tplShape[g.tpl[id]].vcpus
	delete(g.tpl, id)
	return append(out, event{kind: evDepart, vm: id})
}

// initial emits the arrivals that fill the node before the first period.
func (g *churnGen) initial(out []event) []event {
	for g.vcpus < churnVCPUs && g.fits(tplDemandMHz(tplLarge), 4) {
		out = g.arrive(out)
	}
	return out
}

// next appends the events of period p.
func (g *churnGen) next(p int, out []event) []event {
	for ep := range g.epEnd {
		if g.epEnd[ep] == p {
			g.epEnd[ep] = -1
			out = append(out, event{kind: evFaultClear, ep: ep, vm: g.epVM[ep]})
		}
	}
	if p%churnEvery == 0 {
		canArrive := g.fits(tplDemandMHz(tplLarge), 4)
		canDepart := g.vcpus-4 >= churnVCPUs-churnVCPUBand
		switch u := g.rng.Float64(); {
		case u < 0.4 && canArrive, u < 0.75 && !canDepart && canArrive:
			out = g.arrive(out)
		case u < 0.75 && canDepart:
			out = g.depart(out)
		default:
			id := g.live[g.rng.Intn(len(g.live))]
			old := g.tpl[id]
			t := churnTpls[(g.reconfigured+g.tplOff)%len(churnTpls)]
			g.reconfigured++
			dv := tplShape[t].vcpus - tplShape[old].vcpus
			if t != old && g.fits(tplDemandMHz(t)-tplDemandMHz(old), dv) && g.vcpus+dv >= churnVCPUs-churnVCPUBand {
				g.tpl[id] = t
				g.used += tplDemandMHz(t) - tplDemandMHz(old)
				g.vcpus += dv
				out = append(out, event{kind: evReconfig, vm: id, tpl: t, src: g.srcFor(g.rng.Intn(len(churnSrcs)))})
			}
		}
	}
	if p%churnEpisodeEvery == 0 && g.rng.Float64() < 0.7 {
		ep := g.rng.Intn(nEpisodes)
		if g.epEnd[ep] < 0 {
			id := g.live[g.rng.Intn(len(g.live))]
			g.epEnd[ep] = p + 4 + g.rng.Intn(9)
			g.epVM[ep] = id
			out = append(out, event{kind: evFaultArm, ep: ep, vm: id,
				vcpu: g.rng.Intn(tplShape[g.tpl[id]].vcpus)})
		}
	}
	if p%churnCheckpoint == 0 {
		out = append(out, event{kind: evCheckpoint})
	}
	return out
}

// ---------------------------------------------------------------------
// cluster-dynamic: Poisson arrivals with exponential lifetimes onto a
// 64-node fleet, operator migrations, rebalances, blackouts, scrapes.

const (
	clusterNodes        = 64
	clusterNodeCores    = 8
	clusterArrivalRate  = 7.0  // mean arrivals per period
	clusterMeanLife     = 60.0 // mean lifetime, periods
	clusterMaxLife      = 480
	clusterInitialVMs   = 380
	clusterMigrateEvery = 5
	clusterRebalEvery   = 10
	clusterBlackEvery   = 25
	clusterBlackLen     = 6
	clusterScrapeEvery  = 10
)

// clusterGen emits the cluster-dynamic schedule. Departures are keyed by
// arrival: a VM the cluster refused still "departs" in the schedule, and
// the benchmark skips events naming a VM it does not host.
type clusterGen struct {
	rng     *rand.Rand
	nextID  int
	live    []int        // schedule-live VM ids
	pos     map[int]int  // id → index in live
	departs [][]int      // ring of departure lists, indexed by period % len
	black   map[int]bool // nodes in blackout (schedule view)
	blackAt []int        // restore period per node (-1 none)
}

func newClusterGen(seed int64) *clusterGen {
	g := &clusterGen{
		rng:     rand.New(rand.NewSource(seed)),
		pos:     map[int]int{},
		departs: make([][]int, clusterMaxLife+1),
		black:   map[int]bool{},
		blackAt: make([]int, clusterNodes),
	}
	for i := range g.blackAt {
		g.blackAt[i] = -1
	}
	return g
}

func (g *clusterGen) drawTpl() int {
	switch u := g.rng.Float64(); {
	case u < 0.6:
		return tplSmall
	case u < 0.85:
		return tplMedium
	default:
		return tplLarge
	}
}

// arrive schedules one VM arriving at period p (p < 0: initial fill).
func (g *clusterGen) arrive(p int, out []event) []event {
	id := g.nextID
	g.nextID++
	life := 1 + int(g.rng.ExpFloat64()*clusterMeanLife)
	if life > clusterMaxLife {
		life = clusterMaxLife
	}
	end := p + life
	if end < 0 {
		end = 0
	}
	slot := end % len(g.departs)
	g.departs[slot] = append(g.departs[slot], id)
	g.pos[id] = len(g.live)
	g.live = append(g.live, id)
	// Mostly steady, busy VMs: a constant level in [0.5, 1).
	src := srcSpec{kind: srcConstant, a: 0.5 + 0.5*g.rng.Float64(), seed: g.rng.Int63()}
	return append(out, event{kind: evArrive, vm: id, tpl: g.drawTpl(), src: src})
}

func (g *clusterGen) remove(id int) {
	k, ok := g.pos[id]
	if !ok {
		return
	}
	last := g.live[len(g.live)-1]
	g.live[k] = last
	g.pos[last] = k
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, id)
}

// initial emits the arrivals that fill the fleet before the first period.
func (g *clusterGen) initial(out []event) []event {
	for i := 0; i < clusterInitialVMs; i++ {
		out = g.arrive(-1, out)
	}
	return out
}

// poisson draws a Poisson variate by Knuth's method (small means).
func (g *clusterGen) poisson(mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= g.rng.Float64()
		if p < l {
			return k
		}
		k++
	}
}

// next appends the events of period p.
func (g *clusterGen) next(p int, out []event) []event {
	slot := p % len(g.departs)
	for _, id := range g.departs[slot] {
		g.remove(id)
		out = append(out, event{kind: evDepart, vm: id})
	}
	g.departs[slot] = g.departs[slot][:0]
	for n, at := range g.blackAt {
		if at == p {
			g.blackAt[n] = -1
			delete(g.black, n)
			out = append(out, event{kind: evRestore, node: n})
		}
	}
	for k := g.poisson(clusterArrivalRate); k > 0; k-- {
		out = g.arrive(p, out)
	}
	if p%clusterMigrateEvery == 0 && len(g.live) > 0 {
		out = append(out, event{kind: evMigrate, vm: g.live[g.rng.Intn(len(g.live))], node: g.rng.Intn(clusterNodes)})
	}
	if p%clusterRebalEvery == 3 {
		out = append(out, event{kind: evRebalance})
	}
	if p%clusterBlackEvery == 7 {
		n := g.rng.Intn(clusterNodes)
		if !g.black[n] {
			g.black[n] = true
			g.blackAt[n] = p + clusterBlackLen
			out = append(out, event{kind: evBlackout, node: n})
		}
	}
	if p%clusterScrapeEvery == 1 {
		out = append(out, event{kind: evScrape})
	}
	return out
}
